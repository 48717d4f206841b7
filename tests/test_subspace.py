"""Tests for covariance estimation, smoothing, and spectral angle search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issacsim.array_channel import (
    PathSet,
    ReceivedBlock,
    TransmissionConfig,
    UlaGeometry,
    generate_pilot_sequence,
    simulate_reception,
    steering_vector,
    synthesize_channel,
)
from issacsim.errors import EstimationError
from issacsim.subspace import (
    Pseudospectrum,
    SampleCovariance,
    SubarrayPlan,
    bartlett_spectrum,
    find_peaks,
    forward_backward_smooth,
    hermitian_eigendecomposition,
    make_angle_grid,
    music_spectrum,
    sample_covariance,
    subarray_covariances,
)

GRID = make_angle_grid(step_deg=0.05)
GRID_STEP = np.deg2rad(0.05)


def _block_from_snapshots(snapshots, pilot_len=0):
    """Wrap raw snapshot columns in a ReceivedBlock for covariance tests."""
    snapshots = np.asarray(snapshots, dtype=complex)
    m = snapshots.shape[0]
    pilot = snapshots[:, :pilot_len]
    data = snapshots[:, pilot_len:]
    return ReceivedBlock(
        pilot_obs=pilot, data_obs=data,
        pilot_seq=np.ones(pilot.shape[1], dtype=complex))


def _noiseless_block(h, num_snapshots, seed=0, pilot_len=2):
    config = TransmissionConfig(pilot_len=pilot_len,
                                data_len=num_snapshots - pilot_len,
                                pilot_power=1.0, data_power=1.0, noise_var=0.0)
    return simulate_reception(h, config, generate_pilot_sequence(pilot_len),
                              np.random.default_rng(seed))


def _random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (raw + raw.conj().T)


def _numerical_rank(matrix, rel_tol=1e-8):
    eigvals = np.linalg.eigvalsh(matrix)
    return int(np.sum(eigvals > rel_tol * eigvals.max()))


class TestSampleCovariance:
    def test_single_snapshot(self):
        block = _block_from_snapshots(np.array([[1.0], [0.0]]), pilot_len=1)
        cov = sample_covariance(block)
        np.testing.assert_allclose(cov.matrix, [[1, 0], [0, 0]], atol=1e-14)
        assert cov.num_snapshots == 1

    def test_noiseless_los_rank_one(self):
        geom = UlaGeometry(4)
        theta = 0.3
        h = synthesize_channel(geom, PathSet(angles=[theta], gains=[1.0 - 0.7j]))
        cov = sample_covariance(_noiseless_block(h, 20))
        assert _numerical_rank(cov.matrix) == 1
        eigvals, eigvecs = hermitian_eigendecomposition(cov)
        principal = eigvecs[:, -1]
        steer = steering_vector(geom, theta)
        overlap = abs(np.vdot(principal, steer)) / (np.linalg.norm(steer))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_pure_noise_approaches_identity(self):
        config = TransmissionConfig(pilot_len=0, data_len=10**5,
                                    pilot_power=1.0, data_power=1.0, noise_var=1.0)
        block = simulate_reception(np.zeros(4, dtype=complex), config,
                                   np.ones(0, dtype=complex),
                                   np.random.default_rng(8))
        cov = sample_covariance(block)
        assert np.linalg.norm(cov.matrix - np.eye(4)) < 0.05

    def test_hermitian_enforced(self):
        block = _block_from_snapshots(
            np.random.default_rng(0).standard_normal((3, 10)) + 0j)
        cov = sample_covariance(block)
        assert np.linalg.norm(cov.matrix - cov.matrix.conj().T) == 0.0

    def test_non_hermitian_input_rejected(self):
        with pytest.raises(ValueError):
            SampleCovariance(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]),
                             num_snapshots=1)

    def test_factory_outputs_positive_semidefinite(self):
        # snapshot averages, subarray slices, and the smoothed matrix are
        # all PSD up to eigensolver noise
        rng = np.random.default_rng(23)
        snapshots = rng.standard_normal((6, 30)) + 1j * rng.standard_normal((6, 30))
        block = _block_from_snapshots(snapshots)
        plan = SubarrayPlan(num_subarrays=2, subarray_size=5, parent_size=6)
        covs = [sample_covariance(block), *subarray_covariances(block, plan)]
        covs.append(forward_backward_smooth(subarray_covariances(block, plan)))
        for cov in covs:
            eigvals = np.linalg.eigvalsh(cov.matrix)
            assert eigvals.min() >= -1e-12 * max(eigvals.max(), 1.0)


class TestEigendecomposition:
    def test_identity(self):
        cov = SampleCovariance(matrix=np.eye(3), num_snapshots=1)
        eigvals, _ = hermitian_eigendecomposition(cov)
        np.testing.assert_allclose(eigvals, 1.0, atol=1e-14)

    def test_diagonal(self):
        cov = SampleCovariance(matrix=np.diag([1.0, 2.0, 3.0]), num_snapshots=1)
        eigvals, eigvecs = hermitian_eigendecomposition(cov)
        np.testing.assert_allclose(eigvals, [1, 2, 3], atol=1e-14)
        np.testing.assert_allclose(np.abs(eigvecs), np.eye(3), atol=1e-14)

    def test_rank_one_steering(self):
        geom = UlaGeometry(4)
        steer = steering_vector(geom, 0.25)
        cov = SampleCovariance(matrix=np.outer(steer, steer.conj()), num_snapshots=1)
        eigvals, _ = hermitian_eigendecomposition(cov)
        np.testing.assert_allclose(eigvals, [0, 0, 0, 4], atol=1e-12)

    @given(seed=st.integers(min_value=0, max_value=10**6),
           dim=st.integers(min_value=2, max_value=24))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed, dim):
        matrix = _random_hermitian(np.random.default_rng(seed), dim)
        cov = SampleCovariance(matrix=matrix, num_snapshots=1)
        eigvals, eigvecs = hermitian_eigendecomposition(cov)
        assert np.all(np.diff(eigvals) >= 0)
        recon = eigvecs @ np.diag(eigvals) @ eigvecs.conj().T
        scale = np.linalg.norm(matrix)
        assert np.linalg.norm(recon - matrix) < 1e-10 * max(scale, 1.0)
        gram = eigvecs.conj().T @ eigvecs
        assert np.linalg.norm(gram - np.eye(dim)) < 1e-10


class TestBartlett:
    def test_peak_height_on_matched_angle(self):
        geom = UlaGeometry(6)
        theta = np.deg2rad(14.0)
        steer = steering_vector(geom, theta)
        c = 2.5
        cov = SampleCovariance(matrix=c * np.outer(steer, steer.conj()),
                               num_snapshots=1)
        spectrum = bartlett_spectrum(cov, np.array([theta]))
        assert spectrum.values[0] == pytest.approx(c * 36.0, rel=1e-10)

    def test_zero_at_orthogonal_shift(self):
        m = 8
        geom = UlaGeometry(m)
        theta = np.deg2rad(5.0)
        shifted = np.arcsin(np.sin(theta) + 2.0 / m)
        steer = steering_vector(geom, theta)
        cov = SampleCovariance(matrix=np.outer(steer, steer.conj()), num_snapshots=1)
        spectrum = bartlett_spectrum(cov, np.array([shifted]))
        assert spectrum.values[0] < 1e-9

    def test_identity_gives_constant(self):
        cov = SampleCovariance(matrix=np.eye(5), num_snapshots=1)
        spectrum = bartlett_spectrum(cov, GRID)
        np.testing.assert_allclose(spectrum.values, 5.0, atol=1e-9)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_argmax_invariant_to_scaling(self, scale, seed):
        matrix = _random_hermitian(np.random.default_rng(seed), 6)
        matrix = matrix @ matrix.conj().T  # PSD
        one = bartlett_spectrum(SampleCovariance(matrix, 1), GRID)
        two = bartlett_spectrum(SampleCovariance(scale * matrix, 1), GRID)
        assert np.argmax(one.values) == np.argmax(two.values)


class TestSubarrays:
    def test_degenerate_plan_matches_full_covariance(self):
        rng = np.random.default_rng(4)
        block = _block_from_snapshots(
            rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12)))
        plan = SubarrayPlan(num_subarrays=1, subarray_size=4, parent_size=4)
        covs = subarray_covariances(block, plan)
        assert len(covs) == 1
        np.testing.assert_allclose(covs[0].matrix,
                                   sample_covariance(block).matrix, atol=1e-12)

    def test_noiseless_los_subarrays_rank_one(self):
        geom = UlaGeometry(4)
        theta = 0.2
        h = synthesize_channel(geom, PathSet(angles=[theta], gains=[1.0]))
        block = _noiseless_block(h, 16)
        plan = SubarrayPlan(num_subarrays=2, subarray_size=3, parent_size=4)
        sub_geom = UlaGeometry(3)
        sub_steer = steering_vector(sub_geom, theta)
        for cov in subarray_covariances(block, plan):
            assert _numerical_rank(cov.matrix) == 1
            _, eigvecs = hermitian_eigendecomposition(cov)
            overlap = abs(np.vdot(eigvecs[:, -1], sub_steer)) / np.linalg.norm(sub_steer)
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_coherent_paths_keep_subarrays_rank_one(self):
        # one coherent snapshot direction: every slice is still rank one
        geom = UlaGeometry(8)
        paths = PathSet(angles=np.deg2rad([-20.0, 30.0]),
                        gains=[1.0 + 0.3j, 0.7 - 0.5j])
        h = synthesize_channel(geom, paths)
        block = _noiseless_block(h, 40)
        plan = SubarrayPlan(num_subarrays=3, subarray_size=6, parent_size=8)
        covs = subarray_covariances(block, plan)
        assert len(covs) == 3
        for cov in covs:
            assert _numerical_rank(cov.matrix) == 1

    def test_inconsistent_plan_rejected(self):
        with pytest.raises(ValueError):
            SubarrayPlan(num_subarrays=2, subarray_size=4, parent_size=4)

    def test_for_sources_default(self):
        plan = SubarrayPlan.for_sources(32, 3)
        assert plan.num_subarrays == 3
        assert plan.subarray_size == 30
        with pytest.raises(ValueError):
            SubarrayPlan.for_sources(4, 4)


class TestForwardBackwardSmooth:
    def test_identity_unchanged(self):
        cov = SampleCovariance(matrix=np.eye(4), num_snapshots=1)
        out = forward_backward_smooth([cov])
        np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-14)

    def test_real_persymmetric_unchanged(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = forward_backward_smooth([SampleCovariance(matrix, 1)])
        np.testing.assert_allclose(out.matrix, matrix, atol=1e-14)

    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 10),
           count=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_output_hermitian_and_persymmetric(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        covs = [SampleCovariance(_random_hermitian(rng, dim), 1)
                for _ in range(count)]
        out = forward_backward_smooth(covs).matrix
        exchange = np.fliplr(np.eye(dim))
        assert np.linalg.norm(out - out.conj().T) < 1e-12 * max(np.linalg.norm(out), 1)
        mirrored = exchange @ out.conj() @ exchange
        assert np.linalg.norm(mirrored - out) < 1e-12 * max(np.linalg.norm(out), 1)

    def test_restores_rank_for_coherent_pair(self):
        geom = UlaGeometry(8)
        paths = PathSet(angles=np.deg2rad([-20.0, 30.0]),
                        gains=[1.0 + 0.3j, 0.7 - 0.5j])
        h = synthesize_channel(geom, paths)
        block = _noiseless_block(h, 40)
        plan = SubarrayPlan(num_subarrays=3, subarray_size=6, parent_size=8)
        smoothed = forward_backward_smooth(subarray_covariances(block, plan))
        assert smoothed.dim == 6
        assert _numerical_rank(smoothed.matrix) == 2

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ValueError):
            forward_backward_smooth([])
        with pytest.raises(ValueError):
            forward_backward_smooth([
                SampleCovariance(np.eye(2), 1), SampleCovariance(np.eye(3), 1)])


class TestMusicSpectrum:
    def test_noiseless_peak_at_source(self):
        geom = UlaGeometry(5)
        theta = np.deg2rad(21.03)
        steer = steering_vector(geom, theta)
        cov = SampleCovariance(matrix=np.outer(steer, steer.conj()), num_snapshots=1)
        spectrum = music_spectrum(cov, 1, GRID)
        peak_angle = GRID[np.argmax(spectrum.values)]
        assert abs(peak_angle - theta) <= GRID_STEP

    def test_identity_flat(self):
        cov = SampleCovariance(matrix=np.eye(4), num_snapshots=1)
        spectrum = music_spectrum(cov, 1, GRID)
        assert spectrum.values.max() / spectrum.values.min() == pytest.approx(1.0, rel=1e-9)

    def test_two_source_analytic_covariance(self):
        m = 8
        geom = UlaGeometry(m)
        thetas = np.deg2rad([-25.17, 18.46])
        matrix = 0.5 * np.eye(m)
        for theta in thetas:
            steer = steering_vector(geom, theta)
            matrix = matrix + np.outer(steer, steer.conj())
        spectrum = music_spectrum(SampleCovariance(matrix, 1), 2, GRID)
        peaks = find_peaks(spectrum, 2)
        np.testing.assert_allclose(peaks.angles, thetas, atol=GRID_STEP)

    def test_matches_noise_subspace_form(self):
        # the shipped complement evaluation must equal 1/||E_n^H a||^2
        rng = np.random.default_rng(17)
        matrix = _random_hermitian(rng, 6)
        matrix = matrix @ matrix.conj().T
        cov = SampleCovariance(matrix, 1)
        grid = make_angle_grid(step_deg=1.0)
        spectrum = music_spectrum(cov, 2, grid)
        eigvals, eigvecs = hermitian_eigendecomposition(cov)
        noise_basis = eigvecs[:, :4]
        steer = np.exp(1j * np.pi * np.outer(np.arange(6), np.sin(grid)))
        denom = np.sum(np.abs(noise_basis.conj().T @ steer) ** 2, axis=0)
        np.testing.assert_allclose(spectrum.values, 1.0 / denom, rtol=1e-9)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_peaks_invariant_to_scaling(self, scale):
        geom = UlaGeometry(6)
        steer = steering_vector(geom, 0.4)
        matrix = np.outer(steer, steer.conj()) + 0.3 * np.eye(6)
        one = music_spectrum(SampleCovariance(matrix, 1), 1, GRID)
        two = music_spectrum(SampleCovariance(scale * matrix, 1), 1, GRID)
        assert np.argmax(one.values) == np.argmax(two.values)

    def test_too_many_sources_rejected(self):
        cov = SampleCovariance(np.eye(3), 1)
        with pytest.raises(ValueError):
            music_spectrum(cov, 3, GRID)


class TestFindPeaks:
    def test_single_peak(self):
        grid = make_angle_grid(step_deg=1.0)
        values = np.zeros_like(grid)
        values[40] = 1.0
        found = find_peaks(Pseudospectrum(grid=grid, values=values), 1)
        np.testing.assert_array_equal(found.angles, [grid[40]])

    def test_equal_peaks_tie_break_smaller_angle(self):
        grid = make_angle_grid(step_deg=1.0)
        values = np.zeros_like(grid)
        values[30] = 2.0
        values[90] = 2.0
        found = find_peaks(Pseudospectrum(grid=grid, values=values), 1)
        assert found.angles[0] == grid[30]

    def test_plateau_center(self):
        grid = make_angle_grid(step_deg=1.0)
        values = np.zeros_like(grid)
        values[50:53] = 1.0
        found = find_peaks(Pseudospectrum(grid=grid, values=values), 1)
        assert found.angles[0] == grid[51]

    def test_quadratic_refinement_hits_vertex(self):
        grid = make_angle_grid(step_deg=0.5)
        vertex = grid[60] + 0.37 * (grid[61] - grid[60])
        values = 10.0 - (grid - vertex) ** 2
        found = find_peaks(Pseudospectrum(grid=grid, values=values), 1)
        step = grid[1] - grid[0]
        assert abs(found.angles[0] - vertex) < 0.1 * step

    def test_results_sorted_by_angle(self):
        grid = make_angle_grid(step_deg=1.0)
        values = np.zeros_like(grid)
        values[120] = 3.0
        values[20] = 1.0
        found = find_peaks(Pseudospectrum(grid=grid, values=values), 2)
        np.testing.assert_array_equal(found.angles, [grid[20], grid[120]])

    def test_too_few_maxima_raises(self):
        grid = make_angle_grid(step_deg=1.0)
        values = np.linspace(0.0, 1.0, grid.size)  # monotone, no interior max
        with pytest.raises(EstimationError):
            find_peaks(Pseudospectrum(grid=grid, values=values), 1)

    def test_grid_too_small_rejected(self):
        grid = np.array([-0.1, 0.0, 0.1])
        with pytest.raises(ValueError):
            find_peaks(Pseudospectrum(grid=grid, values=np.zeros(3)), 2)


class TestConsistency:
    def test_bartlett_and_music_agree_noiseless_single_source(self):
        geom = UlaGeometry(8)
        theta = np.deg2rad(-33.3)
        h = synthesize_channel(geom, PathSet(angles=[theta], gains=[0.8 + 0.1j]))
        block = _noiseless_block(h, 30)
        cov = sample_covariance(block)
        bartlett_peak = find_peaks(bartlett_spectrum(cov, GRID), 1).angles[0]
        music_peak = find_peaks(music_spectrum(cov, 1, GRID), 1).angles[0]
        assert abs(bartlett_peak - theta) <= GRID_STEP
        assert abs(music_peak - theta) <= GRID_STEP
        assert abs(bartlett_peak - music_peak) <= GRID_STEP
