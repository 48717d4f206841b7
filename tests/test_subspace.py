"""Tests for covariance estimation, smoothing, and spectral angle search."""

import collections
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import issacsim.subspace as subspace
from issacsim.array_channel import (
    PathSet,
    ReceivedBlock,
    TransmissionConfig,
    UlaGeometry,
    generate_pilot_sequence,
    simulate_reception,
    steering_matrix,
    synthesize_channel,
)
from issacsim.errors import EstimationError
from issacsim.simharness import ExperimentSpec, draw_realization, run_trial
from issacsim.subspace import (
    Pseudospectrum,
    SampleCovariance,
    ScanGrid,
    SubarrayPlan,
    _diagonal_sums,
    _local_maxima,
    bartlett_spectrum,
    find_peaks,
    forward_backward_smooth,
    hermitian_eigendecomposition,
    make_angle_grid,
    music_spectrum,
    sample_covariance,
    scan_angles,
    subarray_covariances,
)

# Its tables serve the forms of up to 8 x 8 matrices that the tests scan.
GRID = make_angle_grid(step_deg=0.05, order=7)
GRID_STEP = np.deg2rad(0.05)


def _steer(geom, theta):
    """The steering vector of one angle: a one-column steering matrix."""
    return steering_matrix(geom, [theta])[:, 0]


def _sample_spectrum(angles, values):
    """A spectrum over the angles whose polynomial is flat (only c_0 = 0):
    the Newton steps leave every peak at its grid sample."""
    return Pseudospectrum(grid=ScanGrid(angles, 0), values=values, sums=np.zeros(1))


def _grid_index(grid, angles):
    """Index of the grid sample nearest to each angle."""
    return np.abs(np.subtract.outer(angles, grid)).argmin(axis=1).tolist()


def _block_from_snapshots(snapshots, pilot_len=0):
    """Wrap raw snapshot columns in a ReceivedBlock for covariance tests."""
    snapshots = np.asarray(snapshots, dtype=complex)
    m = snapshots.shape[0]
    pilot = snapshots[:, :pilot_len]
    data = snapshots[:, pilot_len:]
    return ReceivedBlock(
        pilot_obs=pilot, data_gram=data @ data.conj().T, data_len=data.shape[1],
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
        steer = _steer(geom, theta)
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

    def test_block_without_data_gram_rejected(self):
        h = synthesize_channel(UlaGeometry(4), PathSet(angles=[0.3], gains=[1.0]))
        config = TransmissionConfig(pilot_len=2, data_len=10, pilot_power=1.0,
                                    data_power=1.0, noise_var=1.0)
        block = simulate_reception(h, config, generate_pilot_sequence(2),
                                   np.random.default_rng(0), data=False)
        with pytest.raises(ValueError, match="no data Gram"):
            sample_covariance(block)

    def test_non_hermitian_input_rejected(self):
        with pytest.raises(ValueError):
            SampleCovariance(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]),
                             num_snapshots=1)
        with pytest.raises(ValueError, match="covariance must be a square matrix"):
            SampleCovariance(matrix=np.ones((2, 3)), num_snapshots=1)

    def test_block_without_snapshots_rejected(self):
        block = ReceivedBlock(pilot_obs=np.zeros((3, 0)), data_gram=np.zeros((3, 3)),
                              data_len=0, pilot_seq=np.ones(0))
        with pytest.raises(ValueError, match="block holds no snapshots"):
            sample_covariance(block)

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
        steer = _steer(geom, 0.25)
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


# The einsum form bartlett_spectrum used before its diagonal-sum form, and
# the signal-subspace projection music_spectrum used before it, kept as the
# references the polynomial evaluation must match to rounding.
def _reference_bartlett_values(cov, grid):
    steer = np.exp(1j * np.pi * np.outer(np.arange(cov.dim), np.sin(grid)))
    values = np.einsum("mg,mg->g", steer.conj(), cov.matrix @ steer).real
    return np.maximum(values, 0.0)


def _reference_music_values(cov, num_sources, grid):
    _, eigvecs = hermitian_eigendecomposition(cov)
    signal_basis = eigvecs[:, cov.dim - num_sources:]
    steer = np.exp(1j * np.pi * np.arange(cov.dim)[:, None] * np.sin(grid)[None, :])
    projected = signal_basis.conj().T @ steer
    denom = cov.dim - np.sum(np.abs(projected) ** 2, axis=0)
    return 1.0 / np.maximum(denom, 1e-12)


class TestBartlett:
    def test_peak_height_on_matched_angle(self):
        geom = UlaGeometry(6)
        theta = np.deg2rad(14.0)
        steer = _steer(geom, theta)
        c = 2.5
        cov = SampleCovariance(matrix=c * np.outer(steer, steer.conj()),
                               num_snapshots=1)
        spectrum = bartlett_spectrum(cov, ScanGrid([theta], 5))
        assert spectrum.values[0] == pytest.approx(c * 36.0, rel=1e-10)

    def test_zero_at_orthogonal_shift(self):
        m = 8
        geom = UlaGeometry(m)
        theta = np.deg2rad(5.0)
        shifted = np.arcsin(np.sin(theta) + 2.0 / m)
        steer = _steer(geom, theta)
        cov = SampleCovariance(matrix=np.outer(steer, steer.conj()), num_snapshots=1)
        spectrum = bartlett_spectrum(cov, ScanGrid([shifted], m - 1))
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

    @pytest.mark.parametrize("scan, reference", [
        (bartlett_spectrum, _reference_bartlett_values),
        (lambda cov, grid: music_spectrum(cov, 1, grid),
         lambda cov, grid: _reference_music_values(cov, 1, grid)),
    ], ids=["bartlett", "music"])
    def test_grid_copies_its_angles(self, scan, reference):
        # Changing the source array afterwards changes neither the grid's
        # angles nor its rows, so a scan still matches the reference at the
        # angles the grid was built from.
        steer = _steer(UlaGeometry(6), 0.3)
        cov = SampleCovariance(np.outer(steer, steer.conj()) + np.eye(6), 1)
        source = np.array(make_angle_grid(step_deg=1.0, order=5).angles)
        built = source.copy()
        grid = ScanGrid(source, 5)
        rows = grid.rows.copy()
        source += 0.25 * np.deg2rad(1.0)
        np.testing.assert_array_equal(grid.angles, built)
        np.testing.assert_array_equal(grid.rows, rows)
        np.testing.assert_allclose(scan(cov, grid).values, reference(cov, built), rtol=1e-9)

    def test_temporary_grids_hold_no_rows_table(self):
        # Each grid owns its 31 x G rows and nothing else keeps them: after
        # ten temporary grids are scanned, less than the smallest grid's
        # table stays allocated.
        cov = SampleCovariance(np.eye(32), 1)
        steps = [0.02 + 0.0005 * i for i in range(10)]
        table_bytes = 31 * len(make_angle_grid(max(steps), 0)) * 16
        tracemalloc.start()
        try:
            for step in steps:
                bartlett_spectrum(cov, make_angle_grid(step, 31))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < table_bytes


class TestScanGridChecks:
    @pytest.mark.parametrize("angles, message", [
        ([], r"^scan angles must be a nonempty one-dimensional array, got shape \(0,\)$"),
        (0.3, r"^scan angles must be a nonempty one-dimensional array, got shape \(\)$"),
        ([[-0.2, 0.1], [0.2, 0.3]],
         r"^scan angles must be a nonempty one-dimensional array, got shape \(2, 2\)$"),
        ([-0.1, np.pi / 2], r"^scan angle 1\.5707963\d* rad outside the open interval"),
        ([-2.0, 0.0], r"^scan angle -2\.0 rad outside the open interval"),
        ([0.0, np.nan, 0.2], r"^scan angle nan rad outside the open interval"),
        ([0.2, 0.1], r"^scan angles must be strictly increasing$"),
        ([0.1, 0.1, 0.2], r"^scan angles must be strictly increasing$"),
        # Decreasing: a Newton step would clip to an inverted bracket.
        (np.deg2rad(np.linspace(89.0, -89.0, 357)), r"^scan angles must be strictly increasing$"),
    ], ids=["empty", "scalar", "two_dim", "edge", "outside", "nan", "decreasing_pair",
            "repeated", "decreasing_grid"])
    def test_rejects_grid_the_peak_search_cannot_use(self, angles, message):
        with pytest.raises(ValueError, match=message):
            ScanGrid(angles, 7)

    def test_single_angle_accepted(self):
        assert len(ScanGrid([0.3], 7)) == 1


class TestBartlettPolynomial:
    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 12),
           grid=st.lists(st.floats(min_value=-1.55, max_value=1.55),
                         min_size=1, max_size=25, unique=True).map(sorted))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_quadratic_form(self, seed, dim, grid):
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, dim + 1))
        factor = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        matrix = factor @ factor.conj().T
        steers = [_steer(UlaGeometry(dim), theta) for theta in grid]
        expected = [np.vdot(steer, matrix @ steer).real for steer in steers]
        values = bartlett_spectrum(SampleCovariance(matrix, 1), ScanGrid(grid, dim - 1)).values
        np.testing.assert_allclose(values, expected, rtol=0,
                                   atol=1e-12 * np.trace(matrix).real)

    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 12),
           offset=st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_diagonal_sums_match_traces(self, seed, dim, offset):
        # offset > 0 passes a non-contiguous principal submatrix view, as
        # subarray_covariances returns.
        rng = np.random.default_rng(seed)
        size = dim + offset
        parent = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        matrix = parent[offset:, offset:]
        expected = [np.trace(matrix, k) for k in range(dim)]
        np.testing.assert_allclose(_diagonal_sums(matrix), expected, rtol=1e-13,
                                   atol=1e-14 * np.abs(matrix).sum())

    @pytest.mark.parametrize("mode, num_paths", [("los", 1), ("multipath", 3)])
    def test_seeded_trials_match_reference(self, mode, num_paths):
        # Values and diagonal sums against the reference forms and traces of
        # Q (R for Bartlett, E_s E_s^H for MUSIC), and the refined peaks
        # against those found from the reference spectrum and traces.
        spec = ExperimentSpec(mode=mode, num_paths=num_paths, base_seed=11)
        grid = spec.angle_grid
        for trial in range(25):
            _, _, block = draw_realization(spec, trial)
            if spec.multipath:
                plan = SubarrayPlan.for_sources(spec.num_antennas, num_paths)
                cov = forward_backward_smooth(subarray_covariances(block, plan))
                spectrum = music_spectrum(cov, num_paths, grid)
                expected = _reference_music_values(cov, num_paths, grid.angles)
                np.testing.assert_allclose(spectrum.values, expected, rtol=1e-11)
                signal_basis = hermitian_eigendecomposition(cov)[1][:, -num_paths:]
                form = signal_basis @ signal_basis.conj().T
            else:
                cov = sample_covariance(block)
                spectrum = bartlett_spectrum(cov, grid)
                expected = _reference_bartlett_values(cov, grid.angles)
                np.testing.assert_allclose(spectrum.values, expected, rtol=0,
                                           atol=1e-13 * expected.max())
                form = cov.matrix
            traces = np.array([np.trace(form, k) for k in range(cov.dim)])
            np.testing.assert_allclose(spectrum.sums, traces, rtol=0,
                                       atol=1e-13 * np.abs(traces).sum())
            reference = find_peaks(
                Pseudospectrum(grid=grid, values=expected, sums=traces), num_paths)
            np.testing.assert_allclose(find_peaks(spectrum, num_paths).angles,
                                       reference.angles, rtol=0, atol=1e-12)


class TestSubarrays:
    def test_principal_submatrices_of_sample_covariance(self):
        rng = np.random.default_rng(31)
        snapshots = rng.standard_normal((7, 20)) + 1j * rng.standard_normal((7, 20))
        block = _block_from_snapshots(snapshots, pilot_len=4)
        plan = SubarrayPlan(num_subarrays=3, subarray_size=5, parent_size=7)
        full = sample_covariance(block).matrix
        covs = subarray_covariances(block, plan)
        assert len(covs) == 3
        for p, cov in enumerate(covs):
            np.testing.assert_array_equal(cov.matrix, full[p:p + 5, p:p + 5])
            assert cov.num_snapshots == 20
            # the per-subarray snapshot product, up to summation order
            sub = snapshots[p:p + 5]
            np.testing.assert_allclose(cov.matrix, sub @ sub.conj().T / 20,
                                       rtol=0, atol=1e-14 * np.abs(full).max())

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
        sub_steer = _steer(sub_geom, theta)
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
        with pytest.raises(ValueError, match="plan dimensions must be positive"):
            SubarrayPlan(num_subarrays=0, subarray_size=5, parent_size=4)
        # A consistent plan for another array size does not fit the block.
        block = _block_from_snapshots(np.ones((6, 4)))
        with pytest.raises(ValueError, match="plan parent_size does not match the block"):
            subarray_covariances(block, SubarrayPlan.for_sources(8, 2))

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


class TestTracedStageContract:
    """The benchmark tracer wraps the public stage functions where they are
    looked up and binds some argument names; these are the shapes it needs."""

    def _count_calls(self, monkeypatch, names):
        calls = collections.Counter()
        for name in names:
            original = getattr(subspace, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(subspace, name, counted)
        return calls

    @pytest.mark.parametrize("mode, num_paths, expected", [
        ("multipath", 3, {"subarray_covariances": 1, "sample_covariance": 1,
                          "forward_backward_smooth": 1, "music_spectrum": 1,
                          "hermitian_eigendecomposition": 1, "find_peaks": 1}),
        ("los", 1, {"sample_covariance": 1, "bartlett_spectrum": 1, "find_peaks": 1}),
    ])
    def test_one_scan_calls_each_stage_once(self, monkeypatch, mode, num_paths, expected):
        spec = ExperimentSpec(mode=mode, num_paths=num_paths, base_seed=3)
        block = draw_realization(spec, 0)[2]
        stages = ("subarray_covariances", "sample_covariance", "forward_backward_smooth",
                  "music_spectrum", "hermitian_eigendecomposition", "bartlett_spectrum",
                  "find_peaks")
        calls = self._count_calls(monkeypatch, stages)
        scan_angles(block, num_paths, spec.angle_grid, spec.plan)
        assert dict(calls) == expected

    def test_bound_argument_names(self):
        def names(fn):
            return list(inspect.signature(fn).parameters)

        assert names(music_spectrum) == ["cov", "num_sources", "grid"]
        assert names(bartlett_spectrum) == ["cov", "grid"]
        assert names(simulate_reception)[:2] == ["h", "config"]
        assert names(run_trial) == ["spec", "trial_index"]
        assert names(scan_angles) == ["block", "num_sources", "grid", "plan"]


class TestMusicSpectrum:
    def test_noiseless_peak_at_source(self):
        geom = UlaGeometry(5)
        theta = np.deg2rad(21.03)
        steer = _steer(geom, theta)
        cov = SampleCovariance(matrix=np.outer(steer, steer.conj()), num_snapshots=1)
        spectrum = music_spectrum(cov, 1, GRID)
        peak_angle = GRID.angles[np.argmax(spectrum.values)]
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
            steer = _steer(geom, theta)
            matrix = matrix + np.outer(steer, steer.conj())
        spectrum = music_spectrum(SampleCovariance(matrix, 1), 2, GRID)
        peaks = find_peaks(spectrum, 2)
        np.testing.assert_allclose(peaks.angles, thetas, atol=GRID_STEP)

    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 12),
           data=st.data(),
           grid=st.lists(st.floats(min_value=-1.55, max_value=1.55),
                         min_size=1, max_size=25, unique=True).map(sorted))
    @settings(max_examples=200, deadline=None)
    def test_matches_noise_subspace_form(self, seed, dim, data, grid):
        # the shipped complement evaluation must equal 1/||E_n^H a||^2
        num_sources = data.draw(st.integers(1, dim - 1), label="num_sources")
        matrix = _random_hermitian(np.random.default_rng(seed), dim)
        cov = SampleCovariance(matrix @ matrix.conj().T, 1)
        spectrum = music_spectrum(cov, num_sources, ScanGrid(grid, dim - 1))
        _, eigvecs = hermitian_eigendecomposition(cov)
        noise_basis = eigvecs[:, :dim - num_sources]
        steer = np.exp(1j * np.pi * np.outer(np.arange(dim), np.sin(grid)))
        denom = np.sum(np.abs(noise_basis.conj().T @ steer) ** 2, axis=0)
        # compare denominators: a^H a = dim bounds their rounding error
        np.testing.assert_allclose(1.0 / spectrum.values, denom, rtol=0,
                                   atol=1e-12 * dim)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_peaks_invariant_to_scaling(self, scale):
        geom = UlaGeometry(6)
        steer = _steer(geom, 0.4)
        matrix = np.outer(steer, steer.conj()) + 0.3 * np.eye(6)
        one = music_spectrum(SampleCovariance(matrix, 1), 1, GRID)
        two = music_spectrum(SampleCovariance(scale * matrix, 1), 1, GRID)
        assert np.argmax(one.values) == np.argmax(two.values)

    def test_too_many_sources_rejected(self):
        cov = SampleCovariance(np.eye(3), 1)
        with pytest.raises(ValueError):
            music_spectrum(cov, 3, GRID)
        with pytest.raises(ValueError, match="num_sources must be >= 1"):
            music_spectrum(cov, 0, GRID)


class TestFindPeaks:
    def test_single_peak(self):
        grid = make_angle_grid(step_deg=1.0, order=0).angles
        values = np.zeros_like(grid)
        values[40] = 1.0
        found = find_peaks(_sample_spectrum(grid, values), 1)
        assert _grid_index(grid, found.angles) == [40]

    def test_equal_peaks_tie_break_smaller_angle(self):
        grid = make_angle_grid(step_deg=1.0, order=0).angles
        values = np.zeros_like(grid)
        values[30] = 2.0
        values[90] = 2.0
        found = find_peaks(_sample_spectrum(grid, values), 1)
        assert _grid_index(grid, found.angles) == [30]

    @pytest.mark.parametrize("start, stop, center", [(50, 53, 51), (50, 54, 51)],
                             ids=["odd_width", "even_width"])
    def test_plateau_center(self, start, stop, center):
        # an even-width plateau i..j picks (i + j) // 2, the left-middle sample
        grid = make_angle_grid(step_deg=1.0, order=0).angles
        values = np.zeros_like(grid)
        values[start:stop] = 1.0
        found = find_peaks(_sample_spectrum(grid, values), 1)
        assert _grid_index(grid, found.angles) == [center]

    def test_refinement_hits_off_grid_source(self):
        # Newton steps on the Bartlett polynomial land on a source between
        # grid points; the same samples with a flat polynomial keep the peak
        # sample's grid angle.
        grid = make_angle_grid(step_deg=0.5, order=15)
        theta = grid.angles[160] + 0.37 * (grid.angles[161] - grid.angles[160])
        steer = _steer(UlaGeometry(16), theta)
        cov = SampleCovariance(np.outer(steer, steer.conj()) + 0.1 * np.eye(16), 1)
        spectrum = bartlett_spectrum(cov, grid)
        assert abs(find_peaks(spectrum, 1).angles[0] - theta) < 1e-12
        bare = _sample_spectrum(grid.angles, spectrum.values)
        assert _grid_index(grid.angles, find_peaks(bare, 1).angles) == [160]

    def test_no_step_where_polynomial_bends_up(self):
        # f(u) = 1 - cos(pi (u - u_min)) has its minimum just right of the
        # peak sample, where f'' > 0: a Newton step there would run into
        # the minimum, so the peak keeps its grid angle.
        grid = make_angle_grid(step_deg=0.5, order=1)
        values = np.zeros(len(grid))
        values[200] = 1.0
        u_min = np.sin(grid.angles[200]) + 0.002
        sums = np.array([1.0, -0.5 * np.exp(-1j * np.pi * u_min)])
        found = find_peaks(Pseudospectrum(grid=grid, values=values, sums=sums), 1)
        assert found.angles[0] == pytest.approx(grid.angles[200], rel=0, abs=1e-15)

    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 12), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_refined_peaks_are_polynomial_maxima(self, seed, dim, data):
        # Each refined peak of a random Hermitian form is a stationary point
        # of f(u) = a(u)^H Q a(u) that bends down and beats a 1e-4 deg
        # sampling of its bracket: the grid neighbors of its peak sample.
        matrix = _random_hermitian(np.random.default_rng(seed), dim)
        matrix -= np.linalg.eigvalsh(matrix)[0] * np.eye(dim)  # f >= 0
        spectrum = bartlett_spectrum(SampleCovariance(matrix, 1),
                                     make_angle_grid(step_deg=0.5, order=dim - 1))
        grid = spectrum.grid.angles
        maxima = _local_maxima(spectrum.values)
        num_peaks = data.draw(st.integers(1, max(1, maxima.size)), label="num_peaks")
        if maxima.size == 0:
            with pytest.raises(EstimationError):
                find_peaks(spectrum, num_peaks)
            return
        found = find_peaks(spectrum, num_peaks)
        assert found.angles.size == num_peaks
        m = np.arange(dim)
        scale = np.abs(spectrum.sums).sum()

        def form(u, order=0):
            # d^order/du^order of a(u)^H Q a(u), a_m = exp(j pi m u)
            steer = np.exp(1j * np.pi * np.outer(m, u))
            if order == 0:
                return np.einsum("mg,mg->g", steer.conj(), matrix @ steer).real
            slope = (1j * np.pi * m)[:, None] * steer
            if order == 1:
                return 2.0 * np.einsum("mg,mg->g", slope.conj(), matrix @ steer).real
            curve = (1j * np.pi * m)[:, None] * slope
            return 2.0 * (np.einsum("mg,mg->g", curve.conj(), matrix @ steer)
                          + np.einsum("mg,mg->g", slope.conj(), matrix @ slope)).real

        for angle in found.angles:
            peak = maxima[np.argmin(np.abs(grid[maxima] - angle))]
            low, high = grid[peak - 1], grid[peak + 1]
            assert low <= angle <= high
            u = np.array([np.sin(angle)])
            assert abs(form(u, 1)[0]) <= 1e-9 * scale
            assert form(u, 2)[0] < 0
            samples = int(round(np.rad2deg(high - low) / 1e-4)) + 1
            around = np.sin(np.linspace(low, high, samples))
            assert form(u)[0] >= form(around).max() - 1e-12 * scale

    def test_results_sorted_by_angle(self):
        grid = make_angle_grid(step_deg=1.0, order=0).angles
        values = np.zeros_like(grid)
        values[120] = 3.0
        values[20] = 1.0
        found = find_peaks(_sample_spectrum(grid, values), 2)
        assert _grid_index(grid, found.angles) == [20, 120]

    @pytest.mark.parametrize("make_values", [
        lambda n: np.linspace(0.0, 1.0, n),  # monotone, no interior max
        lambda n: np.where(np.arange(n) < 5, 2.0, 1.0),  # plateau at the low end
        lambda n: np.where(np.arange(n) >= n - 5, 2.0, 1.0),  # plateau at the high end
        lambda n: np.full(n, 3.0),  # constant
    ], ids=["monotone", "low_end_plateau", "high_end_plateau", "constant"])
    def test_too_few_maxima_raises(self, make_values):
        grid = make_angle_grid(step_deg=1.0, order=0).angles
        spectrum = _sample_spectrum(grid, make_values(grid.size))
        with pytest.raises(EstimationError, match=r"^found 0 spectral peaks, need 1$"):
            find_peaks(spectrum, 1)

    def test_grid_too_small_rejected(self):
        grid = np.array([-0.1, 0.0, 0.1])
        with pytest.raises(ValueError):
            find_peaks(_sample_spectrum(grid, np.zeros(3)), 2)
        with pytest.raises(ValueError, match="num_peaks must be >= 1"):
            find_peaks(_sample_spectrum(grid, np.zeros(3)), 0)


# The per-sample loops find_peaks used before its run-length form, kept
# verbatim as the reference that the array version must match exactly.
def _reference_local_maxima(values):
    n = values.size
    maxima = []
    i = 1
    while i < n - 1:
        if values[i] <= values[i - 1]:
            i += 1
            continue
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if j < n - 1 and values[j + 1] < values[i]:
            maxima.append((i + j) // 2)
        i = j + 1
    return maxima


def _reference_peak_indices(values, num_peaks):
    """Grid indices of the highest sample maxima in ascending order, the
    peaks of a spectrum with a flat polynomial."""
    maxima = _reference_local_maxima(values)
    return sorted(sorted(maxima, key=lambda k: (-values[k], k))[:num_peaks])


@pytest.mark.parametrize("step_deg", [0.0, -1.0, np.nan, np.inf, -np.inf])
def test_make_angle_grid_rejects_bad_step(step_deg):
    with pytest.raises(ValueError, match=r"^step_deg must be finite and > 0, got "):
        make_angle_grid(step_deg=step_deg, order=1)


def _brute_force_maxima(values):
    """Centers (i + j) // 2 of the runs i..j of equal samples that are strictly
    above the runs on both sides."""
    runs = []
    for k, value in enumerate(values):
        if runs and values[runs[-1][0]] == value:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return [(i + j) // 2 for (i, j), before, after in zip(runs[1:-1], runs, runs[2:])
            if values[i] > values[before[0]] and values[i] > values[after[0]]]


class TestPeakSearchMatchesReferenceLoop:
    # Short vectors of a few integers make plateaus and runs at either end
    # common; derandomized, so every run draws the same examples.
    @given(st.lists(st.integers(0, 3), max_size=12))
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_brute_force_runs(self, samples):
        values = np.array(samples, dtype=float)
        assert _local_maxima(values).tolist() == _brute_force_maxima(values)

    # A 3- or 4-letter alphabet makes plateaus, equal peaks and runs at
    # either end common.
    @given(st.integers(min_value=3, max_value=4).flatmap(
        lambda k: st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0][:k]), max_size=60)))
    @settings(max_examples=500, deadline=None)
    def test_random_plateau_vectors(self, samples):
        values = np.array(samples, dtype=float)
        expected = _reference_local_maxima(values)
        assert _local_maxima(values).tolist() == expected
        if values.size >= 3 and expected:
            grid = np.linspace(-1.0, 1.0, values.size)
            num_peaks = min(len(expected), (values.size - 1) // 2, 3)
            found = find_peaks(_sample_spectrum(grid, values), num_peaks)
            assert _grid_index(grid, found.angles) == _reference_peak_indices(values,
                                                                              num_peaks)

    @pytest.mark.parametrize("mode, num_paths", [("multipath", 3), ("los", 1)])
    def test_seeded_reference_spectra_bit_equal(self, mode, num_paths):
        # The sample maxima chosen on real spectra, before refinement.
        spec = ExperimentSpec(mode=mode, num_paths=num_paths, base_seed=11)
        for trial in range(4):
            _, _, block = draw_realization(spec, trial)
            found = scan_angles(block, num_paths, spec.angle_grid, spec.plan)
            grid, values = found.spectrum.grid.angles, found.spectrum.values
            chosen = find_peaks(_sample_spectrum(grid, values), num_paths).angles
            assert _grid_index(grid, chosen) == _reference_peak_indices(values, num_paths)


class TestNewtonStop:
    @pytest.mark.parametrize("mode, num_paths", [("los", 1), ("multipath", 3)])
    def test_early_stop_matches_all_steps(self, monkeypatch, mode, num_paths):
        # Stopping once no peak moves by more than _NEWTON_TOL gives the
        # angles of all _NEWTON_STEPS steps, to rounding.
        spec = ExperimentSpec(mode=mode, num_paths=num_paths, base_seed=7)
        spectra = [scan_angles(draw_realization(spec, trial)[2], num_paths,
                               spec.angle_grid, spec.plan).spectrum for trial in range(200)]
        early = [find_peaks(spectrum, num_paths).angles for spectrum in spectra]
        monkeypatch.setattr(subspace, "_NEWTON_TOL", -1.0)
        every_step = [find_peaks(spectrum, num_paths).angles for spectrum in spectra]
        np.testing.assert_allclose(np.rad2deg(early), np.rad2deg(every_step),
                                   rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("num_antennas", [16, 32, 64])
    @pytest.mark.parametrize("mode, num_paths", [("multipath", 3), ("los", 1)])
    def test_scan_independent_of_grid_step(self, mode, num_paths, num_antennas):
        # The search grid only places the Newton starts: the default grid and
        # a 0.02 deg grid give the same angles. (The coarse grid can miss a
        # shoulder peak and so pick another spurious peak in an angle-outage
        # trial: at seed 11, 4 of 5000 trials at M = 32 and 3 of 5000 at
        # M = 64 do, none of them among the first 200; the first is trial
        # 866 at M = 64.)
        spec = ExperimentSpec(mode=mode, num_paths=num_paths,
                              num_antennas=num_antennas, base_seed=11)
        blocks = [draw_realization(spec, trial)[2] for trial in range(200)]
        coarse, fine = ([scan_angles(block, num_paths, grid, spec.plan).angles
                         for block in blocks]
                        for grid in (spec.angle_grid,
                                     make_angle_grid(step_deg=0.02, order=num_antennas - 1)))
        np.testing.assert_allclose(np.rad2deg(coarse), np.rad2deg(fine), rtol=0, atol=0.01)
