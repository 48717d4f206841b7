"""Tests for both estimation routes, beamforming, and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issacsim.array_channel import (
    PathSet,
    TransmissionConfig,
    UlaGeometry,
    generate_pilot_sequence,
    sample_angles,
    sample_gains,
    simulate_reception,
    steering_matrix,
    synthesize_channel,
)
from issacsim.errors import EstimationError
from issacsim.estimators import (
    closed_form_predictions,
    empirical_snr,
    estimate_gains_multipath,
    ls_conventional,
    mrc_beamformer,
)


def _make_block(h, pilot_len=3, pilot_power=0.1, data_power=0.1, noise_var=1.0,
                data_len=4, seed=0):
    config = TransmissionConfig(pilot_len=pilot_len, data_len=data_len,
                                pilot_power=pilot_power, data_power=data_power,
                                noise_var=noise_var)
    return simulate_reception(h, config, generate_pilot_sequence(pilot_len),
                              np.random.default_rng(seed))


def _steer(geom, theta):
    """The steering vector of one angle: a one-column steering matrix."""
    return steering_matrix(geom, [theta])[:, 0]


def _exact_gain_ls(block, theta_hat, theta_true, pilot_power):
    """Test-only oracle: the exact single-path LS that divides by the true
    beam overlap instead of sqrt(M)."""
    geom = UlaGeometry(block.num_antennas)
    a_hat = _steer(geom, theta_hat)
    a_true = _steer(geom, theta_true)
    m = block.num_antennas
    beamformed = (a_hat.conj() / np.sqrt(m)) @ block.pilot_obs
    projected = beamformed @ block.pilot_seq.conj() / np.sqrt(
        pilot_power * block.pilot_len**2)
    return np.sqrt(m) * projected / np.vdot(a_hat, a_true)


class TestLsConventional:
    def test_noiseless_exact(self):
        geom = UlaGeometry(6)
        h = synthesize_channel(geom, PathSet(angles=[0.2, -0.5], gains=[1.0, 2.0j]))
        block = _make_block(h, noise_var=0.0, pilot_power=0.3)
        h_hat = ls_conventional(block, 0.3)
        np.testing.assert_allclose(h_hat, h, atol=1e-12)

    def test_monte_carlo_matches_closed_form(self):
        # lighter version of the acceptance run: 3000 trials, 5% tolerance
        geom = UlaGeometry(32)
        rng = np.random.default_rng(21)
        errors = []
        for _ in range(3000):
            paths = PathSet(angles=sample_angles(3, rng), gains=sample_gains(3, rng))
            h = synthesize_channel(geom, paths)
            config = TransmissionConfig(pilot_len=3, data_len=1,
                                        pilot_power=0.1, data_power=0.1)
            block = simulate_reception(h, config, generate_pilot_sequence(3), rng)
            errors.append(np.linalg.norm(ls_conventional(block, 0.1) - h) ** 2)
        expected = closed_form_predictions(32, 3, 0.1, 3, 1.0, 0.1).e_cp
        assert expected == pytest.approx(320.0 / 3.0)
        assert np.mean(errors) == pytest.approx(expected, rel=0.05)

    def test_doubling_pilots_halves_error(self):
        geom = UlaGeometry(16)
        rng = np.random.default_rng(31)
        means = []
        for pilot_len in (2, 4):
            errors = []
            for _ in range(2000):
                paths = PathSet(angles=sample_angles(2, rng), gains=sample_gains(2, rng))
                h = synthesize_channel(geom, paths)
                config = TransmissionConfig(pilot_len=pilot_len, data_len=1,
                                            pilot_power=0.2, data_power=0.2)
                block = simulate_reception(h, config,
                                           generate_pilot_sequence(pilot_len), rng)
                errors.append(np.linalg.norm(ls_conventional(block, 0.2) - h) ** 2)
            means.append(np.mean(errors))
        assert means[0] / means[1] == pytest.approx(2.0, rel=0.1)

    def test_zero_pilots_rejected(self):
        from issacsim.array_channel import ReceivedBlock
        block = ReceivedBlock(pilot_obs=np.zeros((2, 0)), data_gram=np.zeros((2, 2)),
                              data_len=1, pilot_seq=np.zeros(0))
        with pytest.raises(ValueError):
            ls_conventional(block, 1.0)


class TestMrcBeamformer:
    def test_axis_aligned(self):
        vec = mrc_beamformer(np.array([2.0, 0.0]))
        np.testing.assert_allclose(vec, [1.0, 0.0], atol=1e-15)

    def test_scale_invariant_overlap(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        base = mrc_beamformer(h)
        scaled = mrc_beamformer(3j * h)
        assert abs(np.vdot(base, h)) == pytest.approx(abs(np.vdot(scaled, h)), rel=1e-12)

    @given(seed=st.integers(0, 10**6), dim=st.integers(1, 32))
    @settings(max_examples=40, deadline=None)
    def test_unit_norm(self, seed, dim):
        rng = np.random.default_rng(seed)
        h_hat = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec = mrc_beamformer(h_hat)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            mrc_beamformer(np.zeros(3))


class TestEmpiricalSnr:
    def test_matched_filter_attains_bound(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        gamma = empirical_snr(h / np.linalg.norm(h), h, data_power=0.5, noise_var=2.0)
        assert gamma == pytest.approx(0.5 * np.linalg.norm(h) ** 2 / 2.0, rel=1e-12)

    def test_orthogonal_beam_zero(self):
        h = np.array([1.0, 0.0], dtype=complex)
        assert empirical_snr(np.array([0.0, 1.0]), h, 1.0, 1.0) == 0.0

    def test_perfect_angle_single_path(self):
        geom = UlaGeometry(16)
        theta = 0.3
        alpha = 0.7 - 0.2j
        h = alpha * _steer(geom, theta)
        beam = _steer(geom, theta) / np.sqrt(16)
        gamma = empirical_snr(beam, h, data_power=2.0, noise_var=1.0)
        assert gamma == pytest.approx(2.0 * abs(alpha) ** 2 * 16, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_noise_without_warning(self):
        # Noiseless diagnostic runs: +inf for a signal, nan for none, and no
        # RuntimeWarning either way.
        h = np.array([1.0, 1.0j])
        assert empirical_snr(h / np.linalg.norm(h), h, 1.0, 0.0) == np.inf
        assert np.isnan(empirical_snr(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1.0, 0.0))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_schwarz_bound(self, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = v / np.linalg.norm(v)
        bound = empirical_snr(h / np.linalg.norm(h), h, 1.0, 1.0)
        assert empirical_snr(v, h, 1.0, 1.0) <= bound * (1.0 + 1e-9)


class TestClosedForms:
    # With one path the mean channel energy is M and snr_t = pilot_power / noise_var.
    def test_penalty_factor_reference_point(self):
        theory = closed_form_predictions(num_antennas=32, num_paths=1, pilot_power=0.1,
                                         pilot_len=3, noise_var=1.0, data_power=0.1)
        assert theory.xi == pytest.approx((1.0 - 1.0 / 32.0) / 1.3, abs=1e-12)
        assert theory.xi == pytest.approx(0.74519, abs=2e-5)
        assert theory.gamma_cp_approx == pytest.approx(3.2 * (1.0 - theory.xi), rel=1e-12)

    def test_penalty_vanishes_with_pilot_energy(self):
        theory = closed_form_predictions(32, 1, 1.0, 10**9, 1.0, 1.0)
        assert theory.xi < 1e-8
        assert theory.gamma_cp_approx == pytest.approx(32.0, rel=1e-6)

    def test_single_antenna_no_penalty(self):
        assert closed_form_predictions(1, 1, 1.0, 1, 1.0, 1.0).xi == 0.0

    def test_monotone_in_pilot_energy(self):
        gammas = [closed_form_predictions(32, 1, s, 3, 1.0, 0.1).gamma_cp_approx
                  for s in (0.01, 0.1, 1.0, 10.0)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

    def test_mmse_values(self):
        multipath = closed_form_predictions(32, 3, 0.1, 3, 1.0, 0.1)
        los = closed_form_predictions(32, 1, 0.1, 3, 1.0, 0.1)
        assert multipath.e_cp == pytest.approx(320.0 / 3.0)
        assert los.e_cp == pytest.approx(320.0 / 3.0)
        assert los.e_lp == pytest.approx(10.0 / 3.0)
        assert multipath.e_lp == pytest.approx(10.0)
        assert los.e_cp / los.e_lp == pytest.approx(32.0)

    def test_nonpositive_pilot_rejected(self):
        with pytest.raises(ValueError):
            closed_form_predictions(32, 3, 0.0, 3, 1.0, 0.1)
        with pytest.raises(ValueError):
            closed_form_predictions(32, 3, 0.1, 0, 1.0, 0.1)

    def test_bundle_consistency(self):
        theory = closed_form_predictions(32, 3, 0.1, 3, 1.0, 0.1)
        assert theory.e_cp == pytest.approx(32.0 * theory.e_lp / 3.0, rel=1e-12)
        assert 0.0 <= theory.xi < 1.0
        assert theory.gamma_cp_approx < theory.gamma_upper


def _beamformed_pilot_gains(block, thetas_hat, pilot_power):
    """Test-only copy of the beamformed-pilot gain solve: beams A^H / sqrt(M)
    on the pilot block, correlation with the pilot sequence, and sqrt(M)
    times the solve against the steering Gram."""
    geom = UlaGeometry(block.num_antennas)
    steer = steering_matrix(geom, thetas_hat)
    m = block.num_antennas
    beamformed = (steer.conj().T / np.sqrt(m)) @ block.pilot_obs
    projected = beamformed @ block.pilot_seq.conj() / np.sqrt(
        pilot_power * block.pilot_len**2)
    return np.sqrt(m) * np.linalg.solve(steer.conj().T @ steer, projected)


def _gains(block, thetas_hat, pilot_power):
    return estimate_gains_multipath(ls_conventional(block, pilot_power), thetas_hat)


class TestGainLos:
    """The single-path case of the gain stage."""

    def test_noiseless_exact_with_true_angle(self):
        geom = UlaGeometry(8)
        theta = 0.4
        alpha = 1.3 - 0.8j
        h = alpha * _steer(geom, theta)
        block = _make_block(h, noise_var=0.0, pilot_power=0.5)
        gains, h_hat = _gains(block, [theta], 0.5)
        assert gains.shape == (1,)
        assert gains[0] == pytest.approx(alpha, rel=1e-12)
        np.testing.assert_allclose(h_hat, h, atol=1e-12)

    def test_mismatch_bias_closed_form(self):
        geom = UlaGeometry(8)
        theta, theta_hat = 0.2, 0.26
        alpha = 0.9 + 0.4j
        h = alpha * _steer(geom, theta)
        block = _make_block(h, noise_var=0.0, pilot_power=1.0)
        gains, _ = _gains(block, [theta_hat], 1.0)
        overlap = np.vdot(_steer(geom, theta_hat),
                          _steer(geom, theta))
        assert gains[0] == pytest.approx(alpha * overlap / 8.0, rel=1e-12)

    def test_exact_ls_oracle_removes_mismatch_bias(self):
        # dual route: the exact form recovers alpha under beam mismatch
        geom = UlaGeometry(8)
        theta, theta_hat = 0.2, 0.26
        alpha = 0.9 + 0.4j
        h = alpha * _steer(geom, theta)
        block = _make_block(h, noise_var=0.0, pilot_power=1.0)
        alpha_exact = _exact_gain_ls(block, theta_hat, theta, 1.0)
        assert alpha_exact == pytest.approx(alpha, rel=1e-12)

    def test_monte_carlo_matches_closed_form(self):
        geom = UlaGeometry(32)
        theta = 0.25
        rng = np.random.default_rng(77)
        errors = []
        for _ in range(3000):
            alpha = np.exp(2j * np.pi * rng.uniform())
            h = alpha * _steer(geom, theta)
            config = TransmissionConfig(pilot_len=3, data_len=1,
                                        pilot_power=0.1, data_power=0.1)
            block = simulate_reception(h, config, generate_pilot_sequence(3), rng)
            _, h_hat = _gains(block, [theta], 0.1)
            errors.append(np.linalg.norm(h_hat - h) ** 2)
        expected = closed_form_predictions(32, 1, 0.1, 3, 1.0, 0.1).e_lp
        assert np.mean(errors) == pytest.approx(expected, rel=0.05)

    def test_reconstruction_identity(self):
        geom = UlaGeometry(8)
        h = 1.1j * _steer(geom, -0.3)
        block = _make_block(h, noise_var=1.0, seed=5)
        gains, h_hat = _gains(block, [-0.29], 0.1)
        rebuilt = gains[0] * _steer(geom, -0.29)
        np.testing.assert_allclose(h_hat, rebuilt, atol=1e-14)


def _blas() -> str:
    """Name and version of the BLAS numpy was built with, '' where numpy does not say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return ""
    return f"{blas.get('name', '')} {blas.get('version', '')}"


# The BLAS on which one path's division was checked to equal
# np.linalg.solve bit for bit (its triangular solve also multiplies by the
# reciprocal of the real 1 x 1 Gram, as numpy's complex division does).
_EXACT_SOLVE = "openblas 0.3.31" in _blas().lower()


class TestGainSinglePath:
    """One path divides A^H h by its 1 x 1 Gram instead of calling LAPACK."""

    @pytest.mark.parametrize("num_antennas", [2, 8, 32, 64])
    def test_matches_lapack_solve(self, num_antennas):
        # 0 ulp on the OpenBLAS release it was checked on; on any other BLAS
        # (CI installs whatever numpy wheel is current) the 12 significant
        # digits the golden CSV digests keep.
        rng = np.random.default_rng(num_antennas)
        geom = UlaGeometry(num_antennas)
        for theta in rng.uniform(-1.5, 1.5, 200):
            steer = steering_matrix(geom, [theta])
            h_ls = rng.standard_normal(num_antennas) + 1j * rng.standard_normal(num_antennas)
            gains, h_hat = estimate_gains_multipath(h_ls, [theta])
            reference = np.linalg.solve(steer.conj().T @ steer, steer.conj().T @ h_ls)
            if _EXACT_SOLVE:
                assert gains.tobytes() == reference.tobytes()
            else:
                np.testing.assert_allclose(gains, reference, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(h_hat, steer @ gains)

    @given(theta=st.floats(-np.pi / 2, np.pi / 2, exclude_min=True, exclude_max=True),
           num_antennas=st.integers(1, 64), zero=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_never_collides(self, theta, num_antennas, zero):
        # Any angle, also at the edge of the field of view, and a zero LS
        # estimate: one steering vector's Gram is positive.
        h_ls = np.zeros(num_antennas, complex) if zero else np.ones(num_antennas, complex)
        gains, _ = estimate_gains_multipath(h_ls, [theta])
        assert gains.shape == (1,) and np.isfinite(gains).all()


class TestGainsMultipath:
    def test_noiseless_exact_with_true_angles(self):
        geom = UlaGeometry(16)
        paths = PathSet(angles=np.deg2rad([-30.0, 5.0, 40.0]),
                        gains=[1.0, 0.5j, -0.7 + 0.2j])
        h = synthesize_channel(geom, paths)
        block = _make_block(h, noise_var=0.0, pilot_power=0.4)
        gains, h_hat = _gains(block, paths.angles, 0.4)
        np.testing.assert_allclose(gains, paths.gains, atol=1e-10)
        np.testing.assert_allclose(h_hat, h, atol=1e-9)

    @given(seed=st.integers(0, 10**6), num_paths=st.integers(1, 4),
           num_antennas=st.integers(4, 32))
    @settings(max_examples=60, deadline=None)
    def test_matches_beamformed_pilot_solve(self, seed, num_paths, num_antennas):
        rng = np.random.default_rng(seed)
        geom = UlaGeometry(num_antennas)
        paths = PathSet(angles=sample_angles(num_paths, rng), gains=sample_gains(num_paths, rng))
        h = synthesize_channel(geom, paths)
        block = _make_block(h, noise_var=1.0, seed=seed)
        # estimated angles off the true ones, as after a scan
        thetas_hat = paths.angles + rng.uniform(-0.01, 0.01, num_paths)
        h_ls = ls_conventional(block, 0.1)
        gains, h_hat = estimate_gains_multipath(h_ls, thetas_hat)
        reference = _beamformed_pilot_gains(block, thetas_hat, 0.1)
        scale = np.linalg.norm(reference)
        assert np.max(np.abs(gains - reference)) <= 1e-12 * scale
        # the residual of a projection is orthogonal to the steering vectors
        steer = steering_matrix(geom, thetas_hat)
        residual = steer.conj().T @ (h_ls - h_hat)
        assert np.max(np.abs(residual)) <= 1e-12 * num_antennas * np.linalg.norm(h_ls)

    def test_monte_carlo_matches_closed_form(self):
        geom = UlaGeometry(32)
        angles = np.deg2rad([-30.0, 0.0, 30.0])
        rng = np.random.default_rng(13)
        errors = []
        for _ in range(3000):
            gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
            h = steering_matrix(geom, angles) @ gains
            config = TransmissionConfig(pilot_len=3, data_len=1,
                                        pilot_power=0.1, data_power=0.1)
            block = simulate_reception(h, config, generate_pilot_sequence(3), rng)
            _, h_hat = _gains(block, angles, 0.1)
            errors.append(np.linalg.norm(h_hat - h) ** 2)
        expected = closed_form_predictions(32, 3, 0.1, 3, 1.0, 0.1).e_lp
        assert np.mean(errors) == pytest.approx(expected, rel=0.05)

    def test_angle_collision_raises(self):
        geom = UlaGeometry(32)
        h = _steer(geom, 0.0) + _steer(geom, 0.5)
        block = _make_block(h, noise_var=1.0)
        for thetas_hat in ([0.1, 0.1 + 2e-7], [0.1, 0.1]):
            with pytest.raises(EstimationError):
                _gains(block, thetas_hat, 0.1)

    def test_reconstruction_identity(self):
        geom = UlaGeometry(16)
        paths = PathSet(angles=np.deg2rad([-10.0, 20.0]), gains=[1.0, 0.3j])
        h = synthesize_channel(geom, paths)
        block = _make_block(h, noise_var=1.0, seed=2)
        gains, h_hat = _gains(block, paths.angles, 0.1)
        rebuilt = steering_matrix(geom, paths.angles) @ gains
        np.testing.assert_allclose(h_hat, rebuilt, atol=1e-14)

    def test_more_paths_than_antennas_rejected(self):
        geom = UlaGeometry(2)
        h = _steer(geom, 0.0)
        block = _make_block(h, noise_var=0.0)
        with pytest.raises(ValueError):
            _gains(block, [-0.4, 0.0, 0.4], 0.1)
