"""Tests for array geometry, channel synthesis, and block simulation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from issacsim.array_channel import (
    AnglePolicy,
    PathSet,
    ReceivedBlock,
    TransmissionConfig,
    UlaGeometry,
    _complex_normal,
    generate_pilot_sequence,
    sample_angles,
    sample_gains,
    simulate_reception,
    steering_matrix,
    synthesize_channel,
)

angles_inside = st.floats(min_value=-89.9, max_value=89.9).map(np.deg2rad)


def _steer(geom, theta):
    return steering_matrix(geom, [theta])[:, 0]


class TestSteeringVector:
    """The single-column steering matrix."""

    def test_broadside_is_all_ones(self):
        vec = _steer(UlaGeometry(4), 0.0)
        np.testing.assert_array_equal(vec, np.ones(4, dtype=complex))

    def test_half_sine_phases(self):
        # sin(pi/6) = 1/2 gives phases 0, pi/2, pi
        vec = _steer(UlaGeometry(3), np.pi / 6)
        np.testing.assert_allclose(vec, [1.0, 1.0j, -1.0], atol=1e-12)

    def test_boundary_rejected_but_limit_approached(self):
        geom = UlaGeometry(2)
        with pytest.raises(ValueError):
            _steer(geom, np.pi / 2)
        with pytest.raises(ValueError):
            _steer(geom, -np.pi / 2)
        near = _steer(geom, np.pi / 2 - 1e-9)
        np.testing.assert_allclose(near, [1.0, -1.0], atol=1e-6)

    @pytest.mark.parametrize("angles, first", [
        ([0.1, 2.0, -3.0], "2.0"), ([0.1, np.nan], "nan"), ([-np.pi / 2, 0.0], "-1.5707963")])
    def test_first_angle_outside_is_named(self, angles, first):
        # One array check for the whole list; NaN fails it like an angle outside.
        message = rf"angle {first}\S* rad outside the open interval"
        with pytest.raises(ValueError, match=message):
            steering_matrix(UlaGeometry(2), angles)
        with pytest.raises(ValueError, match=message):
            PathSet(angles=angles, gains=np.ones(len(angles)))

    @given(m=st.integers(min_value=1, max_value=64), theta=angles_inside)
    def test_unit_modulus_and_norm(self, m, theta):
        vec = _steer(UlaGeometry(m), theta)
        np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-12)
        assert np.linalg.norm(vec) ** 2 == pytest.approx(m, rel=1e-12)

    @given(m=st.integers(min_value=2, max_value=64),
           k=st.integers(min_value=1, max_value=3),
           theta=st.floats(min_value=-0.4, max_value=0.4))
    def test_orthogonality_at_sine_multiples(self, m, k, theta):
        # a(t1)^H a(t2) sums m unit phasors, zero when the sine gap is 2k/m
        if k >= m:
            return
        sin2 = np.sin(theta) + 2.0 * k / m
        if abs(sin2) >= 1.0:
            return
        geom = UlaGeometry(m)
        inner = np.vdot(_steer(geom, theta),
                        _steer(geom, np.arcsin(sin2)))
        assert abs(inner) < 1e-9 * m


class TestSteeringMatrix:
    def test_single_column(self):
        mat = steering_matrix(UlaGeometry(4), [0.0])
        assert mat.shape == (4, 1)
        np.testing.assert_array_equal(mat[:, 0], np.ones(4, dtype=complex))

    def test_columns_match_vectors(self):
        geom = UlaGeometry(3)
        mat = steering_matrix(geom, [0.0, np.pi / 6])
        np.testing.assert_allclose(mat[:, 0], [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(mat[:, 1], [1, 1j, -1], atol=1e-12)

    def test_orthogonal_pair_by_construction(self):
        # columns with sine gap 2/M are exactly orthogonal; oracle is the
        # explicit geometric sum of eight unit phasors
        m = 8
        t1 = np.deg2rad(10.0)
        t2 = np.arcsin(np.sin(t1) + 2.0 / m)
        oracle = np.sum(np.exp(1j * np.pi * np.arange(m) * (np.sin(t2) - np.sin(t1))))
        assert abs(oracle) < 1e-12 * m
        mat = steering_matrix(UlaGeometry(m), [t1, t2])
        assert abs(np.vdot(mat[:, 0], mat[:, 1])) < 1e-9

    def test_propagates_domain_error(self):
        with pytest.raises(ValueError):
            steering_matrix(UlaGeometry(4), [0.0, np.pi / 2])
        with pytest.raises(ValueError, match="angles must be one-dimensional"):
            steering_matrix(UlaGeometry(4), [[0.0, 0.1]])


class TestSynthesizeChannel:
    def test_single_path_scaling(self):
        geom = UlaGeometry(4)
        h = synthesize_channel(geom, PathSet(angles=[0.0], gains=[2.0j]))
        np.testing.assert_allclose(h, 2.0j * np.ones(4), atol=1e-12)
        assert np.linalg.norm(h) ** 2 == pytest.approx(4 * 4.0)

    def test_matches_bruteforce_sum(self):
        rng = np.random.default_rng(123)
        geom = UlaGeometry(8)
        paths = PathSet(angles=sample_angles(3, rng), gains=sample_gains(3, rng))
        h = synthesize_channel(geom, paths)
        brute = np.zeros(8, dtype=complex)
        for theta, gain in zip(paths.angles, paths.gains):
            brute += gain * np.exp(1j * np.pi * np.arange(8) * np.sin(theta))
        np.testing.assert_allclose(h, brute, atol=1e-12)


class TestPathSampling:
    def test_deterministic_given_seed(self):
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        np.testing.assert_array_equal(sample_angles(3, rng_a), sample_angles(3, rng_b))
        np.testing.assert_array_equal(sample_gains(3, rng_a), sample_gains(3, rng_b))

    def test_gain_second_moment(self):
        rng = np.random.default_rng(99)
        gains = sample_gains(10**5, rng)
        assert 0.98 <= np.mean(np.abs(gains) ** 2) <= 1.02

    def test_min_separation_respected(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            angles = sample_angles(3, rng)
            assert np.all(np.abs(angles) < np.pi / 3.0)
            assert np.all(np.diff(np.sin(angles)) >= np.sin(np.deg2rad(5.0)))

    def test_unsatisfiable_separation_raises(self):
        # 20 gaps of sin 5 deg overfill the sine range 2 sin 60 deg = 1.732;
        # too many paths is a bad input (ValueError), not an estimation failure
        with pytest.raises(ValueError, match="infeasible"):
            sample_angles(21, np.random.default_rng(0))

    def test_check_paths_rejects_what_no_draw_can_meet(self):
        AnglePolicy(fixed=(0.1, -0.2)).check_paths(2)
        with pytest.raises(ValueError, match="policy fixes 2 angles but 3 paths"):
            AnglePolicy(fixed=(0.1, -0.2)).check_paths(3)
        AnglePolicy().check_paths(20)
        with pytest.raises(ValueError, match="do not fit in the sine range"):
            AnglePolicy().check_paths(21)

    def test_tight_separation_left_to_the_draws(self):
        # 19 gaps of sin 5 deg = 1.656 fit in the sine range 1.732, so 20
        # paths pass check_paths; the rejection draws still give up on them
        AnglePolicy().check_paths(20)
        with pytest.raises(ValueError, match="could not draw 20 angles"):
            sample_angles(20, np.random.default_rng(0))

    def test_fixed_policy_bypasses_draw(self):
        policy = AnglePolicy(fixed=(0.1, -0.2))
        angles = sample_angles(2, np.random.default_rng(0), policy)
        np.testing.assert_array_equal(angles, [0.1, -0.2])

    def test_unit_gain_policy(self):
        gains = sample_gains(64, np.random.default_rng(3), policy="unit")
        np.testing.assert_allclose(np.abs(gains), 1.0, atol=1e-12)

    def test_sample_gains_rejects_bad_input(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="num_paths must be >= 1"):
            sample_gains(0, rng)
        with pytest.raises(ValueError, match="unknown gain policy 'rayleigh'; use one of "
                                             "gaussian, unit"):
            sample_gains(2, rng, policy="rayleigh")

    def test_pathset_rejects_duplicate_angles(self):
        with pytest.raises(ValueError):
            PathSet(angles=[0.3, 0.3], gains=[1.0, 1.0])
        with pytest.raises(ValueError, match="angles and gains must be one-dimensional"):
            PathSet(angles=[[0.1, 0.2]], gains=[1.0, 1.0])
        with pytest.raises(ValueError, match="need the same positive number of angles and gains"):
            PathSet(angles=[0.1, 0.2], gains=[1.0])


class TestPilotSequence:
    def test_default_all_ones(self):
        np.testing.assert_array_equal(generate_pilot_sequence(3),
                                      np.ones(3, dtype=complex))
        np.testing.assert_array_equal(generate_pilot_sequence(1), [1.0 + 0j])

    def test_energy_exact(self):
        seq = generate_pilot_sequence(4)
        assert np.sum(np.abs(seq) ** 2) == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(seq), 1.0, atol=1e-12)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            generate_pilot_sequence(0)


class TestSimulateReception:
    def _config(self, **kwargs):
        defaults = dict(pilot_len=2, data_len=3, pilot_power=1.0,
                        data_power=1.0, noise_var=0.0)
        defaults.update(kwargs)
        return TransmissionConfig(**defaults)

    def test_noiseless_pilot_columns(self):
        geom = UlaGeometry(4)
        h = synthesize_channel(geom, PathSet(angles=[0.2], gains=[1.5 - 0.5j]))
        config = self._config(pilot_power=4.0)
        block = simulate_reception(h, config, generate_pilot_sequence(2),
                                   np.random.default_rng(0))
        for n in range(2):
            np.testing.assert_allclose(block.pilot_obs[:, n], 2.0 * h, atol=1e-12)

    def test_noiseless_data_gram(self):
        geom = UlaGeometry(3)
        h = synthesize_channel(geom, PathSet(angles=[-0.4], gains=[0.3 + 1j]))
        config = self._config(data_power=9.0)
        block = simulate_reception(h, config, generate_pilot_sequence(2),
                                   np.random.default_rng(1))
        # the data symbols are the generator's first draw
        data_syms = _complex_normal(np.random.default_rng(1), config.data_len)
        expected = 9.0 * np.vdot(data_syms, data_syms).real * np.outer(h, h.conj())
        np.testing.assert_allclose(block.data_gram, expected, rtol=0, atol=1e-12)
        assert block.data_len == config.data_len and block.num_snapshots == 5

    def test_short_block_gram_rank_one(self):
        # data_len = 1 leaves no noise orthogonal to s*: the Gram is v v^H.
        h = synthesize_channel(UlaGeometry(6), PathSet(angles=[0.5], gains=[1.0]))
        config = self._config(data_len=1, noise_var=1.0)
        block = simulate_reception(h, config, generate_pilot_sequence(2),
                                   np.random.default_rng(5))
        eigvals = np.linalg.eigvalsh(block.data_gram)
        assert eigvals[-1] > 0
        assert np.all(np.abs(eigvals[:-1]) <= 1e-12 * eigvals[-1])

    def test_block_without_data_keeps_pilot_side(self):
        # data=False stops after the pilot noise: same pilots, no Gram.
        h = synthesize_channel(UlaGeometry(4), PathSet(angles=[0.1], gains=[1.0]))
        config = self._config(noise_var=1.0)
        full, pilots_only = (simulate_reception(h, config, generate_pilot_sequence(2),
                                                np.random.default_rng(11), data=data)
                             for data in (True, False))
        assert pilots_only.data_gram is None
        assert pilots_only.data_len == config.data_len
        np.testing.assert_array_equal(pilots_only.pilot_obs, full.pilot_obs)

    def test_noise_moments_on_zero_channel(self):
        # with h = 0 the pilot observations are pure CN(0, 1) noise
        config = TransmissionConfig(pilot_len=10**4, data_len=1,
                                    pilot_power=1.0, data_power=1.0, noise_var=1.0)
        block = simulate_reception(np.zeros(4, dtype=complex), config,
                                   generate_pilot_sequence(10**4),
                                   np.random.default_rng(2))
        per_entry_var = np.var(block.pilot_obs, axis=1)
        assert np.all(per_entry_var >= 0.97) and np.all(per_entry_var <= 1.03)

    def test_fixed_seed_bit_identical(self):
        geom = UlaGeometry(4)
        h = synthesize_channel(geom, PathSet(angles=[0.1], gains=[1.0]))
        config = self._config(noise_var=1.0)
        one = simulate_reception(h, config, generate_pilot_sequence(2),
                                 np.random.default_rng(11))
        two = simulate_reception(h, config, generate_pilot_sequence(2),
                                 np.random.default_rng(11))
        np.testing.assert_array_equal(one.pilot_obs, two.pilot_obs)
        np.testing.assert_array_equal(one.data_gram, two.data_gram)

    def test_dimension_mismatch_rejected(self):
        config = self._config()
        with pytest.raises(ValueError):
            simulate_reception(np.ones(4, dtype=complex), config,
                               generate_pilot_sequence(3),
                               np.random.default_rng(0))
        with pytest.raises(ValueError, match="h must be a vector"):
            simulate_reception(np.ones((4, 1), dtype=complex), config,
                               generate_pilot_sequence(2), np.random.default_rng(0))


class TestDataGramDistribution:
    """The drawn data Gram against D D^H of drawn data columns D."""

    DRAWS = 20_000
    CHUNK = 500
    # Each statistic's two means may differ by at most this many standard
    # errors of their difference.
    MAX_SE = 4.0

    @staticmethod
    def _stats(grams, m, kappa):
        """Per-draw trace, R_00, |R_0,M-1|^2 and the extreme nonzero eigenvalues."""
        eigvals = np.linalg.eigvalsh(grams)
        return np.stack([np.trace(grams, axis1=1, axis2=2).real, grams[:, 0, 0].real,
                         np.abs(grams[:, 0, m - 1]) ** 2,
                         eigvals[:, max(0, m - kappa)], eigvals[:, -1]])

    @pytest.mark.parametrize("m, kappa", [(32, 97), (8, 4)])
    def test_moments_match_sample_path(self, m, kappa):
        # (32, 97) draws T square (kappa - 1 >= M), (8, 4) trapezoidal.
        h = synthesize_channel(UlaGeometry(m), PathSet(angles=[0.3], gains=[1.0]))
        config = TransmissionConfig(pilot_len=1, data_len=kappa, pilot_power=0.1,
                                    data_power=0.1, noise_var=1.0)
        pilot = generate_pilot_sequence(1)
        rng_drawn, rng_sampled = np.random.default_rng(101), np.random.default_rng(202)
        drawn, sampled = [], []
        for _ in range(self.DRAWS // self.CHUNK):
            drawn.append(self._stats(np.stack([
                simulate_reception(h, config, pilot, rng_drawn).data_gram
                for _ in range(self.CHUNK)]), m, kappa))
            syms = _complex_normal(rng_sampled, (self.CHUNK, 1, kappa))
            # CN(0, 1) noise, real and imaginary parts from one draw.
            noise = rng_sampled.standard_normal((self.CHUNK, m, 2 * kappa)).view(complex)
            data = np.sqrt(config.data_power) * h[:, None] * syms + np.sqrt(0.5) * noise
            sampled.append(self._stats(data @ data.conj().transpose(0, 2, 1), m, kappa))
        drawn, sampled = np.hstack(drawn), np.hstack(sampled)
        # Var R_00 as the mean squared deviation of R_00 from its mean.
        for stats in (drawn, sampled):
            stats[1] = (stats[1] - stats[1].mean()) ** 2
        gap = np.abs(drawn.mean(axis=1) - sampled.mean(axis=1))
        se = np.sqrt((drawn.var(axis=1) + sampled.var(axis=1)) / self.DRAWS)
        names = ["trace", "var R00", "|R0,M-1|^2", "lambda_min", "lambda_max"]
        assert np.all(gap <= self.MAX_SE * se), dict(zip(names, gap / se))


class TestConfigValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            TransmissionConfig(pilot_len=-1, data_len=1, pilot_power=1, data_power=1)
        with pytest.raises(ValueError):
            TransmissionConfig(pilot_len=1, data_len=0, pilot_power=1, data_power=1)
        with pytest.raises(ValueError):
            TransmissionConfig(pilot_len=1, data_len=1, pilot_power=0, data_power=1)
        with pytest.raises(ValueError):
            TransmissionConfig(pilot_len=1, data_len=1, pilot_power=1, data_power=1,
                               noise_var=-0.1)

    @pytest.mark.parametrize("field, message", [
        ("pilot_power", "powers must be positive"), ("data_power", "powers must be positive"),
        ("noise_var", "noise_var must be nonnegative")])
    def test_rejects_nan_power_and_noise(self, field, message):
        values = dict(pilot_len=1, data_len=1, pilot_power=1.0, data_power=1.0, noise_var=1.0)
        with pytest.raises(ValueError, match=message):
            TransmissionConfig(**{**values, field: float("nan")})

    @pytest.mark.parametrize("changes, message", [
        ({"pilot_obs": np.ones(4)}, "pilot observations must be two-dimensional"),
        ({"pilot_seq": np.ones(3)}, "pilot_seq length must match pilot_obs columns"),
        ({"data_len": 2.5}, "data_len must be a nonnegative integer"),
        ({"data_len": -1}, "data_len must be a nonnegative integer"),
        ({"data_gram": np.eye(3)}, "data_gram must be M x M for the M rows of pilot_obs"),
    ], ids=["one_dim_pilots", "pilot_length", "fractional_data_len", "negative_data_len",
            "gram_shape"])
    def test_received_block_rejects_bad_shapes(self, changes, message):
        values = dict(pilot_obs=np.ones((4, 2)), data_gram=np.eye(4), data_len=5,
                      pilot_seq=np.ones(2))
        ReceivedBlock(**values)
        with pytest.raises(ValueError, match=message):
            ReceivedBlock(**{**values, **changes})

    def test_geometry_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            UlaGeometry(0)
