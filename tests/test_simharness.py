"""Tests for the Monte Carlo harness: trials, aggregation, sweeps, CDFs."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import issacsim.simharness as harness
from issacsim.array_channel import AnglePolicy
from issacsim.cli import build_spec, main
from issacsim.errors import EstimationError, SpecError
from issacsim.estimators import ls_conventional, mrc_beamformer, empirical_snr
from issacsim.simharness import (
    ExperimentSpec,
    collect_trials,
    draw_realization,
    empirical_cdf,
    match_angles,
    nrmse,
    run_sweep,
    run_trial,
)

FIXED_ANGLES = AnglePolicy(fixed=tuple(np.deg2rad([-30.0, 0.0, 30.0])))


def _sweep(**cfg):
    """The (sweep_value, spec) points the CLI builds from config keys."""
    return build_spec({key: str(value) for key, value in cfg.items()})[2][1]


class TestSpecValidation:
    def test_defaults_are_reference_point(self):
        spec = ExperimentSpec()
        assert spec.num_antennas == 32
        assert spec.num_paths == 3
        assert spec.pilot_len == 3
        assert spec.pilot_pow == pytest.approx(0.1)
        assert spec.data_pow == pytest.approx(0.1)
        assert spec.pilot_len + spec.data_len == 100

    def test_los_requires_single_path(self):
        with pytest.raises(ValueError):
            ExperimentSpec(mode="los", num_paths=2)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(num_trials=0)

    def test_bad_axis_rejected_with_valid_names(self):
        with pytest.raises(ValueError, match="m, pt, pd, rho"):
            _sweep(axis="banana")

    def test_pilotless_spec_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(pilot_len=0)

    @pytest.mark.parametrize("changes, fields", [
        ({"base_seed": -1}, ["base_seed"]),
        ({"mode": "los"}, ["mode", "num_paths"]),
        ({"gain_policy": "foo"}, ["gain_policy"]),
        ({"data_pow": 0.0}, ["data_pow"]),
        ({"data_len": 0}, ["pilot_len", "data_len"]),
        ({"num_antennas": 0}, ["num_antennas"]),
        ({"pilot_len": 2.5}, ["pilot_len", "data_len"]),
        ({"num_paths": 0}, ["num_paths"]),
        ({"angle_policy": AnglePolicy(fixed=(0.1,))}, ["num_paths", "angle_list"]),
        ({"angle_policy": AnglePolicy(min_sin_sep=0.9)},
         ["num_paths", "angle_range", "min_sep"]),
        ({"num_antennas": 4}, ["num_antennas", "num_paths", "num_subarrays"]),
    ])
    def test_rejection_names_its_fields(self, changes, fields):
        with pytest.raises(SpecError) as caught:
            ExperimentSpec(**changes)
        assert caught.value.fields == fields

    def test_trial_objects_built_once_and_read_only(self):
        spec = ExperimentSpec()
        assert spec.geometry.num_antennas == 32
        assert spec.transmission.pilot_len == 3
        assert spec.transmission.data_power == spec.data_pow
        for shared in (spec.pilot_seq, spec.angle_grid):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0] = 0.0
        np.testing.assert_array_equal(spec.pilot_seq, np.ones(3))
        assert spec.angle_grid is spec.angle_grid
        assert draw_realization(spec, 0)[2].pilot_seq is spec.pilot_seq

    def test_sweep_point_gets_its_own_trial_objects(self):
        # The CLI builds each sweep point with dataclasses.replace, which must
        # rebuild what the point changes instead of sharing the base spec's.
        spec = ExperimentSpec()
        point = dataclasses.replace(spec, pilot_len=5, num_antennas=16, grid_step_deg=1.0)
        assert point == dataclasses.replace(spec, pilot_len=5, num_antennas=16,
                                            grid_step_deg=1.0)
        assert point.pilot_seq is not spec.pilot_seq and point.pilot_seq.size == 5
        assert not point.pilot_seq.flags.writeable
        assert point.transmission.pilot_len == 5 and point.geometry.num_antennas == 16
        assert point.angle_grid.size == 179 and spec.angle_grid.size == 357
        assert not point.angle_grid.flags.writeable
        assert draw_realization(point, 0)[2].pilot_obs.shape == (16, 5)


class TestRunTrial:
    def test_deterministic(self):
        spec = ExperimentSpec(num_trials=1, base_seed=44, angle_stage="oracle")
        one = run_trial(spec, 5)
        two = run_trial(spec, 5)
        assert one.sq_error_cp == two.sq_error_cp
        assert one.sq_error_lp == two.sq_error_lp
        assert one.snr_cp == two.snr_cp

    def test_noiseless_oracle_is_exact(self):
        spec = ExperimentSpec(noise_var=0.0, pilot_pow=0.1, data_pow=0.1,
                              angle_stage="oracle", num_trials=1, base_seed=1)
        result = run_trial(spec, 0)
        assert result.sq_error_cp == pytest.approx(0.0, abs=1e-20)
        assert result.sq_error_lp == pytest.approx(0.0, abs=1e-20)
        upper = np.inf  # zero noise makes the matched-filter bound infinite
        assert result.snr_cp == upper
        assert result.snr_lp == upper

    def test_paired_design_uses_identical_block(self):
        # reconstruct the trial from its streams and reproduce the
        # conventional branch bit for bit
        spec = ExperimentSpec(num_trials=1, base_seed=3, angle_stage="oracle")
        result = run_trial(spec, 2)
        paths, h, block = draw_realization(spec, 2)
        h_hat = ls_conventional(block, spec.pilot_pow)
        assert float(np.linalg.norm(h_hat - h) ** 2) == result.sq_error_cp
        gamma = empirical_snr(mrc_beamformer(h_hat), h, spec.data_pow,
                              spec.noise_var)
        assert gamma == result.snr_cp

    def test_estimated_angles_close_at_high_snr(self):
        spec = ExperimentSpec(angle_policy=FIXED_ANGLES, pilot_pow=10.0,
                              data_pow=10.0, num_trials=1, base_seed=6)
        result = run_trial(spec, 0)
        assert not result.failed
        assert np.max(result.angle_errors) < np.deg2rad(0.1)

    def test_order_independent_results(self):
        spec = ExperimentSpec(num_trials=6, base_seed=9, angle_stage="oracle")
        forward = [run_trial(spec, i).sq_error_cp for i in range(6)]
        backward = [run_trial(spec, i).sq_error_cp for i in reversed(range(6))]
        assert forward == backward[::-1]

    def test_path_invariant_mode_holds_angles(self):
        spec = ExperimentSpec(num_trials=8, base_seed=10, angle_stage="oracle",
                              angle_hold_trials=4)
        trials = collect_trials(spec)
        drawn = [draw_realization(spec, i)[0].angles for i in range(8)]
        block_one, block_two = drawn[:4], drawn[4:]
        for angles in block_one[1:]:
            np.testing.assert_array_equal(angles, block_one[0])
        assert not np.array_equal(block_two[0], block_one[0])
        # gains are redrawn inside the block, so channels differ
        assert trials[0].h_norm_sq != trials[1].h_norm_sq


class TestFailureAccounting:
    def test_failed_trials_flagged_and_excluded(self, monkeypatch):
        calls = {"n": 0}
        real_scan = harness.scan_angles

        def flaky_scan(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise EstimationError("injected peak failure")
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(harness, "scan_angles", flaky_scan)
        spec = ExperimentSpec(angle_policy=FIXED_ANGLES, num_trials=9, base_seed=2)
        (point,) = run_sweep([(32.0, spec)])
        assert point.num_failures == 3
        assert point.failure_rate == pytest.approx(3.0 / 9.0)
        assert np.isfinite(point.e_lp_sim)
        trials = collect_trials(spec)
        flagged = [t for t in trials if t.failed]
        assert {t.failure_reason for t in flagged} == {"injected peak failure"}
        assert all(np.isnan(t.sq_error_lp) for t in flagged)
        # conventional side of a failed trial still completed
        assert all(np.isfinite(t.sq_error_cp) for t in flagged)


class TestNrmse:
    def test_zero_errors(self):
        assert nrmse([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_definition(self):
        assert nrmse([4.0], [16.0]) == pytest.approx(0.5)

    def test_reference_point_value(self):
        # conventional route at the defaults: error 320/3 against mean
        # channel energy L*M = 96 gives sqrt(106.67/96) ~ 1.054
        spec = ExperimentSpec(num_trials=3000, angle_stage="oracle", base_seed=19)
        trials = collect_trials(spec)
        value = nrmse([t.sq_error_cp for t in trials],
                      [t.h_norm_sq for t in trials])
        assert value == pytest.approx(np.sqrt((320.0 / 3.0) / 96.0), rel=0.03)
        assert value == pytest.approx(1.054, rel=0.03)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nrmse([], [])


class TestMatchAngles:
    def test_exact(self):
        errors = match_angles([0.1, -0.2], [-0.2, 0.1])
        np.testing.assert_allclose(errors, 0.0, atol=1e-15)

    def test_permutation_invariant(self):
        errors = match_angles([0.3, -0.1, 0.0], [0.0, 0.3, -0.1])
        np.testing.assert_allclose(errors, 0.0, atol=1e-15)

    def test_pairwise_differences(self):
        est = np.deg2rad([-10.0, 10.1])
        true = np.deg2rad([-10.0, 10.0])
        errors = match_angles(est, true)
        np.testing.assert_allclose(np.rad2deg(errors), [0.0, 0.1], atol=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            match_angles([0.1], [0.1, 0.2])


class TestEmpiricalCdf:
    def test_quarter_points(self):
        series = empirical_cdf([4.0, 2.0, 1.0, 3.0])
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(series.probabilities, [0.25, 0.5, 0.75, 1.0])

    def test_constant_sample_degenerate_step(self):
        series = empirical_cdf([2.0, 2.0, 2.0])
        np.testing.assert_array_equal(series.values, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(series.probabilities, [1 / 3, 2 / 3, 1.0])
        assert series.percentiles[90.0] == 2.0

    def test_percentile_interpolation(self):
        series = empirical_cdf(np.arange(10.0, 0.0, -1.0))
        assert series.percentiles == {90.0: pytest.approx(9.1)}

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_probabilities_nondecreasing_in_unit_interval(self, values):
        series = empirical_cdf(values)
        assert np.all(np.diff(series.probabilities) >= 0)
        assert series.probabilities[0] > 0
        assert series.probabilities[-1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestSweeps:
    def test_antenna_sweep_theory_columns(self):
        points = run_sweep(_sweep(axis="m", sweep_values="8, 16, 32, 64",
                                  trials=2, angle_stage="oracle", seed=1))
        e_cp = [p.theory.e_cp for p in points]
        e_lp = [p.theory.e_lp for p in points]
        np.testing.assert_allclose(e_cp, [m / 0.3 for m in (8, 16, 32, 64)], rtol=1e-12)
        np.testing.assert_allclose(e_lp, 10.0, rtol=1e-12)

    def test_pilot_power_sweep_inverse_slope(self):
        points = run_sweep(_sweep(axis="pt", sweep_values="0.01, 0.1, 1",
                                  trials=2, angle_stage="oracle", seed=1))
        for point, ratio in zip(points, (10.0, 1.0, 0.1)):
            assert point.theory.e_cp == pytest.approx(320.0 / 3.0 * ratio, rel=1e-12)
            assert point.theory.e_lp == pytest.approx(10.0 * ratio, rel=1e-12)
        np.testing.assert_allclose([p.sweep_value for p in points],
                                   [-20.0, -10.0, 0.0], atol=1e-12)

    def test_joint_power_sweep_tracks_pilot(self):
        (point,) = run_sweep(_sweep(axis="pd", sweep_values="0.01",
                                    trials=2, angle_stage="oracle", seed=1))
        assert point.theory.e_cp == pytest.approx(32.0 / 0.03, rel=1e-12)

    def test_independent_pilot_power_flag(self):
        (point,) = run_sweep(_sweep(axis="pd", sweep_values="0.01", pt_tracks_pd="false",
                                    trials=2, angle_stage="oracle", seed=1))
        # pilot power stays at the preset 0.1
        assert point.theory.e_cp == pytest.approx(320.0 / 3.0, rel=1e-12)

    def test_default_sweep_coverage(self):
        assert [value for value, _ in _sweep(axis="m")] == [8.0, 16.0, 32.0, 64.0]
        pt_db = [10 * np.log10(spec.pilot_pow) for _, spec in _sweep(axis="pt")]
        assert min(pt_db) == pytest.approx(-20.0) and max(pt_db) == pytest.approx(0.0)
        pd_db = [10 * np.log10(spec.data_pow) for _, spec in _sweep(axis="pd")]
        assert min(pd_db) == pytest.approx(-30.0) and max(pd_db) == pytest.approx(5.0)

    def test_fractional_count_sweep_rejected(self):
        for axis in ("m", "rho"):
            with pytest.raises(ValueError, match="must be integers"):
                _sweep(axis=axis, sweep_values=16.7)
        assert [spec.pilot_pow for _, spec in _sweep(axis="pt", sweep_values=0.5)] == [0.5]
        assert [spec.data_pow for _, spec in _sweep(axis="pd", sweep_values=0.5)] == [0.5]

    def test_missing_axis_rejected(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "x.csv"), "--trials", "1"]) == 2
        assert "m, pt, pd, rho" in capsys.readouterr().err

    def test_point_aggregates_expected_fields(self):
        spec = ExperimentSpec(num_trials=40, angle_stage="oracle", base_seed=12)
        (point,) = run_sweep([(32.0, spec)])
        assert point.sweep_value == 32.0
        assert point.num_trials == 40
        assert point.num_failures == 0
        assert point.e_cp_sim > point.e_lp_sim
        assert point.gamma_cp_sim < point.gamma_lp_sim
        assert point.theory == spec.theory()

    def test_mean_snr_above_matched_filter_bound_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "empirical_snr", lambda *args: 1e12)
        spec = ExperimentSpec(num_trials=3, angle_stage="oracle", base_seed=12)
        with pytest.raises(ValueError, match="matched-filter bound"):
            run_sweep([(32.0, spec)])
