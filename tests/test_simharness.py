"""Tests for the Monte Carlo harness: trials, their summary, sweeps, CDFs."""

import ast
import dataclasses
import re
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import issacsim.simharness as harness
from issacsim.array_channel import AnglePolicy
from issacsim.cli import _SPEC_KEYS, build_spec, main
from issacsim.errors import EstimationError, SpecError
from issacsim.estimators import ls_conventional, mrc_beamformer, empirical_snr
from issacsim.simharness import (
    ExperimentSpec,
    collect_trials,
    draw_realization,
    empirical_cdf,
    _match_angles,
    nrmse,
    run_trial,
    snr_cdfs,
    summarize,
)

# Spec values that a check rejects, with the fields its SpecError names.
SPEC_REJECTIONS = [
    ({"base_seed": -1}, ["base_seed"]),
    ({"mode": "los"}, ["mode", "num_paths"]),
    ({"gain_policy": "foo"}, ["gain_policy"]),
    ({"data_pow": 0.0}, ["data_pow"]),
    ({"data_len": 0}, ["pilot_len", "data_len"]),
    ({"num_antennas": 0}, ["num_antennas"]),
    ({"pilot_len": 2.5}, ["pilot_len", "data_len"]),
    ({"num_paths": 0}, ["num_paths"]),
    ({"angle_policy": AnglePolicy(fixed=(0.1,))}, ["num_paths", "angle_policy"]),
    # Random angles take at most 7 paths.
    ({"num_paths": 21, "num_antennas": 64}, ["num_paths"]),
    ({"num_antennas": 4}, ["num_antennas", "num_paths"]),
    # 4 grid points hold at most one interior local maximum, not 3 peaks
    ({"grid_step_deg": 60.0}, ["grid_step_deg", "num_paths"]),
    # The gain solve of any angle stage needs no more paths than antennas.
    ({"num_antennas": 2, "angle_stage": "oracle"}, ["num_antennas", "num_paths"]),
    ({"noise_var": -1.0}, ["noise_var"]),
    # Transmit SNRs and a nonzero noise variance stay within +-300 dB.
    ({"noise_var": 1e-31}, ["noise_var"]),
    ({"noise_var": 1e31}, ["noise_var"]),
    ({"pilot_pow": 1e-31}, ["pilot_pow"]),
    ({"data_pow": 2e30}, ["data_pow"]),
    ({"noise_var": 0.0, "data_pow": 1e31}, ["data_pow"]),
    ({"noise_var": 1e10, "pilot_pow": 1e-21}, ["pilot_pow"]),
    # The first count past the cap, also for oracle angles.
    ({"num_paths": 8, "num_antennas": 64, "angle_stage": "oracle"}, ["num_paths"]),
]

FIXED_ANGLES = AnglePolicy(fixed=tuple(np.deg2rad([-30.0, 0.0, 30.0])))


def _sweep(**cfg):
    """The (sweep_value, spec) points the CLI builds from config keys."""
    return build_spec({key: str(value) for key, value in cfg.items()})[1][1]


def _seeded_rngs(spec, trial_index):
    """A trial's two generators as SeedSequence builds them, one per stream tag."""
    return tuple(np.random.default_rng(np.random.SeedSequence((spec.base_seed, tag, trial_index)))
                 for tag in (harness._ANGLE_STREAM, harness._TRIAL_STREAM))


def _assert_same_record(one, two):
    """Trial records equal field by field: floats bit for bit, nan included."""
    for name in one.dtype.names:
        if name == "failure_reason":
            assert one[name] == two[name]
        else:
            assert np.asarray(one[name]).tobytes() == np.asarray(two[name]).tobytes(), name


def _fail_every_third_scan(monkeypatch):
    """Make every third angle scan raise; returns the scan counter."""
    calls = {"n": 0}
    real_scan = harness.scan_angles

    def flaky_scan(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise EstimationError("injected peak failure")
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(harness, "scan_angles", flaky_scan)
    return calls


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

    @pytest.mark.parametrize("changes, fields", SPEC_REJECTIONS)
    def test_rejection_names_its_fields(self, changes, fields):
        with pytest.raises(SpecError) as caught:
            ExperimentSpec(**changes)
        assert caught.value.fields == fields

    def test_every_rejected_field_has_a_config_key(self):
        # One table parses the config keys and names the keys of a SpecError,
        # so its fields are spec init fields, and each field a check blames,
        # by a literal in the source or in a rejection above, has a key.
        table = [field for field, _ in _SPEC_KEYS.values()]
        assert len(set(table)) == len(table)
        assert set(table) <= {f.name for f in dataclasses.fields(ExperimentSpec) if f.init}
        blamed = {field for _, fields in SPEC_REJECTIONS for field in fields}
        for path in Path(harness.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                        in ("SpecError", "blame") and isinstance(node.args[0], ast.Constant)):
                    blamed.update(node.args[0].value.split())
        assert blamed <= set(table), blamed - set(table)

    @pytest.mark.parametrize("noise_var", [0.0, 1e-30, 1.0, 3.0, 1e30])
    def test_power_bounds_admit_their_corners(self, noise_var):
        # A bound SNR scaled by any noise variance, as the CLI scales it, is admitted.
        for snr in (1e-30, 1e30):
            power = snr * noise_var if noise_var else snr
            ExperimentSpec(pilot_pow=power, data_pow=power, noise_var=noise_var)

    def test_trial_objects_built_once_and_read_only(self, monkeypatch):
        spec = ExperimentSpec(num_trials=3)
        assert spec.geometry.num_antennas == 32
        assert spec.transmission.pilot_len == 3
        assert spec.transmission.data_power == spec.data_pow
        # The default grid: 357 angles, and tables for forms up to 32 x 32.
        grid = spec.angle_grid
        assert len(grid) == 357 and grid.order == 31
        assert grid.rows.shape == (31, 357) and grid.factors.shape == (31, 3)
        for shared in (spec.pilot_seq, grid.angles, grid.rows, grid.phase, grid.factors):
            assert not shared.flags.writeable
            with pytest.raises(ValueError):
                shared[0] = 0.0
        np.testing.assert_array_equal(spec.pilot_seq, np.ones(3))
        assert draw_realization(spec, 0)[2].pilot_seq is spec.pilot_seq
        assert (spec.plan.num_subarrays, spec.plan.subarray_size) == (3, 30)
        # Every trial scans with the spec's grid and plan.
        scanned = []
        real_scan = harness.scan_angles

        def recording_scan(block, num_sources, grid, plan):
            scanned.append((grid, plan))
            return real_scan(block, num_sources, grid, plan)

        monkeypatch.setattr(harness, "scan_angles", recording_scan)
        collect_trials(spec)
        assert len(scanned) == 3
        assert all(grid is spec.angle_grid and plan is spec.plan for grid, plan in scanned)
        # a sweep point builds its own plan
        point = dataclasses.replace(spec, num_antennas=16)
        assert point.plan is not spec.plan and point.plan.parent_size == 16
        assert point.plan.subarray_size == 14
        # LoS scans Bartlett: no plan
        assert dataclasses.replace(spec, mode="los", num_paths=1).plan is None

    def test_oracle_spec_needs_no_plan(self):
        # Too few antennas to smooth 3 coherent paths, but oracle angles
        # scan nothing, so the spec builds and its trials run.
        spec = ExperimentSpec(num_antennas=4, num_paths=3, angle_stage="oracle",
                              num_trials=2, base_seed=6)
        assert spec.plan is None and spec.angle_grid is None
        trials = collect_trials(spec)
        assert not any(t.failed for t in trials)
        assert all(np.isfinite(t.sq_error_lp) for t in trials)
        with pytest.raises(SpecError, match="subarrays too small"):
            dataclasses.replace(spec, angle_stage="estimated")
        # One antenna's spectrum is flat, so only oracle angles run on it.
        single = ExperimentSpec(num_antennas=1, num_paths=1, mode="los",
                                angle_stage="oracle", num_trials=2)
        assert not collect_trials(single).failed.any()

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
        assert len(point.angle_grid) == 179 and len(spec.angle_grid) == 357
        assert point.angle_grid.order == 15 and point.angle_grid.rows.shape == (15, 179)
        assert not point.angle_grid.rows.flags.writeable
        assert draw_realization(point, 0)[2].pilot_obs.shape == (16, 5)


    def test_each_sweep_point_gets_its_own_grid(self):
        # An m sweep point scans with tables for its own array size.
        grids = [point.angle_grid for _, point in _sweep(axis="m")]
        assert [grid.order for grid in grids] == [7, 15, 31, 63]
        assert len({id(grid) for grid in grids}) == 4


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

    @pytest.mark.parametrize("mode", [{}, {"mode": "los", "num_paths": 1}], ids=["multipath", "los"])
    def test_pilot_side_columns_independent_of_angle_stage(self, mode):
        # An oracle block stops after the pilot noise that an estimated
        # block of the same seed draws too, so the conventional route and
        # the channel are bit-equal between the two.
        estimated, oracle = (collect_trials(ExperimentSpec(num_trials=12, base_seed=17,
                                                           angle_stage=stage, **mode))
                             for stage in ("estimated", "oracle"))
        for column in ("h_norm_sq", "sq_error_cp", "snr_cp"):
            assert np.array_equal(estimated[column], oracle[column]), column

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


# Seeds and trial indices around the 32-bit word boundaries and the 256-index
# chunks of the seed tables.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1]
EDGE_INDICES = [0, 1, 255, 256, 2**32 - 1, 2**32, 2**32 + 255, 2**40 + 3, 2**64 - 1]


class TestTrialStreams:
    @given(seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(EDGE_SEEDS),
                          st.sampled_from([2**64, 2**70 + 3])),
           index=st.one_of(st.integers(0, 1000), st.sampled_from(EDGE_INDICES),
                           st.integers(2**32, 2**64 - 1), st.just(2**64 + 1)))
    @settings(max_examples=150, deadline=None)
    def test_generators_equal_seedsequence_streams(self, seed, index):
        # A seed below 2**64 with an index below 2**32 gives PCG64 its seed
        # words from a row of the chunk table of both streams; a larger seed
        # or index, from SeedSequence itself.
        spec = types.SimpleNamespace(base_seed=seed)
        fits = 0 <= seed < 2**64 and index < 2**32
        for stream, (tag, rng, expected) in enumerate(zip(
                (harness._ANGLE_STREAM, harness._TRIAL_STREAM),
                harness._trial_rngs(spec, index), _seeded_rngs(spec, index))):
            if fits:
                seq = rng.bit_generator.seed_seq
                row = seq.generate_state(4, np.uint64)
                words = np.random.SeedSequence((seed, tag, index)).generate_state(4, np.uint64)
                # PCG64 reads the row through its data pointer.
                assert row.dtype == np.uint64 and row.shape == (4,) and row.flags.c_contiguous
                assert row.tobytes() == words.tobytes()
                chunk, offset = divmod(index, harness._SEED_CHUNK)
                table = harness._seed_chunk(seed, chunk)
                assert table.shape == (harness._SEED_CHUNK, 2, 4) and table.flags.c_contiguous
                assert not table.flags.writeable
                assert table[offset, stream].tobytes() == words.tobytes()
                for request in [(4,), (4, np.uint32), (8, np.uint64), (2, np.uint64)]:
                    with pytest.raises(ValueError):
                        seq.generate_state(*request)
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.standard_normal(3).tobytes() == expected.standard_normal(3).tobytes()
            assert rng.uniform() == expected.uniform()

    def test_held_generators_keep_their_own_streams(self):
        # Each call returns new generators: those of trial 0, still held
        # while trial 1's are built, go on drawing trial 0's streams.
        spec = types.SimpleNamespace(base_seed=7)
        first, second = harness._trial_rngs(spec, 0), harness._trial_rngs(spec, 1)
        for index, rngs in ((0, first), (1, second)):
            for rng, expected in zip(rngs, _seeded_rngs(spec, index)):
                assert rng.standard_normal(4).tobytes() == expected.standard_normal(4).tobytes()

    @pytest.mark.parametrize("index", [-1, 1.0])
    def test_bad_index_raises_as_seedsequence_does(self, index):
        spec = ExperimentSpec(num_trials=1, angle_stage="oracle")
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence((spec.base_seed, harness._ANGLE_STREAM, index))
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            run_trial(spec, index)

    def test_negative_seed_raises_as_seedsequence_does(self):
        # A seed that bypasses ExperimentSpec's check is not hashed as its
        # low 32 bits: it gets SeedSequence's error.
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence((-5, harness._ANGLE_STREAM, 0))
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            harness._trial_rngs(types.SimpleNamespace(base_seed=-5), 0)

    def test_numpy_integer_index_is_its_int(self):
        spec = ExperimentSpec(num_trials=1, mode="los", num_paths=1, base_seed=7)
        _assert_same_record(run_trial(spec, np.int64(3)), run_trial(spec, 3))

    @pytest.mark.parametrize("mode", [{}, {"mode": "los", "num_paths": 1}], ids=["multipath", "los"])
    @pytest.mark.parametrize("angle_stage", ["estimated", "oracle"])
    @pytest.mark.parametrize("base_seed", [5, 2**40 + 5, 2**64 + 5])
    def test_rows_equal_lone_seedsequence_trials(self, monkeypatch, mode, angle_stage, base_seed):
        # Row i of collect_trials is run_trial(spec, i) called alone, at
        # indices inside and past num_trials, across a chunk boundary and
        # past 2**32; both equal a trial whose generators SeedSequence built.
        spec = ExperimentSpec(num_trials=4, base_seed=base_seed, angle_stage=angle_stage, **mode)
        rows = collect_trials(spec)
        longer = collect_trials(dataclasses.replace(spec, num_trials=6))
        indices = [0, 3, 4, 5, 255, 256, 2**32 + 1]
        harness._seed_chunk.cache_clear()
        alone = {i: run_trial(spec, i) for i in indices}
        monkeypatch.setattr(harness, "_trial_rngs", _seeded_rngs)
        for i in indices:
            _assert_same_record(alone[i], run_trial(spec, i))
            if i < 4:
                _assert_same_record(alone[i], rows[i])
            if i < 6:
                _assert_same_record(alone[i], longer[i])

    def test_threads_equal_serial_runs(self):
        # Each thread seeds generators of its own: three threads that
        # interleave often still give each spec's serial rows.
        specs = [ExperimentSpec(mode="los", num_paths=1, num_trials=300, base_seed=seed)
                 for seed in (21, 22, 23)]
        serial = [collect_trials(spec) for spec in specs]
        threaded = [None] * len(specs)

        def run(k):
            threaded[k] = collect_trials(specs[k])

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(specs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for rows, expected in zip(threaded, serial):
            for i in range(len(expected)):
                _assert_same_record(rows[i], expected[i])


class TestFailureAccounting:
    def test_failed_trials_flagged_and_excluded(self, monkeypatch):
        _fail_every_third_scan(monkeypatch)
        spec = ExperimentSpec(angle_policy=FIXED_ANGLES, num_trials=9, base_seed=2)
        trials = collect_trials(spec)
        summary = summarize(spec, trials)
        assert summary.num_failures == 3
        assert summary.failure_rate == pytest.approx(3.0 / 9.0)
        assert np.isfinite(summary.e_lp_sim)
        flagged = [t for t in trials if t.failed]
        assert {t.failure_reason for t in flagged} == {"injected peak failure"}
        assert all(np.isnan(t.sq_error_lp) for t in flagged)
        # conventional side of a failed trial still completed
        assert all(np.isfinite(t.sq_error_cp) for t in flagged)


class TestTrialColumns:
    @pytest.mark.parametrize("angle_stage", ["estimated", "oracle"])
    def test_columns_equal_records(self, monkeypatch, angle_stage):
        calls = _fail_every_third_scan(monkeypatch)
        spec = ExperimentSpec(angle_policy=FIXED_ANGLES, num_trials=7, base_seed=2,
                              angle_stage=angle_stage)
        trials = collect_trials(spec)
        # The scan of trial i is call i + 1, so trials 2 and 5 fail; oracle
        # trials scan nothing.
        failing = [2, 5] if angle_stage == "estimated" else []
        calls["n"] = 0
        records = [run_trial(spec, i) for i in range(spec.num_trials)]
        assert isinstance(trials, np.recarray) and len(trials) == 7
        assert trials.angle_errors.shape == (7, 3)
        for name in trials.dtype.names:
            column = trials[name]
            expected = np.array([getattr(record, name) for record in records])
            if column.dtype.kind == "f":  # bit for bit, nan included
                assert column.tobytes() == expected.tobytes(), name
            else:
                assert column.tolist() == expected.tolist(), name
        np.testing.assert_array_equal(trials.failed, trials.failure_reason != "")
        assert np.flatnonzero(trials.failed).tolist() == failing
        # No angles were estimated: an all-nan row; estimated rows are finite.
        estimated = np.zeros(7, bool) if angle_stage == "oracle" else ~trials.failed
        assert np.isnan(trials.angle_errors[~estimated]).all()
        assert np.isfinite(trials.angle_errors[estimated]).all()

    def test_summary_means_match_whole_array_sums(self):
        # Past 8192 trials numpy sums a strided column in blocks, which
        # rounds differently; the summary must agree with contiguous sums.
        # Heavy-tailed values, so that the two summation orders round apart.
        rng = np.random.default_rng(5)
        n = 20000
        trials = np.zeros(n, harness._trial_dtype(3)).view(np.recarray)
        for name in ("h_norm_sq", "sq_error_cp", "sq_error_lp", "snr_cp", "snr_lp"):
            trials[name] = rng.lognormal(0.0, 3.0, n)
        trials.failed[::10] = True
        # data_pow puts the matched-filter bound far above the drawn SNRs.
        summary = summarize(ExperimentSpec(data_pow=100.0), trials)
        assert summary.num_trials == n and summary.num_failures == n // 10
        ok = {name: np.array(trials[name][~trials.failed].tolist())
              for name in ("h_norm_sq", "sq_error_cp", "sq_error_lp", "snr_cp", "snr_lp")}
        assert summary.e_cp_sim == ok["sq_error_cp"].mean()
        assert summary.e_lp_sim == ok["sq_error_lp"].mean()
        assert summary.gamma_cp_sim == ok["snr_cp"].mean()
        assert summary.gamma_lp_sim == ok["snr_lp"].mean()
        assert summary.nrmse_cp == nrmse(ok["sq_error_cp"], ok["h_norm_sq"])
        assert summary.nrmse_lp == nrmse(ok["sq_error_lp"], ok["h_norm_sq"])


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
        errors = _match_angles([0.1, -0.2], [-0.2, 0.1])
        np.testing.assert_allclose(errors, 0.0, atol=1e-15)

    def test_permutation_invariant(self):
        errors = _match_angles([0.3, -0.1, 0.0], [0.0, 0.3, -0.1])
        np.testing.assert_allclose(errors, 0.0, atol=1e-15)

    def test_pairwise_differences(self):
        est = np.deg2rad([-10.0, 10.1])
        true = np.deg2rad([-10.0, 10.0])
        errors = _match_angles(est, true)
        np.testing.assert_allclose(np.rad2deg(errors), [0.0, 0.1], atol=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _match_angles([0.1], [0.1, 0.2])


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
        # snr_cdfs reads the trials that did not fail, so all-failed trials are empty.
        trials = np.zeros(3, harness._trial_dtype(1)).view(np.recarray)
        trials.failed = True
        with pytest.raises(ValueError, match="all trials failed; no CDF to report"):
            snr_cdfs(trials)


class TestSweeps:
    def test_antenna_sweep_theory_columns(self):
        points = _sweep(axis="m", sweep_values="8, 16, 32, 64", trials=2,
                        angle_stage="oracle", seed=1)
        e_cp = [spec.theory().e_cp for _, spec in points]
        e_lp = [spec.theory().e_lp for _, spec in points]
        np.testing.assert_allclose(e_cp, [m / 0.3 for m in (8, 16, 32, 64)], rtol=1e-12)
        np.testing.assert_allclose(e_lp, 10.0, rtol=1e-12)

    def test_pilot_power_sweep_inverse_slope(self):
        points = _sweep(axis="pt", sweep_values="0.01, 0.1, 1", trials=2,
                        angle_stage="oracle", seed=1)
        for (_, spec), ratio in zip(points, (10.0, 1.0, 0.1)):
            assert spec.theory().e_cp == pytest.approx(320.0 / 3.0 * ratio, rel=1e-12)
            assert spec.theory().e_lp == pytest.approx(10.0 * ratio, rel=1e-12)
        np.testing.assert_allclose([value for value, _ in points],
                                   [-20.0, -10.0, 0.0], atol=1e-12)

    def test_joint_power_sweep_tracks_pilot(self):
        ((_, spec),) = _sweep(axis="pd", sweep_values="0.01", trials=2,
                              angle_stage="oracle", seed=1)
        assert spec.theory().e_cp == pytest.approx(32.0 / 0.03, rel=1e-12)

    def test_default_sweep_coverage(self):
        assert [value for value, _ in _sweep(axis="m")] == [8.0, 16.0, 32.0, 64.0]
        pt_db = [10 * np.log10(spec.pilot_pow) for _, spec in _sweep(axis="pt")]
        assert min(pt_db) == pytest.approx(-20.0) and max(pt_db) == pytest.approx(0.0)
        pd_db = [10 * np.log10(spec.data_pow) for _, spec in _sweep(axis="pd")]
        assert min(pd_db) == pytest.approx(-30.0) and max(pd_db) == pytest.approx(5.0)

    def test_fractional_count_sweep_rejected(self):
        # A count point is parsed as its key is, so 8.0 fails as m = 8.0 does.
        for axis in ("m", "rho"):
            for text in ("16.7", "8.0"):
                with pytest.raises(ValueError, match=rf"^sweep_values = '{text}': "
                                                     r"invalid literal for int\(\)"):
                    _sweep(axis=axis, sweep_values=text)
        assert [spec.pilot_pow for _, spec in _sweep(axis="pt", sweep_values=0.5)] == [0.5]
        assert [spec.data_pow for _, spec in _sweep(axis="pd", sweep_values=0.5)] == [0.5]

    def test_missing_axis_rejected(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "x.csv"), "--trials", "1"]) == 2
        assert "m, pt, pd, rho" in capsys.readouterr().err

    def test_point_aggregates_expected_fields(self):
        spec = ExperimentSpec(num_trials=40, angle_stage="oracle", base_seed=12)
        summary = summarize(spec, collect_trials(spec))
        assert summary.num_trials == 40
        assert summary.num_failures == 0
        assert summary.e_cp_sim > summary.e_lp_sim
        assert summary.gamma_cp_sim < summary.gamma_lp_sim

    def test_mean_snr_above_matched_filter_bound_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "empirical_snr", lambda *args: 1e12)
        spec = ExperimentSpec(num_trials=3, angle_stage="oracle", base_seed=12)
        with pytest.raises(ValueError, match="matched-filter bound"):
            summarize(spec, collect_trials(spec))
