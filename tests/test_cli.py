"""End-to-end CLI tests: config parsing, CSV contracts, determinism."""

import csv
from pathlib import Path

import numpy as np
import pytest

import issacsim.cli as cli
import issacsim.simharness as harness
from issacsim.cli import (
    SWEEP_CSV_HEADER,
    _VALID_KEYS,
    _parse_power,
    build_spec,
    load_run_config,
    main,
)
from issacsim.simharness import collect_trials, summarize


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"

# The subcommand scripts/run_experiments.py runs each shipped config with;
# reference_point.cfg is not in that script and runs as a cdf.
CONFIG_COMMANDS = {
    "nrmse_vs_m": "sweep",
    "nrmse_vs_pt": "sweep",
    "reference_point": "cdf",
    "snr_cdf": "cdf",
    "snr_vs_m": "sweep",
    "snr_vs_pd": "sweep",
    "spectrum_demo": "spectrum",
}
CSV_HEADERS = {
    "sweep": list(SWEEP_CSV_HEADER),
    "cdf": ["snr_cp_db", "F_cp", "snr_lp_db", "F_lp"],
    "spectrum": ["angle_deg", "bartlett", "music"],
}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestConfigParsing:
    def test_power_values_db_and_linear(self):
        assert _parse_power("-10 dB") == pytest.approx(0.1)
        assert _parse_power("-10dB") == pytest.approx(0.1)
        assert _parse_power("3 db") == pytest.approx(10 ** 0.3)
        assert _parse_power("0.25") == pytest.approx(0.25)

    def test_full_config_round_trip(self, tmp_path):
        cfg_path = _write(tmp_path, "run.cfg", """
            # reference point with overrides
            m = 16
            l = 2
            mode = multipath
            rho = 4
            kappa = 46
            pt = -10 dB
            pd = 0.2
            sigma2 = 1
            trials = 7
            seed = 123
            angle_stage = oracle
            gain_policy = unit
        """)
        spec, sweep = build_spec(load_run_config(cfg_path))
        assert sweep == (None, ())
        assert spec.num_antennas == 16
        assert spec.num_paths == 2
        assert spec.pilot_len == 4
        assert spec.data_len == 46
        assert spec.pilot_pow == pytest.approx(0.1)
        assert spec.data_pow == pytest.approx(0.2)
        assert spec.num_trials == 7
        assert spec.base_seed == 123
        assert spec.angle_stage == "oracle"
        assert spec.gain_policy == "unit"
        assert spec.angle_policy.fixed is None

    def test_fixed_angles_config(self, tmp_path):
        cfg_path = _write(tmp_path, "run.cfg", "l = 3\nangles_deg = -30, 0, 30\n")
        spec = build_spec(load_run_config(cfg_path))[0]
        np.testing.assert_allclose(np.rad2deg(spec.angle_policy.fixed),
                                   [-30.0, 0.0, 30.0], atol=1e-12)

    # angle_hold_trials, subarrays and pt_tracks_pd were run knobs once, and
    # angle_low_deg, angle_high_deg and min_sep_deg set the random-angle
    # prior; a config that still sets one fails instead of running without it.
    @pytest.mark.parametrize("key", ["antennas", "angle_hold_trials", "subarrays",
                                     "pt_tracks_pd", "angle_low_deg", "angle_high_deg",
                                     "min_sep_deg"])
    def test_unknown_key_rejected(self, tmp_path, capsys, key):
        cfg_path = _write(tmp_path, "run.cfg", f"{key} = 1\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            load_run_config(cfg_path)
        code = main(["cdf", "--config", cfg_path, "--out", str(tmp_path / "x.csv"),
                     "--trials", "1", "--oracle-angles"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}:1: unknown key '{key}'")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()

    # The failure ceiling is the constant cli.MAX_FAILURE_RATE; a config that
    # still sets max_failure_rate, in range or not, exits 2 naming the key.
    @pytest.mark.parametrize("value", ["-1", "1.5", "nan"])
    def test_failure_ceiling_out_of_range_exits_2(self, tmp_path, capsys, value):
        cfg_path = _write(tmp_path, "run.cfg", f"max_failure_rate = {value}\n")
        code = main(["cdf", "--config", cfg_path, "--out", str(tmp_path / "x.csv"),
                     "--trials", "1", "--oracle-angles"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}:1: unknown key 'max_failure_rate'")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "x.csv").exists()

    def test_repeated_key_exits_2_naming_both_lines(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "run.cfg", "pt = -10 dB\nm = 8\npt = 0 dB\n")
        code = main(["cdf", "--config", cfg_path, "--out", str(tmp_path / "x.csv"),
                     "--trials", "1", "--oracle-angles"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "'pt'" in err and "lines 1 and 3" in err
        assert not (tmp_path / "x.csv").exists()

    def test_readme_config_table_lists_every_key(self):
        text = README.read_text(encoding="utf-8")
        table = text.split("## Config files", 1)[1].split("\n## ", 1)[0]
        keys = []
        for line in table.splitlines():
            if line.startswith("| `"):
                first_cell = line.split("|")[1]
                keys += first_cell.replace("`", "").replace(",", " ").split()
        assert sorted(keys) == sorted(_VALID_KEYS)

    def test_malformed_line_rejected(self, tmp_path):
        cfg_path = _write(tmp_path, "run.cfg", "just some words\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            load_run_config(cfg_path)

    def test_byte_order_mark_accepted(self, tmp_path):
        # Some editors save UTF-8 with a leading byte-order mark.
        text = "m = 16\nl = 2\npt = -5 dB\n"
        plain = _write(tmp_path, "plain.cfg", text)
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_run_config(str(bom)) == load_run_config(plain)
        assert build_spec(load_run_config(str(bom))) == build_spec(load_run_config(plain))

    # The line of the first byte that is not UTF-8; a byte-order mark does
    # not shift it.
    @pytest.mark.parametrize("data, lineno", [
        (b"m = \xff6\n", 1),
        (b"\xef\xbb\xbfm = 16\n# note\nl = \xff\n", 3),
    ])
    def test_non_utf8_config_exits_2_naming_its_line(self, tmp_path, capsys, data, lineno):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_bytes(data)
        out = tmp_path / "x.csv"
        code = main(["cdf", "--config", str(cfg_path), "--out", str(out),
                     "--trials", "1", "--oracle-angles"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}:{lineno}: ")
        assert "0xff" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_sweep_values_power_axis_db_entries(self, tmp_path):
        # Transmit SNRs scaled by sigma2 into powers; rows report them in dB.
        cfg_path = _write(tmp_path, "run.cfg",
                          "axis = pt\nsigma2 = 2\nsweep_values = -20 dB, -10 dB, 0 dB\n")
        spec, (axis, points) = build_spec(load_run_config(cfg_path))
        assert axis == "pt"
        np.testing.assert_allclose([p.pilot_pow for _, p in points], [0.02, 0.2, 2.0],
                                   rtol=1e-12)
        np.testing.assert_allclose([value for value, _ in points], [-20.0, -10.0, 0.0],
                                   atol=1e-12)
        assert all(p.data_pow == spec.data_pow for _, p in points)

    def test_sweep_values_count_axis(self, tmp_path):
        cfg_path = _write(tmp_path, "run.cfg", "axis = m\nsweep_values = 8, 16\n")
        _, (_, points) = build_spec(load_run_config(cfg_path))
        assert [value for value, _ in points] == [8.0, 16.0]
        assert [p.num_antennas for _, p in points] == [8, 16]

    def test_sweep_values_without_axis_rejected_in_cdf(self, tmp_path, capsys):
        # As in a sweep (sweep_values_without_axis above), though cdf sweeps nothing.
        cfg_path = _write(tmp_path, "run.cfg", "sweep_values = 8, 16\n")
        out = tmp_path / "x.csv"
        assert main(["cdf", "--config", cfg_path, "--out", str(out), "--trials", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: sweep_values given with no sweep axis; set axis to one of m, pt, pd, rho\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("m = abc\n", "error: m = 'abc': invalid literal for int()"),
        ("pt = -10 dBm\n", "error: pt = '-10 dBm': could not convert string to float"),
        ("sweep_values = -10 dB, 0 dB\n",
         "error: sweep_values given with no sweep axis; set axis to one of m, pt, pd, rho"),
        ("pt = nan\n", "error: pt = 'nan': power must be finite"),
        ("pd = inf\n", "error: pd = 'inf': power must be finite"),
        ("sigma2 = 10000 dB\n", "error: sigma2 = '10000 dB': power must be finite"),
        ("axis = pd\nsweep_values = 0 dB, inf dB\n",
         "error: sweep_values = '0 dB, inf dB': power must be finite"),
        ("grid_step_deg = -1\n",
         "error: grid_step_deg = '-1': grid_step_deg must be finite and >= 0.001, got -1.0"),
        ("grid_step_deg = nan\n",
         "error: grid_step_deg = 'nan': grid_step_deg must be finite and >= 0.001, got nan"),
        ("grid_step_deg = 1e-9\n",
         "error: grid_step_deg = '1e-9': grid_step_deg must be finite and >= 0.001, "
         "got 1e-09"),
        ("l = 1\nangles_deg = 95\n", "error: angles_deg = '95': angle 1.658"),
    ], ids=["spec_key", "composite_key", "sweep_values_without_axis", "nan_power",
            "infinite_power", "overflowing_db_power", "infinite_power_axis_value",
            "negative_grid_step", "nan_grid_step", "tiny_grid_step",
            "angle_out_of_range"])
    def test_bad_value_error_names_its_key(self, tmp_path, capsys, text, message):
        cfg_path = _write(tmp_path, "run.cfg", text)
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x.csv"),
                     "--trials", "2", "--oracle-angles"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert len(err.splitlines()) == 1
        assert err.startswith(message)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text, flags, message", [
        ("mode = foo\n", [], "error: mode = 'foo': mode must be 'los' or 'multipath'"),
        ("angle_stage = foo\n", [],
         "error: angle_stage = 'foo': angle_stage must be 'estimated' or 'oracle'"),
        ("seed = -1\n", [], "error: seed = '-1': base_seed must be nonnegative"),
        ("axis = pt\nsweep_values = ,\n", [],
         "error: sweep_values = ',': sweep_values must be nonempty"),
        # The bad point comes last: every point is checked before any trial.
        ("axis = rho\nsweep_values = 3, 0\ntrials = 1000\n", [],
         "error: sweep_values = '3, 0': gain estimation needs pilot_len >= 1"),
        ("axis = m\nsweep_values = 32, 4\nl = 3\n", [],
         "error: sweep_values = '32, 4', l = '3': subarrays too small"),
        # A default point is named by the axis; m = 8 is too small for l = 5.
        ("l = 5\n", ["--axis", "m"], "error: --axis m, l = '5': subarrays too small"),
        ("axis = m\nl = 5\n", [], "error: axis = 'm', l = '5': subarrays too small"),
        # The points of one axis are not read as points of the flag's axis.
        ("axis = m\nsweep_values = 8, 16\n", ["--axis", "pt"],
         "error: --axis pt, axis = 'm': sweep_values are points on the config's axis"),
        # A flag overrides the config's axis, but a bad one is still named.
        ("axis = banana\n", ["--axis", "m"],
         "error: axis = 'banana': unknown sweep axis 'banana'; valid axes: m, pt, pd, rho"),
        # On the pd axis the pilot power tracks the point, so a bad point is
        # named by the sweep, not by the pt key it overrides.
        ("axis = pd\npt = -10 dB\nsweep_values = 0 dB, -1\n", [],
         "error: sweep_values = '0 dB, -1': powers must be positive"),
        ("rho = 0\n", [], "error: rho = '0': gain estimation needs pilot_len >= 1"),
        ("trials = 0\n", [], "error: trials = '0': num_trials must be >= 1"),
        ("trials = 5\n", ["--trials", "0"], "error: --trials 0: num_trials must be >= 1"),
        ("mode = los\n", [], "error: mode = 'los': los mode requires num_paths == 1"),
        ("pd = 0\n", [], "error: pd = '0': powers must be positive"),
        ("kappa = 0\n", [], "error: kappa = '0': data_len must be a positive integer"),
        ("m = 4\nl = 3\n", [], "error: m = '4', l = '3': subarrays too small"),
        # One antenna's spectrum is flat, so no angle stage can scan it.
        ("m = 1\nl = 1\nmode = los\n", [],
         "error: m = '1': angle estimation needs num_antennas >= 2"),
        # Oracle angles smooth nothing, but the gain solve needs L <= M.
        ("m = 2\nl = 3\nangle_stage = oracle\n", [],
         "error: m = '2', l = '3': more paths than antennas"),
        # Found when the spec is built, not at the first trial's peak search.
        ("l = 3\ngrid_step_deg = 60\n", [],
         "error: l = '3', grid_step_deg = '60': a grid of 4 points is too small for 3 peaks"),
        # Found before the first trial's draw, which used to find them.
        ("gain_policy = foo\n", [],
         "error: gain_policy = 'foo': unknown gain policy 'foo'; use one of gaussian, unit"),
        ("angles_deg = -30, 0\n", [],
         "error: angles_deg = '-30, 0': policy fixes 2 angles but 3 paths requested"),
        # A set l is named beside the list.
        ("angles_deg = -30, 0\nl = 3\n", [],
         "error: l = '3', angles_deg = '-30, 0': policy fixes 2 angles but 3 paths requested"),
        # Found when the spec is built, not at the first trial's draw.
        ("angles_deg = 0, 0, 1\nl = 3\n", [],
         "error: angles_deg = '0, 0, 1': path angles must be pairwise distinct"),
    ], ids=["mode", "angle_stage", "base_seed", "empty_sweep_values",
            "zero_pilots_sweep_point", "small_array_sweep_point", "small_array_default_point",
            "small_array_default_point_from_config", "overridden_axis_with_points",
            "unknown_axis_under_flag", "tracked_pilot_sweep_point", "zero_pilots",
            "zero_trials", "zero_trials_flag", "los_with_three_paths", "zero_data_power",
            "zero_data_len", "small_array", "single_antenna_estimated",
            "more_paths_than_antennas", "coarse_grid", "unknown_gain_policy",
            "fixed_angle_count", "fixed_angle_count_beside_range", "repeated_fixed_angle"])
    def test_bad_spec_value_exits_2_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                     text, flags, message):
        # Each spec value is checked once, when the spec is built, and its
        # error leads with the setting it came from.
        def no_trials(spec, trial_index):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        cfg_path = _write(tmp_path, "run.cfg", text)
        # No --oracle-angles: it would override angle_stage.
        code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "x.csv"),
                     *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(message)
        assert not (tmp_path / "x.csv").exists()


class TestSweepCommand:
    def test_csv_contract_and_round_trip(self, tmp_path):
        out = tmp_path / "sub" / "dir" / "sweep.csv"  # directories auto-created
        code = main(["sweep", "--out", str(out), "--axis", "m", "--trials", "25",
                     "--oracle-angles", "--seed", "5"])
        assert code == 0
        header, rows = _read_csv(out)
        assert tuple(header) == SWEEP_CSV_HEADER
        assert len(rows) == 4
        _, (_, points) = build_spec(
            {"axis": "m", "trials": "25", "seed": "5", "angle_stage": "oracle"})
        db = lambda value: 10.0 * np.log10(value)  # noqa: E731
        for row, (value, spec) in zip(rows, points):
            theory, summary = spec.theory(), summarize(spec, collect_trials(spec))
            expected = [
                value, summary.e_cp_sim, theory.e_cp, summary.e_lp_sim, theory.e_lp,
                summary.nrmse_cp, summary.nrmse_lp,
                db(summary.gamma_cp_sim), db(theory.gamma_cp_approx),
                db(summary.gamma_lp_sim), db(theory.gamma_upper),
                summary.failure_rate, summary.num_trials,
            ]
            assert len(row) == len(expected)
            for column, cell, want in zip(header, row, expected):
                assert float(cell) == pytest.approx(want, rel=1e-11), column

    def test_theory_column_scales_with_antennas(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--out", str(out), "--axis", "m", "--trials", "5",
                     "--oracle-angles", "--seed", "1"])
        assert code == 0
        _, rows = _read_csv(out)
        theory = [float(row[2]) for row in rows]
        np.testing.assert_allclose(theory, [m / 0.3 for m in (8, 16, 32, 64)],
                                   rtol=1e-11)

    def test_single_trial_still_well_formed(self, tmp_path):
        out = tmp_path / "one.csv"
        code = main(["sweep", "--out", str(out), "--axis", "rho", "--trials", "1",
                     "--oracle-angles", "--seed", "2"])
        assert code == 0
        _, rows = _read_csv(out)
        assert all(len(row) == len(SWEEP_CSV_HEADER) for row in rows)

    def test_invalid_axis_flag_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--out", "x.csv", "--axis", "banana"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'banana'" in capsys.readouterr().err

    def test_invalid_axis_in_config(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "run.cfg", "axis = banana\n")
        code = main(["sweep", "--config", cfg_path, "--out",
                     str(tmp_path / "x.csv"), "--trials", "1"])
        assert code == 2
        assert "m, pt, pd, rho" in capsys.readouterr().err

    def test_deterministic_byte_identical(self, tmp_path):
        cfg_path = _write(tmp_path, "run.cfg",
                          "angles_deg = -30, 0, 30\ntrials = 20\nseed = 77\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out1),
                     "--axis", "pt"]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", str(out2),
                     "--axis", "pt"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_failure_ceiling_controls_exit_code(self, tmp_path):
        # a 30 deg grid holds too few MUSIC peaks, so every trial fails
        cfg_path = _write(tmp_path, "run.cfg", "grid_step_deg = 30\n")
        args = ["sweep", "--config", cfg_path, "--out", str(tmp_path / "x.csv"),
                "--axis", "m", "--trials", "2"]
        assert main(args) == 1

    @pytest.mark.parametrize("axis", ["pt", "pd"])
    def test_noiseless_power_sweep_runs(self, tmp_path, axis):
        # Power sweep points are transmit SNRs; with sigma2 = 0 they are
        # taken as absolute powers, as the pt/pd keys are.
        cfg_path = _write(tmp_path, "run.cfg",
                          f"sigma2 = 0\naxis = {axis}\nsweep_values = -10 dB, 0 dB\n")
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", cfg_path, "--out", str(out),
                     "--trials", "3", "--oracle-angles"])
        assert code == 0
        header, rows = _read_csv(out)
        assert len(rows) == 2
        for row in rows:
            record = dict(zip(header, row))
            assert np.isfinite(float(record["e_cp_sim"]))
            assert np.isfinite(float(record["e_lp_sim"]))

    def test_fractional_count_sweep_exits_2(self, tmp_path, capsys):
        for axis in ("m", "rho"):
            cfg_path = _write(tmp_path, "run.cfg", f"axis = {axis}\nsweep_values = 16.7\n")
            code = main(["sweep", "--config", cfg_path, "--out",
                         str(tmp_path / "x.csv"), "--trials", "1", "--oracle-angles"])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "integers" in err


    def test_swept_key_base_value_blocks_only_the_base_point(self, tmp_path, capsys,
                                                             monkeypatch):
        # m = 4 cannot smooth 3 paths, but every point of an m sweep sets m.
        cfg_path = _write(tmp_path, "run.cfg", "m = 4\nl = 3\naxis = m\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out), "--trials", "1"]) == 0
        _, rows = _read_csv(out)
        assert [float(row[0]) for row in rows] == [8.0, 16.0, 32.0, 64.0]
        capsys.readouterr()
        # cdf and spectrum run the base point, so they still reject it.
        def no_trials(spec, trial_index):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trials)
        for command in ("cdf", "spectrum"):
            assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "error: m = '4', l = '3': subarrays too small: "
                "need subarray_size >= num_sources + 1\n")


# The channel mode is set by the mode config key only, and spectrum draws one
# realization, so it takes no trial count.
@pytest.mark.parametrize("command, flag", [("cdf", ["--mode", "los"]),
                                           ("spectrum", ["--trials", "5"])],
                         ids=["cdf_mode", "spectrum_trials"])
def test_mode_flag_exits_with_usage(capsys, command, flag):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--out", "x.csv", *flag])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"unrecognized arguments: {' '.join(flag)}" in err


def test_cdf_and_spectrum_build_no_sweep_points(tmp_path):
    # Both run only the base point (m = 32), so the point m = 4, too small
    # to smooth three paths, is never built.
    cfg_path = _write(tmp_path, "run.cfg", "axis = m\nsweep_values = 32, 4\nl = 3\n")
    for command, flags in (("cdf", ["--trials", "3"]), ("spectrum", [])):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg_path, "--out", str(out), *flags]) == 0
        assert out.exists()


class TestCdfCommand:
    def test_summary_and_series(self, tmp_path):
        out = tmp_path / "cdf.csv"
        code = main(["cdf", "--out", str(out), "--trials", "60", "--seed", "3",
                     "--oracle-angles"])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("# p90_gamma_cp_db = ")
        assert "# p90_gamma_lp_db = " in text
        header, rows = _read_csv(out)
        assert header == ["snr_cp_db", "F_cp", "snr_lp_db", "F_lp"]
        assert len(rows) == 60
        probs = [float(row[1]) for row in rows]
        assert probs == sorted(probs)
        assert probs[-1] == pytest.approx(1.0)

    def test_zero_trials_rejected(self, tmp_path, capsys):
        code = main(["cdf", "--out", str(tmp_path / "x.csv"), "--trials", "0"])
        assert code == 2
        assert "num_trials" in capsys.readouterr().err

    def test_infeasible_min_separation_exits_2(self, tmp_path, capsys):
        # 20 gaps of sin 5 deg overfill the sine range of (-60, 60) deg.
        cfg_path = _write(tmp_path, "run.cfg", "m = 64\nl = 21\n")
        code = main(["cdf", "--config", cfg_path, "--out", str(tmp_path / "x.csv"),
                     "--trials", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: l = '21': 21 angles with sine separation >= 0.0872 "
                              "do not fit in the sine range 1.7321")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["angle_stage = oracle\n", ""],
                             ids=["oracle_spec_build", "estimated_grid"])
    def test_allocation_failure_exits_2_in_one_line(self, tmp_path, capsys, text):
        # 1e16 antennas exceed the address space, so the first array of that
        # size fails at once: the array geometry's, built with the spec under
        # the key's name, with either angle stage.
        cfg_path = _write(tmp_path, "run.cfg", f"m = 10000000000000000\n{text}")
        out = tmp_path / "x.csv"
        assert main(["cdf", "--config", cfg_path, "--out", str(out), "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: m = '10000000000000000': Unable to allocate ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_zero_noise_rejected_exits_2(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "run.cfg", "sigma2 = 0\npt = 1\npd = 1\n")
        out = tmp_path / "x.csv"
        code = main(["cdf", "--config", cfg_path, "--out", str(out), "--trials", "3",
                     "--oracle-angles"])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "sigma2" in captured.err

    def test_all_trials_failed_exits_1_without_csv(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "run.cfg", "grid_step_deg = 30\n")
        out = tmp_path / "x.csv"
        code = main(["cdf", "--config", cfg_path, "--out", str(out), "--trials", "3"])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "all 3 trials failed" in err

    def test_mean_snr_above_matched_filter_bound_exits_2_without_csv(
            self, tmp_path, capsys, monkeypatch):
        # cdf reduces its trials with the same summary as sweep, bound check included.
        monkeypatch.setattr(harness, "empirical_snr", lambda *args: 1e12)
        out = tmp_path / "x.csv"
        code = main(["cdf", "--out", str(out), "--trials", "3", "--oracle-angles"])
        assert code == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: mean receive SNR exceeds the matched-filter bound\n"

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["cdf", "--trials", "40", "--seed", "9", "--oracle-angles"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSpectrumCommand:
    def test_noiseless_los_peak_at_truth(self, tmp_path):
        cfg_path = _write(tmp_path, "run.cfg", """
            mode = los
            l = 1
            angles_deg = 20
            sigma2 = 0
            pt = 1
            pd = 1
            kappa = 20
            seed = 4
        """)
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["angle_deg", "bartlett"]
        angles = np.array([float(row[0]) for row in rows])
        values = np.array([float(row[1]) for row in rows])
        assert abs(angles[np.argmax(values)] - 20.0) <= 0.02 + 1e-9

    def test_multipath_music_peaks(self, tmp_path):
        cfg_path = _write(tmp_path, "run.cfg", """
            angles_deg = -30, 0, 30
            pt = 10 dB
            pd = 10 dB
            seed = 6
        """)
        out = tmp_path / "nested" / "spec.csv"
        assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 0
        header, rows = _read_csv(out)
        assert header == ["angle_deg", "bartlett", "music"]
        angles = np.array([float(row[0]) for row in rows])
        music = np.array([float(row[2]) for row in rows])
        for true_deg in (-30.0, 0.0, 30.0):
            window = np.abs(angles - true_deg) <= 1.0
            peak = angles[window][np.argmax(music[window])]
            assert abs(peak - true_deg) <= 0.1

    def test_too_few_peaks_exits_1_without_csv(self, tmp_path, capsys):
        # a 30 deg grid holds one MUSIC peak for three paths
        cfg_path = _write(tmp_path, "run.cfg", "grid_step_deg = 30\n")
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "spectral peaks" in err

    @pytest.mark.parametrize("text, flags, source", [
        ("", ["--oracle-angles"], "--oracle-angles"),
        ("angle_stage = oracle\n", [], "angle_stage = 'oracle'"),
        # Too small to smooth: the oracle stage is named, not the plan.
        ("m = 4\nl = 3\n", ["--oracle-angles"], "--oracle-angles"),
    ])
    def test_oracle_angle_stage_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                        text, flags, source):
        # spectrum always scans the angles; an oracle stage used to be ignored.
        def no_draws(spec, trial_index):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(cli, "draw_realization", no_draws)
        cfg_path = _write(tmp_path, "run.cfg", text)
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--config", cfg_path, "--out", str(out), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {source}: spectrum scans the angles, so it takes "
                                f"no oracle angle stage\n")
        assert not out.exists()

    def test_missing_config_file_errors(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestCsvFormat:
    """The bytes of every result CSV: ``#`` comment lines, one header row, then
    numbers with 12 significant digits, comma-separated, LF line ends."""

    def test_exact_bytes(self, tmp_path):
        out = tmp_path / "sub" / "t.csv"
        rows = [
            [float("inf"), float("-inf"), float("nan"), -0.0],
            [2000, 1.2345678901234567e-300, 1.0 / 3.0, 0.1],
            [-2.5e22, 123456789012345.0, -1e-05, 1.0],
        ]
        cli._write_csv(out, ("a", "b_db", "c", "d"), rows, ("p90 = -3.5", "trials = 3"))
        assert out.read_bytes() == (
            b"# p90 = -3.5\n"
            b"# trials = 3\n"
            b"a,b_db,c,d\n"
            b"inf,-inf,nan,-0\n"
            b"2000,1.23456789012e-300,0.333333333333,0.1\n"
            b"-2.5e+22,1.23456789012e+14,-1e-05,1\n"
        )

    def test_db_column_of_edge_values_raises_no_warning(self):
        # pyproject.toml makes a RuntimeWarning an error, so this fails if
        # _to_db lets the log of 0 or of a negative value warn.
        np.testing.assert_array_equal(cli._to_db([0.0, -1.0, np.nan, np.inf, 100.0]),
                                      [-np.inf, np.nan, np.nan, np.inf, 20.0])

    def test_one_row_without_comments(self, tmp_path):
        out = tmp_path / "one.csv"
        cli._write_csv(out, ("x", "y", "z"), [[0.5, 2.0 / 3.0, 7]])
        assert out.read_bytes() == b"x,y,z\n0.5,0.666666666667,7\n"


@pytest.mark.parametrize("config", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_config_runs(tmp_path, config):
    command = CONFIG_COMMANDS[config.stem]
    out = tmp_path / "out.csv"
    trials = [] if command == "spectrum" else ["--trials", "2"]
    assert main([command, "--config", str(config), "--out", str(out), *trials]) == 0
    header, _ = _read_csv(out)
    assert header == CSV_HEADERS[command]
