"""Command-line front end: config parsing, simulation runs, CSV emission.

Three subcommands cover the standard experiment shapes:

* ``sweep``    -- aggregate both estimators across a parameter sweep;
* ``cdf``      -- receive-SNR CDFs of both estimators at a fixed point;
* ``spectrum`` -- pseudospectra of a single seeded realization.

Config files are flat ``key = value`` text; ``#`` starts a comment. Power
quantities accept either a linear ratio (``pt = 0.1``) or decibels with an
explicit suffix (``pt = -10 dB``); both are relative to the noise variance.
Angles are degrees in config files and CSV output, radians internally.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .array_channel import AnglePolicy
from .errors import EstimationError
from .simharness import (
    SWEEP_AXES,
    ExperimentSpec,
    _from_db,
    _to_db,
    collect_trials,
    draw_realization,
    run_sweep,
    snr_cdfs,
)
from .subspace import bartlett_spectrum, sample_covariance, scan_angles

__all__ = ["main", "load_run_config", "build_spec"]

SWEEP_CSV_HEADER = (
    "sweep_value", "e_cp_sim", "e_cp_theory", "e_lp_sim", "e_lp_theory",
    "nrmse_cp", "nrmse_lp", "gamma_cp_sim_db", "gamma_cp_approx_db",
    "gamma_lp_sim_db", "gamma_upper_db", "failure_rate", "trials",
)

_VALID_KEYS = (
    "m", "l", "mode", "angles_deg", "angle_low_deg", "angle_high_deg",
    "min_sep_deg", "gain_policy", "rho", "kappa", "pt", "pd", "sigma2",
    "trials", "seed", "angle_stage", "angle_hold_trials", "grid_step_deg",
    "subarrays", "axis", "sweep_values", "pt_tracks_pd", "max_failure_rate",
)

DEFAULT_MAX_FAILURE_RATE = 0.1


def _parse_power(text: str) -> float:
    """Linear ratio from either a bare number or '<x> dB'."""
    stripped = text.strip()
    if stripped.lower().endswith("db"):
        return _from_db(float(stripped[:-2].strip()))
    return float(stripped)


def _parse_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("true", "yes", "1", "on"):
        return True
    if val in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def _parse_list(text: str) -> List[str]:
    items = [item.strip() for item in text.split(",")]
    return [item for item in items if item]


def load_run_config(path: Optional[str]) -> Dict[str, str]:
    """Read a flat key=value config file; unknown keys are rejected."""
    if path is None:
        return {}
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip().lower()
        if key not in _VALID_KEYS:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; valid keys: {', '.join(_VALID_KEYS)}")
        raw[key] = value.strip()
    return raw


def _angle_policy_from(cfg: Dict[str, str]) -> AnglePolicy:
    if "angles_deg" in cfg:
        fixed = tuple(np.deg2rad(float(v)) for v in _parse_list(cfg["angles_deg"]))
        return AnglePolicy(fixed=fixed)
    kwargs = {}
    if "angle_low_deg" in cfg:
        kwargs["low"] = float(np.deg2rad(float(cfg["angle_low_deg"])))
    if "angle_high_deg" in cfg:
        kwargs["high"] = float(np.deg2rad(float(cfg["angle_high_deg"])))
    if "min_sep_deg" in cfg:
        kwargs["min_sin_sep"] = float(np.sin(np.deg2rad(float(cfg["min_sep_deg"]))))
    return AnglePolicy(**kwargs)


def build_spec(cfg: Dict[str, str],
               args: Optional[argparse.Namespace] = None
               ) -> Tuple[ExperimentSpec, float]:
    """ExperimentSpec from a parsed config plus CLI overrides.

    Returns the spec and the failure-rate ceiling for the exit status.
    """
    kwargs: Dict[str, object] = {}
    if "m" in cfg:
        kwargs["num_antennas"] = int(cfg["m"])
    if "l" in cfg:
        kwargs["num_paths"] = int(cfg["l"])
    if "mode" in cfg:
        kwargs["mode"] = cfg["mode"].lower()
    if "gain_policy" in cfg:
        kwargs["gain_policy"] = cfg["gain_policy"].lower()
    if "rho" in cfg:
        kwargs["pilot_len"] = int(cfg["rho"])
    if "kappa" in cfg:
        kwargs["data_len"] = int(cfg["kappa"])
    if "trials" in cfg:
        kwargs["num_trials"] = int(cfg["trials"])
    if "seed" in cfg:
        kwargs["base_seed"] = int(cfg["seed"])
    if "angle_stage" in cfg:
        kwargs["angle_stage"] = cfg["angle_stage"].lower()
    if "angle_hold_trials" in cfg:
        kwargs["angle_hold_trials"] = int(cfg["angle_hold_trials"])
    if "grid_step_deg" in cfg:
        kwargs["grid_step_deg"] = float(cfg["grid_step_deg"])
    if "subarrays" in cfg:
        count = int(cfg["subarrays"])
        if count < 0:
            raise ValueError(f"subarrays must be >= 0 (0 = auto), got {count}")
        kwargs["num_subarrays"] = count or None
    if "pt_tracks_pd" in cfg:
        kwargs["pt_tracks_pd"] = _parse_bool(cfg["pt_tracks_pd"])
    if "axis" in cfg:
        kwargs["sweep_axis"] = cfg["axis"].lower()

    noise_var = _parse_power(cfg["sigma2"]) if "sigma2" in cfg else 1.0
    kwargs["noise_var"] = noise_var
    # pt/pd are transmit SNRs; absolute power is ratio * noise variance.
    # With zero noise the ratio is taken as the absolute power directly.
    power_scale = noise_var if noise_var > 0 else 1.0
    if "pt" in cfg:
        kwargs["pilot_pow"] = _parse_power(cfg["pt"]) * power_scale
    if "pd" in cfg:
        kwargs["data_pow"] = _parse_power(cfg["pd"]) * power_scale

    kwargs["angle_policy"] = _angle_policy_from(cfg)

    if args is not None:
        if getattr(args, "seed", None) is not None:
            kwargs["base_seed"] = args.seed
        if getattr(args, "trials", None) is not None:
            kwargs["num_trials"] = args.trials
        if getattr(args, "mode", None) is not None:
            kwargs["mode"] = args.mode
        if getattr(args, "oracle_angles", False):
            kwargs["angle_stage"] = "oracle"
        if getattr(args, "axis", None) is not None:
            kwargs["sweep_axis"] = args.axis

    if "sweep_values" in cfg:
        axis = kwargs.get("sweep_axis")
        entries = _parse_list(cfg["sweep_values"])
        if axis in ("pt", "pd"):
            values = tuple(_parse_power(entry) for entry in entries)
        else:
            values = tuple(float(entry) for entry in entries)
        kwargs["sweep_values"] = values

    ceiling = float(cfg.get("max_failure_rate", DEFAULT_MAX_FAILURE_RATE))
    if not 0.0 <= ceiling <= 1.0:
        raise ValueError(f"max_failure_rate must lie in [0, 1], got {ceiling}")
    return ExperimentSpec(**kwargs), ceiling


def _fmt(value: float) -> str:
    return "%.12g" % float(value)


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[float]],
               comments: Sequence[str] = ()) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec, ceiling = build_spec(load_run_config(args.config), args)
    points = run_sweep(spec)
    rows = []
    for p in points:
        rows.append((
            p.sweep_value, p.e_cp_sim, p.theory.e_cp, p.e_lp_sim, p.theory.e_lp,
            p.nrmse_cp, p.nrmse_lp,
            _to_db(p.gamma_cp_sim), _to_db(p.theory.gamma_cp_approx),
            _to_db(p.gamma_lp_sim), _to_db(p.theory.gamma_upper),
            p.failure_rate, p.num_trials,
        ))
    _write_csv(Path(args.out), SWEEP_CSV_HEADER, rows)
    worst = max(p.failure_rate for p in points)
    for p in points:
        print(f"{spec.sweep_axis}={_fmt(p.sweep_value)}: "
              f"e_cp={p.e_cp_sim:.4g} (theory {p.theory.e_cp:.4g}), "
              f"e_lp={p.e_lp_sim:.4g} (theory {p.theory.e_lp:.4g}), "
              f"failures={p.num_failures}/{p.num_trials}")
    print(f"wrote {args.out}")
    return 0 if worst <= ceiling else 1


def _cmd_cdf(args: argparse.Namespace) -> int:
    spec, ceiling = build_spec(load_run_config(args.config), args)
    if spec.noise_var == 0:
        raise ValueError("cdf needs sigma2 > 0: with sigma2 = 0 every receive SNR is infinite")
    trials = collect_trials(spec)
    failures = sum(t.failed for t in trials)
    if failures == len(trials):
        print(f"error: all {failures} trials failed; no CDF written", file=sys.stderr)
        return 1
    series = snr_cdfs(trials)
    cp, lp = series["conventional"], series["issac"]
    rows = [
        (_to_db(cv), cf, _to_db(lv), lf)
        for cv, cf, lv, lf in zip(cp.values, cp.probabilities,
                                  lp.values, lp.probabilities)
    ]
    comments = (
        f"p90_gamma_cp_db = {_fmt(_to_db(cp.percentiles[90.0]))}",
        f"p90_gamma_lp_db = {_fmt(_to_db(lp.percentiles[90.0]))}",
        f"trials = {len(trials)}",
        f"failures = {failures}",
    )
    _write_csv(Path(args.out), ("snr_cp_db", "F_cp", "snr_lp_db", "F_lp"),
               rows, comments)
    print(f"90th percentile receive SNR: conventional "
          f"{_to_db(cp.percentiles[90.0]):.2f} dB, "
          f"issac {_to_db(lp.percentiles[90.0]):.2f} dB "
          f"({failures}/{len(trials)} trials failed)")
    print(f"wrote {args.out}")
    failure_rate = failures / len(trials)
    return 0 if failure_rate <= ceiling else 1


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec, _ = build_spec(load_run_config(args.config), args)
    _, _, block = draw_realization(spec, 0)
    grid = spec.angle_grid()
    peaks = scan_angles(block, spec.num_paths, grid, spec.multipath, spec.num_subarrays)
    columns = [np.rad2deg(grid), bartlett_spectrum(sample_covariance(block), grid).values]
    header = ["angle_deg", "bartlett"]
    if spec.multipath:
        columns.append(peaks.spectrum.values)
        header.append("music")
    _write_csv(Path(args.out), header, list(zip(*columns)))
    peak_list = ", ".join(f"{v:.3f}" for v in np.rad2deg(peaks.angles))
    print(f"estimated angles (deg): {peak_list}")
    print(f"wrote {args.out}")
    return 0


def _add_common_args(parser: argparse.ArgumentParser, with_axis: bool) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="flat key=value config file")
    parser.add_argument("--out", metavar="PATH", required=True,
                        help="output CSV path (directories are created)")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the base seed")
    parser.add_argument("--trials", type=int, default=None, metavar="N",
                        help="override the trial count")
    parser.add_argument("--mode", choices=("los", "multipath"), default=None,
                        help="override the channel mode")
    parser.add_argument("--oracle-angles", action="store_true",
                        help="skip angle estimation and use the true angles")
    if with_axis:
        parser.add_argument("--axis", choices=SWEEP_AXES, default=None,
                            help="sweep axis")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="issacsim",
        description="Uplink SIMO channel-estimation simulator: pilot LS vs "
                    "subspace angle-then-gain estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="parameter sweep with theory columns")
    _add_common_args(p_sweep, with_axis=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cdf = sub.add_parser("cdf", help="receive-SNR CDFs at a fixed point")
    _add_common_args(p_cdf, with_axis=False)
    p_cdf.set_defaults(func=_cmd_cdf)

    p_spec = sub.add_parser("spectrum", help="pseudospectra of one realization")
    _add_common_args(p_spec, with_axis=False)
    p_spec.set_defaults(func=_cmd_spectrum)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        # Reached only by spectrum; sweep and cdf count failed trials instead.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
