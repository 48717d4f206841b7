"""Command-line front end: config parsing, sweep points, simulation runs, CSV emission.

Three subcommands cover the standard experiment shapes:

* ``sweep``    -- aggregate both estimators across a parameter sweep;
* ``cdf``      -- receive-SNR CDFs of both estimators at a fixed point;
* ``spectrum`` -- pseudospectra of a single seeded realization.

Config files are flat ``key = value`` text; ``#`` starts a comment. Power
quantities accept either a linear ratio (``pt = 0.1``) or decibels with an
explicit suffix (``pt = -10 dB``); both are relative to the noise variance.
Decibels, the scaling by the noise variance and the sweep points live here:
the harness runs specs of absolute linear values, one per sweep point.
Angles are degrees in config files and CSV output, radians internally.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .array_channel import AnglePolicy
from .errors import EstimationError, SpecError
from .simharness import ExperimentSpec, collect_trials, draw_realization, snr_cdfs, summarize
from .subspace import bartlett_spectrum, sample_covariance, scan_angles

__all__ = ["main", "load_run_config", "build_spec"]

SWEEP_CSV_HEADER = (
    "sweep_value", "e_cp_sim", "e_cp_theory", "e_lp_sim", "e_lp_theory",
    "nrmse_cp", "nrmse_lp", "gamma_cp_sim_db", "gamma_cp_approx_db",
    "gamma_lp_sim_db", "gamma_upper_db", "failure_rate", "trials",
)

# A run whose estimation-failure rate exceeds this exits 1.
MAX_FAILURE_RATE = 0.1

# Sweep axes, each named after the config key it sweeps, with its default
# sweep_values: transmit SNRs on the power axes, counts on the others.
_AXES = {
    "m": "8, 16, 32, 64",
    "pt": "-20 dB, -15 dB, -10 dB, -5 dB, 0 dB",
    "pd": "-30 dB, -25 dB, -20 dB, -15 dB, -10 dB, -5 dB, 0 dB, 5 dB",
    "rho": "1, 2, 3, 4, 6, 8",
}
_POWER_AXES = ("pt", "pd")
Sweep = Tuple[Optional[str], Tuple[Tuple[float, ExperimentSpec], ...]]


# The one dB conversion pair of the package. _to_db converts whole columns:
# 0 gives -inf and a negative or nan value gives nan, without a warning.
def _from_db(db: float) -> float:
    return float(10.0 ** (db / 10.0))


def _to_db(value: np.typing.ArrayLike) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return 10.0 * np.log10(value)


def _power_from_snr(snr: float, noise_var: float) -> float:
    """Absolute power of a transmit SNR; with zero noise the SNR is the power."""
    return snr * noise_var if noise_var > 0 else snr


def _parse_power(text: str) -> float:
    """Finite linear ratio from either a bare number or '<x> dB'."""
    stripped = text.strip()
    try:
        if stripped.lower().endswith("db"):
            value = _from_db(float(stripped[:-2].strip()))
        else:
            value = float(stripped)
    except OverflowError:
        value = float("inf")
    if not np.isfinite(value):
        raise ValueError("power must be finite")
    return value


def _parse_list(text: str) -> List[str]:
    items = [item.strip() for item in text.split(",")]
    return [item for item in items if item]


def _parse_angles(text: str) -> AnglePolicy:
    """Fixed path angles from a list of degrees."""
    return AnglePolicy(fixed=tuple(np.deg2rad([float(v) for v in _parse_list(text)])))


def _parse_points(axis: str, text: str) -> Tuple[float, ...]:
    """Sweep points, each parsed as a value of the axis key."""
    values = tuple(map(_SPEC_KEYS[axis][1], _parse_list(text)))
    if not values:
        raise ValueError("sweep_values must be nonempty when given")
    return values


# Config keys that set one ExperimentSpec field: key -> (field, parser).
# pt and pd are transmit SNRs, which build_spec scales by sigma2. A CLI
# flag named like one of these keys (--seed, --trials) overrides it.
_SPEC_KEYS = {
    "m": ("num_antennas", int),
    "l": ("num_paths", int),
    "mode": ("mode", str.lower),
    "gain_policy": ("gain_policy", str.lower),
    "rho": ("pilot_len", int),
    "kappa": ("data_len", int),
    "trials": ("num_trials", int),
    "seed": ("base_seed", int),
    "angle_stage": ("angle_stage", str.lower),
    "grid_step_deg": ("grid_step_deg", float),
    "angles_deg": ("angle_policy", _parse_angles),
    "pt": ("pilot_pow", _parse_power),
    "pd": ("data_pow", _parse_power),
    "sigma2": ("noise_var", _parse_power),
}
_VALID_KEYS = (*_SPEC_KEYS, "axis", "sweep_values")


def _parse_key(cfg: Dict[str, str], key: str, parse: Callable[[str], Any],
               default: Any = None) -> Any:
    """``parse(cfg[key])`` (``default`` when the key is absent), with the key
    and its text leading a parse error."""
    if key not in cfg:
        return default
    try:
        return parse(cfg[key])
    except ValueError as exc:
        raise ValueError(f"{key} = {cfg[key]!r}: {exc}") from None


def load_run_config(path: Optional[str]) -> Dict[str, str]:
    """Read a flat key=value config file; unknown keys are rejected."""
    if path is None:
        return {}
    try:
        # utf-8-sig drops the byte-order mark some editors write.
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} "
                         f"(byte {exc.object[exc.start]:#04x})") from None
    raw: Dict[str, str] = {}
    first_line: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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
        if key in raw:
            raise ValueError(
                f"{path}:{lineno}: key {key!r} given twice (lines {first_line[key]} and {lineno})")
        raw[key], first_line[key] = value.strip(), lineno
    return raw


def build_spec(cfg: Dict[str, str], args: Optional[argparse.Namespace] = None
               ) -> Tuple[Optional[ExperimentSpec], Sweep]:
    """ExperimentSpec from a parsed config plus CLI overrides.

    Returns the spec and the sweep: its axis (None when unset) and the
    ``(sweep_value, spec)`` pair of each point. Only the specs the command
    runs are built, and so checked: ``sweep`` with points gets no spec, so
    the base value of the swept key is not checked, and ``cdf`` and
    ``spectrum`` get no points. ``spectrum`` draws one realization, so its
    spec takes the default trial count and not the config's.
    """
    flags = vars(args) if args is not None else {}
    command = flags.get("command")
    kwargs: Dict[str, object] = {
        field: _parse_key(cfg, key, parse) for key, (field, parse) in _SPEC_KEYS.items()
        if key in cfg and not (command == "spectrum" and key == "trials")}
    # Where each key's value came from: the config, or a flag overriding it.
    sources = {key: f"{key} = {cfg[key]!r}" for key in _VALID_KEYS if key in cfg}
    for key, (field, _) in _SPEC_KEYS.items():
        if flags.get(key) is not None:
            kwargs[field], sources[key] = flags[key], f"--{key} {flags[key]}"
    if flags.get("oracle_angles"):
        kwargs["angle_stage"], sources["angle_stage"] = "oracle", "--oracle-angles"
    if command == "spectrum" and kwargs.get("angle_stage") == "oracle":
        raise ValueError(f"{sources['angle_stage']}: spectrum scans the angles, so it "
                         f"takes no oracle angle stage")

    noise_var = kwargs.get("noise_var", 1.0)
    for field in ("pilot_pow", "data_pow"):
        if field in kwargs:
            kwargs[field] = _power_from_snr(kwargs[field], noise_var)

    cfg_axis = cfg["axis"].lower() if "axis" in cfg else None
    if cfg_axis not in (None, *_AXES):
        raise ValueError(f"axis = {cfg['axis']!r}: unknown sweep axis {cfg_axis!r}; "
                         f"valid axes: {', '.join(_AXES)}")
    axis = flags.get("axis") or cfg_axis
    if flags.get("axis"):
        sources["axis"] = f"--axis {axis}"
        if "sweep_values" in cfg and cfg_axis not in (None, axis):
            raise ValueError(f"--axis {axis}, axis = {cfg['axis']!r}: sweep_values are points "
                             f"on the config's axis; drop --axis or set axis and sweep_values")
    if "sweep_values" in cfg and axis is None:
        raise ValueError(f"sweep_values given with no sweep axis; set axis to one "
                         f"of {', '.join(_AXES)}")
    values = _parse_key(cfg, "sweep_values", lambda text: _parse_points(axis, text),
                        _parse_points(axis, _AXES[axis]) if axis else ())
    # A point's value stands in for the keys it sets, and leads its errors;
    # a pd point sets the pilot power too.
    keys = ("pd", "pt") if axis == "pd" else (axis,) if axis else ()
    point_sources = dict.fromkeys(keys, sources.get("sweep_values", sources.get("axis"))) | {
        key: text for key, text in sources.items() if key not in keys}

    try:
        # sweep runs only its points, which override the swept keys, and cdf
        # and spectrum only the spec; with no command both are built.
        spec = None if command == "sweep" and values else ExperimentSpec(**kwargs)
        sources = point_sources  # from here on, errors are those of the points
        power = axis in _POWER_AXES
        points = tuple((_to_db(v) if power else v, ExperimentSpec(**kwargs | {
            _SPEC_KEYS[key][0]: _power_from_snr(v, noise_var) if power else v for key in keys}))
            for v in (values if command in (None, "sweep") else ()))
    except SpecError as exc:
        named = ", ".join(text for key, text in sources.items()
                          if key in _SPEC_KEYS and _SPEC_KEYS[key][0] in exc.fields)
        raise ValueError(f"{named}: {exc}" if named else str(exc)) from None
    return spec, (axis, points)


def _write_csv(path: Path, header: Sequence[str], table: np.typing.ArrayLike,
               comments: Sequence[str] = ()) -> None:
    """``# comment`` lines, the header and a 2-D table of numbers with 12
    significant digits, LF line ends."""
    path.parent.mkdir(parents=True, exist_ok=True)
    head = "\n".join([*(f"# {comment}" for comment in comments), ",".join(header)])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        np.savetxt(handle, table, fmt="%.12g", delimiter=",", header=head, comments="")


def _cmd_sweep(sweep: Sweep, args: argparse.Namespace) -> int:
    axis, points = sweep
    if axis is None:
        raise ValueError(f"sweep needs an axis; set axis or --axis to one of {', '.join(_AXES)}")
    runs = [(value, spec.theory(), summarize(spec, collect_trials(spec)))
            for value, spec in points]
    table = np.array([(value, s.e_cp_sim, t.e_cp, s.e_lp_sim, t.e_lp, s.nrmse_cp, s.nrmse_lp,
                       s.gamma_cp_sim, t.gamma_cp_approx, s.gamma_lp_sim, t.gamma_upper,
                       s.failure_rate, s.num_trials) for value, t, s in runs])
    table[:, 7:11] = _to_db(table[:, 7:11])  # the four gamma_*_db columns
    _write_csv(Path(args.out), SWEEP_CSV_HEADER, table)
    for value, t, s in runs:
        print(f"{axis}={value:.12g}: "
              f"e_cp={s.e_cp_sim:.4g} (theory {t.e_cp:.4g}), "
              f"e_lp={s.e_lp_sim:.4g} (theory {t.e_lp:.4g}), "
              f"failures={s.num_failures}/{s.num_trials}")
    print(f"wrote {args.out}")
    return 0 if max(s.failure_rate for _, _, s in runs) <= MAX_FAILURE_RATE else 1


def _cmd_cdf(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    if spec.noise_var == 0:
        raise ValueError("cdf needs sigma2 > 0: with sigma2 = 0 every receive SNR is infinite")
    trials = collect_trials(spec)
    summary = summarize(spec, trials)
    if summary.num_failures == summary.num_trials:
        print(f"error: all {summary.num_trials} trials failed; no CDF written", file=sys.stderr)
        return 1
    series = snr_cdfs(trials)
    cp, lp = series["conventional"], series["issac"]
    table = np.column_stack((_to_db(cp.values), cp.probabilities,
                             _to_db(lp.values), lp.probabilities))
    p90_cp, p90_lp = _to_db([cp.percentiles[90.0], lp.percentiles[90.0]])
    comments = (
        f"p90_gamma_cp_db = {p90_cp:.12g}",
        f"p90_gamma_lp_db = {p90_lp:.12g}",
        f"trials = {summary.num_trials}",
        f"failures = {summary.num_failures}",
    )
    _write_csv(Path(args.out), ("snr_cp_db", "F_cp", "snr_lp_db", "F_lp"),
               table, comments)
    print(f"90th percentile receive SNR: conventional {p90_cp:.2f} dB, issac {p90_lp:.2f} dB "
          f"({summary.num_failures}/{summary.num_trials} trials failed)")
    print(f"wrote {args.out}")
    return 0 if summary.failure_rate <= MAX_FAILURE_RATE else 1


def _cmd_spectrum(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    _, _, block = draw_realization(spec, 0)
    grid = spec.angle_grid
    peaks = scan_angles(block, spec.num_paths, grid, spec.plan)
    # In LoS mode scan_angles has already scanned the Bartlett spectrum.
    bartlett = (bartlett_spectrum(sample_covariance(block), grid) if spec.multipath
                else peaks.spectrum)
    columns = [np.rad2deg(grid.angles), bartlett.values]
    header = ["angle_deg", "bartlett"]
    if spec.multipath:
        columns.append(peaks.spectrum.values)
        header.append("music")
    _write_csv(Path(args.out), header, np.column_stack(columns))
    peak_list = ", ".join(f"{v:.3f}" for v in np.rad2deg(peaks.angles))
    print(f"estimated angles (deg): {peak_list}")
    print(f"wrote {args.out}")
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="issacsim",
        description="Uplink SIMO channel-estimation simulator: pilot LS vs "
                    "subspace angle-then-gain estimation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
            ("sweep", _cmd_sweep, "parameter sweep with theory columns"),
            ("cdf", _cmd_cdf, "receive-SNR CDFs at a fixed point"),
            ("spectrum", _cmd_spectrum, "pseudospectra of one realization")):
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=handler)
        command.add_argument("--config", metavar="PATH", default=None,
                             help="flat key=value config file")
        command.add_argument("--out", metavar="PATH", required=True,
                             help="output CSV path (directories are created)")
        command.add_argument("--seed", type=int, default=None, metavar="U64",
                             help="override the base seed")
        # spectrum draws one realization, so it takes no trial count.
        if name != "spectrum":
            command.add_argument("--trials", type=int, default=None, metavar="N",
                                 help="override the trial count")
        command.add_argument("--oracle-angles", action="store_true",
                             help="skip angle estimation and use the true angles")
        if name == "sweep":
            command.add_argument("--axis", choices=tuple(_AXES), default=None,
                                 help="sweep axis")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec, sweep = build_spec(load_run_config(args.config), args)
        # sweep runs the points of the sweep; cdf and spectrum run the spec.
        return args.func(sweep if args.command == "sweep" else spec, args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        # Reached only by spectrum; sweep and cdf count failed trials instead.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
