"""Monte Carlo harness: paired trials, aggregation, sweeps, and CDFs.

Each trial draws a fresh channel and received block from a stream derived
only from (base_seed, trial_index), runs both estimators on the identical
block, and records squared errors and realized receive SNRs. Trials are
therefore independent of execution order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .array_channel import (
    AnglePolicy,
    PathSet,
    ReceivedBlock,
    TransmissionConfig,
    UlaGeometry,
    generate_pilot_sequence,
    sample_angles,
    sample_gains,
    simulate_reception,
    synthesize_channel,
)
from .errors import EstimationError
from .estimators import (
    ClosedFormPredictions,
    closed_form_predictions,
    empirical_snr,
    estimate_gain_los,
    estimate_gains_multipath,
    ls_conventional,
    mrc_beamformer,
)
from .subspace import make_angle_grid, scan_angles

__all__ = [
    "ExperimentSpec",
    "TrialResult",
    "SweepPoint",
    "CdfSeries",
    "run_trial",
    "collect_trials",
    "run_sweep",
    "nrmse",
    "empirical_cdf",
    "match_angles",
    "draw_realization",
    "snr_cdfs",
    "SWEEP_AXES",
]

SWEEP_AXES = ("m", "pt", "pd", "rho")

# Stream tags keep the per-block angle stream and the per-trial stream
# statistically independent.
_ANGLE_STREAM = 1
_TRIAL_STREAM = 2

_DEFAULT_SWEEPS_DB = {
    "pt": (-20.0, -15.0, -10.0, -5.0, 0.0),
    "pd": (-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0, 5.0),
}
_DEFAULT_SWEEPS_COUNT = {
    "m": (8, 16, 32, 64),
    "rho": (1, 2, 3, 4, 6, 8),
}


# The one dB conversion pair of the package, shared with the CLI. Private so
# that it stays out of __all__: the benchmark's tracer wraps every __all__
# function, and a cdf run calls _to_db for every CSV row.
def _from_db(db: float) -> float:
    return float(10.0 ** (db / 10.0))


def _to_db(value: float) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(10.0 * np.log10(value))


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one Monte Carlo experiment.

    The defaults are the reference operating point used throughout:
    M = 32 antennas, L = 3 paths, pilot_len 3, transmit SNRs of -10 dB in
    both phases, unit noise variance, and 100 snapshots per block.
    ``pilot_pow``/``data_pow`` are absolute linear powers; with the default
    ``noise_var`` = 1 they equal the transmit SNRs.
    """

    num_antennas: int = 32
    num_paths: int = 3
    mode: str = "multipath"
    angle_policy: AnglePolicy = AnglePolicy()
    gain_policy: str = "gaussian"
    pilot_len: int = 3
    data_len: int = 97
    pilot_pow: float = 0.1
    data_pow: float = 0.1
    noise_var: float = 1.0
    num_trials: int = 2000
    base_seed: int = 0
    angle_stage: str = "estimated"
    grid_step_deg: float = 0.02
    num_subarrays: Optional[int] = None
    angle_hold_trials: int = 1
    sweep_axis: Optional[str] = None
    sweep_values: Optional[Tuple[float, ...]] = None
    pt_tracks_pd: bool = True

    def __post_init__(self):
        if self.mode not in ("los", "multipath"):
            raise ValueError("mode must be 'los' or 'multipath'")
        if self.mode == "los" and self.num_paths != 1:
            raise ValueError("los mode requires num_paths == 1")
        if self.angle_stage not in ("estimated", "oracle"):
            raise ValueError("angle_stage must be 'estimated' or 'oracle'")
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        if self.pilot_len < 1:
            raise ValueError("gain estimation needs pilot_len >= 1")
        if self.angle_hold_trials < 1:
            raise ValueError("angle_hold_trials must be >= 1")
        if self.sweep_axis is not None and self.sweep_axis not in SWEEP_AXES:
            raise ValueError(
                f"unknown sweep axis {self.sweep_axis!r}; valid axes: {', '.join(SWEEP_AXES)}")
        if self.sweep_values is not None:
            values = tuple(float(v) for v in self.sweep_values)
            if not values:
                raise ValueError("sweep_values must be nonempty when given")
            if self.sweep_axis in _DEFAULT_SWEEPS_COUNT and not all(
                    v.is_integer() for v in values):
                raise ValueError(
                    f"sweep_values on the {self.sweep_axis!r} axis must be integers")
            object.__setattr__(self, "sweep_values", values)
        if self.base_seed < 0:
            raise ValueError("base_seed must be nonnegative")

    @property
    def multipath(self) -> bool:
        return self.mode == "multipath"

    def geometry(self) -> UlaGeometry:
        return UlaGeometry(self.num_antennas)

    def transmission(self) -> TransmissionConfig:
        return TransmissionConfig(
            pilot_len=self.pilot_len,
            data_len=self.data_len,
            pilot_power=self.pilot_pow,
            data_power=self.data_pow,
            noise_var=self.noise_var,
        )

    def angle_grid(self) -> np.ndarray:
        return make_angle_grid(self.grid_step_deg)

    def theory(self) -> ClosedFormPredictions:
        return closed_form_predictions(
            self.num_antennas, self.num_paths, self.pilot_pow, self.pilot_len,
            self.noise_var, self.data_pow)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one paired trial.

    A failed trial keeps its conventional fields and leaves the issac ones
    at nan. ``angle_errors`` is None when no angles were estimated: oracle
    runs and failed scans.
    """

    h_norm_sq: float
    sq_error_cp: float
    snr_cp: float
    sq_error_lp: float
    snr_lp: float
    angle_errors: Optional[np.ndarray]
    failed: bool
    failure_reason: str


def _trial_rngs(spec: ExperimentSpec, trial_index: int):
    block_index = trial_index // spec.angle_hold_trials
    rng_angles = np.random.default_rng(
        np.random.SeedSequence((spec.base_seed, _ANGLE_STREAM, block_index)))
    rng_trial = np.random.default_rng(
        np.random.SeedSequence((spec.base_seed, _TRIAL_STREAM, trial_index)))
    return rng_angles, rng_trial


def draw_realization(spec: ExperimentSpec, trial_index: int
                     ) -> Tuple[PathSet, np.ndarray, ReceivedBlock]:
    """Channel and received block for one trial, fully seed-determined.

    Angles come from a stream keyed by the trial's angle-hold block, gains
    and noise from a per-trial stream, so holding angles across a block of
    trials still redraws the gains.
    """
    rng_angles, rng_trial = _trial_rngs(spec, trial_index)
    angles = sample_angles(spec.num_paths, rng_angles, spec.angle_policy)
    gains = sample_gains(spec.num_paths, rng_trial, spec.gain_policy)
    paths = PathSet(angles=angles, gains=gains)
    geom = spec.geometry()
    h = synthesize_channel(geom, paths)
    pilot_seq = generate_pilot_sequence(spec.pilot_len)
    block = simulate_reception(h, spec.transmission(), pilot_seq, rng_trial)
    return paths, h, block


def _issac_estimate(spec: ExperimentSpec, block: ReceivedBlock,
                    thetas_hat: np.ndarray) -> np.ndarray:
    if spec.multipath:
        _, h_hat = estimate_gains_multipath(block, thetas_hat, spec.pilot_pow)
    else:
        _, h_hat = estimate_gain_los(block, float(thetas_hat[0]), spec.pilot_pow)
    return h_hat


def run_trial(spec: ExperimentSpec, trial_index: int) -> TrialResult:
    """One paired trial: both estimators on the identical received block.

    Estimation failures (missing spectral peaks, collided angles) set the
    failure flag instead of raising, so batch runs always complete.
    """
    paths, h, block = draw_realization(spec, trial_index)
    h_norm_sq = float(np.linalg.norm(h) ** 2)

    h_cp = ls_conventional(block, spec.pilot_pow)
    sq_error_cp = float(np.linalg.norm(h_cp - h) ** 2)
    snr_cp = empirical_snr(mrc_beamformer(h_cp), h, spec.data_pow, spec.noise_var)

    angle_errors = None
    sq_error_lp = snr_lp = float("nan")
    failed, failure_reason = False, ""
    try:
        if spec.angle_stage == "oracle":
            thetas_hat = paths.angles
        else:
            thetas_hat = scan_angles(block, spec.num_paths, spec.angle_grid(),
                                     spec.multipath, spec.num_subarrays).angles
            angle_errors = match_angles(thetas_hat, paths.angles)
        h_lp = _issac_estimate(spec, block, thetas_hat)
        sq_error_lp = float(np.linalg.norm(h_lp - h) ** 2)
        snr_lp = empirical_snr(mrc_beamformer(h_lp), h, spec.data_pow, spec.noise_var)
    except EstimationError as exc:
        failed, failure_reason = True, str(exc)

    return TrialResult(
        h_norm_sq=h_norm_sq,
        sq_error_cp=sq_error_cp,
        snr_cp=snr_cp,
        sq_error_lp=sq_error_lp,
        snr_lp=snr_lp,
        angle_errors=angle_errors,
        failed=failed,
        failure_reason=failure_reason,
    )


def collect_trials(spec: ExperimentSpec) -> List[TrialResult]:
    """All trials of the spec, in trial-index order."""
    return [run_trial(spec, i) for i in range(spec.num_trials)]


def nrmse(sq_errors: Sequence[float], h_norms_sq: Sequence[float]) -> float:
    """Root mean squared error normalized by root mean channel energy."""
    sq_errors = np.asarray(sq_errors, dtype=float)
    h_norms_sq = np.asarray(h_norms_sq, dtype=float)
    if sq_errors.size == 0 or sq_errors.shape != h_norms_sq.shape:
        raise ValueError("need matching nonempty error and channel-energy lists")
    return float(np.sqrt(sq_errors.mean()) / np.sqrt(h_norms_sq.mean()))


def match_angles(angles_est: Sequence[float], angles_true: Sequence[float]) -> np.ndarray:
    """Per-path absolute angle errors after sorting both lists.

    Angles are scalar, so sorted positional pairing is the optimal
    assignment.
    """
    est = np.sort(np.asarray(angles_est, dtype=float))
    true = np.sort(np.asarray(angles_true, dtype=float))
    if est.shape != true.shape:
        raise ValueError("angle lists differ in length")
    return np.abs(est - true)


@dataclass(frozen=True)
class CdfSeries:
    """Empirical CDF of a sample with named percentiles."""

    values: np.ndarray
    probabilities: np.ndarray
    percentiles: Dict[float, float]


def empirical_cdf(values: Sequence[float],
                  percentiles: Sequence[float] = (90.0,)) -> CdfSeries:
    """Standard empirical CDF F(x_(i)) = i / n with interpolated percentiles."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one sample")
    ordered = np.sort(values)
    probs = np.arange(1, ordered.size + 1) / ordered.size
    named = {float(p): float(np.percentile(ordered, p)) for p in percentiles}
    return CdfSeries(values=ordered, probabilities=probs, percentiles=named)


def snr_cdfs(trials: Sequence[TrialResult],
             percentiles: Sequence[float] = (90.0,)) -> Dict[str, CdfSeries]:
    """Receive-SNR CDFs of both methods over the non-failed trials."""
    ok = [t for t in trials if not t.failed]
    if not ok:
        raise ValueError("all trials failed; no CDF to report")
    return {
        "conventional": empirical_cdf([t.snr_cp for t in ok], percentiles),
        "issac": empirical_cdf([t.snr_lp for t in ok], percentiles),
    }


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated metrics of one sweep point with theory alongside.

    Means are over the non-failed trials; the SNRs are linear.
    """

    sweep_value: float
    e_cp_sim: float
    e_lp_sim: float
    nrmse_cp: float
    nrmse_lp: float
    gamma_cp_sim: float
    gamma_lp_sim: float
    theory: ClosedFormPredictions
    num_trials: int
    num_failures: int

    @property
    def failure_rate(self) -> float:
        return self.num_failures / self.num_trials


def _summarize(spec: ExperimentSpec, trials: Sequence[TrialResult],
               sweep_value: float) -> SweepPoint:
    ok = [t for t in trials if not t.failed]
    e_cp_sim = e_lp_sim = nrmse_cp = nrmse_lp = gamma_cp = gamma_lp = float("nan")
    if ok:
        sq_cp = np.array([t.sq_error_cp for t in ok])
        sq_lp = np.array([t.sq_error_lp for t in ok])
        h_norms = np.array([t.h_norm_sq for t in ok])
        e_cp_sim = float(sq_cp.mean())
        e_lp_sim = float(sq_lp.mean())
        nrmse_cp = nrmse(sq_cp, h_norms)
        nrmse_lp = nrmse(sq_lp, h_norms)
        gamma_cp = float(np.mean([t.snr_cp for t in ok]))
        gamma_lp = float(np.mean([t.snr_lp for t in ok]))
        # No combiner beats the matched filter: a mean SNR above the mean
        # bound data_pow * |h|^2 / noise_var is a bug, not a result.
        with np.errstate(divide="ignore", invalid="ignore"):
            limit = float(np.divide(spec.data_pow * h_norms.mean(),
                                    spec.noise_var)) * (1.0 + 1e-9)
        if gamma_cp > limit or gamma_lp > limit:
            raise ValueError("mean receive SNR exceeds the matched-filter bound")
    return SweepPoint(
        sweep_value=sweep_value,
        e_cp_sim=e_cp_sim,
        e_lp_sim=e_lp_sim,
        nrmse_cp=nrmse_cp,
        nrmse_lp=nrmse_lp,
        gamma_cp_sim=gamma_cp,
        gamma_lp_sim=gamma_lp,
        theory=spec.theory(),
        num_trials=len(trials),
        num_failures=len(trials) - len(ok),
    )


def _apply_axis(spec: ExperimentSpec, axis: str, value: float) -> ExperimentSpec:
    if axis == "m":
        return dataclasses.replace(spec, num_antennas=int(value))
    if axis == "rho":
        return dataclasses.replace(spec, pilot_len=int(value))
    if axis == "pt":
        return dataclasses.replace(spec, pilot_pow=value * spec.noise_var)
    if axis == "pd":
        data_pow = value * spec.noise_var
        pilot_pow = data_pow if spec.pt_tracks_pd else spec.pilot_pow
        return dataclasses.replace(spec, data_pow=data_pow, pilot_pow=pilot_pow)
    raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")


def default_sweep_values(axis: str) -> Tuple[float, ...]:
    """Default sweep grid per axis (linear power ratios for pt/pd)."""
    if axis in _DEFAULT_SWEEPS_DB:
        return tuple(_from_db(v) for v in _DEFAULT_SWEEPS_DB[axis])
    if axis in _DEFAULT_SWEEPS_COUNT:
        return tuple(float(v) for v in _DEFAULT_SWEEPS_COUNT[axis])
    raise ValueError(f"unknown sweep axis {axis!r}; valid axes: {', '.join(SWEEP_AXES)}")


def run_sweep(spec: ExperimentSpec) -> Tuple[SweepPoint, ...]:
    """Aggregate trials at every sweep value of the spec's axis, in order.

    Power axes report ``sweep_value`` in dB relative to the noise variance;
    count axes report the raw value.
    """
    axis = spec.sweep_axis
    if axis is None:
        raise ValueError(f"spec has no sweep axis; valid axes: {', '.join(SWEEP_AXES)}")
    values = spec.sweep_values or default_sweep_values(axis)
    points = []
    for value in values:
        sub = _apply_axis(spec, axis, value)
        display = _to_db(value) if axis in ("pt", "pd") else float(value)
        points.append(_summarize(sub, collect_trials(sub), display))
    return tuple(points)
