"""Monte Carlo harness: paired trials, aggregation, sweeps, and CDFs.

Each trial draws a fresh channel and received block from a stream derived
only from (base_seed, trial_index), runs both estimators on the identical
block, and records squared errors and realized receive SNRs. Trials are
therefore independent of execution order.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .array_channel import (
    GAIN_POLICIES,
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
from .errors import EstimationError, SpecError, blame
from .estimators import (
    ClosedFormPredictions,
    closed_form_predictions,
    empirical_snr,
    estimate_gains_multipath,
    ls_conventional,
    mrc_beamformer,
)
from .subspace import SubarrayPlan, make_angle_grid, scan_angles

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
]

# Stream tags keep the per-block angle stream and the per-trial stream
# statistically independent.
_ANGLE_STREAM = 1
_TRIAL_STREAM = 2

# Finest accepted scan step, 178 001 grid points. A much finer step asks
# numpy for more memory than a machine has (1.3 TiB at 1e-9 deg); the
# finest shipped step is 0.02 deg.
_MIN_GRID_STEP_DEG = 0.001


@dataclass(frozen=True)
class ExperimentSpec:
    """One operating point of a Monte Carlo experiment; a sweep is a list of them.

    The defaults are the reference operating point used throughout:
    M = 32 antennas, L = 3 paths, pilot_len 3, transmit SNRs of -10 dB in
    both phases, unit noise variance, and 100 snapshots per block.
    ``pilot_pow``/``data_pow`` are absolute linear powers; with the default
    ``noise_var`` = 1 they equal the transmit SNRs. Construction checks
    every value, the angle prior and the subarray plan, so bad values fail
    before a trial, with a SpecError naming the fields at fault.
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
    grid_step_deg: float = 0.5
    num_subarrays: Optional[int] = None
    angle_hold_trials: int = 1

    # Built and checked once per spec and shared by its trials.
    geometry: UlaGeometry = dataclasses.field(init=False, repr=False, compare=False)
    transmission: TransmissionConfig = dataclasses.field(init=False, repr=False, compare=False)
    pilot_seq: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("los", "multipath"):
            raise SpecError("mode", "mode must be 'los' or 'multipath'")
        if self.mode == "los" and self.num_paths != 1:
            raise SpecError("mode num_paths", "los mode requires num_paths == 1")
        if self.angle_stage not in ("estimated", "oracle"):
            raise SpecError("angle_stage", "angle_stage must be 'estimated' or 'oracle'")
        if self.gain_policy not in GAIN_POLICIES:
            raise SpecError("gain_policy", f"unknown gain policy {self.gain_policy!r}; "
                                           f"use one of {', '.join(GAIN_POLICIES)}")
        if self.num_trials < 1:
            raise SpecError("num_trials", "num_trials must be >= 1")
        if self.pilot_len < 1:
            raise SpecError("pilot_len", "gain estimation needs pilot_len >= 1")
        # TransmissionConfig checks these too, but in one message for all.
        for name in ("pilot_pow", "data_pow"):
            if not getattr(self, name) > 0:
                raise SpecError(name, "powers must be positive")
        if not self.noise_var >= 0:
            raise SpecError("noise_var", "noise_var must be nonnegative")
        if self.angle_hold_trials < 1:
            raise SpecError("angle_hold_trials", "angle_hold_trials must be >= 1")
        if not _MIN_GRID_STEP_DEG <= self.grid_step_deg < np.inf:
            raise SpecError("grid_step_deg", f"grid_step_deg must be finite and >= "
                                             f"{_MIN_GRID_STEP_DEG}, got {self.grid_step_deg}")
        if self.base_seed < 0:
            raise SpecError("base_seed", "base_seed must be nonnegative")
        with blame("num_antennas"):
            object.__setattr__(self, "geometry", UlaGeometry(self.num_antennas))
        # The powers and noise are checked above; a fractional length is left.
        with blame("pilot_len data_len"):
            object.__setattr__(self, "transmission", TransmissionConfig(
                self.pilot_len, self.data_len, self.pilot_pow, self.data_pow, self.noise_var))
        object.__setattr__(self, "pilot_seq", generate_pilot_sequence(self.transmission.pilot_len))
        self.pilot_seq.setflags(write=False)
        self.angle_policy.check_paths(self.num_paths)
        if self.multipath and self.angle_stage == "estimated":
            with blame("num_antennas num_paths num_subarrays"):
                SubarrayPlan.for_sources(self.num_antennas, self.num_paths, self.num_subarrays)

    @property
    def multipath(self) -> bool:
        return self.mode == "multipath"

    @functools.cached_property
    def angle_grid(self) -> np.ndarray:
        """The scan grid, built once per spec and shared by its trials."""
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
    h = synthesize_channel(spec.geometry, paths)
    block = simulate_reception(h, spec.transmission, spec.pilot_seq, rng_trial)
    return paths, h, block


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
            thetas_hat = scan_angles(block, spec.num_paths, spec.angle_grid,
                                     spec.multipath, spec.num_subarrays).angles
            angle_errors = match_angles(thetas_hat, paths.angles)
        _, h_lp = estimate_gains_multipath(h_cp, thetas_hat)
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
    """Empirical CDF of a sample with its 90th percentile."""

    values: np.ndarray
    probabilities: np.ndarray
    percentiles: Dict[float, float]


def empirical_cdf(values: Sequence[float]) -> CdfSeries:
    """Standard empirical CDF F(x_(i)) = i / n with the interpolated p90."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one sample")
    ordered = np.sort(values)
    probs = np.arange(1, ordered.size + 1) / ordered.size
    return CdfSeries(values=ordered, probabilities=probs,
                     percentiles={90.0: float(np.percentile(ordered, 90.0))})


def snr_cdfs(trials: Sequence[TrialResult]) -> Dict[str, CdfSeries]:
    """Receive-SNR CDFs of both methods over the non-failed trials."""
    ok = [t for t in trials if not t.failed]
    if not ok:
        raise ValueError("all trials failed; no CDF to report")
    return {
        "conventional": empirical_cdf([t.snr_cp for t in ok]),
        "issac": empirical_cdf([t.snr_lp for t in ok]),
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


def run_sweep(points: Sequence[Tuple[float, ExperimentSpec]]) -> Tuple[SweepPoint, ...]:
    """Aggregate the trials of every ``(sweep_value, spec)`` point, in order."""
    return tuple(_summarize(spec, collect_trials(spec), value) for value, spec in points)
