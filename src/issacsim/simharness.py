"""Monte Carlo harness: paired trials, their summary, and CDFs.

Each trial draws a fresh channel and received block from a stream derived
only from (base_seed, trial_index), runs both estimators on the identical
block, and records squared errors and realized receive SNRs. Trials are
therefore independent of execution order. The trials of a spec are one
numpy record array, and the summary and CDFs reduce its columns.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

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
from .subspace import ScanGrid, SubarrayPlan, make_angle_grid, scan_angles

__all__ = [
    "ExperimentSpec",
    "PointSummary",
    "CdfSeries",
    "run_trial",
    "collect_trials",
    "summarize",
    "draw_realization",
    "snr_cdfs",
]

# Stream tags keep the angle stream and the gain-and-noise stream of a
# trial statistically independent.
_ANGLE_STREAM = 1
_TRIAL_STREAM = 2

# Bounds of the transmit SNRs and of a nonzero noise variance, +-300 dB:
# past them a trial's powers, norms and SNRs overflow or underflow. The
# slack keeps a bound SNR that was scaled by noise_var and back inside.
_MIN_RATIO, _MAX_RATIO = 1e-30 * (1.0 - 1e-12), 1e30 * (1.0 + 1e-12)

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
    every value, the angle prior and the angle stage, so bad values fail
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

    # Built and checked once per spec and shared by its trials.
    geometry: UlaGeometry = dataclasses.field(init=False, repr=False, compare=False)
    transmission: TransmissionConfig = dataclasses.field(init=False, repr=False, compare=False)
    pilot_seq: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    # The angle stage: the scan grid with its tables, and the subarray plan of
    # smoothed MUSIC (None: a Bartlett scan for LoS); both None for oracle angles.
    angle_grid: Optional[ScanGrid] = dataclasses.field(init=False, repr=False, compare=False)
    plan: Optional[SubarrayPlan] = dataclasses.field(init=False, repr=False, compare=False)

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
        if self.noise_var and not _MIN_RATIO <= self.noise_var <= _MAX_RATIO:
            raise SpecError("noise_var", f"noise_var must be 0 or in [1e-30, 1e30] "
                                         f"(+-300 dB), got {self.noise_var:.6g}")
        for name in ("pilot_pow", "data_pow"):
            # The transmit SNR; with zero noise the power itself.
            snr = getattr(self, name) / (self.noise_var or 1.0)
            if not _MIN_RATIO <= snr <= _MAX_RATIO:
                raise SpecError(name, f"transmit SNR {name} / noise_var must be in "
                                      f"[1e-30, 1e30] (+-300 dB), got {snr:.6g}")
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
        # The gain solve needs a steering matrix of full column rank.
        if self.num_paths > self.num_antennas:
            raise SpecError("num_antennas num_paths", "more paths than antennas")
        grid = plan = None
        if self.angle_stage == "estimated":
            # One antenna sees every angle alike: its spectrum is flat.
            if self.num_antennas < 2:
                raise SpecError("num_antennas", "angle estimation needs num_antennas >= 2")
            with blame("num_antennas grid_step_deg"):
                grid = make_angle_grid(self.grid_step_deg, self.num_antennas - 1)
            if len(grid) < 2 * self.num_paths + 1:
                raise SpecError("grid_step_deg num_paths",
                                f"a grid of {len(grid)} points is too small for "
                                f"{self.num_paths} peaks; need {2 * self.num_paths + 1}")
            if self.multipath:
                with blame("num_antennas num_paths"):
                    plan = SubarrayPlan.for_sources(self.num_antennas, self.num_paths)
        object.__setattr__(self, "angle_grid", grid)
        object.__setattr__(self, "plan", plan)

    @property
    def multipath(self) -> bool:
        return self.mode == "multipath"

    def theory(self) -> ClosedFormPredictions:
        return closed_form_predictions(
            self.num_antennas, self.num_paths, self.pilot_pow, self.pilot_len,
            self.noise_var, self.data_pow)


@functools.lru_cache(maxsize=None)
def _trial_dtype(num_paths: int) -> np.dtype:
    """Record dtype of one paired trial with ``num_paths`` angle errors.

    A failed trial keeps its conventional fields and leaves the issac ones
    at nan. ``angle_errors`` is all nan when no angles were estimated:
    oracle runs and failed scans.
    """
    return np.dtype((np.record, [
        ("h_norm_sq", float), ("sq_error_cp", float), ("snr_cp", float),
        ("sq_error_lp", float), ("snr_lp", float), ("angle_errors", float, (num_paths,)),
        ("failed", bool), ("failure_reason", object)]))


def _trial_rngs(spec: ExperimentSpec, trial_index: int):
    rng_angles = np.random.default_rng(
        np.random.SeedSequence((spec.base_seed, _ANGLE_STREAM, trial_index)))
    rng_trial = np.random.default_rng(
        np.random.SeedSequence((spec.base_seed, _TRIAL_STREAM, trial_index)))
    return rng_angles, rng_trial


def draw_realization(spec: ExperimentSpec, trial_index: int
                     ) -> Tuple[PathSet, np.ndarray, ReceivedBlock]:
    """Channel and received block for one trial, fully seed-determined.

    Angles come from one stream, gains and noise from another, both keyed
    by the trial index. An oracle spec's block stops after the pilot noise,
    since nothing reads its data part; every number it holds is the same as
    in an estimated spec's block of that seed.
    """
    rng_angles, rng_trial = _trial_rngs(spec, trial_index)
    angles = sample_angles(spec.num_paths, rng_angles, spec.angle_policy)
    gains = sample_gains(spec.num_paths, rng_trial, spec.gain_policy)
    paths = PathSet._built(angles, gains)
    h = synthesize_channel(spec.geometry, paths)
    block = simulate_reception(h, spec.transmission, spec.pilot_seq, rng_trial,
                               data=spec.angle_stage == "estimated")
    return paths, h, block


def run_trial(spec: ExperimentSpec, trial_index: int) -> np.record:
    """One paired trial, as a record: both estimators on the identical received block.

    Estimation failures (missing spectral peaks, collided angles) set the
    failure flag instead of raising, so batch runs always complete.
    """
    paths, h, block = draw_realization(spec, trial_index)
    h_norm_sq = float(np.linalg.norm(h) ** 2)

    h_cp = ls_conventional(block, spec.pilot_pow)
    sq_error_cp = float(np.linalg.norm(h_cp - h) ** 2)
    snr_cp = empirical_snr(mrc_beamformer(h_cp), h, spec.data_pow, spec.noise_var)

    angle_errors = sq_error_lp = snr_lp = float("nan")
    failed, failure_reason = False, ""
    try:
        if spec.angle_stage == "oracle":
            thetas_hat = paths.angles
        else:
            thetas_hat = scan_angles(block, spec.num_paths, spec.angle_grid, spec.plan).angles
            angle_errors = _match_angles(thetas_hat, paths.angles)
        _, h_lp = estimate_gains_multipath(h_cp, thetas_hat)
        sq_error_lp = float(np.linalg.norm(h_lp - h) ** 2)
        snr_lp = empirical_snr(mrc_beamformer(h_lp), h, spec.data_pow, spec.noise_var)
    except EstimationError as exc:
        failed, failure_reason = True, str(exc)

    return np.array((h_norm_sq, sq_error_cp, snr_cp, sq_error_lp, snr_lp, angle_errors,
                     failed, failure_reason), _trial_dtype(spec.num_paths))[()]


def collect_trials(spec: ExperimentSpec) -> np.recarray:
    """All trials of the spec, one record per trial index, as columns."""
    return np.array([run_trial(spec, i) for i in range(spec.num_trials)],
                    _trial_dtype(spec.num_paths)).view(np.recarray)


def nrmse(sq_errors: Sequence[float], h_norms_sq: Sequence[float]) -> float:
    """Root mean squared error normalized by root mean channel energy."""
    sq_errors = np.asarray(sq_errors, dtype=float)
    h_norms_sq = np.asarray(h_norms_sq, dtype=float)
    if sq_errors.size == 0 or sq_errors.shape != h_norms_sq.shape:
        raise ValueError("need matching nonempty error and channel-energy lists")
    return float(np.sqrt(sq_errors.mean()) / np.sqrt(h_norms_sq.mean()))


def _match_angles(angles_est: Sequence[float], angles_true: Sequence[float]) -> np.ndarray:
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


def snr_cdfs(trials: np.recarray) -> Dict[str, CdfSeries]:
    """Receive-SNR CDFs of both methods over the non-failed trials."""
    ok = trials[~trials.failed]
    if not ok.size:
        raise ValueError("all trials failed; no CDF to report")
    return {"conventional": empirical_cdf(ok.snr_cp), "issac": empirical_cdf(ok.snr_lp)}


@dataclass(frozen=True)
class PointSummary:
    """What the trials of one spec measured.

    Means are over the non-failed trials, nan when every trial failed; the
    SNRs are linear.
    """

    e_cp_sim: float
    e_lp_sim: float
    nrmse_cp: float
    nrmse_lp: float
    gamma_cp_sim: float
    gamma_lp_sim: float
    num_trials: int
    num_failures: int

    @property
    def failure_rate(self) -> float:
        return self.num_failures / self.num_trials


def summarize(spec: ExperimentSpec, trials: np.recarray) -> PointSummary:
    """Means, NRMSEs and failure counts of the spec's trials.

    Raises ValueError when a mean receive SNR beats the matched filter.
    """
    ok = trials[~trials.failed]
    e_cp_sim = e_lp_sim = nrmse_cp = nrmse_lp = gamma_cp = gamma_lp = float("nan")
    if ok.size:
        # Contiguous copies: numpy sums a strided column in blocks of 8192,
        # which rounds past 8192 trials unlike the whole-array pairwise sum.
        sq_cp, sq_lp, h_norms, snr_cp, snr_lp = (np.ascontiguousarray(ok[name]) for name in (
            "sq_error_cp", "sq_error_lp", "h_norm_sq", "snr_cp", "snr_lp"))
        e_cp_sim = float(sq_cp.mean())
        e_lp_sim = float(sq_lp.mean())
        nrmse_cp = nrmse(sq_cp, h_norms)
        nrmse_lp = nrmse(sq_lp, h_norms)
        gamma_cp = float(snr_cp.mean())
        gamma_lp = float(snr_lp.mean())
        # No combiner beats the matched filter: a mean SNR above the mean
        # bound data_pow * |h|^2 / noise_var is a bug, not a result.
        with np.errstate(divide="ignore", invalid="ignore"):
            limit = float(np.divide(spec.data_pow * h_norms.mean(),
                                    spec.noise_var)) * (1.0 + 1e-9)
        if gamma_cp > limit or gamma_lp > limit:
            raise ValueError("mean receive SNR exceeds the matched-filter bound")
    return PointSummary(
        e_cp_sim=e_cp_sim,
        e_lp_sim=e_lp_sim,
        nrmse_cp=nrmse_cp,
        nrmse_lp=nrmse_lp,
        gamma_cp_sim=gamma_cp,
        gamma_lp_sim=gamma_lp,
        num_trials=len(trials),
        num_failures=len(trials) - len(ok),
    )
