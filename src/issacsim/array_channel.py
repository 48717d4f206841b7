"""Half-wavelength ULA geometry, parametric multipath channels, and synthesis
of uplink pilot/data observation blocks.

Angles are radians and must lie inside the open interval (-pi/2, pi/2).
All randomness flows through an explicit ``numpy.random.Generator`` so the
caller owns reproducibility; with a fixed generator every function here is
pure and its outputs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import SpecError, blame

__all__ = [
    "UlaGeometry",
    "PathSet",
    "AnglePolicy",
    "TransmissionConfig",
    "ReceivedBlock",
    "complex_normal",
    "steering_matrix",
    "synthesize_channel",
    "sample_angles",
    "sample_gains",
    "generate_pilot_sequence",
    "simulate_reception",
]

_HALF_PI = np.pi / 2.0
# Rejection-sampling attempts before a separation constraint counts as
# infeasible.
_MAX_ANGLE_DRAWS = 500
# Path-gain distributions ``sample_gains`` draws from.
GAIN_POLICIES = ("gaussian", "unit")


def complex_normal(rng: np.random.Generator, shape=None, var: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples with total variance ``var``."""
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _check_angles(angles) -> np.ndarray:
    """``angles`` as floats; raises on the first outside (-pi/2, pi/2), NaN included."""
    angles = np.asarray(angles, dtype=float)
    inside = np.abs(angles) < _HALF_PI
    if not inside.all():
        raise ValueError(f"angle {angles[~inside][0]} rad outside the open interval (-pi/2, pi/2)")
    return angles


@dataclass(frozen=True)
class UlaGeometry:
    """Uniform linear array with implicit half-wavelength element spacing."""

    num_antennas: int

    def __post_init__(self):
        m = self.num_antennas
        if int(m) != m or m < 1:
            raise ValueError("num_antennas must be a positive integer")
        object.__setattr__(self, "num_antennas", int(m))


def steering_matrix(geom: UlaGeometry, angles: Sequence[float]) -> np.ndarray:
    """M x L array responses to far-field plane waves from ``angles``.

    Entry (m, l) (0-based) is exp(j*pi*m*sin(angles[l])), so every column's
    squared norm equals the number of antennas.
    """
    angles = _check_angles(np.atleast_1d(angles))
    if angles.ndim != 1:
        raise ValueError("angles must be one-dimensional")
    m = np.arange(geom.num_antennas)[:, None]
    return np.exp(1j * np.pi * m * np.sin(angles)[None, :])


@dataclass(frozen=True)
class PathSet:
    """Multipath parameters: per-path arrival angles and complex gains."""

    angles: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        angles = _check_angles(np.atleast_1d(self.angles))
        gains = np.atleast_1d(np.asarray(self.gains, dtype=np.complex128))
        if angles.ndim != 1 or gains.ndim != 1:
            raise ValueError("angles and gains must be one-dimensional")
        if angles.size != gains.size or angles.size < 1:
            raise ValueError("need the same positive number of angles and gains")
        if np.unique(angles).size != angles.size:
            raise ValueError("path angles must be pairwise distinct")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "gains", gains)


def synthesize_channel(geom: UlaGeometry, paths: PathSet) -> np.ndarray:
    """Channel vector as the gain-weighted sum of path steering vectors."""
    return steering_matrix(geom, paths.angles) @ paths.gains


@dataclass(frozen=True)
class AnglePolicy:
    """Prior for drawing path angles.

    Draws are uniform on (low, high), re-drawn until all pairwise gaps in
    the sine domain are at least ``min_sin_sep``. A non-None ``fixed`` tuple
    short-circuits the draw with that deterministic angle list (radians).
    """

    low: float = -np.pi / 3.0
    high: float = np.pi / 3.0
    min_sin_sep: float = float(np.sin(np.deg2rad(5.0)))
    fixed: Optional[tuple] = None

    def __post_init__(self):
        # A rejection is a SpecError naming the part of the prior at fault.
        with blame("angle_range"):
            if _check_angles(self.low) >= _check_angles(self.high):
                raise ValueError("need low < high")
        if not self.min_sin_sep >= 0:
            raise SpecError("min_sep", "min_sin_sep must be nonnegative")
        if self.fixed is not None:
            with blame("angle_list"):
                object.__setattr__(self, "fixed", tuple(_check_angles(self.fixed).tolist()))

    def check_paths(self, num_paths: int) -> None:
        """Reject num_paths < 1, a fixed list of another length, or
        num_paths - 1 sine gaps that cannot fit in the range (a SpecError);
        the draws still find a fitting but tight separation."""
        if num_paths < 1:
            raise SpecError("num_paths", "num_paths must be >= 1")
        if self.fixed is not None:
            if len(self.fixed) != num_paths:
                raise SpecError("num_paths angle_list", f"policy fixes {len(self.fixed)} "
                                                        f"angles but {num_paths} paths requested")
            return
        span = math.sin(self.high) - math.sin(self.low)
        if (num_paths - 1) * self.min_sin_sep >= span:
            raise SpecError("num_paths angle_range min_sep",
                            f"{num_paths} angles with sine separation >= {self.min_sin_sep:.4f} "
                            f"do not fit in the sine range {span:.4f}; it is infeasible")


def sample_angles(num_paths: int, rng: np.random.Generator,
                  policy: AnglePolicy = AnglePolicy()) -> np.ndarray:
    """Draw ``num_paths`` angles under ``policy`` (sorted ascending).

    Raises ValueError if the separation constraint cannot be met within
    ``_MAX_ANGLE_DRAWS`` attempts, taking the policy to be infeasible.
    """
    policy.check_paths(num_paths)
    if policy.fixed is not None:
        return np.asarray(policy.fixed, dtype=float)
    for _ in range(_MAX_ANGLE_DRAWS):
        draws = np.sort(rng.uniform(policy.low, policy.high, size=num_paths))
        if num_paths == 1 or np.min(np.diff(np.sin(draws))) >= policy.min_sin_sep:
            return draws
    raise ValueError(
        f"could not draw {num_paths} angles with sine separation "
        f">= {policy.min_sin_sep:.4f} in {_MAX_ANGLE_DRAWS} attempts; "
        "the separation is infeasible for the angle range")


def sample_gains(num_paths: int, rng: np.random.Generator,
                 policy: str = "gaussian") -> np.ndarray:
    """Draw complex path gains: unit-variance Gaussian or unit-modulus."""
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    if policy == "gaussian":
        return complex_normal(rng, num_paths)
    if policy == "unit":
        return np.exp(2j * np.pi * rng.uniform(size=num_paths))
    raise ValueError(f"unknown gain policy {policy!r}; use one of {', '.join(GAIN_POLICIES)}")


@dataclass(frozen=True)
class TransmissionConfig:
    """Uplink frame layout and power levels.

    ``pilot_power``/``data_power`` are absolute linear powers;
    ``noise_var`` is the per-antenna complex noise variance. ``noise_var``
    may be zero for noiseless diagnostic runs. A zero ``pilot_len`` is
    valid at construction but gain estimation requires at least one pilot.
    """

    pilot_len: int
    data_len: int
    pilot_power: float
    data_power: float
    noise_var: float = 1.0

    def __post_init__(self):
        if int(self.pilot_len) != self.pilot_len or self.pilot_len < 0:
            raise ValueError("pilot_len must be a nonnegative integer")
        if int(self.data_len) != self.data_len or self.data_len < 1:
            raise ValueError("data_len must be a positive integer")
        if not (self.pilot_power > 0 and self.data_power > 0):
            raise ValueError("powers must be positive")
        if not self.noise_var >= 0:
            raise ValueError("noise_var must be nonnegative")
        object.__setattr__(self, "pilot_len", int(self.pilot_len))
        object.__setattr__(self, "data_len", int(self.data_len))


def generate_pilot_sequence(pilot_len: int) -> np.ndarray:
    """All-ones pilot symbols: unit modulus, total energy exactly ``pilot_len``."""
    if pilot_len < 1:
        raise ValueError("pilot_len must be >= 1")
    return np.ones(pilot_len, dtype=np.complex128)


@dataclass(frozen=True)
class ReceivedBlock:
    """One coherence block of observations at the array.

    ``pilot_obs`` is M x pilot_len, ``data_obs`` is M x data_len.
    """

    pilot_obs: np.ndarray
    data_obs: np.ndarray
    pilot_seq: np.ndarray

    def __post_init__(self):
        pilot_obs = np.asarray(self.pilot_obs, dtype=np.complex128)
        data_obs = np.asarray(self.data_obs, dtype=np.complex128)
        pilot_seq = np.asarray(self.pilot_seq, dtype=np.complex128)
        if pilot_obs.ndim != 2 or data_obs.ndim != 2:
            raise ValueError("observation matrices must be two-dimensional")
        if pilot_obs.shape[0] != data_obs.shape[0]:
            raise ValueError("pilot and data observations disagree on antenna count")
        if pilot_seq.shape != (pilot_obs.shape[1],):
            raise ValueError("pilot_seq length must match pilot_obs columns")
        object.__setattr__(self, "pilot_obs", pilot_obs)
        object.__setattr__(self, "data_obs", data_obs)
        object.__setattr__(self, "pilot_seq", pilot_seq)

    @property
    def num_antennas(self) -> int:
        return self.pilot_obs.shape[0]

    @property
    def pilot_len(self) -> int:
        return self.pilot_obs.shape[1]

    @property
    def data_len(self) -> int:
        return self.data_obs.shape[1]

    @property
    def num_snapshots(self) -> int:
        return self.pilot_len + self.data_len


def simulate_reception(h: np.ndarray, config: TransmissionConfig,
                       pilot_seq: np.ndarray, rng: np.random.Generator) -> ReceivedBlock:
    """Generate one received block for channel ``h``.

    Pilot columns are sqrt(Pt)*h*phi(n) plus noise; data columns are
    sqrt(Pd)*h*s(n) plus noise with s(n) drawn CN(0, 1). Draw order is
    fixed (data symbols, pilot noise, data noise) so a seeded generator
    reproduces the block bit for bit.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1:
        raise ValueError("h must be a vector")
    pilot_seq = np.asarray(pilot_seq, dtype=np.complex128)
    if pilot_seq.shape != (config.pilot_len,):
        raise ValueError("pilot sequence length must equal config.pilot_len")
    num_antennas = h.size
    data_syms = complex_normal(rng, config.data_len)
    pilot_noise = complex_normal(rng, (num_antennas, config.pilot_len), var=config.noise_var)
    data_noise = complex_normal(rng, (num_antennas, config.data_len), var=config.noise_var)
    pilot_obs = np.sqrt(config.pilot_power) * np.outer(h, pilot_seq) + pilot_noise
    data_obs = np.sqrt(config.data_power) * np.outer(h, data_syms) + data_noise
    return ReceivedBlock(pilot_obs=pilot_obs, data_obs=data_obs, pilot_seq=pilot_seq)
