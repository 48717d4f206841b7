"""Half-wavelength ULA geometry, parametric multipath channels, and synthesis
of uplink pilot/data observation blocks.

Angles are radians and must lie inside the open interval (-pi/2, pi/2).
All randomness flows through an explicit ``numpy.random.Generator`` so the
caller owns reproducibility; with a fixed generator every function here is
pure and its outputs are bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import SpecError, blame

__all__ = [
    "UlaGeometry",
    "PathSet",
    "AnglePolicy",
    "TransmissionConfig",
    "ReceivedBlock",
    "steering_matrix",
    "synthesize_channel",
    "sample_angles",
    "sample_gains",
    "generate_pilot_sequence",
    "simulate_reception",
]

_HALF_PI = np.pi / 2.0
# The random-angle prior: uniform on (-60, 60) degrees, with sine-domain
# gaps of at least sin 5 degrees between the paths.
_ANGLE_LOW, _ANGLE_HIGH = -np.pi / 3.0, np.pi / 3.0
_MIN_SIN_SEP = float(np.sin(np.deg2rad(5.0)))
# Rejection-sampling attempts before a separation constraint counts as
# infeasible.
_MAX_ANGLE_DRAWS = 500
# Path-gain distributions ``sample_gains`` draws from.
GAIN_POLICIES = ("gaussian", "unit")


def _complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Circularly symmetric complex Gaussian samples of ``shape`` (an int or a
    tuple) with total variance ``var``, from one draw: all real parts, then
    all imaginary parts."""
    parts = rng.standard_normal((2, *shape) if isinstance(shape, tuple) else (2, shape))
    parts *= math.sqrt(var / 2.0)
    return parts.reshape(2, -1).T.copy().view(np.complex128).reshape(shape)


def _check_angles(angles) -> np.ndarray:
    """``angles`` as floats; raises on the first outside (-pi/2, pi/2), NaN included."""
    angles = np.asarray(angles, dtype=float)
    inside = np.abs(angles) < _HALF_PI
    if not inside.all():
        raise ValueError(f"angle {angles[~inside][0]} rad outside the open interval (-pi/2, pi/2)")
    return angles


@dataclass(frozen=True)
class UlaGeometry:
    """Uniform linear array with implicit half-wavelength element spacing.

    ``phase`` holds the read-only column j*pi*m over the element positions
    m = 0 .. M - 1 in half wavelengths, which every steering matrix reads.
    Building it allocates the first array of size M, so a size no machine
    can hold fails here and not at a later draw.
    """

    num_antennas: int
    phase: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.num_antennas
        if int(m) != m or m < 1:
            raise ValueError("num_antennas must be a positive integer")
        phase = 1j * np.pi * np.arange(int(m))[:, None]
        phase.setflags(write=False)
        object.__setattr__(self, "num_antennas", int(m))
        object.__setattr__(self, "phase", phase)


def steering_matrix(geom: UlaGeometry, angles: Sequence[float]) -> np.ndarray:
    """M x L array responses to far-field plane waves from ``angles``.

    Entry (m, l) (0-based) is exp(j*pi*m*sin(angles[l])), so every column's
    squared norm equals the number of antennas.
    """
    angles = _check_angles(np.atleast_1d(angles))
    if angles.ndim != 1:
        raise ValueError("angles must be one-dimensional")
    return np.exp(geom.phase * np.sin(angles)[None, :])


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

    @classmethod
    def _built(cls, angles: np.ndarray, gains: np.ndarray):
        """Wrap, unchecked, drawn float angles, distinct and inside the prior
        or the checked fixed list, and as many complex gains."""
        paths = object.__new__(cls)
        paths.__dict__.update(angles=angles, gains=gains)
        return paths


def synthesize_channel(geom: UlaGeometry, paths: PathSet) -> np.ndarray:
    """Channel vector as the gain-weighted sum of path steering vectors."""
    return steering_matrix(geom, paths.angles) @ paths.gains


@dataclass(frozen=True)
class AnglePolicy:
    """Prior for drawing path angles.

    Draws are uniform on (-60, 60) degrees, re-drawn until all pairwise gaps
    in the sine domain are at least sin 5 degrees. A non-None ``fixed``
    tuple short-circuits the draw with that deterministic list of distinct
    angles (radians).
    """

    fixed: Optional[tuple] = None

    def __post_init__(self):
        if self.fixed is not None:
            with blame("angle_policy"):
                fixed = _check_angles(self.fixed)
                if np.unique(fixed).size != fixed.size:
                    raise ValueError("path angles must be pairwise distinct")
                object.__setattr__(self, "fixed", tuple(fixed.tolist()))

    def check_paths(self, num_paths: int) -> None:
        """Reject num_paths < 1, a fixed list of another length, or
        num_paths - 1 sine gaps that cannot fit in the range (a SpecError);
        the draws still find a fitting but tight separation."""
        if num_paths < 1:
            raise SpecError("num_paths", "num_paths must be >= 1")
        if self.fixed is not None:
            if len(self.fixed) != num_paths:
                raise SpecError("num_paths angle_policy",
                                f"policy fixes {len(self.fixed)} angles but {num_paths} "
                                f"paths requested")
            return
        span = math.sin(_ANGLE_HIGH) - math.sin(_ANGLE_LOW)
        if (num_paths - 1) * _MIN_SIN_SEP >= span:
            raise SpecError("num_paths",
                            f"{num_paths} angles with sine separation >= {_MIN_SIN_SEP:.4f} "
                            f"do not fit in the sine range {span:.4f}; it is infeasible")


def sample_angles(num_paths: int, rng: np.random.Generator,
                  policy: AnglePolicy = AnglePolicy()) -> np.ndarray:
    """Draw ``num_paths`` angles under ``policy``: drawn ones sorted
    ascending, a fixed list in its given order.

    Raises ValueError if the separation constraint cannot be met within
    ``_MAX_ANGLE_DRAWS`` attempts, taking the policy to be infeasible.
    """
    policy.check_paths(num_paths)
    if policy.fixed is not None:
        return np.asarray(policy.fixed, dtype=float)
    for _ in range(_MAX_ANGLE_DRAWS):
        draws = np.sort(rng.uniform(_ANGLE_LOW, _ANGLE_HIGH, size=num_paths))
        if num_paths == 1 or np.min(np.diff(np.sin(draws))) >= _MIN_SIN_SEP:
            return draws
    raise ValueError(
        f"could not draw {num_paths} angles with sine separation "
        f">= {_MIN_SIN_SEP:.4f} in {_MAX_ANGLE_DRAWS} attempts; "
        "the separation is infeasible for the angle range")


def sample_gains(num_paths: int, rng: np.random.Generator,
                 policy: str = "gaussian") -> np.ndarray:
    """Draw complex path gains: unit-variance Gaussian or unit-modulus."""
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    if policy == "gaussian":
        return _complex_normal(rng, num_paths)
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

    ``pilot_obs`` is M x pilot_len. The ``data_len`` data snapshots D are
    held only through their M x M Gram ``data_gram`` = D D^H, which is all
    the angle stage reads of them; it is None when the data part of the
    block was not drawn.
    """

    pilot_obs: np.ndarray
    data_gram: Optional[np.ndarray]
    data_len: int
    pilot_seq: np.ndarray

    def __post_init__(self):
        pilot_obs = np.asarray(self.pilot_obs, dtype=np.complex128)
        pilot_seq = np.asarray(self.pilot_seq, dtype=np.complex128)
        if pilot_obs.ndim != 2:
            raise ValueError("pilot observations must be two-dimensional")
        if pilot_seq.shape != (pilot_obs.shape[1],):
            raise ValueError("pilot_seq length must match pilot_obs columns")
        if int(self.data_len) != self.data_len or self.data_len < 0:
            raise ValueError("data_len must be a nonnegative integer")
        if self.data_gram is not None:
            data_gram = np.asarray(self.data_gram, dtype=np.complex128)
            if data_gram.shape != (pilot_obs.shape[0],) * 2:
                raise ValueError("data_gram must be M x M for the M rows of pilot_obs")
            object.__setattr__(self, "data_gram", data_gram)
        object.__setattr__(self, "pilot_obs", pilot_obs)
        object.__setattr__(self, "data_len", int(self.data_len))
        object.__setattr__(self, "pilot_seq", pilot_seq)

    @property
    def num_antennas(self) -> int:
        return self.pilot_obs.shape[0]

    @property
    def pilot_len(self) -> int:
        return self.pilot_obs.shape[1]

    @property
    def num_snapshots(self) -> int:
        return self.pilot_len + self.data_len


@functools.lru_cache(maxsize=64)
def _lower_mask(rows: int, cols: int, dof: int):
    """Read-only mask of the entries on and below the diagonal of a rows x
    cols [v | T] factor, their count, the flat indices of T's diagonal
    (rank = cols - 1 entries) and T's Gamma shapes dof - i."""
    mask = np.tri(rows, cols, dtype=bool)
    rank = cols - 1
    diagonal = np.arange(rank) * (cols + 1) + 1
    shapes = dof - np.arange(rank)
    for table in (mask, diagonal, shapes):
        table.setflags(write=False)
    return mask, np.count_nonzero(mask), diagonal, shapes


def simulate_reception(h: np.ndarray, config: TransmissionConfig, pilot_seq: np.ndarray,
                       rng: np.random.Generator, data: bool = True) -> ReceivedBlock:
    """Generate one received block for channel ``h``.

    Pilot columns are sqrt(Pt)*h*phi(n) plus CN(0, sigma^2) noise. The data
    columns D = sqrt(Pd)*h*s^T + N, with s drawn CN(0, 1), enter the block
    as their Gram, drawn without the columns: splitting N along s* and its
    complement gives D D^H = v v^H + T T^H with v = sqrt(Pd)*||s||*h + z,
    z ~ CN(0, sigma^2 I), and T T^H complex Wishart(M, data_len - 1,
    sigma^2 I) in its Bartlett decomposition (Goodman 1963): T is M x r
    lower-trapezoidal, r = min(M, data_len - 1), with |T_ii|^2 ~ sigma^2
    Gamma(data_len - 1 - i) and CN(0, sigma^2) entries below the diagonal.
    Past the data symbols, the draw's cost does not grow with data_len.

    Draw order is fixed (data symbols, pilot noise, then z with T's entries
    below the diagonal, then T's diagonal) so a seeded generator reproduces
    the block bit for bit. With ``data`` false the draw stops after the
    pilot noise, so every pilot-side number is the same, and ``data_gram``
    is None.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1:
        raise ValueError("h must be a vector")
    pilot_seq = np.asarray(pilot_seq, dtype=np.complex128)
    if pilot_seq.shape != (config.pilot_len,):
        raise ValueError("pilot sequence length must equal config.pilot_len")
    num_antennas = h.size
    data_syms = _complex_normal(rng, config.data_len)
    pilot_noise = _complex_normal(rng, (num_antennas, config.pilot_len), var=config.noise_var)
    pilot_obs = math.sqrt(config.pilot_power) * (h[:, None] * pilot_seq) + pilot_noise
    data_gram = None
    if data:
        dof = config.data_len - 1
        rank = min(num_antennas, dof)
        # [v | T]: column 0 and the entries below T's diagonal are Gaussian.
        factor = np.zeros((num_antennas, rank + 1), dtype=np.complex128)
        gaussian, count, diagonal, shapes = _lower_mask(num_antennas, rank + 1, dof)
        factor[gaussian] = _complex_normal(rng, count, var=config.noise_var)
        factor[:, 0] += math.sqrt(config.data_power * np.vdot(data_syms, data_syms).real) * h
        factor.ravel()[diagonal] = np.sqrt(config.noise_var * rng.standard_gamma(shapes))
        data_gram = factor @ factor.conj().T
    return ReceivedBlock(pilot_obs=pilot_obs, data_gram=data_gram,
                         data_len=config.data_len, pilot_seq=pilot_seq)
