"""Covariance estimation and subspace-based angle estimation.

Bartlett spectral scanning covers the single-path case; coherent multipath
goes through overlapping-subarray covariances, forward-backward smoothing,
and MUSIC on the smoothed matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import ceil
from typing import List, Optional, Sequence

import numpy as np

from .array_channel import ReceivedBlock
from .errors import EstimationError

__all__ = [
    "SampleCovariance",
    "SubarrayPlan",
    "ScanGrid",
    "Pseudospectrum",
    "AngleEstimates",
    "make_angle_grid",
    "sample_covariance",
    "hermitian_eigendecomposition",
    "bartlett_spectrum",
    "subarray_covariances",
    "forward_backward_smooth",
    "music_spectrum",
    "find_peaks",
    "scan_angles",
]

_HERMITIAN_TOL = 1e-10
# Floors the MUSIC denominator so exactly-orthogonal grid points stay finite.
_MUSIC_FLOOR = 1e-12
# At most this many Newton steps per spectral peak. From a sample of a 0.5 deg grid most
# peaks are within rounding of their maximum after four; one whose first
# step overshoots to the edge of its bracket can take six.
_NEWTON_STEPS = 6
# The steps stop early once no peak moved by more than this in
# u = sin(theta), about 6e-8 deg: Newton's quadratic convergence puts the
# next step below rounding.
_NEWTON_TOL = 1e-9
# Grid offsets of a peak sample's bracket: its lower neighbor, itself, its upper one.
_BRACKET = np.array([[-1], [0], [1]])


@dataclass(frozen=True)
class SampleCovariance:
    """Hermitian-symmetrized snapshot covariance with its snapshot count."""

    matrix: np.ndarray
    num_snapshots: int

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("covariance must be a square matrix")
        scale = max(1.0, float(np.linalg.norm(matrix)))
        if np.linalg.norm(matrix - matrix.conj().T) > _HERMITIAN_TOL * scale:
            raise ValueError("covariance is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _built(cls, matrix: np.ndarray, num_snapshots: int):
        """Wrap, unchecked, a complex matrix this module made exactly Hermitian."""
        cov = object.__new__(cls)
        cov.__dict__.update(matrix=matrix, num_snapshots=num_snapshots)
        return cov

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    """0.5 (matrix + matrix^H), written over ``matrix``."""
    matrix += matrix.conj().T
    matrix *= 0.5
    return matrix


def sample_covariance(block: ReceivedBlock) -> SampleCovariance:
    """Average outer products of all pilot and data snapshots: the pilot
    columns' plus the block's data Gram."""
    if block.data_gram is None:
        raise ValueError("block holds no data Gram: its data part was not drawn")
    n = block.num_snapshots
    if n < 1:
        raise ValueError("block holds no snapshots")
    acc = block.pilot_obs @ block.pilot_obs.conj().T
    acc += block.data_gram
    acc /= n
    return SampleCovariance._built(_symmetrize(acc), n)


def hermitian_eigendecomposition(cov: SampleCovariance):
    """Eigenpairs of a Hermitian covariance.

    Returns (eigenvalues ascending, eigenvectors as columns); the columns
    are orthonormal and reconstruct the matrix to machine precision.
    """
    return np.linalg.eigh(cov.matrix)


@dataclass(frozen=True)
class SubarrayPlan:
    """Split of an M-element array into overlapping subarrays."""

    num_subarrays: int
    subarray_size: int
    parent_size: int

    def __post_init__(self):
        p, m_sub, m = self.num_subarrays, self.subarray_size, self.parent_size
        if p < 1 or m_sub < 1 or m < 1:
            raise ValueError("plan dimensions must be positive")
        if m_sub != m - p + 1:
            raise ValueError("need subarray_size == parent_size - num_subarrays + 1")

    @classmethod
    def for_sources(cls, parent_size: int, num_sources: int) -> "SubarrayPlan":
        """Pick a plan whose smoothed covariance is full rank for
        ``num_sources`` coherent paths.

        Takes ceil(num_sources / 2) + 1 subarrays, the smallest count
        satisfying 2 * P >= L with slack, which keeps subarrays large.
        """
        num_subarrays = ceil(num_sources / 2) + 1
        m_sub = parent_size - num_subarrays + 1
        if m_sub < num_sources + 1:
            raise ValueError("subarrays too small: need subarray_size >= num_sources + 1")
        return cls(num_subarrays=num_subarrays, subarray_size=m_sub,
                   parent_size=parent_size)


def subarray_covariances(block: ReceivedBlock, plan: SubarrayPlan) -> List[SampleCovariance]:
    """Per-subarray snapshot covariances over both pilot and data snapshots.

    Subarray p (0-based) sees rows p .. p + subarray_size - 1 of every
    snapshot, so its covariance is the block R[p:p + subarray_size,
    p:p + subarray_size] of the full-array ``sample_covariance`` R.
    """
    if plan.parent_size != block.num_antennas:
        raise ValueError("plan parent_size does not match the block")
    full = sample_covariance(block)
    m_sub = plan.subarray_size
    return [SampleCovariance._built(full.matrix[p:p + m_sub, p:p + m_sub],
                                    full.num_snapshots)
            for p in range(plan.num_subarrays)]


def forward_backward_smooth(covs: Sequence[SampleCovariance]) -> SampleCovariance:
    """Forward-backward average of equally sized subarray covariances.

    Averages the inputs, then adds the exchange-conjugated mirror:
    R_fb = (Rbar + J conj(Rbar) J) / 2 with J the anti-identity. The result
    is Hermitian and persymmetric, and restores full signal rank for
    coherent paths when the plan constraints hold.
    """
    if not covs:
        raise ValueError("need at least one covariance")
    dim = covs[0].dim
    if any(c.dim != dim for c in covs):
        raise ValueError("covariances differ in size")
    mean = sum(c.matrix for c in covs) / len(covs)
    # J conj(R) J reverses both axes of the conjugate.
    smoothed = 0.5 * (mean + np.flip(mean.conj()))
    return SampleCovariance._built(_symmetrize(smoothed), covs[0].num_snapshots)


@dataclass(frozen=True)
class ScanGrid:
    """Strictly increasing scan angles (radians) inside (-pi/2, pi/2), checked
    and copied, with the read-only tables every scan over them reads:
    ``sines`` sin(theta) and, for k = 1 .. ``order``, ``rows``
    exp(j pi k sin(theta)) over the angles, ``phase`` j pi k and the Newton
    ``factors`` 2, 2 j pi k, 2 (j pi k)^2. A form of dimension
    dim <= order + 1 reads the first dim - 1 of each. The peak search needs
    the order: a Newton step clips to the bracket of a peak's neighbors."""

    angles: np.ndarray
    order: int
    sines: np.ndarray = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    phase: np.ndarray = field(init=False, repr=False, compare=False)
    factors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        angles = np.array(self.angles, dtype=float)
        if angles.ndim != 1 or not angles.size:
            raise ValueError(f"scan angles must be a nonempty one-dimensional array, "
                             f"got shape {angles.shape}")
        inside = np.abs(angles) < np.pi / 2
        if not inside.all():
            raise ValueError(f"scan angle {angles[~inside][0]} rad outside the open "
                             f"interval (-pi/2, pi/2)")
        if not (angles[1:] > angles[:-1]).all():
            raise ValueError("scan angles must be strictly increasing")
        sines = np.sin(angles)
        phase = 1j * np.pi * np.arange(1, self.order + 1)
        tables = dict(angles=angles, sines=sines, phase=phase,
                      rows=np.exp(phase[:, None] * sines[None, :]),
                      factors=2.0 * np.stack((np.ones_like(phase), phase, phase * phase), 1))
        for name, table in tables.items():
            table.setflags(write=False)
            object.__setattr__(self, name, table)

    def __len__(self) -> int:
        return self.angles.size


def make_angle_grid(step_deg: float, order: int) -> ScanGrid:
    """Uniform scan grid from -89 to 89 degrees inclusive, whose tables serve
    forms up to dimension order + 1: order = M - 1 covers every scan of an
    M-element array. Every trial of a run can share it."""
    if not 0 < step_deg < np.inf:
        raise ValueError(f"step_deg must be finite and > 0, got {step_deg}")
    n = int(round(178.0 / step_deg)) + 1
    return ScanGrid(np.deg2rad(np.linspace(-89.0, 89.0, n)), order)


@dataclass(frozen=True)
class Pseudospectrum:
    """Scan values (float vector) over the angles of a ``ScanGrid``.

    ``sums`` are the superdiagonal sums c_k of a Hermitian Q whose quadratic
    form f(u) = a(u)^H Q a(u) = c_0 + 2 Re sum_k c_k exp(j pi k u), with
    u = sin(theta), the values increase with; ``find_peaks`` refines each
    peak on f with the grid's Newton tables.
    """

    grid: ScanGrid
    values: np.ndarray
    sums: np.ndarray


@functools.lru_cache(maxsize=64)
def _diagonal_index(dim: int):
    """Flat indices of the upper triangle of a dim x dim matrix, diagonal by
    diagonal, and the offset at which each diagonal k = 0 .. dim - 1 starts."""
    lengths = np.arange(dim, 0, -1)
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    k = np.repeat(np.arange(dim), lengths)
    m = np.arange(k.size) - starts[k]
    flat = m * (dim + 1) + k
    flat.setflags(write=False)
    starts.setflags(write=False)
    return flat, starts


def _diagonal_sums(matrix: np.ndarray) -> np.ndarray:
    """c[k] = sum_m matrix[m, m + k], the k-th superdiagonal sum, k = 0 .. dim - 1."""
    flat, starts = _diagonal_index(matrix.shape[0])
    return np.add.reduceat(matrix.ravel()[flat], starts)


def _quadratic_form(matrix: np.ndarray, grid: ScanGrid):
    """a(theta)^H Q a(theta) over the grid for a Hermitian Q, with the sums.

    For a half-wavelength ULA this is the trigonometric polynomial
    c_0 + 2 Re sum_{k=1}^{dim-1} c_k exp(j pi k sin(theta)) in the
    superdiagonal sums c_k = sum_m Q[m, m + k]: one (dim-1)-vector times
    (dim-1) x G product, (dim-1) G multiply-adds. Returns (sums, values).
    """
    sums = _diagonal_sums(matrix)
    return sums, sums[0].real + 2.0 * (sums[1:] @ grid.rows[:sums.size - 1]).real


def bartlett_spectrum(cov: SampleCovariance, grid: ScanGrid) -> Pseudospectrum:
    """Scanned beamformer power a(theta)^H R a(theta) over the grid, in
    (M-1) G multiply-adds instead of the M^2 G of forming R a(theta)."""
    sums, values = _quadratic_form(cov.matrix, grid)
    # Hermitian quadratic form; clip the fp dust that can dip below zero.
    return Pseudospectrum(grid=grid, values=np.maximum(values, 0.0), sums=sums)


def music_spectrum(cov: SampleCovariance, num_sources: int,
                   grid: ScanGrid) -> Pseudospectrum:
    """MUSIC pseudospectrum 1 / ||E_n^H a(theta)||^2 over the grid.

    E_n spans the eigenvectors of the dim - num_sources smallest
    eigenvalues. The denominator is evaluated through the signal-subspace
    complement ||a||^2 - a^H E_s E_s^H a, which is algebraically identical
    and costs (dim-1) G multiply-adds whatever num_sources is. The spectrum
    carries the diagonal sums of E_s E_s^H: the values rise with its
    quadratic form, so its peaks are the MUSIC peaks.
    """
    if num_sources >= cov.dim:
        raise ValueError("num_sources must be smaller than the covariance dimension")
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    _, eigvecs = hermitian_eigendecomposition(cov)
    signal_basis = eigvecs[:, cov.dim - num_sources:]
    projector = signal_basis @ signal_basis.conj().T
    sums, signal_power = _quadratic_form(projector, grid)
    values = 1.0 / np.maximum(cov.dim - signal_power, _MUSIC_FLOOR)
    return Pseudospectrum(grid=grid, values=values, sums=sums)


@dataclass(frozen=True)
class AngleEstimates:
    """Peak angles of a pseudospectrum, sorted ascending, with the spectrum."""

    angles: np.ndarray
    spectrum: Pseudospectrum


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict local maxima; plateaus collapse to their center.

    A run of equal samples is a maximum when it is strictly above the runs
    on both sides; runs touching either end of the grid are not maxima. For
    finite samples that is a rise (slope sign +1) whose next nonzero slope
    is a fall (-1); the run between rise i -> i + 1 and fall j -> j + 1 is
    samples i + 1 .. j.
    """
    slope = np.sign(values[1:] - values[:-1])
    steps = slope.nonzero()[0]
    turns = slope[steps]
    peaks = (turns[1:] - turns[:-1] == -2).nonzero()[0]
    return (steps[peaks] + 1 + steps[peaks + 1]) // 2


def _newton_peaks(sums: np.ndarray, grid: ScanGrid, idx: np.ndarray):
    """Safeguarded Newton steps in u = sin(theta) toward the maxima of
    f(u) = c_0 + 2 Re sum_k c_k exp(j pi k u), one per peak sample.

    A step is taken only where f'' < 0 and is clipped to the bracket
    [u[idx - 1], u[idx + 1]]. The steps stop after ``_NEWTON_STEPS``, or
    once none moved a peak by more than ``_NEWTON_TOL``. Returns the refined
    u and f there, as evaluated before the last step, which moves a
    converged peak by rounding only.
    """
    # With the sums folded into the Newton factors, the real part of
    # exp(j pi k u) @ weights is f(u) - c_0, f'(u) and f''(u).
    phase = grid.phase[:sums.size - 1]
    weights = sums[1:, None] * grid.factors[:sums.size - 1]
    # The bookkeeping of these few peaks runs on Python floats.
    low, u, high = grid.sines[idx + _BRACKET].tolist()
    for _ in range(_NEWTON_STEPS):
        derivatives = (np.exp(np.multiply.outer(u, phase)) @ weights).real
        # A zero step leaves a peak where f'' >= 0 in place.
        stepped = [min(max(u_k - (slope / curvature if curvature < 0 else 0.0), low_k), high_k)
                   for u_k, low_k, high_k, (_, slope, curvature)
                   in zip(u, low, high, derivatives.tolist())]
        moved = max([abs(new - old) for new, old in zip(stepped, u)])
        u = stepped
        if moved <= _NEWTON_TOL:
            break
    return np.array(u), sums[0].real + derivatives[:, 0]


def find_peaks(spectrum: Pseudospectrum, num_peaks: int) -> AngleEstimates:
    """The ``num_peaks`` highest maxima of a pseudospectrum.

    The 2 * num_peaks highest local maxima of the samples are candidates;
    ties between equal samples break toward the smaller angle. Up to
    ``_NEWTON_STEPS`` safeguarded Newton steps on the spectrum's polynomial
    f move each candidate off the grid, and the num_peaks candidates with
    the highest refined f are kept. Raises EstimationError when the
    spectrum has fewer local maxima than requested.
    """
    grid, values = spectrum.grid, spectrum.values
    if num_peaks < 1:
        raise ValueError("num_peaks must be >= 1")
    if len(grid) < 2 * num_peaks + 1:
        raise ValueError("grid too small for the requested number of peaks")
    maxima = _local_maxima(values)
    if maxima.size < num_peaks:
        raise EstimationError(
            f"found {maxima.size} spectral peaks, need {num_peaks}")
    # maxima ascend, so a stable sort on descending value keeps the smaller
    # index first among equal peaks.
    candidates = maxima[(-values[maxima]).argsort(kind="stable")[:2 * num_peaks]]
    u, height = _newton_peaks(spectrum.sums, grid, candidates)
    angles = np.arcsin(u[(-height).argsort(kind="stable")[:num_peaks]])
    angles.sort()
    return AngleEstimates(angles=angles, spectrum=spectrum)


def scan_angles(block: ReceivedBlock, num_sources: int, grid: ScanGrid,
                plan: Optional[SubarrayPlan]) -> AngleEstimates:
    """Full pilot-free angle stage on one received block.

    With no plan it scans the Bartlett spectrum of the plain snapshot
    covariance (the single-path channel); with a plan it smooths the plan's
    subarray covariances and runs MUSIC (coherent multipath).
    The returned estimates carry the scanned spectrum.
    """
    if plan is None:
        spectrum = bartlett_spectrum(sample_covariance(block), grid)
    else:
        smoothed = forward_backward_smooth(subarray_covariances(block, plan))
        spectrum = music_spectrum(smoothed, num_sources, grid)
    return find_peaks(spectrum, num_sources)
