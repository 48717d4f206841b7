"""Covariance estimation and subspace-based angle estimation.

Bartlett spectral scanning covers the single-path case; coherent multipath
goes through overlapping-subarray covariances, forward-backward smoothing,
and MUSIC on the smoothed matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence

import numpy as np

from .array_channel import ReceivedBlock
from .errors import EstimationError

__all__ = [
    "SampleCovariance",
    "SubarrayPlan",
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


def sample_covariance(block: ReceivedBlock) -> SampleCovariance:
    """Average outer products of all pilot and data snapshots."""
    n = block.num_snapshots
    if n < 1:
        raise ValueError("block holds no snapshots")
    acc = block.pilot_obs @ block.pilot_obs.conj().T
    acc = acc + block.data_obs @ block.data_obs.conj().T
    return SampleCovariance(matrix=_symmetrize(acc / n), num_snapshots=n)


def hermitian_eigendecomposition(cov: SampleCovariance):
    """Eigenpairs of a Hermitian covariance.

    Returns (eigenvalues ascending, eigenvectors as columns); the columns
    are orthonormal and reconstruct the matrix to machine precision.
    """
    eigvals, eigvecs = np.linalg.eigh(cov.matrix)
    return eigvals, eigvecs


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
    def for_sources(cls, parent_size: int, num_sources: int,
                    num_subarrays: Optional[int] = None) -> "SubarrayPlan":
        """Pick a plan whose smoothed covariance is full rank for
        ``num_sources`` coherent paths.

        Defaults to ceil(num_sources / 2) + 1 subarrays, the smallest count
        satisfying 2 * P >= L with slack, which keeps subarrays large.
        """
        if num_subarrays is None:
            num_subarrays = ceil(num_sources / 2) + 1
        m_sub = parent_size - num_subarrays + 1
        if 2 * num_subarrays < num_sources:
            raise ValueError("need 2 * num_subarrays >= num_sources")
        if m_sub < num_sources + 1:
            raise ValueError("subarrays too small: need subarray_size >= num_sources + 1")
        return cls(num_subarrays=num_subarrays, subarray_size=m_sub,
                   parent_size=parent_size)


def subarray_covariances(block: ReceivedBlock, plan: SubarrayPlan) -> List[SampleCovariance]:
    """Per-subarray snapshot covariances over both pilot and data snapshots.

    Subarray p (0-based) sees rows p .. p + subarray_size - 1 of every
    snapshot.
    """
    if plan.parent_size != block.num_antennas:
        raise ValueError("plan parent_size does not match the block")
    snapshots = np.hstack([block.pilot_obs, block.data_obs])
    n = snapshots.shape[1]
    covs = []
    for p in range(plan.num_subarrays):
        sub = snapshots[p:p + plan.subarray_size, :]
        covs.append(SampleCovariance(matrix=_symmetrize(sub @ sub.conj().T / n),
                                     num_snapshots=n))
    return covs


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
    return SampleCovariance(matrix=_symmetrize(smoothed),
                            num_snapshots=covs[0].num_snapshots)


def make_angle_grid(step_deg: float = 0.02, low_deg: float = -89.0,
                    high_deg: float = 89.0) -> np.ndarray:
    """Uniform scan grid in radians over (low_deg, high_deg) inclusive."""
    if not -90.0 < low_deg < high_deg < 90.0:
        raise ValueError("grid must satisfy -90 < low < high < 90 degrees")
    if step_deg <= 0:
        raise ValueError("step_deg must be positive")
    n = int(round((high_deg - low_deg) / step_deg)) + 1
    return np.deg2rad(np.linspace(low_deg, high_deg, n))


_GRID_STEERING_CACHE: dict = {}


def _grid_steering(num_antennas: int, grid: np.ndarray) -> np.ndarray:
    """Cached M x G steering matrix over a scan grid."""
    key = (num_antennas, grid.tobytes())
    mat = _GRID_STEERING_CACHE.get(key)
    if mat is None:
        m = np.arange(num_antennas)[:, None]
        mat = np.exp(1j * np.pi * m * np.sin(grid)[None, :])
        _GRID_STEERING_CACHE[key] = mat
    return mat


@dataclass(frozen=True)
class Pseudospectrum:
    """Scan values over an increasing angle grid (radians)."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.shape != grid.shape:
            raise ValueError("grid and values must be matching vectors")
        if grid.size and not (grid[0] > -np.pi / 2 and grid[-1] < np.pi / 2):
            raise ValueError("grid must lie inside (-pi/2, pi/2)")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("values must be finite and nonnegative")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def bartlett_spectrum(cov: SampleCovariance, grid: np.ndarray) -> Pseudospectrum:
    """Scanned beamformer power a(theta)^H R a(theta) over the grid."""
    steer = _grid_steering(cov.dim, grid)
    values = np.einsum("mg,mg->g", steer.conj(), cov.matrix @ steer).real
    # Hermitian quadratic form; clip the fp dust that can dip below zero.
    return Pseudospectrum(grid=grid, values=np.maximum(values, 0.0))


def music_spectrum(cov: SampleCovariance, num_sources: int,
                   grid: np.ndarray) -> Pseudospectrum:
    """MUSIC pseudospectrum 1 / ||E_n^H a(theta)||^2 over the grid.

    E_n spans the eigenvectors of the dim - num_sources smallest
    eigenvalues. The denominator is evaluated through the signal-subspace
    complement ||a||^2 - ||E_s^H a||^2, which is algebraically identical
    and cheaper when num_sources << dim.
    """
    if num_sources >= cov.dim:
        raise ValueError("num_sources must be smaller than the covariance dimension")
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    _, eigvecs = hermitian_eigendecomposition(cov)
    signal_basis = eigvecs[:, cov.dim - num_sources:]
    steer = _grid_steering(cov.dim, grid)
    projected = signal_basis.conj().T @ steer
    denom = cov.dim - np.sum(np.abs(projected) ** 2, axis=0)
    values = 1.0 / np.maximum(denom, _MUSIC_FLOOR)
    return Pseudospectrum(grid=grid, values=values)


@dataclass(frozen=True)
class AngleEstimates:
    """Peak angles of a pseudospectrum, sorted ascending, with the spectrum."""

    angles: np.ndarray
    spectrum: Pseudospectrum


def _local_maxima(values: np.ndarray) -> List[int]:
    """Indices of strict local maxima; plateaus collapse to their center.

    Runs touching either end of the grid are not maxima.
    """
    n = values.size
    maxima = []
    i = 1
    while i < n - 1:
        if values[i] <= values[i - 1]:
            i += 1
            continue
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if j < n - 1 and values[j + 1] < values[i]:
            maxima.append((i + j) // 2)
        i = j + 1
    return maxima


def _refine_peak(grid: np.ndarray, values: np.ndarray, idx: int) -> float:
    """Quadratic vertex through the peak sample and its two neighbors."""
    left, mid, right = values[idx - 1], values[idx], values[idx + 1]
    denom = left - 2.0 * mid + right
    if denom >= 0:
        return grid[idx]
    shift = 0.5 * (left - right) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    half_span = 0.5 * (grid[idx + 1] - grid[idx - 1])
    return float(grid[idx] + shift * half_span)


def find_peaks(spectrum: Pseudospectrum, num_peaks: int) -> AngleEstimates:
    """The ``num_peaks`` highest local maxima of a pseudospectrum.

    Ties between equal peaks break toward the smaller angle. A quadratic
    fit through each peak and its neighbors replaces the grid angle. Raises
    EstimationError when the spectrum has fewer local maxima than requested.
    """
    grid, values = spectrum.grid, spectrum.values
    if num_peaks < 1:
        raise ValueError("num_peaks must be >= 1")
    if grid.size < 2 * num_peaks + 1:
        raise ValueError("grid too small for the requested number of peaks")
    maxima = _local_maxima(values)
    if len(maxima) < num_peaks:
        raise EstimationError(
            f"found {len(maxima)} spectral peaks, need {num_peaks}")
    chosen = sorted(maxima, key=lambda k: (-values[k], k))[:num_peaks]
    angles = np.sort([_refine_peak(grid, values, k) for k in chosen])
    return AngleEstimates(angles=angles, spectrum=spectrum)


def scan_angles(block: ReceivedBlock, num_sources: int, grid: np.ndarray,
                multipath: bool, num_subarrays: Optional[int]) -> AngleEstimates:
    """Full pilot-free angle stage on one received block.

    Single-path mode scans the Bartlett spectrum of the plain snapshot
    covariance; multipath mode smooths the covariances of the subarray plan
    ``SubarrayPlan.for_sources`` picks for ``num_subarrays`` (None: its
    default count) and runs MUSIC.
    The returned estimates carry the scanned spectrum.
    """
    if multipath:
        plan = SubarrayPlan.for_sources(block.num_antennas, num_sources, num_subarrays)
        covs = subarray_covariances(block, plan)
        smoothed = forward_backward_smooth(covs)
        spectrum = music_spectrum(smoothed, num_sources, grid)
    else:
        spectrum = bartlett_spectrum(sample_covariance(block), grid)
    return find_peaks(spectrum, num_sources)
