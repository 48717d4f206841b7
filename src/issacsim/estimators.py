"""Channel estimators, receive beamforming, and closed-form predictions.

Two estimation routes are implemented on the same received block:

* conventional: least-squares on the pilot observations alone;
* angle-then-gain ("issac"): project that LS estimate onto the steering
  vectors of previously estimated path angles, which is the same as
  beamforming the pilots toward those angles and solving the small gain
  system. One function serves a single path (LoS) and several.

Closed forms cover the expected estimation error of both routes and the
post-combining receive SNR of the conventional route.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .array_channel import ReceivedBlock, UlaGeometry, steering_matrix
from .errors import EstimationError

__all__ = [
    "ClosedFormPredictions",
    "ls_conventional",
    "mrc_beamformer",
    "empirical_snr",
    "estimate_gains_multipath",
    "closed_form_predictions",
]

# Largest ratio of the gain Gram's extreme eigenvalues (its condition
# number) before two estimated angles are declared collided.
GRAM_COND_LIMIT = 1e8


@dataclass(frozen=True)
class ClosedFormPredictions:
    """Closed-form error and SNR predictions for one parameter point."""

    e_cp: float
    e_lp: float
    gamma_cp_approx: float
    gamma_upper: float
    xi: float


def ls_conventional(block: ReceivedBlock, pilot_power: float) -> np.ndarray:
    """Least-squares channel estimate from the pilot observations.

    Correlates the pilot columns with the conjugate pilot sequence and
    normalizes by sqrt(pilot_power * pilot_len^2); with noise the result is
    the true channel plus white CN noise of per-entry variance
    pilot_len * noise_var / (pilot_power * pilot_len^2).
    """
    rho = block.pilot_len
    if rho < 1:
        raise ValueError("conventional LS needs at least one pilot symbol")
    return block.pilot_obs @ block.pilot_seq.conj() / np.sqrt(pilot_power * rho**2)


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a vector: the same expression, without the wrapper."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def mrc_beamformer(h_hat: np.ndarray) -> np.ndarray:
    """Unit-norm maximum-ratio combiner matched to a channel estimate."""
    norm = _norm(h_hat)
    if norm == 0:
        raise ValueError("cannot beamform toward a zero channel estimate")
    return h_hat / norm


def empirical_snr(beamformer: np.ndarray, h: np.ndarray, data_power: float,
                  noise_var: float) -> float:
    """Receive SNR data_power * |v^H h|^2 / noise_var for a realized combiner.

    Averaging over trials is the caller's job; a zero ``noise_var`` yields
    +inf, or nan for a zero signal, without a warning.
    """
    signal = data_power * np.abs(np.vdot(beamformer, h)) ** 2
    if noise_var == 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(signal, noise_var))
    return float(signal / noise_var)


@functools.lru_cache(maxsize=64)
def _geometry(num_antennas: int) -> UlaGeometry:
    """One array geometry per size, shared by the gain solves."""
    return UlaGeometry(num_antennas)


def estimate_gains_multipath(h_ls: np.ndarray, thetas_hat: Sequence[float]
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Path gains from the LS estimate ``h_ls`` and the estimated angles.

    With A = A(thetas_hat), gains = (A^H A)^-1 A^H h_ls: ``h_ls`` projected
    onto the estimated steering vectors, for one path (LoS) or several.
    Beamforming the pilots with A^H and solving against A^H A gives the same
    gains, since beamforming and pilot correlation are both linear in the
    pilot block. A Gram whose largest eigenvalue exceeds ``GRAM_COND_LIMIT``
    times its smallest (a non-positive smallest one included) means two
    estimated angles collided and raises EstimationError. One path's Gram is
    the 1 x 1 ||a||^2, about M, which cannot collide: its gain is a
    division. Returns the gains and the channel estimate A @ gains.
    """
    steer = steering_matrix(_geometry(h_ls.shape[0]), thetas_hat)
    if steer.shape[1] > steer.shape[0]:
        raise ValueError("more paths than antennas")
    steer_h = steer.conj().T
    gram = steer_h @ steer
    projection = steer_h @ h_ls
    if steer.shape[1] == 1:
        gains = projection / gram[0]
    else:
        eigvals = np.linalg.eigvalsh(gram)
        if eigvals[-1] > GRAM_COND_LIMIT * eigvals[0]:
            raise EstimationError("estimated angles collided; gain system is singular")
        gains = np.linalg.solve(gram, projection)
    return gains, steer @ gains


def closed_form_predictions(num_antennas: int, num_paths: int, pilot_power: float,
                            pilot_len: int, noise_var: float,
                            data_power: float) -> ClosedFormPredictions:
    """Bundle all closed forms for one parameter point.

    Expected squared estimation errors, with base = noise_var /
    (pilot_power * pilot_len):

    * conventional (e_cp):    M * base, the energy of the white LS noise
      of per-entry variance base;
    * angle-then-gain (e_lp): L * base, that noise projected onto the L
      dimensions spanned by the (exact) steering vectors (LoS is L = 1).

    The SNR forms use the mean channel energy num_paths * num_antennas of
    unit-variance path gains. The conventional-route receive SNR is the
    matched-filter bound gamma_upper times 1 - xi, where the penalty
    xi = (1 - 1/M) / (pilot_len * snr_t + 1) comes from beamforming on an
    imperfect estimate.
    """
    if pilot_power <= 0 or pilot_len <= 0:
        raise ValueError("pilot_power and pilot_len must be positive")
    base = noise_var / (pilot_power * pilot_len)
    e_cp = num_antennas * base
    e_lp = num_paths * base
    expected_h_norm_sq = float(num_paths * num_antennas)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr_t = float(np.divide(pilot_power * expected_h_norm_sq,
                                num_antennas * noise_var))
        gamma_upper = float(np.divide(data_power * expected_h_norm_sq, noise_var))
    xi = (1.0 - 1.0 / num_antennas) / (pilot_len * snr_t + 1.0)
    return ClosedFormPredictions(e_cp=e_cp, e_lp=e_lp, gamma_upper=gamma_upper,
                                 gamma_cp_approx=gamma_upper * (1.0 - xi), xi=xi)
