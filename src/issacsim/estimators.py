"""Channel estimators, receive beamforming, and closed-form predictions.

Two estimation routes are implemented on the same received block:

* conventional: least-squares on the pilot observations alone;
* angle-then-gain ("issac"): beamform toward previously estimated path
  angles, project the beamformed pilots onto the pilot sequence, and solve
  the small gain system.

Closed forms cover the expected estimation error of both routes and the
post-combining receive SNR of the conventional route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .array_channel import ReceivedBlock, UlaGeometry, steering_matrix, steering_vector
from .errors import EstimationError

__all__ = [
    "ClosedFormPredictions",
    "ls_conventional",
    "mrc_beamformer",
    "empirical_snr",
    "snr_cp_approx",
    "estimate_gain_los",
    "estimate_gains_multipath",
    "closed_form_predictions",
]

# Relative condition limit on the gain Gram system before two estimated
# angles are declared collided.
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


def mrc_beamformer(h_hat: np.ndarray) -> np.ndarray:
    """Unit-norm maximum-ratio combiner matched to a channel estimate."""
    norm = np.linalg.norm(h_hat)
    if norm == 0:
        raise ValueError("cannot beamform toward a zero channel estimate")
    return h_hat / norm


def empirical_snr(beamformer: np.ndarray, h: np.ndarray, data_power: float,
                  noise_var: float) -> float:
    """Receive SNR data_power * |v^H h|^2 / noise_var for a realized combiner.

    Averaging over trials is the caller's job; a zero ``noise_var`` yields
    +inf.
    """
    signal = data_power * np.abs(np.vdot(beamformer, h)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(signal, noise_var))


def snr_cp_approx(num_antennas: int, pilot_len: int, snr_t: float,
                  data_power: float, h_norm_sq: float,
                  noise_var: float) -> Tuple[float, float]:
    """Large-array approximation of the conventional-route receive SNR.

    Returns (gamma, xi) where xi = (1 - 1/M) / (pilot_len * snr_t + 1) is
    the penalty from beamforming on an imperfect estimate and
    gamma = data_power * h_norm_sq / noise_var * (1 - xi).
    """
    xi = (1.0 - 1.0 / num_antennas) / (pilot_len * snr_t + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = float(np.divide(data_power * h_norm_sq, noise_var))
    return upper * (1.0 - xi), xi


def _beamformed_pilot_projection(block: ReceivedBlock, weights: np.ndarray,
                                 pilot_power: float) -> np.ndarray:
    """Project beamformed pilot outputs onto the conjugate pilot sequence.

    ``weights`` has one row per beam; returns one complex value per beam,
    normalized by sqrt(pilot_power * pilot_len^2).
    """
    rho = block.pilot_len
    if rho < 1:
        raise ValueError("gain estimation needs at least one pilot symbol")
    beamformed = weights @ block.pilot_obs
    return beamformed @ block.pilot_seq.conj() / np.sqrt(pilot_power * rho**2)


def estimate_gain_los(block: ReceivedBlock, theta_hat: float,
                      pilot_power: float) -> Tuple[complex, np.ndarray]:
    """Single-path gain from pilots beamformed toward ``theta_hat``.

    The beamformed, pilot-projected output is divided by sqrt(M), which is
    exact when the beam matches the true angle. Returns alpha_hat and the
    channel estimate alpha_hat * a(theta_hat).
    """
    geom = UlaGeometry(block.num_antennas)
    steer = steering_vector(geom, theta_hat)
    m = geom.num_antennas
    projected = _beamformed_pilot_projection(
        block, steer.conj()[None, :] / np.sqrt(m), pilot_power)
    alpha_hat = complex(projected[0] / np.sqrt(m))
    return alpha_hat, alpha_hat * steer


def estimate_gains_multipath(block: ReceivedBlock, thetas_hat: Sequence[float],
                             pilot_power: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-path gains from pilots beamformed toward ``thetas_hat``.

    Beams are the matched steering vectors scaled by 1/sqrt(M); the
    projected outputs feed an L x L solve against the steering Gram matrix
    (angles assumed accurate, so the Gram of the estimated angles stands in
    for the true one). A Gram condition number above ``GRAM_COND_LIMIT``
    means two estimated angles collided and raises EstimationError. Returns
    the gains and the channel estimate A(thetas_hat) @ gains.
    """
    geom = UlaGeometry(block.num_antennas)
    steer = steering_matrix(geom, thetas_hat)
    m = geom.num_antennas
    if steer.shape[1] > m:
        raise ValueError("more paths than antennas")
    gram = steer.conj().T @ steer
    if np.linalg.cond(gram) > GRAM_COND_LIMIT:
        raise EstimationError("estimated angles collided; gain system is singular")
    projected = _beamformed_pilot_projection(block, steer.conj().T / np.sqrt(m),
                                             pilot_power)
    gains = np.sqrt(m) * np.linalg.solve(gram, projected)
    return gains, steer @ gains


def closed_form_predictions(num_antennas: int, num_paths: int, pilot_power: float,
                            pilot_len: int, noise_var: float,
                            data_power: float) -> ClosedFormPredictions:
    """Bundle all closed forms for one parameter point.

    Expected squared estimation errors, with base = noise_var /
    (pilot_power * pilot_len):

    * conventional (e_cp):    M * base
    * angle-then-gain (e_lp): L * base (LoS is the case L = 1)

    The SNR forms use the mean channel energy num_paths * num_antennas of
    unit-variance path gains.
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
    gamma_cp, xi = snr_cp_approx(num_antennas, pilot_len, snr_t, data_power,
                                 expected_h_norm_sq, noise_var)
    return ClosedFormPredictions(e_cp=e_cp, e_lp=e_lp, gamma_cp_approx=gamma_cp,
                                 gamma_upper=gamma_upper, xi=xi)
