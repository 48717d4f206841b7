"""Uplink SIMO channel-estimation testbed.

Compares conventional pilot least-squares channel estimation against a
two-stage route that first estimates path angles from pilot-free subspace
scanning and then recovers the path gains from a handful of beamformed
pilots, together with the closed-form error and SNR predictions for both.
"""

from .array_channel import (
    AnglePolicy,
    PathSet,
    ReceivedBlock,
    TransmissionConfig,
    UlaGeometry,
    generate_pilot_sequence,
    simulate_reception,
    steering_matrix,
    steering_vector,
    synthesize_channel,
)
from .errors import EstimationError
from .estimators import (
    ClosedFormPredictions,
    closed_form_predictions,
    empirical_snr,
    estimate_gains_multipath,
    ls_conventional,
    mrc_beamformer,
    snr_cp_approx,
)
from .simharness import (
    CdfSeries,
    ExperimentSpec,
    SweepPoint,
    TrialResult,
    collect_trials,
    empirical_cdf,
    match_angles,
    nrmse,
    run_sweep,
    run_trial,
)
from .subspace import (
    AngleEstimates,
    Pseudospectrum,
    SampleCovariance,
    SubarrayPlan,
    bartlett_spectrum,
    find_peaks,
    forward_backward_smooth,
    hermitian_eigendecomposition,
    make_angle_grid,
    music_spectrum,
    sample_covariance,
    scan_angles,
    subarray_covariances,
)

__version__ = "0.1.0"
