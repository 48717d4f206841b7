"""Uplink SIMO channel-estimation testbed.

Compares conventional pilot least-squares channel estimation against a
two-stage route that first estimates path angles from pilot-free subspace
scanning and then recovers the path gains from a handful of beamformed
pilots, together with the closed-form error and SNR predictions for both.
Only ``ExperimentSpec`` and ``run_trial`` are here; import the rest from submodules.
"""

from .simharness import ExperimentSpec, run_trial

__version__ = "0.1.0"
