"""Statistical gate for the estimated angle routes.

The golden digests pin bytes, not whether the numbers are right. Here a
seeded 2000-trial run at each of three points of the estimated routes (the
reference point, LoS, and pt = pd = -20 dB) must lie within 4 standard
errors of committed reference statistics, in each of: the failure count;
over the trials that did not fail, the outage fraction (worst path error
above 3.8 degrees) and the fraction whose worst path error exceeds the
reference's median; the mean ``sq_error_lp``; and 10 log10 of the mean
``snr_lp``. The median fraction is what catches a worse angle stage whose
errors stay below an outage: forward-only smoothing at the reference point
moves it by about 5 standard errors, the outage fraction and the mean
``sq_error_lp`` by about 3.5. A standard error is that of the difference
between the run and the reference, both taken from the reference's spread;
a rate's spread uses (count + 1) / (total + 2), so a reference without
failures still has one.

The references are one 20 000-trial run per point at seed 14000, which no
other test uses. They were made, and are remade, by

    PYTHONPATH=src python tests/test_statistical_gate.py

which prints the REFERENCES table. A change that re-pins estimated digests
passes the gate as it stands; remake the table only for a change that is
meant to move a route's statistics, and say why.
"""

import math

import numpy as np
import pytest

from issacsim.simharness import ExperimentSpec, collect_trials

POINTS = {
    "reference": {},
    "los": {"mode": "los", "num_paths": 1},
    "pt_pd_minus_20_db": {"pilot_pow": 0.01, "data_pow": 0.01},
}
REFERENCE_SEED, REFERENCE_TRIALS = 14000, 20000
GATE_SEED, GATE_TRIALS = 14001, 2000
OUTAGE_DEG = 3.8
MAX_STANDARD_ERRORS = 4.0

# Counts, the median worst path error, and (mean, standard deviation) over
# the trials that did not fail.
REFERENCES = {
    'reference': {'trials': 20000, 'failures': 0, 'outages': 6440,
        'median_error_deg': 0.463452, 'above_median': 10000,
        'sq_error_lp': (12.0176, 6.75305), 'snr_lp': (8.81613, 5.61147)},
    'los': {'trials': 20000, 'failures': 0, 'outages': 1365,
        'median_error_deg': 0.0994915, 'above_median': 10000,
        'sq_error_lp': (3.64195, 3.5303), 'snr_lp': (3.18228, 3.24299)},
    'pt_pd_minus_20_db': {'trials': 20000, 'failures': 0, 'outages': 17647,
        'median_error_deg': 31.1157, 'above_median': 10000,
        'sq_error_lp': (132.533, 66.359), 'snr_lp': (0.476097, 0.486193)},
}


def _statistics(point, base_seed, num_trials, median_deg=None):
    """The gate's statistics of one seeded run at ``point``. The run counts
    its trials above ``median_deg``, the reference's median worst path
    error; without one, above its own."""
    trials = collect_trials(ExperimentSpec(num_trials=num_trials, base_seed=base_seed,
                                           **POINTS[point]))
    ok = trials[~trials.failed]
    worst = np.rad2deg(np.ascontiguousarray(ok.angle_errors).max(axis=1))
    if median_deg is None:
        median_deg = float(f"{np.median(worst):.6g}")
    moments = {name: (float(f"{column.mean():.6g}"), float(f"{column.std():.6g}"))
               for name, column in (("sq_error_lp", np.ascontiguousarray(ok.sq_error_lp)),
                                    ("snr_lp", np.ascontiguousarray(ok.snr_lp)))}
    return {"trials": len(trials), "failures": len(trials) - len(ok),
            "outages": int((worst > OUTAGE_DEG).sum()), "median_error_deg": median_deg,
            "above_median": int((worst > median_deg).sum()), **moments}


def _standard_errors(ref, run):
    """How many standard errors each statistic of ``run`` lies from ``ref``."""
    ok, ref_ok = run["trials"] - run["failures"], ref["trials"] - ref["failures"]
    errors = {}
    for name, total, ref_total in (("failures", run["trials"], ref["trials"]),
                                   ("outages", ok, ref_ok), ("above_median", ok, ref_ok)):
        spread = (ref[name] + 1) / (ref_total + 2)
        se = math.sqrt(spread * (1.0 - spread) * (1.0 / total + 1.0 / ref_total))
        errors[name] = (run[name] / total - ref[name] / ref_total) / se
    mean, std = ref["sq_error_lp"]
    errors["sq_error_lp"] = (run["sq_error_lp"][0] - mean) / (std * math.sqrt(1.0 / ok + 1.0 / ref_ok))
    # 10 log10 of the mean SNR, with its spread by the delta method.
    mean, std = ref["snr_lp"]
    se_db = 10.0 / math.log(10.0) * std / mean * math.sqrt(1.0 / ok + 1.0 / ref_ok)
    errors["snr_lp_db"] = 10.0 * math.log10(run["snr_lp"][0] / mean) / se_db
    return errors


@pytest.mark.parametrize("point", list(POINTS))
def test_estimated_route_matches_its_reference(point):
    ref = REFERENCES[point]
    run = _statistics(point, GATE_SEED, GATE_TRIALS, ref["median_error_deg"])
    errors = _standard_errors(ref, run)
    assert all(abs(value) <= MAX_STANDARD_ERRORS for value in errors.values()), errors


if __name__ == "__main__":
    print("REFERENCES = {")
    for point in POINTS:
        stats = _statistics(point, REFERENCE_SEED, REFERENCE_TRIALS)
        print(f"    {point!r}: {{'trials': {stats['trials']}, 'failures': {stats['failures']}, "
              f"'outages': {stats['outages']},\n        'median_error_deg': "
              f"{stats['median_error_deg']}, 'above_median': {stats['above_median']},\n"
              f"        'sq_error_lp': {stats['sq_error_lp']}, 'snr_lp': {stats['snr_lp']}}},")
    print("}")
