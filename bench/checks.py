"""Output check of a ``cdf`` CSV: a fast but wrong build fails the run.

The rows must be the sorted receive SNRs of the non-failed trials with
F = i/n, and the comment lines (p90s, trials, failures) must agree with the
rows and with the trials the program returned.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

CDF_HEADER = ["snr_cp_db", "F_cp", "snr_lp_db", "F_lp"]
# The CSV carries 12 significant digits.
CSV_RTOL = 1e-10


def parse_csv(text: str) -> Tuple[Dict[str, str], List[str], np.ndarray]:
    """Comment key/values, header and float rows of a CLI CSV."""
    comments, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    if header is None:
        raise ValueError("CSV has no header")
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return comments, header, table


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


def check_cdf(text: str, trials: int, failures: int) -> List[str]:
    """Problems in a ``cdf`` CSV of ``trials`` trials, ``failures`` of them failed."""
    comments, header, table = parse_csv(text)
    problems = []
    if header != CDF_HEADER:
        return [f"cdf header {header}"]
    if comments.get("trials") != str(trials):
        problems.append(f"trials comment {comments.get('trials')!r} != {trials}")
    if comments.get("failures") != str(failures):
        problems.append(f"failures comment {comments.get('failures')!r} != {failures} "
                        "failed trials returned")
    n = trials - failures
    if table.shape[0] != n:
        return problems + [f"{table.shape[0]} rows != {n} non-failed trials"]
    expected_f = np.arange(1, n + 1) / n
    for snr_col, f_col, p90_key in ((0, 1, "p90_gamma_cp_db"), (2, 3, "p90_gamma_lp_db")):
        snr_db = table[:, snr_col]
        if not np.all(np.isfinite(snr_db)) or np.any(np.diff(snr_db) < 0):
            problems.append(f"{CDF_HEADER[snr_col]} not finite and sorted")
            continue
        if not np.allclose(table[:, f_col], expected_f, rtol=CSV_RTOL, atol=0):
            problems.append(f"{CDF_HEADER[f_col]} is not i/n")
        p90 = _db(float(np.percentile(10.0 ** (snr_db / 10.0), 90.0)))
        stated = float(comments.get(p90_key, "nan"))
        if not abs(p90 - stated) <= 1e-6:
            problems.append(f"{p90_key} {stated} != {p90:.9g} from the rows")
    return problems
