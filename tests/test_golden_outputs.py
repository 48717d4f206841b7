"""Pinned CSV bytes of small seeded CLI runs.

Each case runs one subcommand in-process and compares the SHA-256 of the
CSV it writes against the digest recorded before the code it exercises was
last restructured. A refactor that is meant to leave the output alone must
keep every digest; a change that is meant to alter the output updates the
digest in the same commit and says why.
"""

import hashlib
from pathlib import Path

import pytest

from issacsim.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

LOS_CDF_CFG = """
m = 32
l = 1
mode = los
rho = 3
kappa = 97
pt = -10 dB
pd = -10 dB
sigma2 = 1
angle_stage = estimated
seed = 4
"""

LOS_SPECTRUM_CFG = """
m = 32
l = 1
mode = los
angles_deg = 20
rho = 3
kappa = 97
pt = -10 dB
pd = -10 dB
sigma2 = 1
seed = 7
"""

# (subcommand, shipped config name or inline config text, extra flags, digest)
CASES = {
    "sweep_oracle_pt": ("sweep", "nrmse_vs_pt.cfg", ["--trials", "20"],
                        "e1284d4084c24be9391f98a1e6ba7a77983c105c842e68d98292ef61bd24bb9c"),
    "cdf_estimated_multipath": ("cdf", "snr_cdf.cfg", ["--trials", "20"],
                                "557a124f53b542a395fe6dd7a78da8af2bfcc95af6b9a8a14cb1cf100f23410e"),
    "cdf_estimated_los": ("cdf", LOS_CDF_CFG, ["--trials", "20"],
                          "53fe6149f475f599be22cbef8962100e03ef6b405682af8dbc167db796f79dca"),
    "spectrum_multipath": ("spectrum", "spectrum_demo.cfg", [],
                           "cf67aefb308fe2301c4b68a094a8bc8d8d8209cee7b3ae86503813d5614bfdbc"),
    "spectrum_los": ("spectrum", LOS_SPECTRUM_CFG, [],
                     "d0a23bcae1f0a45a3154384b9f455946e5e0d02694a1d33c4fb433701387e4f2"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_csv_bytes_pinned(name, tmp_path):
    command, config, flags, digest = CASES[name]
    if config.endswith(".cfg"):
        cfg_path = CONFIGS / config
    else:
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
