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
grid_step_deg = 0.02
seed = 7
"""

# Oracle rho sweep with sigma2 != 1, so the pt/pd keys are scaled by the
# noise variance on the way into the spec.
RHO_SWEEP_CFG = """
m = 16
l = 3
mode = multipath
kappa = 97
pt = -10 dB
pd = -5 dB
sigma2 = 2
angle_stage = oracle
axis = rho
sweep_values = 1, 2, 4
seed = 23
"""

# (subcommand, shipped config name or inline config text, extra flags, digest)
CASES = {
    "sweep_oracle_pt": ("sweep", "nrmse_vs_pt.cfg", ["--trials", "20"],
                        "e1284d4084c24be9391f98a1e6ba7a77983c105c842e68d98292ef61bd24bb9c"),
    "cdf_estimated_multipath": ("cdf", "snr_cdf.cfg", ["--trials", "20"],
                                "fcb8b5006170efa5e5e7d84984248181845f4522b4445cc5124e02b77e580661"),
    "cdf_estimated_los": ("cdf", LOS_CDF_CFG, ["--trials", "20"],
                          "ebb94a4db1d94b89982f320b3b24e7045d8664b59e4dbac39b8693536caa7bfd"),
    "spectrum_multipath": ("spectrum", "spectrum_demo.cfg", [],
                           "a14bf514d7c5734986ba7549df242c0e26b8d35af4d611f9e8a79bb98137552d"),
    "spectrum_los": ("spectrum", LOS_SPECTRUM_CFG, [],
                     "e8d55c22cd72d07667acc6200f7f076732c75c0a59bb97d406f046c619d855b2"),
    "sweep_oracle_m": ("sweep", "nrmse_vs_m.cfg", ["--trials", "20"],
                       "4cb350c812f99c7ad412404159d7ddf31723ed1cffcebe16da1fea9827b34b43"),
    "sweep_estimated_pd_tracking": ("sweep", "snr_vs_pd.cfg", ["--trials", "3"],
                                    "cf672ce5e896005443ab1b843cad9b33df7a2ce841b463a41d3225adc2ec7428"),
    "sweep_oracle_rho": ("sweep", RHO_SWEEP_CFG, ["--trials", "20"],
                         "b1f760e19d38d738f61e0fa555ff7ab7cea463c360283eb4b6256f39f76ca421"),
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
