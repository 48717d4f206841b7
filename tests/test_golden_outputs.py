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

# Default-point pd sweep with sigma2 != 1: the default points go from dB to
# transmit SNRs, are scaled by the noise variance into powers that pilot
# power tracks, and report back in dB.
PD_DEFAULT_SWEEP_CFG = """
m = 16
sigma2 = 2
angle_stage = oracle
seed = 29
"""

# (subcommand, shipped config name or inline config text, extra flags, digest)
CASES = {
    "sweep_oracle_pt": ("sweep", "nrmse_vs_pt.cfg", ["--trials", "20"],
                        "e1284d4084c24be9391f98a1e6ba7a77983c105c842e68d98292ef61bd24bb9c"),
    "cdf_estimated_multipath": ("cdf", "snr_cdf.cfg", ["--trials", "20"],
                                "6caf10101832d03c9d093c332384ac73631cc913b804cb74a0292c199bc2730d"),
    "cdf_estimated_los": ("cdf", LOS_CDF_CFG, ["--trials", "20"],
                          "d188159c952dbec149428c6c04cf39cf89a2a89cc6666ffe984b2426b45fd3b2"),
    "spectrum_multipath": ("spectrum", "spectrum_demo.cfg", [],
                           "887b6c73033749488570e7a0fdd561811953851285261680ede2fab582d9b9a7"),
    "spectrum_los": ("spectrum", LOS_SPECTRUM_CFG, [],
                     "efc493cdf4ebd774b9a3c4433248ff76145411e136e874766a87a39b73beabe9"),
    "sweep_oracle_m": ("sweep", "nrmse_vs_m.cfg", ["--trials", "20"],
                       "4cb350c812f99c7ad412404159d7ddf31723ed1cffcebe16da1fea9827b34b43"),
    "sweep_estimated_pd_tracking": ("sweep", "snr_vs_pd.cfg", ["--trials", "3"],
                                    "875251c3e7b4dfe789b33b20565d550f6aa7141eb716354c9db80b914b8cfb84"),
    "sweep_oracle_rho": ("sweep", RHO_SWEEP_CFG, ["--trials", "20"],
                         "b1f760e19d38d738f61e0fa555ff7ab7cea463c360283eb4b6256f39f76ca421"),
    "sweep_oracle_pd_default_points": ("sweep", PD_DEFAULT_SWEEP_CFG,
                                       ["--axis", "pd", "--trials", "10"],
                                       "a999d2e05a7fdb1881d7a0d2058b1ba782e384a9b04004b19883c2426069582a"),
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
