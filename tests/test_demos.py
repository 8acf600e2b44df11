"""The demo scripts print the same bytes as when their digests were pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spde_lab

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# sha256 of each demo's stdout under OPENBLAS_NUM_THREADS=1 (numpy 2.4,
# OpenBLAS, x86-64).  sampling_and_isometry is left out: it takes about 7 s,
# the other four under 2 s each.  germ_markov_experiments also runs under the
# default thread count and must print the same bytes: markov pins its eigen
# and Cholesky solves to one OpenBLAS thread.
PINNED_STDOUT = {
    "germ_markov_experiments":
        "a5a4ab9cd13750a86ae4adcbba560ae2eef9da543f0f6166e89f84dd91ac899f",
    "heat_solvers": "006b627b5a5403cf85e8debcd22cd36c720e265860b59403c46e8e731dc26eb3",
    "kernels_and_spectra": "91ae7adc37b84abdca050d29de87dbdec042e4082b6eec276155c5f2dc0efcf6",
    "representers_and_rkhs":
        "d6f94488758048432f8d010aaa784451ab767af1e78e72933e8b801cb2dbf264",
}


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_demo_stdout_matches_pinned_digest(tmp_path, name):
    src = str(Path(spde_lab.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    envs = [dict(env, OPENBLAS_NUM_THREADS="1")]
    if name == "germ_markov_experiments":
        envs.append(env)
    for run_env in envs:
        run = subprocess.run(
            [sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path, capture_output=True,
            timeout=300, env=dict(run_env, PYTHONPATH=pythonpath))
        assert run.returncode == 0, run.stderr.decode()
        assert hashlib.sha256(run.stdout).hexdigest() == PINNED_STDOUT[name]
