"""scipy is loaded only for point-cloud matching, and ``import tomosar``
loads every submodule the benchmark tracer rebinds.

``import tomosar.cli`` and the subcommands that never match clouds
(simulate, reconstruct, resolution-test) must not import scipy: it costs
~0.4 s of start-up and ~30 MiB of resident memory, which every CLI process
would otherwise pay.  The first ``evaluate`` loads it, and its report bytes
are those of the module-level import the matcher used to have.
"""

import json
import os
import subprocess
import sys

import pytest

# One fresh interpreter lists the submodules ``import tomosar`` loads, runs
# every stage through tomosar.cli.main and reports the scipy modules loaded
# after each, then the evaluate report.
SCRIPT = r"""
import json, os, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import tomosar
package = sorted(m for m in sys.modules if m.startswith("tomosar."))
import tomosar.cli

d = sys.argv[1]
p = lambda name: os.path.join(d, name)
stages = {"import": scipy_modules(), "package": package}
for name, argv in [
    ("simulate", ["simulate", "--model", "one_step", "--nx", "4", "--ny", "4", "--seed", "3",
                  "--out-scene", p("scene.tsr3"), "--out-echo", p("echo.tsr3")]),
    ("reconstruct", ["reconstruct", "--echo", p("echo.tsr3"), "--method", "fista",
                     "--out", p("recon.tsr3")]),
    ("resolution-test", ["resolution-test", "--separations", "0.0,1.0", "--trials", "2",
                         "--out", p("curve.csv")]),
    ("evaluate", ["evaluate", "--recon", p("recon.tsr3"), "--truth", p("scene.tsr3"),
                  "--out", p("eval.json"), "--cell-z", "0.4", "--cell-x", "0.5", "--cell-y", "0.5"]),
]:
    rc = tomosar.cli.main(argv)
    if rc != 0:
        sys.exit(f"{name} exited {rc}")
    stages[name] = scipy_modules()
with open(p("eval.json")) as fh:
    stages["report"] = fh.read()
print(json.dumps(stages))
"""

# The report of the run above as written with scipy imported at module level.
EXPECTED_REPORT = """\
{
  "a_p": 19,
  "d_pcm": 0.05555555555555555,
  "n_p": 9,
  "precision": 1.0,
  "psnr_db": 15.276973554978746,
  "recall": 0.8947368421052632,
  "reconstruction_time_s": null,
  "rmse": 0.1722468634250361,
  "t_p": {
    "precision": 9,
    "recall": 17
  },
  "tau_p": 0.812403840463596,
  "variance": 0.024691358024691357
}
"""


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    d = tmp_path_factory.mktemp("imports")
    res = subprocess.run([sys.executable, "-c", SCRIPT, str(d)], capture_output=True, text=True,
                         env={**os.environ, "TOMOSAR_THREADS": "1"})
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_package_import_loads_every_submodule(stages):
    names = ("bench", "fileio", "metrics", "sensing", "simulate", "solvers", "tensor")
    assert {f"tomosar.{name}" for name in names} <= set(stages["package"])


def test_import_loads_no_scipy(stages):
    assert stages["import"] == []


@pytest.mark.parametrize("stage", ["simulate", "reconstruct", "resolution-test"])
def test_commands_without_matching_load_no_scipy(stages, stage):
    assert stages[stage] == []


def test_evaluate_loads_scipy_and_writes_the_same_report(stages):
    assert "scipy.spatial" in stages["evaluate"]
    assert stages["report"] == EXPECTED_REPORT
