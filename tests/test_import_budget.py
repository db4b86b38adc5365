"""Start-up cost: importing the CLI loads neither scipy nor a process pool.

A fresh interpreter imports ``preytaxis.cli`` (what the console script
imports) and lists the heavy modules it finds in ``sys.modules``, then
calls ``homogeneous_ode`` and lists the scipy modules again: the package
needs numpy only, its reference ODE included.  The trajectory end must
be the one this process computes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import preytaxis
from preytaxis import ModelParams, homogeneous_ode

SRC = str(Path(preytaxis.__file__).resolve().parent.parent)

PROBE = """
import json, sys
import preytaxis.cli

heavy = sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "multiprocessing") or m == "concurrent.futures.process"
)
from preytaxis import ModelParams, homogeneous_ode

p = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0)
traj = homogeneous_ode(1.0, 1.0, p, 1.0)
print(json.dumps({
    "heavy_after_import": heavy,
    "scipy_after_ode": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "ode_end": [float(traj.times[-1]), float(traj.u[-1]), float(traj.v[-1])],
}))
"""


def test_cli_import_leaves_scipy_and_process_pool_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["heavy_after_import"] == []
    assert out["scipy_after_ode"] == []
    p = ModelParams(d1=1.0, d2=1.0, m1=1.0, m2=2.0, chi=1.0, a=1.0, b=1.0)
    here = homogeneous_ode(1.0, 1.0, p, 1.0)
    assert out["ode_end"] == [1.0, float(here.u[-1]), float(here.v[-1])]
