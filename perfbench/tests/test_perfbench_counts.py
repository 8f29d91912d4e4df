"""The benchmark's exact per-layer counts repeat for a fixed seed.

Each run is a fresh interpreter, because the tracer must hook enmsim before
its first import.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

EXACT = ("rates.evals", "quad.integrand_evals", "ode.rhs_evals", "nelder_mead.evals",
         "discord.polish_calls", "linalg.eigvalsh.calls")

# One op of each kind that drives an exact counter, on the workloads' own inputs.
SCRIPT = """
import json, os, sys
sys.path.insert(0, {bench!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
import workloads
ctx = workloads.Context(root={root!r}, env=dict(os.environ), tracer=tracer)
timedep = workloads.build_timedep_dynamics(5, ctx)(0)
sweep = workloads.build_closed_form_sweep(5, ctx)(0)
from enmsim import verification
for op in (timedep[0], timedep[3], sweep[1]):
    with tracer.op(op.kind):
        op.check(op.call())
with tracer.op("decay-bound"):
    assert verification.run_suites(["decay-bound"], seed=5)[0].passed
print(json.dumps(tracer.layer_metrics()))
"""


def traced_counts():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("ENM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(bench=BENCH, root=ROOT)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])
    return {key: layers[key] for key in EXACT}


def test_exact_counts_repeat_for_a_fixed_seed():
    first = traced_counts()
    assert all(first[key] > 0 for key in EXACT), first
    assert traced_counts() == first
