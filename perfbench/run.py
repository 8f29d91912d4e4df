"""Benchmark entry point for enmsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is used from ``src/``
(PYTHONPATH=src, no install) with ENM_THREADS unset.

``--trace 0`` measures the end-to-end metrics: set-up time is the median
over several fresh worker interpreters, and one worker then runs whole
rounds of ops for S seconds.  ``--trace 1`` reports the per-layer
metrics: import times from ``-X importtime``, then exactly one round run
untraced and once more under the tracer, whose difference is the tracing
overhead.  The last stdout line is the JSON result; run outputs go to
``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import SETUP_SAMPLES, WORKLOADS  # noqa: E402

OUT_DIR = "perfbench-out"
#: Every child must end by then, so the run exits within 180 s.
DEADLINE_S = 170.0
IMPORT_SAMPLES = 3
IMPORT_MODULES = {
    "enmsim": "import.enmsim_s",
    "scipy.optimize": "import.scipy_optimize_s",
    "scipy.integrate": "import.scipy_integrate_s",
}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("ENM_THREADS", None)
        self.env["PYTHONPATH"] = os.path.join(self.root, "src")

    def _timeout(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1.0:
            raise BenchError("out of time before the run finished")
        return left

    def worker(self, mode: str, *extra: str) -> tuple[dict, float]:
        """Run one worker; return its JSON record and its set-up time."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
               self.args.workload, "--seed", str(self.args.seed), "--mode", mode, *extra]
        launched = time.monotonic()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=self._timeout())
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {mode} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        return record, record["ready"] - launched

    def import_times(self) -> dict[str, float]:
        samples = {metric: [] for metric in IMPORT_MODULES.values()}
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import enmsim"],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=self._timeout())
            if proc.returncode != 0:
                raise BenchError(f"import enmsim failed: {proc.stderr.strip()[-2000:]}")
            seen = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in IMPORT_MODULES:
                    seen.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
            for module, metric in IMPORT_MODULES.items():
                samples[metric].append(seen.get(module, 0.0))
        return {metric: statistics.median(v) for metric, v in samples.items()}

    def end_to_end(self):
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(self.worker("setup")[1])
        record, setup = self.worker("run", "--seconds", str(self.args.seconds))
        setups.append(setup)
        ops = record["ops"]
        times = [op[1] for op in ops]
        points_per_s = sum(op[2] for op in ops) / sum(times)
        rss_kb = record["child_rss_kb"] if self.args.workload == "cli-cold" else record["rss_kb"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "points_per_s": (points_per_s, "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        op_note = f"median of {len(times)} ops in {record['rounds']} rounds"
        if len(times) >= 40:  # a tail percentile needs ten samples beyond it
            q = 1.0 - 10.0 / len(times)
            op_note += f"; p{100 * q:.0f} {sorted(times)[int(q * len(times)) - 1]:.4g} s"
        notes = {
            "setup_s": f"median of {len(setups)} fresh starts",
            "op_p50_s": op_note,
            "points_per_s": f"{sum(op[2] for op in ops)} points in {sum(times):.4g} s of op time",
            "peak_rss_mb": "largest CLI child" if self.args.workload == "cli-cold" else "worker",
        }
        return record, metrics, notes

    def traced(self):
        imports = self.import_times()
        base, _ = self.worker("run", "--rounds", "1")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{self.args.workload}-seed{self.args.seed}.npz")
        record, _ = self.worker("trace", "--rounds", "1", "--spans", spans)
        base_op_s = sum(op[1] for op in base["ops"])
        layers = dict(record["layers"], **imports)
        layers["trace.overhead_s"] = record["traced_op_s"] - base_op_s
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: (layers[name], units[name]) for name, _, _ in PER_LAYER}
        notes = {"trace.overhead_s": f"traced {record['traced_op_s']:.4f} s - "
                                     f"untraced {base_op_s:.4f} s, one round; spans in {spans}"}
        record["errors"] = base["errors"] + record["errors"]
        record["untraced_mismatch"] = any(op[3] == "mismatch" for op in base["ops"])
        return record, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "enmsim", "__init__.py")):
        print("error: src/enmsim not found; run from the root of an enmsim checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args)
    try:
        record, metrics, notes = runner.traced() if args.trace else runner.end_to_end()
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for message in record["errors"]:
        print(f"op problem: {message}", file=sys.stderr)
    statuses = [op[3] for op in record["ops"]]
    result = {
        "correct": "mismatch" not in statuses and not record.get("untraced_mismatch"),
        "attempted": len(statuses),
        "failed": statuses.count("failed"),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, notes=notes, errors=record["errors"]), fh, indent=1)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed, correct={result['correct']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
