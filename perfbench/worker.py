"""One benchmark process: set up, warm up, then run and check whole rounds of ops.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace
                                [--seconds S] [--rounds R] [--spans PATH]

``setup`` stops after the warm-up op.  ``run`` repeats rounds until S
seconds have passed (or exactly R rounds).  ``trace`` installs the tracer
before enmsim is imported and runs exactly R rounds.  The last line on
stdout is a JSON record that run.py reads; ``ready`` is the monotonic
clock at the end of set-up, so the parent can time the whole start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rounds", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    import workloads
    from reference import Mismatch, OpFailed

    ctx = workloads.Context(root=os.getcwd(), env=dict(os.environ), tracer=tracer)
    round_ops = workloads.WORKLOADS[args.workload](args.seed, ctx)
    warm = round_ops(0)[0]
    warm.call()
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    records = []  # [kind, seconds, points, status]
    errors = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for op in round_ops(rounds):
            status = "ok"
            began = time.perf_counter()
            try:
                if tracer:
                    with tracer.op(op.kind):
                        out = op.call()
                else:
                    out = op.call()
            except Exception as exc:  # a failing op is counted, not fatal
                out, status = None, "failed"
                errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - began
            if status == "ok":
                try:
                    op.check(out)
                except OpFailed as exc:
                    status = "failed"
                    errors.append(f"{op.kind}: {exc}")
                except Mismatch as exc:
                    status = "mismatch"
                    errors.append(f"{op.kind}: {exc}")
            records.append([op.kind, seconds, op.points, status])
        rounds += 1
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break

    result = {
        "ready": ready,
        "rounds": rounds,
        "ops": records,
        "errors": errors[:20],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["traced_op_s"] = tracer.op_seconds()
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
