"""Run one enmsim CLI command under the tracer, for traced cli-cold runs.

    python3 perfbench/tracechild.py LAYERS_JSON CLI_ARGS...

The tracer is installed before enmsim is imported; the command runs as one
op, and its per-layer metrics are written to LAYERS_JSON for the worker.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from enmsim import cli

    with tracer.op("cli"):
        code = cli.main(argv)
    with open(out_path, "w") as fh:
        json.dump(tracer.layer_metrics(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
