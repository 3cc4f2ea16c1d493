"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/probe.py <trace 0|1> <workload> <seed> [config.yaml ...]

Times ``import deedsim`` and then everything before round 0: parsing the
given configs (which builds each problem and certifies its constants),
or generating the wire-codec messages.  Prints one JSON object.  With
trace 1 the parse is traced by layer.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    trace, workload, seed, paths = argv[0] == "1", argv[1], int(argv[2]), argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter_ns()
    import deedsim  # timed

    imported = time.perf_counter_ns()

    import tracing
    import workloads

    tracer = tracing.Tracer()
    off = contextlib.nullcontext()
    with tracer.installed() if trace else off, tracer.root("config.parse") if trace else off:
        begin = time.perf_counter_ns()
        if workload == "wire-codec":
            workloads.wire_messages(seed)
        else:
            for path in paths:
                deedsim.parse_config_file(path)
        parsed = time.perf_counter_ns()
    out = {
        "import_ns": imported - start,
        "setup_ns": parsed - begin + imported - start,
        "calls": dict(tracer.calls),
        "self_ns": dict(tracer.self_ns),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
