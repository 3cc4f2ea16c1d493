"""Record the output digest of a workload seed from a plain ``deedsim run``.

    python3 perfbench/golden.py <workload> <seed> [<seed> ...]

For a run workload every generated config goes through the command line
(``python3 -m deedsim.cli run <config> --out <dir>``) in its own process,
independent of the benchmark's in-process passes; the digest covers the
files of all configs, as the benchmark computes it.  For wire-codec the
digest is that of one wire pass.  A seed whose run reports a bound
violation or a failed round trip is reported and not recorded.  Results
are merged into golden.json, which run.py checks every pass against.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def digest_of(workload: str, seed: int, work: str) -> str:
    if workload == "wire-codec":
        master_seed, messages = workloads.wire_messages(seed)
        report = workloads.wire_pass(master_seed, messages, workloads.wire_ops())
        if report["problems"]:
            raise RuntimeError("; ".join(report["problems"]))
        return report["digest"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = os.path.join(work, "out")
    for name, text in workloads.run_configs(workload, seed):
        path = os.path.join(work, name + ".yaml")
        with open(path, "w") as fh:
            fh.write(text)
        done = subprocess.run(
            [sys.executable, "-m", "deedsim.cli", "run", path, "--out", os.path.join(out, name)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{name}: deedsim run exited {done.returncode}: {done.stderr[-2000:]}")
    return workloads.output_digest(out)


def main(argv: list[str]) -> int:
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    path = os.path.join(HERE, "golden.json")
    status = 0
    for seed in seeds:
        work = os.path.join(ROOT, ".perfbench_work", f"golden-{os.getpid()}")
        os.makedirs(work)
        try:
            digest = digest_of(workload, seed, work)
        except RuntimeError as exc:
            print(f"{workload} seed {seed}: NOT RECORDED: {exc}", file=sys.stderr)
            status = 1
            continue
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(path) as fh:
            golden = json.load(fh)
        golden.setdefault(workload, {})[str(seed)] = digest
        with open(path, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload} seed {seed}: {digest}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
