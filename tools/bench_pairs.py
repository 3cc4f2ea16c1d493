"""Alternating before/after runs of the benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent 556472d --workloads fed-local --seeds 1,11 \
        --pairs 10 --out BENCH_9.json
    python3 tools/bench_pairs.py --parent 556472d --workloads gd-race,sgd-mc,wire-codec \
        --seeds 1 --pairs 3 --out BENCH_9.json
    python3 tools/bench_pairs.py --parent 556472d --workloads fed-local --seeds 1 \
        --pairs 1 --trace 1 --out BENCH_9.json
    python3 tools/bench_pairs.py --parent 556472d --cold-cli configs/deed_fed.yaml \
        --pairs 3 --out BENCH_9.json

The committed files of ``--parent`` and ``--change`` (default ``HEAD``) are
extracted with ``git archive`` into a scratch directory, so each side runs
from its own source, as the benchmark itself does.  Each pair runs
``perfbench/run.py`` once on each side, alternating which side goes first
from pair to pair, for the ``run_seconds`` that BENCHMARK.json fixes (both
sides must fix the same).  ``--cold-cli`` instead times ``deedsim run CONFIG`` in
a fresh interpreter per run (wall seconds and peak RSS of that process)
and checks that both sides write the same output files.

Results merge into ``--out`` when it exists: a new row replaces the row
of the same name (``"<workload> seed <s>"`` under ``untraced`` or
``traced``, the config path under ``cold_cli``), other rows are kept.
Each row names the two commits and the command it ran, and holds its
pairs and a per-metric summary: the medians and quartiles of both sides,
in how many pairs the change was better and worse (by the metric's
direction in BENCHMARK.json), whether the medians differ by more than the
parent's quartile distance, and a ``reading``:

- ``gain``: at least 10 pairs, the change better in 9 of 10 of them, and
  the medians further apart than the parent's quartile distance;
- ``unresolved``: the parent's quartile distance is wider than the
  metric's bound and not every change run beats every parent run;
- ``worse beyond bound`` / ``within bound``: the change's median against
  the parent's, by the metric's bound;
- ``no bound``: a metric BENCHMARK.json gives no bound (per-layer
  metrics, cold-CLI wall seconds) and that is not a gain.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def extract(ref: str, dest: str) -> str:
    """The committed tree of ``ref`` under ``dest``; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")
    return sha


def perfbench_cmd(workload: str, seed: int, seconds: float, trace: int) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]


def perfbench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run: its metrics, verdict and output digest."""
    cmd = [sys.executable] + perfbench_cmd(workload, seed, seconds, trace)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": (done.stderr or done.stdout)[-2000:]}
    record = {k: v["value"] for k, v in result["metrics"].items()}
    record.update(correct=result["correct"], failed=result["failed"],
                  attempted=result["attempted"])
    for line in lines:
        if line.startswith("output digest: "):
            record["digest"] = line[len("output digest: "):]
    if done.stderr.strip():
        record["stderr"] = done.stderr.strip()[-2000:]
    return record


def cold_cli(tree: str, config: str, out: str) -> dict:
    """``deedsim run CONFIG`` from a fresh interpreter: wall seconds, peak
    RSS of that process, and a digest of the files it wrote."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, "-m", "deedsim.cli", "run", config, "--out", out]
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own rusage, so its peak RSS is not mixed
        # with earlier children's.
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    shutil.rmtree(out, ignore_errors=True)
    record = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "exit_code": child.returncode, "digest": digest.hexdigest()}
    if record["exit_code"] != 0:
        record["stderr"] = stderr[-2000:]
    return record


def benchmark_spec(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_rules(spec: dict) -> dict[str, tuple[str, float | None]]:
    """Each metric's direction and, for end-to-end metrics, its bound."""
    rules = {m["name"]: (m["better"], None) for m in spec["per_layer"]}
    rules.update((m["name"], (m["better"], m["bound"])) for m in spec["end_to_end"])
    rules.setdefault("wall_s", ("lower", None))
    return rules


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def reading(parent: list[float], change: list[float], sign: float, bound: float | None) -> str:
    """The summary's verdict on one metric (see the module docstring)."""
    pq1, pmed, pq3 = quartiles(parent)
    gap = sign * (statistics.median(change) - pmed)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if len(parent) >= 10 and wins >= 0.9 * len(parent) and gap > pq3 - pq1:
        return "gain"
    if bound is None:
        return "no bound"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pq3 - pq1 > bound * abs(pmed) and not all_better:
        return "unresolved"
    return "worse beyond bound" if -gap > bound * abs(pmed) else "within bound"


def summarize(pairs: list[dict], rules: dict[str, tuple[str, float | None]]) -> dict:
    """Per metric: medians, quartiles, pairwise wins of the change and a reading."""
    names = [k for k, v in pairs[0]["parent"].items()
             if k in rules and isinstance(v, (int, float)) and not isinstance(v, bool)]
    summary = {}
    for name in names:
        got = [p for p in pairs if name in p["parent"] and name in p["change"]]
        better, bound = rules[name]
        sign = 1.0 if better == "higher" else -1.0
        parent = [p["parent"][name] for p in got]
        change = [p["change"][name] for p in got]
        gains = [sign * (c - p) for p, c in zip(parent, change)]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        summary[name] = {
            "parent_median": pmed, "parent_q1": pq1, "parent_q3": pq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "change_better_in": f"{sum(g > 0 for g in gains)}/{len(got)}",
            "change_worse_in": f"{sum(g < 0 for g in gains)}/{len(got)}",
            "median_gap_exceeds_parent_iqr": abs(cmed - pmed) > pq3 - pq1,
            "bound": bound,
            "reading": reading(parent, change, sign, bound),
        }
    return summary


def blas_build(config: dict) -> str:
    """The BLAS a numpy or scipy build links, from its ``__config__.CONFIG``."""
    blas = config["Build Dependencies"]["blas"]
    return blas.get("openblas configuration") or f"{blas['name']} {blas.get('version', '')}".strip()


def openblas_runtime(package, suffix: str) -> dict:
    """Core type and thread count of the OpenBLAS bundled in
    ``<package>.libs``, read from the loaded library through its
    ``scipy_openblas_get_corename<suffix>`` and
    ``scipy_openblas_get_num_threads<suffix>``; None where the library or a
    symbol is missing."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        package.__name__ + ".libs")
    found = {"core": None, "threads": None}
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)  # the loaded library's handle, if loaded
        for key, name, restype in (("core", "corename", ctypes.c_char_p),
                                   ("threads", "num_threads", ctypes.c_int)):
            fn = getattr(lib, f"scipy_openblas_get_{name}{suffix}", None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                value = fn()
                found[key] = value.decode() if isinstance(value, bytes) else value
    return found


def machine() -> dict:
    """What the timings and golden digests depend on besides the source:
    cores, versions, BLAS builds, the core type and thread count each
    OpenBLAS runs with, the threading environment, and the SIMD extensions
    numpy was built for and found."""
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401 -- loads scipy's OpenBLAS

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas_build(np.__config__.CONFIG),
            "scipy_blas": blas_build(scipy.__config__.CONFIG),
            # numpy's OpenBLAS has 64-bit integers and suffixed names.
            "numpy_openblas": openblas_runtime(np, "64_"),
            "scipy_openblas": openblas_runtime(scipy, ""),
            "numpy_simd": np.__config__.CONFIG["SIMD Extensions"],
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith("OPENBLAS_") or k == "OMP_NUM_THREADS"}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the 'before' side")
    parser.add_argument("--change", default="HEAD", help="git ref of the 'after' side")
    parser.add_argument("--workloads", default="", help="comma-separated perfbench workloads")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-cli", metavar="CONFIG",
                        help="time `deedsim run CONFIG` instead of perfbench")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or merge into")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1 or not (workloads or args.cold_cli):
        parser.error("give --workloads or --cold-cli, and --pairs >= 1")

    # On SIGTERM unwind normally, so that the extracted trees are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = tempfile.mkdtemp(prefix="bench_pairs_")
    trees, shas = {}, {}
    try:
        for side, ref in zip(SIDES, (args.parent, args.change)):
            trees[side] = os.path.join(scratch, side)
            shas[side] = extract(ref, trees[side])
        spec = benchmark_spec(trees["change"])
        seconds = spec["run_seconds"]
        if benchmark_spec(trees["parent"])["run_seconds"] != seconds:
            raise SystemExit("the two sides' BENCHMARK.json fix different run_seconds")
        rules = metric_rules(spec)

        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        else:
            doc = {}
        doc["what"] = ("tools/bench_pairs.py: parent against change on one machine, alternating "
                       "which side runs first on each pair; each row names its commits and "
                       "command. run_s and setup_s are perfbench's calibrated reference seconds; "
                       "cold_cli wall_s is wall seconds and peak_rss_mb the peak RSS of the "
                       "`deedsim run` process")
        doc["machine"] = machine()

        turn = 0
        rows = []
        if args.cold_cli:
            rows.append(("cold_cli", args.cold_cli, None, None))
        for workload in workloads:
            for seed in seeds:
                section = "traced" if args.trace else "untraced"
                rows.append((section, f"{workload} seed {seed}", workload, seed))
        for section, name, workload, seed in rows:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if turn % 2 == 0 else SIDES[::-1]
                turn += 1
                pair = {"first": order[0]}
                for side in order:
                    if workload is None:
                        out = os.path.join(scratch, "out_" + side)
                        pair[side] = cold_cli(trees[side], name, out)
                    else:
                        pair[side] = perfbench(trees[side], workload, seed, seconds,
                                               args.trace)
                pairs.append(pair)
                print(f"{section} {name} pair {i + 1}/{args.pairs}: "
                      + json.dumps({s: pair[s] for s in SIDES}), file=sys.stderr)
            row = {"parent": shas["parent"], "change": shas["change"]}
            if workload is None:
                row["command"] = f"python3 -m deedsim.cli run {name} --out <dir>, fresh interpreter"
            else:
                row["command"] = " ".join(["python3"] + perfbench_cmd(workload, seed, seconds,
                                                                      args.trace))
            row.update(pairs=pairs, summary=summarize(pairs, rules))
            if workload is None:
                row["outputs_identical"] = all(
                    p["parent"]["digest"] == p["change"]["digest"] for p in pairs)
            doc.setdefault(section, {})[name] = row
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
