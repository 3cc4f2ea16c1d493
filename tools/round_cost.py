"""Microseconds per round of the run loop with messages stubbed, and per
real message.

    python3 tools/round_cost.py                    # the working tree's src/
    python3 tools/round_cost.py 6a44725 HEAD .     # two commits and the working tree
    python3 tools/round_cost.py HEAD . --reps 61 --rounds 100

Times the engine's own per-round work: ``quantize`` and ``stream`` are
replaced, inside the timing processes only, by stubs that return the
message unchanged (a fixed bit count) and a stream whose draws are all
zero, so what is left is the loop's numpy and Python overhead and the
gradient oracle.  In trees whose exchange reads each message's grid
point, the scaling of the round's messages and their bit count stay in
the round: one count per exchange call, or two (uplinks, then
downlinks) in trees from before the downlinks had a row of their own.
In trees with ``seeding.draw_index`` the stub stream gives a raw word
and the row draw's own arithmetic stays in the round, where older
trees' stub ``integers`` skipped it, so across that change the
``sgd-mc`` round also counts the arithmetic of its 150 draws.  Four
cases, each on its perfbench workload's problem:

- ``gd-race``: ``_frequent_run`` as ``run_deed_gd`` calls it (on the one
  loop ``_run`` in trees that have it), N = 10, d = 100, one lane (R = 1);
- ``sgd-mc``: ``_frequent_run`` as ``run_deed_sgd`` calls it, N = 5,
  d = 20, R = 30 lanes of single-row gradients;
- ``fed-sync``: one whole ``deed-fed`` sync of R = 30 lanes without
  replacement, N = 8, d = 10, K = 4 participants per lane, as ``_run``
  makes it (``run_deed_fed`` in trees before it).  In trees whose
  ``_Exchange`` has ``select``, the one exchange is built before the
  timing, and a sync is 30 ``select`` calls (one per lane) and one
  exchange call.  Older trees make one ``_partial_sync`` call for every
  lane, or, before it, loop over the lanes and make a one-lane
  ``_Exchange`` afresh for each (``_exchange`` in trees before that).
  Each lane's participants are drawn before the timing, from that lane's
  real participation stream, and looked up during it;
- ``fed-sync full``: one whole full-participation sync of the same
  R = 30 lanes, N = 8, d = 10, on one exchange built before the timing.
  With ``_run`` a sync is one exchange call and selects nothing; trees
  with ``select`` but no ``_run`` select every node of every lane first,
  and trees with ``_partial_sync`` make the call on a ``range`` of nodes.
  Older trees lack the case.

Six more cases time what the stubs leave out.  Three are one message:
the real ``seeding.stream(seed, run, round, node, UPLINK)`` and
``quantizer.quantize`` of a vector of that stream, at d = 20 (``sgd-mc``)
and d = 100 (``gd-race``).  The vectors cycle through five ratios of
``|w|`` to the budget, from 0.44 to 42.4, across the range the runs send
(``perfbench/workloads.py``'s ``WIRE_RATIOS``), and a sample's rounds
are its messages.  The third, ``message d=20 on-grid``, sends the d = 20
vectors with every other coordinate moved onto the grid, which no run
sends often: it times ``quantize``'s full path, which trees with a short
path for off-grid vectors skip in the other two.  Two are one row draw:
the real
``seeding.stream(seed, run, round, node, ROW_SAMPLE)`` and its row index
out of m = 12 (``fed-local``) and m = 20 (``sgd-mc``) rows, as the tree's
``stochastic_grad`` draws it (``seeding.draw_index``, or ``integers`` in
trees before it); a sample's rounds are its draws.  The sixth, ``row
keys``, builds the real row-sample streams of R = 30 runs and N = 8 nodes
(``fed-local``'s lanes) round by round, across the edge of rounds 63 and
64 of the 64-round blocks the stream keys are derived in: each sample
starts in block 0 after the last one ended in block 1, so both of its
windows change and the keys of both blocks are derived in the sample.  A
sample's rounds are its rounds of 240 streams, with no draws.

Each tree (a git ref, extracted with ``git archive``, or ``.`` for the
working tree) runs in its own worker process.  A sample times
``--rounds`` rounds (syncs) and divides; the samples of the trees are
taken in turn, the order alternating from one repetition to the next, so
that every tree meets the same load.  The tool prints, per case and tree,
the median and quartiles over ``--reps`` samples and, past the first
tree, the median ratio of its samples to those of the same repetition
of the first tree that has the case.  A tree without the lane loop
(before ``_lane_grads``) has only the ``gd-race`` case.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = (
    "gd-race N=10 d=100 R=1", "sgd-mc N=5 d=20 R=30", "fed-sync N=8 d=10 K=4 R=30",
    "fed-sync full N=8 d=10 R=30", "message d=20", "message d=20 on-grid", "message d=100",
    "row draw m=12", "row draw m=20", "row keys R=30 N=8",
)


class _Message:
    """A stub message: the input as its decoded value, with a fixed bit
    count, and the input over the grid step as its grid point, which
    trees whose exchange scales and counts a round's grid points at once
    read instead.  Every tree pays for the one division."""

    __slots__ = ("_float_grid", "decoded", "bits")

    def __init__(self, decoded, spec, bits) -> None:
        self.decoded, self.bits = decoded, bits
        self._float_grid = decoded / spec.grid_step if spec.grid_step else decoded


class _Draws:
    """A stub stream: every row-sample draw is row 0, whether the tree
    draws it with ``integers`` or with ``seeding.draw_index`` from the
    raw word.  That word is 1, which Lemire's method maps to row 0 at
    once; a raw word of 0 would be rejected on every draw."""

    def integers(self, high):
        return 0

    @property
    def bit_generator(self):
        return self

    def random_raw(self):
        return 1


_DRAWS = _Draws()


def stub_messages(engine) -> None:
    """Replace ``engine``'s ``quantize`` and ``stream`` in this process."""
    engine.quantize = lambda w, spec, rng, float_bits=32: _Message(w, spec, 1000)
    engine.stream = lambda *labels: _DRAWS


def _problem(make_linreg, d, N, kappa, rows, interpolating, **extra):
    return make_linreg(seed=1, d=d, N=N, target_kappa=kappa, rows_per_node=rows,
                       interpolating=interpolating, **extra)


def cases(engine, make_linreg, rounds: int) -> dict:
    """Each case's name and a callable that runs ``rounds`` rounds."""
    race = _problem(make_linreg, 100, 10, 16.0, 100, False,
                    w_star_scale=300.0, noise_scale=10.0, l_spread=3.125)
    eta = 2.0 / (race.L + race.mu)
    # Trees from before the float width was retired pass it to every call.
    width = {}
    if "float_bits" in inspect.signature(engine._frequent_run).parameters:
        width = {"float_bits": 32}

    def gd_race():
        engine._frequent_run(race, algorithm="deed-gd", eta=eta, tau=None, T=rounds, seed=1,
                             w0=None, budget_total=lambda k: 50.0 * 0.97 ** (k + 1), **width)

    out = {"gd-race N=10 d=100 R=1": gd_race}
    for d in (20, 100):
        out[f"message d={d}"] = _messages(d, rounds)
    out["message d=20 on-grid"] = _messages(20, rounds, on_grid=True)
    for m in (12, 20):
        out[f"row draw m={m}"] = _row_draws(m, rounds)
    out["row keys R=30 N=8"] = _row_keys(30, 8, rounds)
    if not hasattr(engine, "_lane_grads"):
        return out

    sgd = _problem(make_linreg, 20, 5, 8.0, 20, True, w_star_scale=5.0)
    runs, nodes = range(30), range(sgd.N)

    def sgd_mc():
        engine._frequent_run(
            sgd, algorithm="deed-sgd", eta=1.0 / sgd.L, tau=None, T=rounds, seed=1,
            w0=None, budget_total=lambda k: (2.0 * 0.9955 ** (k + 1)) ** 0.5, runs=len(runs),
            grad_source=lambda k, Q: engine._lane_grads(sgd, 1, runs, k, nodes, Q), **width,
        )

    fed = _problem(make_linreg, 10, 8, 4.0, 12, False, noise_scale=2.0, w_star_scale=5.0)
    K, p, stage = 4, fed.weights, 0.5 * 64.0 / 1024.0
    _predraw_participants(engine, K, p, runs, rounds)
    W = np.random.default_rng(1).standard_normal((fed.N, len(runs), fed.d))
    v = np.zeros((len(runs), fed.d))
    # One (2, N, R, d) array, the accumulators then the payloads.
    SP = np.zeros((2, fed.N, len(runs), fed.d))
    SP[1] = W
    if hasattr(getattr(engine, "_Exchange", None), "select"):
        exchange = engine._Exchange(SP, v, p)

        def sync(k):
            budgets = []
            for lane, r in enumerate(runs):
                participants, coefs = engine._participants("without-replacement", K, p, (1, r, k))
                exchange.select(lane, participants, coefs)
                budgets.append(stage * (1.0 + float(np.sum(coefs))))
            exchange(stage, budgets, (1, runs, k))
    elif hasattr(engine, "_partial_sync"):
        sync = lambda k: engine._partial_sync(SP, v, "without-replacement", K, p, stage,
                                              (1, runs, k))
    else:
        if hasattr(engine, "_Exchange"):
            one_lane = lambda r, participants, coefs, *args: engine._Exchange(
                SP[:, :, r:r + 1], v[r:r + 1], participants, coefs)(*args)
        else:
            # Lane-major accumulators and payloads, (R, N, d) each.
            S, W = np.zeros((len(runs), fed.N, fed.d)), W.swapaxes(0, 1).copy()
            one_lane = lambda r, participants, coefs, *args: engine._exchange(
                S[r:r + 1], v[r:r + 1], W[r:r + 1], participants, coefs, *args)

        def sync(k):
            for r in runs:
                participants, coefs = engine._participants("without-replacement", K, p, (1, r, k))
                budget = stage * (1.0 + float(np.sum(coefs)))
                one_lane(r, participants, coefs, stage, budget, (1, (r,), k), *width.values())

    def fed_sync():
        for k in range(rounds):
            sync(k)

    out["sgd-mc N=5 d=20 R=30"] = sgd_mc
    out["fed-sync N=8 d=10 K=4 R=30"] = fed_sync
    full = _full_sync(engine, SP.copy(), np.zeros_like(v), p, stage, runs)
    if full is not None:
        out["fed-sync full N=8 d=10 R=30"] = lambda: [full(k) for k in range(rounds)]
    return out


def _full_sync(engine, SP, v, p, stage, runs):
    """A callable that makes full-participation sync ``k`` of every lane on
    one exchange, as the tree's ``deed-fed`` makes it; None in trees
    without one exchange for every lane."""
    if hasattr(engine, "_run"):
        exchange = engine._Exchange(SP, v, p)
        return lambda k: exchange(stage, [stage * (1.0 + float(np.sum(p)))] * len(runs),
                                  (1, runs, k))
    nodes = range(len(p))
    if hasattr(getattr(engine, "_Exchange", None), "select"):
        exchange = engine._Exchange(SP, v, p)

        def sync(k):
            budgets = []
            for lane in runs:
                exchange.select(lane, nodes, p)
                budgets.append(stage * (1.0 + float(np.sum(p))))
            exchange(stage, budgets, (1, runs, k))

        return sync
    if hasattr(engine, "_partial_sync"):
        exchange = engine._Exchange(SP, v, nodes, p)
        return lambda k: exchange(stage, stage * (1.0 + float(np.sum(p))), (1, runs, k))
    return None


def _predraw_participants(engine, K, p, runs, rounds) -> None:
    """Draw every lane's participants of syncs 0 .. ``rounds - 1`` without
    replacement, from the real participation streams (``engine.stream``
    may be stubbed), and make ``engine._participants`` look them up."""
    from deedsim.seeding import stream

    stubbed, engine.stream = engine.stream, stream
    draw = engine._participants
    draws = {(1, r, k): draw("without-replacement", K, p, (1, r, k))
             for r in runs for k in range(rounds)}
    engine.stream = stubbed
    engine._participants = lambda participation, K, p, labels: draws[labels]


def _messages(d: int, rounds: int, on_grid: bool = False):
    """A callable that sends ``rounds`` real messages of dimension ``d``,
    one stream and one ``quantize`` call each, as an engine's uplink;
    ``on_grid`` puts every other coordinate on the grid."""
    from deedsim.quantizer import QuantSpec, quantize
    from deedsim.seeding import UPLINK, stream

    rng = np.random.default_rng(d)
    spec = QuantSpec(0.5, d)
    vectors = []
    for ratio in (0.44, 0.891, 5.23, 17.5, 42.4):
        w = rng.standard_normal(d)
        w *= ratio * spec.max_error / np.linalg.norm(w)
        if on_grid:
            w[::2] = np.round(w[::2] / spec.grid_step) * spec.grid_step
        vectors.append(w)

    def send():
        for k in range(rounds):
            quantize(vectors[k % len(vectors)], spec, stream(1, 0, k, 0, UPLINK))

    return send


def _row_draws(m: int, rounds: int):
    """A callable that draws ``rounds`` row indices out of ``m`` rows, one
    real row-sample stream each, as ``stochastic_grad`` draws them."""
    from deedsim import seeding

    draw = getattr(seeding, "draw_index", lambda g, m: int(g.integers(m)))

    def sample():
        for k in range(rounds):
            draw(seeding.stream(1, 0, k, 0, seeding.ROW_SAMPLE), m)

    return sample


def _row_keys(R: int, N: int, rounds: int):
    """A callable that builds the row-sample streams of ``R`` runs and
    ``N`` nodes for ``rounds`` rounds that cross the edge of rounds 63 and
    64, run-major in each round as ``_lane_grads`` asks for them."""
    from deedsim import seeding

    first = max(0, 64 - rounds // 2)

    def build():
        for k in range(first, first + rounds):
            for r in range(R):
                for i in range(N):
                    seeding.stream(1, r, k, i, seeding.ROW_SAMPLE)

    return build


def worker(src: str, rounds: int) -> None:
    """Serve samples: read a case name per line, answer with the us per
    round of one sample of it, or ``-`` for a case this tree lacks."""
    sys.path.insert(0, src)
    from deedsim import engine
    from deedsim.problems import make_linreg

    stub_messages(engine)
    runs = cases(engine, make_linreg, rounds)
    for run in runs.values():
        run()  # warm caches and the oracle's first-call paths
    print("ready", flush=True)
    for line in sys.stdin:
        run = runs.get(line.strip())
        if run is None:
            print("-", flush=True)
            continue
        gc.collect()
        t0 = time.perf_counter()
        run()
        print((time.perf_counter() - t0) / rounds * 1e6, flush=True)


def _extract(ref: str, dest: str) -> str:
    """``ref``'s src/ under ``dest`` (``.``: the working tree's)."""
    if ref == ".":
        return os.path.join(ROOT, "src")
    archive = subprocess.Popen(["git", "archive", ref, "src"], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")
    return os.path.join(dest, "src")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("refs", nargs="*", default=["."],
                    help="git refs to time, '.' for the working tree (default: .)")
    ap.add_argument("--reps", type=int, default=31, help="samples per case and tree (default 31)")
    ap.add_argument("--rounds", type=int, default=100, help="rounds per sample (default 100)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, args.rounds)
        return

    with tempfile.TemporaryDirectory(prefix="round_cost_") as tmp:
        workers = []
        for n, ref in enumerate(args.refs):
            dest = os.path.join(tmp, str(n))
            os.makedirs(dest)
            src = _extract(ref, dest)
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--worker", src,
                 "--rounds", str(args.rounds)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            workers.append(proc)
        try:
            for proc in workers:
                if proc.stdout.readline().strip() != "ready":
                    raise SystemExit("a worker failed to start")
            print(f"{'case':<28} {'tree':<10} {'median':>8} {'q1':>8} {'q3':>8} "
                  f"{'ratio':>7}  (us per round, message or draw)")
            for name in CASES:
                samples = [[] for _ in workers]
                for rep in range(args.reps):
                    order = range(len(workers)) if rep % 2 == 0 else reversed(range(len(workers)))
                    for n in order:
                        workers[n].stdin.write(name + "\n")
                        workers[n].stdin.flush()
                        answer = workers[n].stdout.readline().strip()
                        if answer != "-":
                            samples[n].append(float(answer))
                for ref, xs in zip(args.refs, samples):
                    if not xs:
                        print(f"{name:<28} {ref:<10} {'-':>8}")
                        continue
                    q1, med, q3 = statistics.quantiles(xs, n=4)
                    ratio = ""
                    base = next(b for b in samples if b)  # the first tree with this case
                    if xs is not base:
                        ratio = f"{statistics.median(x / y for x, y in zip(xs, base)):7.3f}"
                    print(f"{name:<28} {ref:<10} {med:8.1f} {q1:8.1f} {q3:8.1f} {ratio:>7}")
        finally:
            for proc in workers:
                proc.stdin.close()
                proc.wait()


if __name__ == "__main__":
    main()
