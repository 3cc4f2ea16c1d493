"""Microseconds per round of the run loop with messages stubbed, and per
real message.

    python3 tools/round_cost.py                    # the working tree's src/
    python3 tools/round_cost.py 6a44725 HEAD .     # two commits and the working tree
    python3 tools/round_cost.py HEAD . --reps 61 --rounds 100

Times the engine's own per-round work: ``quantize`` and ``stream`` are
replaced, inside the timing processes only, by stubs that return the
input over the grid step as the message (``_Message``, with a fixed bit
count) and a stream whose draws are all zero, so what is left is the
loop's numpy and Python overhead and the gradient oracle.  In trees whose run loop derives each 64-round block's
stream keys (``engine.block_keys``), that derivation is stubbed too: it
returns a filled array and derives nothing, as the stub stream did
before.  In trees whose exchange reads each message's grid
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

Eight more cases time what the stubs leave out.  Four are one message:
the real stream of labels ``(run, round, node, UPLINK)`` and
``quantizer.quantize`` of a vector of that stream, at d = 20 (``sgd-mc``)
and d = 100 (``gd-race``).  The stream is made as the tree's run loop
makes it: from a key row of ``seeding.block_keys`` derived before the
timing, or, in trees before it, by ``seeding.stream`` from the labels.
The vectors cycle through five ratios of ``|w|`` to the budget, from
0.44 to 42.4, across the range the runs send (``perfbench/workloads.py``'s
``WIRE_RATIOS``), and a sample's rounds are its messages.  The third, ``message d=20 on-grid``, sends the d = 20
vectors with every other coordinate moved onto the grid, which no run
sends often: it times ``quantize``'s full path, which trees with a short
path for off-grid vectors skip in the other two.  The fourth, ``message
lossless d=100``, sends the d = 100 vectors under a zero budget, as
``gd_baseline``'s 8,800 messages of a ``gd-race`` pass are sent: its
stream takes no draw and ``quantize`` takes its pass-through branch.
Two are one row draw:
the real stream of labels ``(run, round, node, ROW_SAMPLE)``, made in the
same way, and its row index out of m = 12 (``fed-local``) and m = 20
(``sgd-mc``) rows, as the tree's ``stochastic_grad`` draws it (``seeding.draw_index``, or ``integers`` in
trees before it); a sample's rounds are its draws.  The seventh, ``row
keys``, builds the real row-sample streams of R = 30 runs and N = 8 nodes
(``fed-local``'s lanes) round by round, across the edge of rounds 63 and
64 of the 64-round blocks the stream keys are derived in, so the keys of
both blocks are derived in each sample.  In trees with
``seeding.block_keys`` that is one derivation per block for all runs, at
the block's first round, and one stream per key row; trees before it
ask ``seeding.stream`` for each stream by its labels.  A sample's rounds
are its rounds of 240 streams, with no draws.  The eighth, ``stream by
labels``, builds the real stream ``seeding.stream(1, 0, k, 0, UPLINK)``
from its labels, as perfbench's ``wire-codec`` builds each of its 48
streams a pass; a sample's rounds are its streams, with no draws.

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
    "message lossless d=100", "row draw m=12", "row draw m=20", "row keys R=30 N=8",
    "stream by labels",
)


class _Message(np.ndarray):
    """A stub message: the input over the grid step (the input itself
    under a zero budget) as its grid point, which trees whose ``quantize``
    returns the grid point copy into a row.  It carries the input as its
    decoded value and a fixed bit count, which older trees read, and
    itself as ``_float_grid``, which trees whose exchange read a message's
    private grid point read.  Every tree pays for the one division."""

    def __new__(cls, decoded, spec, bits):
        self = (decoded / spec.grid_step if spec.grid_step else decoded).view(cls)
        self.decoded, self.bits = decoded, bits
        return self

    @property
    def _float_grid(self):
        return self


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


def _stub_keys(seed, prefixes, block, pairs):
    """A stub ``block_keys``: no derivation, and each key row of run ``r``
    at round ``k`` reads ``[r, k]``, which the stubbed participation draws
    look up."""
    keys = np.empty((len(prefixes), len(pairs), 64, 2), dtype=np.uint64)
    keys[..., 0] = np.array([prefix[0] for prefix in prefixes])[:, None, None]
    keys[..., 1] = 64 * block + np.arange(64)
    return keys


def stub_messages(engine) -> None:
    """Replace ``engine``'s ``quantize``, ``stream`` and (in trees that
    derive a block's keys in the run loop) ``block_keys`` in this process."""
    engine.quantize = lambda w, spec, rng, float_bits=32: _Message(w, spec, 1000)
    engine.stream = lambda *labels: _DRAWS
    if hasattr(engine, "block_keys"):
        engine.block_keys = _stub_keys


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
    out["message lossless d=100"] = _messages(100, rounds, lossless=True)
    for m in (12, 20):
        out[f"row draw m={m}"] = _row_draws(m, rounds)
    out["row keys R=30 N=8"] = _row_keys(30, 8, rounds)
    out["stream by labels"] = _label_streams(rounds)
    if not hasattr(engine, "_lane_grads"):
        return out

    sgd = _problem(make_linreg, 20, 5, 8.0, 20, True, w_star_scale=5.0)
    runs, nodes = range(30), range(sgd.N)
    keyed = hasattr(engine, "_RoundKeys")  # the loop holds each block's keys
    if keyed:
        row_keys = engine._RoundKeys(1, runs, [(i, engine.ROW_SAMPLE) for i in nodes])
        grads = lambda k, Q: engine._lane_grads(sgd, row_keys(k), Q)
    else:
        grads = lambda k, Q: engine._lane_grads(sgd, 1, runs, k, nodes, Q)

    def sgd_mc():
        engine._frequent_run(
            sgd, algorithm="deed-sgd", eta=1.0 / sgd.L, tau=None, T=rounds, seed=1,
            w0=None, budget_total=lambda k: (2.0 * 0.9955 ** (k + 1)) ** 0.5, runs=len(runs),
            grad_source=grads, **width,
        )

    fed = _problem(make_linreg, 10, 8, 4.0, 12, False, noise_scale=2.0, w_star_scale=5.0)
    K, p, stage = 4, fed.weights, 0.5 * 64.0 / 1024.0
    _predraw_participants(engine, K, p, runs, rounds)
    W = np.random.default_rng(1).standard_normal((fed.N, len(runs), fed.d))
    v = np.zeros((len(runs), fed.d))
    # One (2, N, R, d) array, the accumulators then the payloads.
    SP = np.zeros((2, fed.N, len(runs), fed.d))
    SP[1] = W
    if keyed:
        exchange = engine._Exchange(SP, v, p)
        pairs = [(i, engine.UPLINK) for i in range(fed.N)]
        sync_keys = engine._RoundKeys(1, runs, pairs + [(0, engine.DOWNLINK),
                                                        (0, engine.PARTICIPATION)])

        def sync(k):
            keys = sync_keys(k)
            budgets = []
            for lane, key in enumerate(keys[:, -1]):
                participants, coefs = engine._participants("without-replacement", K, p, key)
                exchange.select(lane, participants, coefs)
                budgets.append(stage * (1.0 + float(np.sum(coefs))))
            exchange(stage, budgets, k, keys)
    elif hasattr(getattr(engine, "_Exchange", None), "select"):
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
    if hasattr(engine, "_RoundKeys"):
        exchange = engine._Exchange(SP, v, p)
        pairs = [(i, engine.UPLINK) for i in range(len(p))] + [(0, engine.DOWNLINK)]
        sync_keys = engine._RoundKeys(1, runs, pairs)
        return lambda k: exchange(stage, [stage * (1.0 + float(np.sum(p)))] * len(runs), k,
                                  sync_keys(k))
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
    may be stubbed), and make ``engine._participants`` look them up: by
    labels, or in trees that hold each block's keys, by the ``[run,
    round]`` of ``_stub_keys``' key row."""
    from deedsim import seeding

    draw = engine._participants
    stubbed = engine.stream
    if hasattr(engine, "_RoundKeys"):
        engine.stream = seeding.key_stream
        draws = {(r, k): draw("without-replacement", K, p,
                              seeding.philox_key(1, r, k, 0, seeding.PARTICIPATION))
                 for r in runs for k in range(rounds)}
        engine._participants = lambda participation, K, p, key: draws[tuple(key.tolist())]
    else:
        engine.stream = seeding.stream
        draws = {(1, r, k): draw("without-replacement", K, p, (1, r, k))
                 for r in runs for k in range(rounds)}
        engine._participants = lambda participation, K, p, labels: draws[labels]
    engine.stream = stubbed


def _messages(d: int, rounds: int, on_grid: bool = False, lossless: bool = False):
    """A callable that sends ``rounds`` real messages of dimension ``d``,
    one stream and one ``quantize`` call each, as an engine's uplink;
    ``on_grid`` puts every other coordinate on the grid, and ``lossless``
    sends the same vectors under a zero budget, as ``gd_baseline`` does."""
    from deedsim.quantizer import QuantSpec, quantize

    stream = _held_stream(0, 0, rounds)  # run 0, node 0's uplink
    rng = np.random.default_rng(d)
    budget = 0.5
    spec = QuantSpec(0.0 if lossless else budget, d)
    vectors = []
    for ratio in (0.44, 0.891, 5.23, 17.5, 42.4):
        w = rng.standard_normal(d)
        w *= ratio * budget / np.linalg.norm(w)
        if on_grid:
            w[::2] = np.round(w[::2] / spec.grid_step) * spec.grid_step
        vectors.append(w)

    def send():
        for k in range(rounds):
            quantize(vectors[k % len(vectors)], spec, stream(k))

    return send


def _row_draws(m: int, rounds: int):
    """A callable that draws ``rounds`` row indices out of ``m`` rows, one
    real row-sample stream each, as ``stochastic_grad`` draws them."""
    from deedsim import seeding

    draw = getattr(seeding, "draw_index", lambda g, m: int(g.integers(m)))
    stream = _held_stream(0, seeding.ROW_SAMPLE, rounds)

    def sample():
        for k in range(rounds):
            draw(stream(k), m)

    return sample


def _held_stream(node: int, purpose: int, rounds: int):
    """A callable that makes run 0's stream of ``(node, purpose)`` at round
    ``k < rounds`` as the tree's run loop makes it: from a key row derived
    before the timing (``block_keys``), or, in trees before it, by
    ``seeding.stream`` from the labels."""
    from deedsim import seeding

    if not hasattr(seeding, "block_keys"):
        return lambda k: seeding.stream(1, 0, k, node, purpose)
    keys = np.concatenate([seeding.block_keys(1, [(0,)], b, [(node, purpose)])[0, 0]
                           for b in range(-(-rounds // 64))])
    return lambda k: seeding.key_stream(keys[k])


def _row_keys(R: int, N: int, rounds: int):
    """A callable that builds the row-sample streams of ``R`` runs and
    ``N`` nodes for ``rounds`` rounds that cross the edge of rounds 63 and
    64, run-major in each round as ``_lane_grads`` asks for them: by
    labels, or in trees with ``block_keys``, from the key rows of one
    derivation per block, made at the block's first round asked for."""
    from deedsim import seeding

    first = max(0, 64 - rounds // 2)
    if hasattr(seeding, "block_keys"):
        prefixes = [(r,) for r in range(R)]
        pairs = [(i, seeding.ROW_SAMPLE) for i in range(N)]

        def build():
            held = None
            for k in range(first, first + rounds):
                block, row = divmod(k, 64)
                if held is None or row == 0:
                    held = seeding.block_keys(1, prefixes, block, pairs)
                for key in held[:, :, row].reshape(R * N, 2):
                    seeding.key_stream(key)

        return build

    def build():
        for k in range(first, first + rounds):
            for r in range(R):
                for i in range(N):
                    seeding.stream(1, r, k, i, seeding.ROW_SAMPLE)

    return build


def _label_streams(rounds: int):
    """A callable that builds run 0's uplink stream of node 0 at each of
    ``rounds`` rounds from its labels, with ``seeding.stream``."""
    from deedsim import seeding

    def build():
        for k in range(rounds):
            seeding.stream(1, 0, k, 0, seeding.UPLINK)

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
