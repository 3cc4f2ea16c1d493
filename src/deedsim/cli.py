"""Command-line interface.

    deedsim run <config.yaml>            execute a config, write trace/bound/summary
    deedsim bound <config.yaml>          evaluate the envelope only
    deedsim compare <cfg1> <cfg2> ...    bits-to-accuracy table on a shared problem
    deedsim verify <tag>                 run an acceptance suite (JSON report)

Exit code 0 means every assertion/check passed.  The output directory is
taken from --out, then the config's ``output.dir``, then the
``DEEDSIM_OUT_DIR`` environment variable, then ``./deedsim_out``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import parse_config_file
from .errors import ConfigError
from .harness import cmd_compare, cmd_run, compute_bound, output_dir, strict_json
from .verify import SUITES, run_suite


def _load(path: str):
    try:
        return parse_config_file(path)
    except ConfigError as exc:
        print(f"invalid config {path}:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        raise SystemExit(2)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_run(args) -> int:
    result = cmd_run(_load(args.config), out_dir=args.out)
    print(strict_json(result.summary(), indent=2, sort_keys=True))
    for path in result.files:
        print(f"wrote {path}", file=sys.stderr)
    if not result.ok:
        v = result.violation
        print(f"BOUND VIOLATION: {v.kind} at t={v.t}: {v.comparison}", file=sys.stderr)
        return 1
    return 0


def _cmd_bound(args) -> int:
    cfg = _load(args.config)
    series = compute_bound(cfg)
    if series is None:
        print(
            "no envelope applies to this configuration (agd at kappa = 1, "
            "where the momentum envelope degenerates)",
            file=sys.stderr,
        )
        return 1
    path = os.path.join(output_dir(cfg, args.out), "bound.csv")
    series.to_csv(path)
    print(f"wrote {path}", file=sys.stderr)
    print(
        strict_json(
            {
                "rows": len(series.t),
                "bound_t0": series.bound[0],
                "bound_final": series.bound[-1],
                **{k: v for k, v in series.extras.items() if isinstance(v, float)},
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_compare(args) -> int:
    configs = [_load(p) for p in args.configs]
    try:
        table = cmd_compare(configs, check_order=args.check_order)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2
    print(strict_json(table, indent=2, sort_keys=True))
    # Human-readable table on stderr.
    head = "algorithm".ljust(16) + "".join(t.rjust(12) for t in table["thresholds"])
    print(head, file=sys.stderr)
    for row in table["rows"]:
        cells = [
            str(row["bits_to_accuracy"][t]) if row["bits_to_accuracy"][t] is not None else "-"
            for t in table["thresholds"]
        ]
        print(row["algorithm"].ljust(16) + "".join(c.rjust(12) for c in cells), file=sys.stderr)
    if args.check_order and not table.get("order_ok", True):
        for f in table["order_failures"]:
            print(f"order check failed: {f}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    if args.tag not in SUITES:
        print(
            f"unknown suite {args.tag!r}; choose from {', '.join(SUITES)}",
            file=sys.stderr,
        )
        return 2
    results = run_suite(args.tag)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"[{status}] criterion {r.criterion:2d} ({r.name}) "
            f"in {r.seconds:.1f}s: {r.detail}",
            file=sys.stderr,
        )
    print(strict_json({"suite": args.tag, "checks": [r.to_dict() for r in results]},
                      indent=2, sort_keys=True))
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="deedsim",
        description="Quantized distributed-optimization simulator with bit-exact "
        "accounting and envelope verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a config")
    p.add_argument("config")
    p.add_argument("--out", help="output directory override")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bound", help="evaluate the theoretical envelope only")
    p.add_argument("config")
    p.add_argument("--out", help="output directory override")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("compare", help="compare configs on one problem")
    p.add_argument("configs", nargs="+")
    p.add_argument(
        "--check-order",
        action="store_true",
        help="assert the given order is nondecreasing in bits at every threshold",
    )
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("tag", help=f"one of: {', '.join(SUITES)}")
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
