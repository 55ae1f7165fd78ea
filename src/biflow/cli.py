"""Command-line front end.

Subcommands: kernel-verify, evolve, contraction-sweep, norms, operators,
distance, kernel, flow, all.  Flags --config and --out are accepted on every
subcommand but kernel-verify, which takes --out alone; --seed only on
operators and all, whose operator ensemble it draws.

Exit status: 0 when every hard check passes, 1 when one fails, 2 on a
configuration error (for kernel-verify also a dim, tol or order the
certificate does not admit, or --order with --estimate all), 3 when a Picard
iterate leaves the projection tube.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, ManifoldTubeExitError
from .harness import (SEEDED_SUITES, SUITES, run_contraction_sweep, run_evolve,
                      run_kernel_verify, run_suite)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="sectioned config file")
    p.add_argument("--out", default="runs", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biflow",
        description="Biharmonic map heat flow: kernel certificates, norm "
                    "experiments, and Picard solves on a periodic box.")
    sub = parser.add_subparsers(dest="command", required=True)

    kv = sub.add_parser("kernel-verify",
                        help="emit one kernel decay certificate, or all of them")
    kv.add_argument("--dim", type=int, default=1)
    kv.add_argument("--estimate", required=True,
                    choices=["2.2", "2.3", "2.4", "2.5", "all"])
    kv.add_argument("--order", type=int, default=None,
                    help="derivative order (default 0); not with --estimate all")
    kv.add_argument("--tol", type=float, default=1e-9)
    kv.add_argument("--c1", type=float, default=0.5)
    kv.add_argument("--out", required=True, help="output JSON file")

    ev = sub.add_parser("evolve", help="run one Picard solve and dump the solution")
    _add_common(ev)

    cs = sub.add_parser("contraction-sweep", help="Picard runs across amplitudes")
    _add_common(cs)
    cs.add_argument("--amplitudes", required=True,
                    help="comma-separated list, e.g. 0.02,0.05,0.1")

    for name in SUITES:
        sp = sub.add_parser(name, help=f"run the {name} experiment suite")
        _add_common(sp)
        if name in SEEDED_SUITES:
            sp.add_argument("--seed", type=int, default=0, help="ensemble seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "kernel-verify":
            payload = run_kernel_verify(args.dim, args.estimate, args.order,
                                        args.tol, args.out, c1=args.c1)
            for cert in payload if args.estimate == "all" else [payload]:
                print(f"wrote certificate {cert['estimate_id']} (order {cert['order']}) "
                      f"fitted_constant={cert['fitted_constant']:.6g} -> {args.out}")
            return 0
        if args.command == "evolve":
            manifest = run_evolve(args.config, args.out)
        elif args.command == "contraction-sweep":
            amplitudes = [float(a) for a in args.amplitudes.split(",")]
            manifest = run_contraction_sweep(args.config, args.out, amplitudes)
        else:
            manifest = run_suite(args.command, args.config, args.out,
                                 seed=getattr(args, "seed", 0))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ManifoldTubeExitError as exc:
        print(f"tube exit: {exc}", file=sys.stderr)
        return 3
    for check, ok in manifest.summary.items():
        print(f"{check}: {'pass' if ok else 'FAIL'}")
    hard_fail = any(not ok for ok in manifest.summary.values())
    return 1 if hard_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
