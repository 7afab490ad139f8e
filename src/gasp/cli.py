"""Command-line front end: tables, sweeps, demos, and audits.

Every data file is plain ASCII CSV with a header row, comma separators,
newline line endings, and no quoting; integers print as integers and
rates with exactly three decimals (half-up).  Output is byte-identical
across runs with the same flags and seed.

Exit codes: 0 on success, 1 on runtime or verification failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from . import codec, harness, schemes
from .codec import BlockShapes
from .degree_table import SchemeParams, outer_sum
from .errors import BudgetExceededError, GaspError
from .gf import PrimeFieldSpec
from .schemes import format_rate


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="ascii", newline="") as handle:
            yield handle


def _params(args) -> SchemeParams:
    return SchemeParams(args.k, args.l, args.t)


def _check_scheme(args, parser) -> None:
    # Usage errors (exit 2) for --scheme and --g, shared by table, demo and audit.
    if args.scheme != "grouped" and args.g is not None:
        parser.error("--g is only valid with --scheme grouped")
    if args.scheme == "grouped":
        if args.g is None:
            parser.error("--scheme grouped requires --g")
        if not (args.k == args.l == args.t):
            parser.error("--scheme grouped requires k = l = t")


def cmd_table(args, parser) -> int:
    _check_scheme(args, parser)
    params = _params(args)
    code = schemes.code_for_scheme(params, args.scheme, g=args.g)
    table = outer_sum(code.assignment, params)

    width = max(len(str(e)) for row in table for e in row)
    width = max(width, max(len(str(v)) for v in code.assignment.alpha + code.assignment.beta))
    header = " " * width + " |" + "".join(f" {b:>{width}}" for b in code.assignment.beta)
    print(header)
    print("-" * len(header))
    for a, row in zip(code.assignment.alpha, table):
        print(f"{a:>{width}} |" + "".join(f" {e:>{width}}" for e in row))
    print(f"N = {code.n_servers}")
    return 0


def cmd_rate_sweep(args, parser) -> int:
    if args.t_max < 1:
        parser.error("--t-max must be at least 1")
    lines = ["T,n_small,n_big,n_gasp,rate_gasp,rate_r1,rate_r2"]
    for t in range(1, args.t_max + 1):
        report = schemes.rate_report(SchemeParams(args.k, args.l, t))
        r1 = format_rate(report.rate_r1) if report.rate_r1 is not None else ""
        lines.append(
            f"{t},{report.n_small},{report.n_big},{report.n_gasp},"
            f"{format_rate(report.rate_gasp)},{r1},{format_rate(report.rate_r2)}"
        )
    with _open_out(args.out) as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def cmd_grouped_sweep(args, parser) -> int:
    if args.k < 1:
        parser.error("--k must be at least 1")
    lines = ["G,N,rate"]
    for g, n, rate in schemes.grouped_sweep(args.k):
        lines.append(f"{g},{n},{format_rate(rate)}")
    with _open_out(args.out) as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def cmd_optimize(args, parser) -> int:
    if args.n < 2 * args.t + 1:
        print(f"infeasible: need N >= 2T+1, got N={args.n}, T={args.t}", file=sys.stderr)
        return 1
    best = schemes.optimize_gasp(args.n, args.t)
    print(
        f"gasp: K={best.k} L={best.l} servers={best.n_used} rate={format_rate(best.rate)}"
    )
    kakar = SchemeParams(*schemes.kakar_heuristic(args.n, args.t), args.t)
    rate = format_rate(schemes.rate_r2(kakar))
    print(f"kakar: K={kakar.k} L={kakar.l} servers={schemes.n_gap_free(kakar)} rate={rate}")
    return 0


def cmd_demo(args, parser) -> int:
    _check_scheme(args, parser)
    params = _params(args)
    r = args.r if args.r is not None else 2 * args.k
    s = args.s if args.s is not None else 2
    tcols = args.tcols if args.tcols is not None else 2 * args.l
    if r % args.k or tcols % args.l:
        parser.error(f"need k | r and l | tcols, got r={r}, tcols={tcols}")
    field = PrimeFieldSpec(args.p) if args.p is not None else None
    transcript = harness.run_sdmm(
        params,
        scheme=args.scheme,
        shapes=BlockShapes(r, s, tcols),
        field=field,
        seed=args.seed,
        g=args.g,
    )
    print(transcript.summary())
    print("AB verified")
    return 0


def cmd_audit(args, parser) -> int:
    _check_scheme(args, parser)
    if args.zero_masks and not args.exhaustive:
        parser.error("--zero-masks is only valid with --exhaustive")
    # The exhaustive audit builds the auto code itself.
    if args.exhaustive and args.scheme != "auto":
        parser.error("--exhaustive is only valid with --scheme auto")
    params = _params(args)
    code = schemes.code_for_scheme(params, args.scheme, g=args.g)
    field = PrimeFieldSpec(args.p) if args.p is not None else None
    plan = codec.find_evaluation_plan(code, field=field)
    report = harness.mds_audit(code, plan)
    print(f"gv_det_nonzero={str(report.gv_det_nonzero).lower()}")
    print(f"p_mds={str(report.p_mds).lower()}")
    print(f"q_mds={str(report.q_mds).lower()}")
    ok = report.all_pass
    if args.exhaustive:
        try:
            private = harness.exhaustive_privacy_audit(
                params,
                plan.field.p,
                plan=plan,
                zero_masks=args.zero_masks,
            )
        except BudgetExceededError as exc:
            print(f"exhaustive audit refused: {exc}", file=sys.stderr)
            return 1
        print(f"exhaustive_private={str(private).lower()}")
        ok = ok and private
    return 0 if ok else 1


def _add_scheme_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scheme", choices=["small", "big", "auto", "grouped"], default="auto")
    sub.add_argument("--g", type=int, default=None, help="group count (grouped only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasp",
        description="Polynomial codes for secure distributed matrix multiplication.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a degree table and its server count")
    p_table.add_argument("--k", type=int, required=True)
    p_table.add_argument("--l", type=int, required=True)
    p_table.add_argument("--t", type=int, required=True)
    _add_scheme_arguments(p_table)
    p_table.set_defaults(func=cmd_table)

    p_rate = sub.add_parser("rate-sweep", help="CSV of counts and rates over T")
    p_rate.add_argument("--k", type=int, required=True)
    p_rate.add_argument("--l", type=int, required=True)
    p_rate.add_argument("--t-max", type=int, required=True, dest="t_max")
    p_rate.add_argument("--out", required=True, help="output file, or - for stdout")
    p_rate.set_defaults(func=cmd_rate_sweep)

    p_grouped = sub.add_parser("grouped-sweep", help="CSV of grouped counts over G")
    p_grouped.add_argument("--k", type=int, required=True)
    p_grouped.add_argument("--out", required=True, help="output file, or - for stdout")
    p_grouped.set_defaults(func=cmd_grouped_sweep)

    p_opt = sub.add_parser("optimize", help="best (K, L) for a fixed worker pool")
    p_opt.add_argument("--n", type=int, required=True)
    p_opt.add_argument("--t", type=int, required=True)
    p_opt.set_defaults(func=cmd_optimize)

    p_demo = sub.add_parser("demo", help="run one simulated multiplication")
    p_demo.add_argument("--k", type=int, required=True)
    p_demo.add_argument("--l", type=int, required=True)
    p_demo.add_argument("--t", type=int, required=True)
    _add_scheme_arguments(p_demo)
    p_demo.add_argument("--p", type=int, default=None, help="field modulus (default: auto)")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--r", type=int, default=None, help="rows of A (default 2k)")
    p_demo.add_argument("--s", type=int, default=None, help="inner dimension (default 2)")
    p_demo.add_argument("--tcols", type=int, default=None, help="cols of B (default 2l)")
    p_demo.set_defaults(func=cmd_demo)

    p_audit = sub.add_parser("audit", help="verify plan conditions, optionally exhaustively")
    p_audit.add_argument("--k", type=int, required=True)
    p_audit.add_argument("--l", type=int, required=True)
    p_audit.add_argument("--t", type=int, required=True)
    _add_scheme_arguments(p_audit)
    p_audit.add_argument("--p", type=int, default=None, help="field modulus (default: auto)")
    p_audit.add_argument("--exhaustive", action="store_true")
    p_audit.add_argument(
        "--zero-masks",
        action="store_true",
        dest="zero_masks",
        help="with --exhaustive: pin masks to zero, so the audit should fail",
    )
    p_audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except GaspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
