"""Command-line interface.

Subcommands: solve, pof, generate, verify, reproduce. Results go to stdout
as exact rational strings ("inf" for infinity); identical arguments, files
and seeds produce byte-identical output. Exit codes: 0 success, 1 violated
verification, 2 usage or input error. The environment variable EGALPOF_CAP
overrides the default search cap when --cap is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .construct import gen_thm1, gen_thm4, gen_thm5, gen_thm7, pad_instance
from .errors import CrossCheckError, EgalpofError, ParamOutOfRange, ParseError
from .model import DEFAULT_ENUMERATION_CAP, _check_cells
from .reports import build_report, render_csv, render_markdown
from .serialize import load_instance, parse_rational, save_instance
from .solve import Objective, PropertyFilter, max_welfare, price_of_fairness
from .verify import SUITES, run_suite

_OBJECTIVES = {
    "ew": Objective.EGALITARIAN,
    "uw": Objective.UTILITARIAN,
    "nw": Objective.NASH,
}


@functools.cache  # parsing leaves the parser unchanged, so one per process serves every main()
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egalpof",
        description="Exact egalitarian-welfare solving, fairness pricing and "
        "verification for indivisible-goods instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="maximize a welfare objective under a property")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--objective", required=True, choices=sorted(_OBJECTIVES))
    solve.add_argument(
        "--property",
        dest="prop",
        default="none",
        choices=[p.value for p in PropertyFilter],
    )
    solve.add_argument("--cap", type=int)
    solve.set_defaults(run=_cmd_solve)

    pof = sub.add_parser("pof", help="egalitarian price of a property")
    pof.add_argument("--instance", required=True)
    pof.add_argument(
        "--property",
        dest="prop",
        required=True,
        choices=[p.value for p in PropertyFilter if p is not PropertyFilter.NONE],
    )
    pof.add_argument("--cap", type=int)
    pof.set_defaults(run=_cmd_pof)

    generate = sub.add_parser("generate", help="write a built-in family instance")
    generate.add_argument("--family", required=True, choices=["thm1", "thm4", "thm5", "thm7"])
    generate.add_argument("--n", type=int)
    generate.add_argument("--m", type=int)
    generate.add_argument("--eps")
    generate.add_argument("--x")
    generate.add_argument("--y")
    generate.add_argument("--pad", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(run=_cmd_generate)

    verify = sub.add_parser("verify", help="run a random-instance check suite")
    verify.add_argument("--suite", required=True, choices=list(SUITES))
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--m-max", type=int, required=True)
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.set_defaults(run=_cmd_verify)

    reproduce = sub.add_parser("reproduce", help="emit the desk-scale family report")
    reproduce.add_argument("--out", required=True)
    reproduce.add_argument("--format", dest="fmt", default="csv", choices=["csv", "md"])
    reproduce.set_defaults(run=_cmd_reproduce)

    return parser


def _resolve_cap(args) -> int:
    cap, source = getattr(args, "cap", None), "--cap"
    env = os.environ.get("EGALPOF_CAP")
    if cap is None and env is not None:
        try:
            cap, source = int(env), "EGALPOF_CAP"
        except ValueError:
            raise ParseError(f"EGALPOF_CAP must be an integer, got {env!r}")
    if cap is None:
        return DEFAULT_ENUMERATION_CAP
    if cap < 1:
        raise ParamOutOfRange(f"{source} must be at least 1, got {cap}")
    return cap


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    result = max_welfare(
        inst, _OBJECTIVES[args.objective], PropertyFilter(args.prop), _resolve_cap(args)
    )
    payload = {
        "value": str(result.value),
        "witness": list(result.witness.owner),
        "explored": result.explored,
    }
    print(json.dumps(payload))
    return 0


def _cmd_pof(args) -> int:
    inst = load_instance(args.instance)
    value = price_of_fairness(inst, PropertyFilter(args.prop), _resolve_cap(args))
    print(value)
    return 0


def _generate_instance(args, cells):
    def require(*names):
        missing = [name for name in names if getattr(args, name) is None]
        if missing:
            flags = ", ".join(f"--{name}" for name in missing)
            raise ParseError(f"family {args.family} requires {flags}")

    if args.family == "thm1":
        require("n", "m")
        cells(args.n, args.m)
        eps = parse_rational(args.eps) if args.eps is not None else None
        return gen_thm1(args.n, args.m, eps)
    if args.family == "thm4":
        require("eps")
        return gen_thm4(parse_rational(args.eps))
    if args.family == "thm5":
        require("x", "y")
        return gen_thm5(parse_rational(args.x), parse_rational(args.y))
    require("eps")
    return gen_thm7(parse_rational(args.eps))


def _cmd_generate(args) -> int:
    # the padded shape is checked before a family instance or its padding is built
    pad, cap = max(args.pad, 0), _resolve_cap(args)
    cells = lambda n, m: _check_cells(n + pad, m + pad, cap)
    inst = _generate_instance(args, cells)
    cells(inst.n, inst.m)
    inst = pad_instance(inst, args.pad)
    save_instance(inst, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(
        args.suite, args.n, args.m_max, args.trials, args.seed, cap=_resolve_cap(args)
    )
    sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def _cmd_reproduce(args) -> int:
    rows = build_report()
    text = render_csv(rows) if args.fmt == "csv" else render_markdown(rows)
    Path(args.out).write_text(text, encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EgalpofError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
