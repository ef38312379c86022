"""Command-line front end.

Subcommands:

* ``eval``      tabulate pdf/cdf (or pmf) values as CSV
* ``fit``       estimate (a, lambda) from a one-column sample file
* ``simulate``  reproducible draws and counting paths
* ``momcurve``  tabulate the moment-ratio curve used by the fitters
* ``verify``    run the oracle battery and write the discrepancy ledger

All numeric output carries 12 significant digits.  Exit codes: 0 on
success (for ``verify``: all checks passed), 1 when verification fails,
2 on bad arguments or unreadable input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

# The process, waiting-time, fitter (estimation) and audit (verify) layers
# are imported inside the subcommands that run them, so that one subcommand
# does not load the others' layers: eval of the Max-U-Exp law loads none.
from .distribution import MaxUExp
from .errors import DomainError, _require_count
from .rng import RandomStream


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _parse_grid(arg: str) -> list[float]:
    parts = arg.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must look like lo:hi:steps, got {arg!r}")
    lo, hi = float(parts[0]), float(parts[1])
    steps = int(parts[2])
    if steps < 2 or not -math.inf < lo < hi < math.inf:
        raise DomainError(f"grid needs finite lo < hi and steps >= 2, got {arg!r}")
    return list(np.linspace(lo, hi, steps))


def _read_csv(path: str, columns: tuple[str, ...]) -> list[list[float]]:
    """The rows of a CSV file of numbers, one per column name.  Blank lines
    and lines that start with ``#`` are skipped, and a first line that is
    not numbers is a header; any other bad row raises DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, s) for i, raw in enumerate(fh, 1) if (s := raw.strip()) and s[0] != "#"]
    rows = []
    for k, (idx, text) in enumerate(lines):
        try:
            row = [float(c) for c in text.split(",")]
        except ValueError:
            row = []
        if len(row) == len(columns):
            rows.append(row)
        elif row or k > 0:
            raise DomainError(f"row {idx}: could not parse {text!r} as {','.join(columns)}")
    return rows


def _parse_transform(arg: str):
    from .process import PowerTransform, TableTransform

    kind, _, rest = arg.partition(":")
    if kind == "power":
        return PowerTransform(float(rest) if rest else 1.0)
    if kind == "table":
        if not rest:
            raise DomainError("table transform needs a file: table:<path>")
        return TableTransform(_read_csv(rest, ("t", "mu")))
    raise DomainError(f"unknown transform {arg!r}; use power:<c> or table:<file>")


def _law(args):
    """The law an ``eval`` or ``simulate`` target names: Max-U-Exp
    (``maxuexp``, ``xi``), Exp-Max-U-Exp (``emue``, ``tau``) or Erlang of
    ``--order`` (``erlang``).  The waiting-time layer loads only for the
    last two."""
    if args.target in ("maxuexp", "xi"):
        return MaxUExp(args.a, args.lam)
    from .waiting import ErlangMaxUExp, ExpMaxUExp

    if args.target in ("emue", "tau"):
        return ExpMaxUExp(args.a, args.lam)
    return ErlangMaxUExp(args.order, args.a, args.lam)


# -- subcommand bodies ------------------------------------------------------------


def _cmd_eval(args) -> int:
    if args.target == "pmf":
        from .process import MixedPoissonMaxUExp

        pp = MixedPoissonMaxUExp(MaxUExp(args.a, args.lam))
        given = args.n or []
        if not given and args.n_max is None:
            raise DomainError("give --n and/or --n-max")
        if min([*given, args.n_max or 0]) < 0:
            raise DomainError("counts must be >= 0")
        # Rows 0..n-max, then the larger --n counts in order; no table of
        # all the counts is built, so a huge --n-max fails here at once.
        top = -1 if args.n_max is None else _require_count("--n-max", args.n_max)
        rest = sorted({_require_count("--n", n) for n in given if n > top})
        print("n,pmf")
        for n in itertools.chain(range(top + 1), rest):
            print(f"{n},{_fmt(pp.pmf(args.mu, n))}")
        return 0

    xs = list(args.x or [])
    if args.grid:
        xs.extend(_parse_grid(args.grid))
    if not xs:
        raise DomainError("give --x and/or --grid")
    dist = _law(args)
    # The cdf takes the grid as one array.  The pdf stays per point: its
    # float branch is the cheap one, and MaxUExp's array branch can differ
    # from it in the last printed digit.
    cdfs = dist.cdf(np.array(xs))
    print("x,pdf,cdf")
    for x, cdf in zip(xs, cdfs):
        print(f"{_fmt(x)},{_fmt(dist.pdf(x))},{_fmt(cdf)}")
    return 0


def _cmd_fit(args) -> int:
    from .estimation import MaxUExpEstimator

    values = [row[0] for row in _read_csv(args.input, ("x",))]
    report = MaxUExpEstimator(args.method, args.trim, args.variant).fit(values).report_
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def _cmd_simulate(args) -> int:
    stream = RandomStream(args.seed)
    if args.target == "path":
        from .process import MixedPoissonMaxUExp

        pp = MixedPoissonMaxUExp(MaxUExp(args.a, args.lam))
        transform = _parse_transform(args.mu)
        path = pp.simulate_path(transform, args.horizon, stream)
        print(f"# xi={_fmt(path.xi)}")
        print("event_index,time")
        for i, t in enumerate(path.events, start=1):
            print(f"{i},{_fmt(t)}")
        return 0
    if args.count < 1:
        raise DomainError(f"--n must be >= 1, got {args.count}")
    draws = _law(args).sample_many(stream, args.count)
    print("x")
    for v in draws:
        print(_fmt(v))
    return 0


def _cmd_momcurve(args) -> int:
    if not 0.0 < args.lo < args.hi < math.inf:
        raise DomainError(f"need finite 0 < lo < hi, got lo={args.lo}, hi={args.hi}")
    if args.steps < 2:
        raise DomainError(f"need steps >= 2, got {args.steps}")
    from .estimation import mom_curve, mom_curve_extrema

    _, argmin, gmin = mom_curve_extrema()
    print(f"# argmin={argmin:.5g} min={gmin:.5g}")
    print("x,g")
    for x in np.linspace(args.lo, args.hi, args.steps):
        print(f"{_fmt(x)},{_fmt(mom_curve(x))}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import _oracle_scope, run_checks, run_ledger, write_ledger

    # One oracle table for the command: the ledger reads the integrals the
    # battery computed, and the table goes with the command.
    with _oracle_scope():
        checks = run_checks(seed=args.seed, mc_draws=args.draws, paths=args.paths)
        for check in checks:
            print(check.line())
        # The discrepancy verdicts need enough draws for the literal formulas
        # to sit clear of the Monte Carlo noise band, whatever --draws asks for.
        records = run_ledger(mc_draws=max(args.draws, 50_000), seed=args.seed + 999)
    write_ledger(args.ledger, records)
    for rec in records:
        print(f"LEDGER {rec.formula_id}: {rec.verdict}")
    print(f"ledger written to {args.ledger}")
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


# -- parser -----------------------------------------------------------------------


def _add_dist_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True, help="uniform endpoint a > 0")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="exponential rate > 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpmue", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="tabulate pdf/cdf or pmf values")
    p_eval.add_argument("target", choices=("maxuexp", "emue", "erlang", "pmf"))
    _add_dist_args(p_eval)
    p_eval.add_argument("--x", type=float, action="append", help="evaluation point (repeatable)")
    p_eval.add_argument("--grid", help="lo:hi:steps linear grid of evaluation points")
    p_eval.add_argument("--n", type=int, action="append", help="count (pmf target, repeatable)")
    p_eval.add_argument("--n-max", type=int, help="tabulate counts 0..n-max (pmf target)")
    p_eval.add_argument("--order", type=int, default=1, help="arrival order (erlang target)")
    p_eval.add_argument("--mu", type=float, default=1.0, help="operational time (pmf target)")
    p_eval.set_defaults(func=_cmd_eval)

    p_fit = sub.add_parser("fit", help="estimate parameters from one-column CSV")
    p_fit.add_argument("--input", required=True, help="sample file, one value per row")
    p_fit.add_argument("--method", choices=("auto", "mom", "lsq"), default="auto")
    p_fit.add_argument("--trim", type=float, default=0.25, help="upper-tail trim fraction")
    p_fit.add_argument("--variant", choices=("unbiased", "plain"), default="unbiased")
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="reproducible draws and paths")
    p_sim.add_argument("target", choices=("xi", "tau", "erlang", "path"))
    _add_dist_args(p_sim)
    p_sim.add_argument("--n", dest="count", type=int, default=10, help="number of draws")
    p_sim.add_argument("--order", type=int, default=1, help="arrival order (erlang target)")
    p_sim.add_argument("--horizon", type=float, default=1.0, help="calendar horizon (path target)")
    p_sim.add_argument(
        "--mu",
        default="power:1",
        help="operational-time transform: power:<c> or table:<file> (path target)",
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_mom = sub.add_parser("momcurve", help="tabulate the moment-ratio curve")
    p_mom.add_argument("--lo", type=float, required=True)
    p_mom.add_argument("--hi", type=float, required=True)
    p_mom.add_argument("--steps", type=int, default=101)
    p_mom.set_defaults(func=_cmd_momcurve)

    p_ver = sub.add_parser("verify", help="run the oracle battery, write the ledger")
    p_ver.add_argument("--ledger", default="mpmue_ledger.json", help="ledger output path")
    p_ver.add_argument("--seed", type=int, default=20_260_814)
    p_ver.add_argument("--draws", type=int, default=200_000, help="Monte Carlo draws per check")
    p_ver.add_argument("--paths", type=int, default=10_000, help="simulated paths")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
