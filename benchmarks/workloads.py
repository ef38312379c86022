"""The four benchmark workloads.

Each workload has three parts:

* ``setup(seed)`` imports mpmue and builds the inputs from the seed;
* ``op(inputs)`` is one operation: the same fixed work on every call;
* ``check(inputs, output)`` returns a list of problems with one op's output,
  judged against values computed apart from mpmue (``reference.py``) or
  against properties the method must have.  It never compares against a
  saved copy of an earlier output.

mpmue is imported inside ``setup`` and the reference code inside ``check``,
so that a fresh process pays mpmue's import inside its set-up time and never
pays scipy's import there on mpmue's behalf.  See README.md for why each
workload exists and what its inputs are.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from bisect import bisect_right

# Relative jitter applied to every parameter point from the seed.  It makes
# the inputs depend on the seed while keeping each op's work (series and
# continued-fraction lengths, event counts) nearly the same on every seed.
JITTER = 0.02


def _jitter(rng: random.Random, value: float) -> float:
    return value * (1.0 + JITTER * (2.0 * rng.random() - 1.0))


# -- verify -----------------------------------------------------------------------

LEDGER_FIELDS = {
    "formula_id",
    "params",
    "paper_literal",
    "corrected",
    "oracle",
    "abs_dev_literal",
    "abs_dev_corrected",
    "verdict",
}


class Verify:
    """The default ``mpmue verify``, run in-process through ``mpmue.cli.main``."""

    name = "verify"

    def setup(self, seed: int, scratch: str) -> dict:
        # The op is the default command, whose own seed is fixed: its Monte
        # Carlo gates are 1%-level tests, so other seeds would fail some
        # checks by chance.  ``seed`` therefore does not enter this workload.
        import mpmue.cli

        return {"cli": mpmue.cli, "ledger": os.path.join(scratch, "verify-ledger.json")}

    def op(self, inputs: dict):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = inputs["cli"].main(["verify", "--ledger", inputs["ledger"]])
        with open(inputs["ledger"], encoding="utf-8") as fh:
            ledger = json.load(fh)
        return code, out.getvalue(), ledger

    def check(self, inputs: dict, output) -> list[str]:
        code, text, ledger = output
        problems = []
        if code != 0:
            problems.append(f"verify exited with {code}")
        lines = text.splitlines()
        checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
        failed = [ln for ln in checks if not ln.startswith("PASS ")]
        if not checks or failed:
            problems.append(f"{len(failed)} of {len(checks)} checks not PASS: {failed[:3]}")
        if not any(ln.startswith("PASS coverage-registry:") for ln in lines):
            problems.append("coverage-registry did not PASS")
        summary = f"{len(checks)}/{len(checks)} checks passed"
        if summary not in lines:
            problems.append(f"summary line {summary!r} missing")
        if not isinstance(ledger, list) or not ledger:
            problems.append("ledger is not a non-empty list")
            return problems
        for rec in ledger:
            if set(rec) != LEDGER_FIELDS:
                problems.append(f"ledger record fields {sorted(rec)}")
            elif rec["verdict"] != "corrected_adopted":
                problems.append(f"ledger {rec['formula_id']}: {rec['verdict']}")
        printed = [ln for ln in lines if ln.startswith("LEDGER ")]
        if len(printed) != len(ledger):
            problems.append(f"{len(printed)} ledger lines printed, {len(ledger)} in the file")
        return problems


# -- counts -----------------------------------------------------------------------

COUNT_POINTS = ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0))
COUNT_CLOCKS = (0.5, 5.0, 50.0, 500.0, 1000.0)
WINDOW = 40
POSTERIOR_CLOCKS = (0.5, 2.0, 10.0)
MAX_ORDER = 120
# Arrival times t = f * n for the order-n density: below, near and above the
# typical n-th arrival n / E(xi), and small enough that t^n stays in range.
ERLANG_TIME_FACTORS = (0.4, 0.9, 1.5)
ORDERED_CLOCKS = ((0.5, 1.0, 2.0), (1.0, 3.0, 8.0))

# Tolerances fixed before any run.  The pmf and tilted moments agree with
# the quadrature to about 1e-13 relative; the tolerances leave a thousandfold
# margin for kernels of similar accuracy and still catch a 1e-7 error.
MASS_TOL = 1e-11
REL_TOL = 1e-10


def count_windows(a: float, m: float) -> list[tuple[int, int]]:
    """Count ranges [lo, hi] of one pmf table, placed by the nominal a*m.

    Below, at and above a*m, so that the continued-fraction branch (counts
    below a*m) and the series branch (counts above) both run.  The ranges
    are the benchmark's own, not ``truncation_point``'s, so a new truncation
    rule leaves an op's work unchanged.
    """
    am = a * m
    if am < 2 * WINDOW:
        return [(0, WINDOW - 1)] if am < WINDOW / 2 else [(0, 2 * WINDOW - 1)]
    half = WINDOW // 2
    return [(int(c * am) - half, int(c * am) + half - 1) for c in (0.5, 1.0, 1.5)]


class Counts:
    """pmf tables, posterior means, joint pmfs and Erlang densities at fixed points."""

    name = "counts"

    def setup(self, seed: int, scratch: str) -> dict:
        from mpmue import ErlangMaxUExp, MaxUExp, MixedPoissonMaxUExp

        rng = random.Random(seed)
        points = []
        for a0, lam0 in COUNT_POINTS:
            a, lam = _jitter(rng, a0), _jitter(rng, lam0)
            points.append(
                {
                    "a": a,
                    "lam": lam,
                    "proc": MixedPoissonMaxUExp(MaxUExp(a, lam)),
                    "tables": [(m, count_windows(a0, m)) for m in COUNT_CLOCKS],
                    "erlang": [ErlangMaxUExp(n, a, lam) for n in range(1, MAX_ORDER + 1)],
                    "erlang_times": [
                        f * n for f in ERLANG_TIME_FACTORS for n in range(1, MAX_ORDER + 1)
                    ],
                }
            )
        return {"points": points}

    def op(self, inputs: dict):
        out = []
        for p in inputs["points"]:
            proc = p["proc"]
            tables = [
                [proc.pmf(m, n) for lo, hi in windows for n in range(lo, hi + 1)]
                for m, windows in p["tables"]
            ]
            posterior = [
                [proc.posterior_mean(m, n) for n in range(MAX_ORDER + 1)] for m in POSTERIOR_CLOCKS
            ]
            ordered = [
                [proc.ordered_pmf(mus, (k // 4, k // 2, k)) for k in range(0, MAX_ORDER + 1, 3)]
                for mus in ORDERED_CLOCKS
            ]
            times = p["erlang_times"]
            erlang = [p["erlang"][i % MAX_ORDER].pdf(t) for i, t in enumerate(times)]
            out.append((tables, posterior, ordered, erlang))
        return out

    def check(self, inputs: dict, output) -> list[str]:
        import reference as ref

        problems = []
        for p, (tables, posterior, ordered, erlang) in zip(inputs["points"], output):
            a, lam = p["a"], p["lam"]
            tag = f"a={a:.4g},lam={lam:.4g}"
            for (m, windows), table in zip(p["tables"], tables):
                if not all(0.0 <= v <= 1.0 for v in table):
                    problems.append(f"pmf outside [0, 1] at {tag}, m={m}")
                pos = 0
                for lo, hi in windows:
                    vals = table[pos : pos + hi - lo + 1]
                    pos += hi - lo + 1
                    mass = math.fsum(vals)
                    first = math.fsum(n * v for n, v in zip(range(lo, hi + 1), vals))
                    want_mass, want_first = ref.window_mass(a, lam, m, lo, hi)
                    if abs(mass - want_mass) > MASS_TOL:
                        problems.append(f"pmf mass {mass} vs {want_mass} at {tag}, m={m}, n={lo}..{hi}")
                    if abs(first - want_first) > MASS_TOL * max(1.0, hi):
                        problems.append(
                            f"pmf first moment {first} vs {want_first} at {tag}, m={m}, n={lo}..{hi}"
                        )
            for m, means in zip(POSTERIOR_CLOCKS, posterior):
                if any(b <= c for c, b in zip(means[:-1], means[1:])):
                    problems.append(f"posterior_mean not increasing in n at {tag}, m={m}")
                for n in (0, 1, 7, 30, 60, MAX_ORDER):
                    want = ref.tilted(a, lam, m, n + 1) / ref.tilted(a, lam, m, n)
                    if abs(means[n] - want) > REL_TOL * want:
                        problems.append(f"posterior_mean({m}, {n}) = {means[n]} vs {want} at {tag}")
            for mus, row in zip(ORDERED_CLOCKS, ordered):
                for k, got in zip(range(0, MAX_ORDER + 1, 3), row):
                    if k % 15:
                        continue
                    ks = (k // 4, k // 2, k)
                    want = ref.ordered_pmf(a, lam, mus, ks)
                    if abs(got - want) > REL_TOL * want:
                        problems.append(f"ordered_pmf({mus}, {ks}) = {got} vs {want} at {tag}")
            times = p["erlang_times"]
            for i in range(0, len(times), 17):
                n, t = i % MAX_ORDER + 1, times[i]
                want = ref.erlang_pdf(a, lam, n, t)
                if abs(erlang[i] - want) > REL_TOL * want:
                    problems.append(f"ErlangMaxUExp({n}).pdf({t}) = {erlang[i]} vs {want} at {tag}")
        return problems


# -- paths ------------------------------------------------------------------------

# (power of the clock, horizon, paths in the batch).  The first clock gives
# about 2 events per path, the second about 30.
PATH_BATCHES = ((1.0, 2.0, 4000), (2.0, 5.15, 1000))
PATH_GRID = (0.25, 0.5, 0.75, 1.0)
# Gates on the simulated counts: the mean of N(t) within 5 standard errors,
# and the number of empty paths outside neither binomial tail of this
# probability (about 5.2 standard errors where the normal limit holds).
PATH_SIGMAS = 5.0
PATH_TAIL = 1e-7


class Paths:
    """``simulate_paths`` under two clocks, then ``count_at`` on a time grid."""

    name = "paths"

    def setup(self, seed: int, scratch: str) -> dict:
        from mpmue import MaxUExp, MixedPoissonMaxUExp, PowerTransform

        rng = random.Random(seed)
        a, lam = _jitter(rng, 1.0), _jitter(rng, 1.0)
        batches = [
            (PowerTransform(c), horizon, count, seed * 1_000 + i)
            for i, (c, horizon, count) in enumerate(PATH_BATCHES)
        ]
        return {"a": a, "lam": lam, "proc": MixedPoissonMaxUExp(MaxUExp(a, lam)), "batches": batches}

    def op(self, inputs: dict):
        out = []
        for clock, horizon, count, seed in inputs["batches"]:
            paths = inputs["proc"].simulate_paths(clock, horizon, count, seed)
            grid = [f * horizon for f in PATH_GRID]
            counts = [[path.count_at(t) for t in grid] for path in paths]
            out.append((paths, counts))
        return out

    def check(self, inputs: dict, output) -> list[str]:
        from scipy.special import bdtr, bdtrc

        import reference as ref

        a, lam = inputs["a"], inputs["lam"]
        problems = []
        mean_xi = ref.mean(a, lam)
        for (clock, horizon, count, _), (paths, counts) in zip(inputs["batches"], output):
            tag = f"power {clock.c:g} to {horizon:g}"
            if len(paths) != count:
                problems.append(f"{len(paths)} paths for a batch of {count} ({tag})")
                continue
            grid = [f * horizon for f in PATH_GRID]
            for path, row in zip(paths, counts):
                ev = path.events
                if any(not (0.0 < e <= horizon) for e in ev) or any(
                    b <= c for c, b in zip(ev[:-1], ev[1:])
                ):
                    problems.append(f"events not strictly rising in (0, horizon] ({tag})")
                    break
                if row != [bisect_right(ev, t) for t in grid] or row[-1] != len(ev):
                    problems.append(f"count_at disagrees with the events ({tag})")
                    break
            for j, t in enumerate(grid):
                mu = clock.value(t)
                ns = [row[j] for row in counts]
                zeros = sum(1 for n in ns if n == 0)
                want_p0 = ref.laplace(a, lam, mu)
                # Exact binomial tails: at the late grid times only a few
                # paths are empty, too few for a normal approximation.
                if min(bdtr(zeros, count, want_p0), bdtrc(zeros - 1, count, want_p0)) < PATH_TAIL:
                    problems.append(f"P(N({t:g}) = 0) = {zeros / count} vs {want_p0} ({tag})")
                mean_n = sum(ns) / count
                var_n = sum((n - mean_n) ** 2 for n in ns) / (count - 1)
                want_mean = mu * mean_xi
                if abs(mean_n - want_mean) > PATH_SIGMAS * math.sqrt(var_n / count):
                    problems.append(f"mean N({t:g}) = {mean_n} vs {want_mean} ({tag})")
        return problems


# -- fit --------------------------------------------------------------------------

# (a, lam, draws, branch the sample must take, relative tolerance on a and on
# lam).  The tolerances are eight standard deviations of the relative error
# measured over 40 seeds at each sample size; the other root of an
# ambiguous ratio misses by tens of percent.
FIT_SAMPLES = (
    (1.0, 1.0, 1_000_000, "unique", 0.02, 0.012),
    (3.0, 1.0, 300_000, "ambiguous", 0.02, 0.04),
    (6.0, 1.0, 300_000, "ambiguous", 0.006, 0.07),
)
# Uniform on (0.5, 1): moment ratio about 1.037, far below the curve minimum.
FALLBACK_DRAWS = 100_000
TRIM = 0.25


def trimmed_objective(sorted_x, a: float, lam: float):
    """Sum of squared gaps between plotting positions and the uniform-branch
    cdf over the smallest (1 - TRIM) share of the order statistics."""
    import numpy as np

    n = sorted_x.size
    kept = sorted_x[: n - min(math.ceil(TRIM * n), n - 2)]
    positions = np.arange(1, kept.size + 1) / (n + 1.0)
    gaps = positions - (kept / a) * (-np.expm1(-lam * kept))
    return float(np.dot(gaps, gaps)), float(kept[-1])


class Fit:
    """``fit_auto`` on samples that take the unique, ambiguous and fallback branches."""

    name = "fit"

    def setup(self, seed: int, scratch: str) -> dict:
        import numpy as np

        from mpmue import fit_auto

        gen = np.random.Generator(np.random.PCG64(seed))
        samples = [
            np.maximum(a * gen.random(n), gen.exponential(1.0 / lam, n))
            for a, lam, n, *_ in FIT_SAMPLES
        ]
        samples.append(gen.uniform(0.5, 1.0, FALLBACK_DRAWS))
        return {"fit_auto": fit_auto, "samples": samples}

    def op(self, inputs: dict):
        return [inputs["fit_auto"](x, trim=TRIM) for x in inputs["samples"]]

    def check(self, inputs: dict, output) -> list[str]:
        import numpy as np

        from mpmue.estimation import histogram_init

        problems = []
        for (a, lam, n, branch, tol_a, tol_lam), rep in zip(FIT_SAMPLES, output):
            tag = f"({a:g}, {lam:g}) n={n}"
            took = "unique" if rep.branch == "unique" else (
                "ambiguous" if len(rep.candidates) == 2 else rep.branch
            )
            if took != branch:
                problems.append(f"{tag} took branch {rep.branch} with {len(rep.candidates)} candidates")
            if abs(rep.a / a - 1.0) > tol_a or abs(rep.lam / lam - 1.0) > tol_lam:
                problems.append(f"{tag} recovered ({rep.a}, {rep.lam})")
        x = np.sort(inputs["samples"][-1])
        rep = output[-1]
        if not any("below the curve minimum" in w for w in rep.warnings):
            problems.append(f"fallback sample took branch {rep.branch}: {rep.warnings}")
        got, kept_max = trimmed_objective(x, rep.a, rep.lam)
        start, _ = trimmed_objective(x, *histogram_init(x))
        if rep.a < kept_max:
            problems.append(f"fallback a = {rep.a} below the largest retained observation {kept_max}")
        if not got <= start:
            problems.append(f"fallback objective {got} worse than at its histogram start {start}")
        if rep.objective is None or abs(rep.objective - got) > 1e-9 * max(got, 1e-12) + 1e-15:
            problems.append(f"fallback reports objective {rep.objective}, recomputed {got}")
        return problems


WORKLOADS = {w.name: w for w in (Verify(), Counts(), Paths(), Fit())}
