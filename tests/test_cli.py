import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mpmue
from mpmue import (
    ErlangMaxUExp,
    ExpMaxUExp,
    MaxUExp,
    MaxUExpEstimator,
    MixedPoissonMaxUExp,
    RandomStream,
    TableTransform,
)
from mpmue.cli import main
from mpmue.verify import CheckResult


def run_cli(*args):
    """``main`` in process, with the exit code and output a ``python -m
    mpmue.cli`` run would give; argparse's SystemExit becomes the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code or 0
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def test_module_entry_point_matches_main():
    args = ("eval", "maxuexp", "--a", "1", "--lambda", "1", "--x", "0.5")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mpmue.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-m", "mpmue.cli", *args], capture_output=True, text=True, env=env
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, run_cli(*args).stdout, "")
    bad = subprocess.run(
        [sys.executable, "-m", "mpmue.cli", "frobnicate"], capture_output=True, text=True, env=env
    )
    assert bad.returncode == 2


def test_eval_maxuexp_matches_library():
    d = MaxUExp(1.0, 1.0)
    res = run_cli("eval", "maxuexp", "--a", "1", "--lambda", "1", "--x", "0.5", "--x", "2")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "x,pdf,cdf"
    for line, x in zip(lines[1:], (0.5, 2.0)):
        xs, ps, cs = line.split(",")
        assert float(xs) == x
        assert float(ps) == pytest.approx(d.pdf(x), rel=1e-11)
        assert float(cs) == pytest.approx(d.cdf(x), rel=1e-11)


def test_eval_grid_and_explicit_points_combine():
    res = run_cli(
        "eval", "emue", "--a", "2", "--lambda", "0.5", "--x", "9", "--grid", "1:3:3"
    )
    assert res.returncode == 0
    rows = res.stdout.strip().splitlines()[1:]
    xs = [float(r.split(",")[0]) for r in rows]
    assert xs == [9.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "target,law", [("maxuexp", MaxUExp(2.0, 0.5)), ("emue", ExpMaxUExp(2.0, 0.5))]
)
def test_eval_grid_cdf_matches_per_point_calls(target, law):
    """The grid's cdf column comes from one array call; each row prints as
    the float call at that point would."""
    res = run_cli(
        "eval", target, "--a", "2", "--lambda", "0.5", "--x", "1e-300", "--grid", "0:40:401"
    )
    assert res.returncode == 0
    rows = res.stdout.strip().splitlines()[1:]
    xs = [1e-300, *np.linspace(0.0, 40.0, 401)]
    assert len(rows) == len(xs)
    for row, x in zip(rows, xs):
        want = ",".join(format(float(v), ".12g") for v in (x, law.pdf(x), law.cdf(float(x))))
        assert row == want


def test_eval_erlang_order():
    w = ErlangMaxUExp(2, 1.0, 1.0)
    res = run_cli("eval", "erlang", "--a", "1", "--lambda", "1", "--order", "2", "--x", "1.5")
    assert res.returncode == 0
    row = res.stdout.strip().splitlines()[1]
    _, ps, cs = row.split(",")
    assert float(ps) == pytest.approx(w.pdf(1.5), rel=1e-11)
    assert float(cs) == pytest.approx(w.cdf(1.5), rel=1e-9)


def test_eval_pmf_rows():
    p = MixedPoissonMaxUExp(MaxUExp(1.0, 1.0))
    res = run_cli(
        "eval", "pmf", "--a", "1", "--lambda", "1", "--mu", "1", "--n", "3", "--n-max", "1"
    )
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "n,pmf"
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(n) for n, _ in parsed] == [0, 1, 3]
    for n, v in parsed:
        assert float(v) == pytest.approx(p.pmf(1.0, int(n)), rel=1e-11)


def test_eval_pmf_rows_run_up_to_n_max_then_the_larger_counts():
    res = run_cli(
        "eval", "pmf", "--a", "1", "--lambda", "1", "--mu", "1",
        "--n", "5", "--n", "2", "--n", "5", "--n-max", "3",
    )
    assert res.returncode == 0
    assert [line.split(",")[0] for line in res.stdout.splitlines()] == ["n", "0", "1", "2", "3", "5"]


@pytest.mark.parametrize("flag", ["--n-max", "--n"])
def test_eval_pmf_rejects_a_count_past_2_53_at_once(flag):
    # No table of the counts is built first: 10^20 rows would never fit.
    res = run_cli("eval", "pmf", "--a", "1", "--lambda", "1", "--mu", "1", flag, str(10**20))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {flag} must be an integer from 0 to")


def test_simulate_deterministic():
    a = run_cli("simulate", "xi", "--a", "1", "--lambda", "1", "--n", "5", "--seed", "42")
    b = run_cli("simulate", "xi", "--a", "1", "--lambda", "1", "--n", "5", "--seed", "42")
    c = run_cli("simulate", "xi", "--a", "1", "--lambda", "1", "--n", "5", "--seed", "43")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout
    lines = a.stdout.strip().splitlines()
    assert lines[0] == "x"
    assert len(lines) == 6
    vals = [float(v) for v in lines[1:]]
    want = MaxUExp(1.0, 1.0).sample_many(RandomStream(42), 5)
    assert vals == pytest.approx(list(want), rel=1e-11)


def test_simulate_path_format():
    res = run_cli(
        "simulate", "path", "--a", "1", "--lambda", "1",
        "--mu", "power:1", "--horizon", "50", "--seed", "9",
    )
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("# xi=")
    assert lines[1] == "event_index,time"
    idx, times = zip(*(row.split(",") for row in lines[2:]))
    assert [int(i) for i in idx] == list(range(1, len(idx) + 1))
    ts = [float(t) for t in times]
    assert ts == sorted(ts)
    assert all(0.0 < t <= 50.0 for t in ts)


def test_simulate_path_on_a_table_clock(tmp_path):
    # mu(t) = 2t on [0, 3], with a header row and a comment row.
    table = tmp_path / "clock.csv"
    table.write_text("t,mu\n# doubled clock\n0,0\n1.5,3\n3,6\n")
    res = run_cli(
        "simulate", "path", "--a", "1", "--lambda", "1",
        "--mu", f"table:{table}", "--horizon", "3", "--seed", "9",
    )
    assert res.returncode == 0, res.stderr
    path = MixedPoissonMaxUExp(MaxUExp(1.0, 1.0)).simulate_path(
        TableTransform([(0.0, 0.0), (1.5, 3.0), (3.0, 6.0)]), 3.0, RandomStream(9)
    )
    lines = res.stdout.strip().splitlines()
    assert lines[:2] == [f"# xi={path.xi:.12g}", "event_index,time"]
    assert lines[2:] == [f"{i},{t:.12g}" for i, t in enumerate(path.events, start=1)]
    assert path.events
    table.write_text("t,mu\n0,0\n1.5,oops\n")
    res = run_cli("simulate", "path", "--a", "1", "--lambda", "1", "--mu", f"table:{table}")
    assert res.returncode == 2
    assert "row 3" in res.stderr


def test_fit_json_contract(tmp_path, capsys):
    draws = MaxUExp(1.0, 1.0).sample_many(RandomStream(5), 2_000)
    sample = tmp_path / "sample.csv"
    sample.write_text("x\n" + "\n".join(f"{v:.17g}" for v in draws) + "\n")
    res = run_cli("fit", "--input", str(sample), "--method", "auto")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert list(rep.keys()) == [
        "a", "lambda", "x_product", "r_hat", "branch", "objective", "warnings",
        "r_hat_variant", "candidates",
    ]
    assert rep["branch"] in ("unique", "ambiguous_two_roots", "fallback_min", "lsq_refined")
    assert abs(rep["a"] - 1.0) < 0.25
    assert abs(rep["lambda"] - 1.0) < 0.25
    # Every method is the library estimator's report, field for field.
    for method in ("auto", "mom", "lsq"):
        assert main(["fit", "--input", str(sample), "--method", method]) == 0
        rep = json.loads(capsys.readouterr().out)
        want = MaxUExpEstimator(method).fit(draws).report_
        assert (rep["a"], rep["lambda"], rep["branch"]) == (want.a, want.lam, want.branch)
        assert rep["objective"] == want.objective and rep["warnings"] == want.warnings
        assert rep["r_hat_variant"] == want.r_hat_variant
        assert rep["candidates"] == [[a, lam] for a, lam in want.candidates]


def test_fit_rejects_bad_rows(tmp_path):
    sample = tmp_path / "bad.csv"
    sample.write_text("x\n1.0\noops\n2.0\n")
    res = run_cli("fit", "--input", str(sample))
    assert res.returncode == 2
    assert "row 3" in res.stderr


def test_fit_reads_any_header_and_comment_rows(tmp_path, capsys):
    # One CSV reader serves fit and table clocks: blank and # lines are
    # skipped, and a first line that is not numbers is a header.
    rows = [f"{v:.17g}" for v in MaxUExp(1.0, 1.0).sample_many(RandomStream(5), 200)]
    plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
    plain.write_text("\n".join(rows) + "\n")
    commented.write_text("# seed 5\nvalue\n\n" + "\n# again\n".join(rows) + "\n")
    outs = []
    for sample in (plain, commented):
        assert main(["fit", "--input", str(sample), "--method", "mom"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_momcurve_output():
    res = run_cli("momcurve", "--lo", "1", "--hi", "5", "--steps", "5")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("# argmin=")
    assert "min=" in lines[0]
    assert lines[1] == "x,g"
    assert len(lines) == 7
    first = lines[2].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == pytest.approx(1.6587827, abs=1e-6)


def test_unknown_subcommand_exits_2():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_bad_grid_exits_2():
    res = run_cli("momcurve", "--lo", "5", "--hi", "1")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_momcurve_rejects_a_non_finite_end_before_printing():
    for lo, hi in (("1", "inf"), ("nan", "5"), ("1", "nan"), ("inf", "inf")):
        res = run_cli("momcurve", "--lo", lo, "--hi", hi, "--steps", "3")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: need finite 0 < lo < hi")


def test_eval_rejects_non_finite_grid_and_negative_n_max(capsys):
    for grid in ("0:inf:3", "-inf:1:3", "nan:1:3", "0:nan:3"):
        assert main(["eval", "maxuexp", "--a", "1", "--lambda", "1", f"--grid={grid}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: grid needs finite lo < hi")
    assert main(["eval", "pmf", "--a", "1", "--lambda", "1", "--mu", "1", "--n-max", "-3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: counts must be >= 0\n"


def test_verify_writes_ledger(tmp_path):
    ledger = tmp_path / "ledger.json"
    res = run_cli(
        "verify", "--draws", "2000", "--paths", "500", "--ledger", str(ledger)
    )
    assert res.returncode == 0
    assert "checks passed" in res.stdout
    assert res.stdout.count("LEDGER ") == 9
    recs = json.loads(ledger.read_text())
    assert len(recs) == 9
    assert all(r["verdict"] == "corrected_adopted" for r in recs)
    # Infinity survives the JSON round trip for the divergence-claim record.
    by_id = {r["formula_id"]: r for r in recs}
    assert by_id["interarrival-mean-finite"]["paper_literal"] == math.inf


# A fresh interpreter, so that nothing else has loaded scipy or numpy.random:
# verify's quadrature is ported QUADPACK, its fits need no scipy.optimize and
# its random cases come from the package's own RandomStream.
_VERIFY_CHILD = """
import contextlib, io, json, sys
import mpmue.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = mpmue.cli.main(["verify", "--draws", "2000", "--paths", "500", "--ledger", sys.argv[1]])
loaded = sorted(m for m in sys.modules
                if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"],
                                        ["numpy", "random"]))
print(json.dumps({"code": code, "last": out.getvalue().splitlines()[-1], "loaded": loaded}))
"""


def test_verify_loads_no_quadrature_or_optimizer(tmp_path):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(mpmue.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _VERIFY_CHILD, str(tmp_path / "l.json")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out == {"code": 0, "last": "79/79 checks passed", "loaded": []}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flag, name, value",
    [
        pytest.param("--draws", "mc_draws", "0", id="--draws-mc_draws"),
        pytest.param("--paths", "paths", "0", id="--paths-paths"),
        # One draw or one path has no standard error.
        pytest.param("--draws", "mc_draws", "1", id="--draws-mc_draws-1"),
        pytest.param("--paths", "paths", "1", id="--paths-paths-1"),
    ],
)
def test_verify_rejects_zero_draws_and_paths(tmp_path, flag, name, value):
    counts = {"--draws": "2000", "--paths": "500", flag: value}
    ledger = tmp_path / "l.json"
    res = run_cli("verify", *[v for kv in counts.items() for v in kv], "--ledger", str(ledger))
    assert res.returncode == 2
    assert name in res.stderr and "RuntimeWarning" not in res.stderr
    assert not ledger.exists()


def test_verify_zero_tolerance_fails(tmp_path, monkeypatch):
    # One failing check must fail the run: exit 1 and a FAIL line.
    failing = CheckResult("broken", False, 1.0, 0.0, 0.0, "forced", ())
    monkeypatch.setattr("mpmue.verify.run_checks", lambda **kwargs: [failing])
    res = run_cli(
        "verify", "--draws", "2000", "--paths", "500",
        "--ledger", str(tmp_path / "l.json"),
    )
    assert res.returncode == 1
    assert "FAIL broken" in res.stdout
    assert "0/1 checks passed" in res.stdout
