import json
import math

import numpy as np
import pytest

from mpmue import DomainError, ExpMaxUExp, MaxUExp, RandomStream, run_checks, run_ledger, write_ledger
from mpmue.verify import (
    REQUIRED_OPS,
    CheckResult,
    DiscrepancyRecord,
    check_density,
    check_flag,
    check_ks,
    check_mc,
    check_quantiles,
    check_value,
    ks_critical,
    ks_statistic,
    _mean_se,
    _process_checks,
)
from mpmue.rng import _BLOCK


def test_check_result_line_format():
    ok = CheckResult("alpha", True, 1.0, 1.0, 1e-8)
    assert ok.line() == "PASS alpha: value=1 target=1 tol=1e-08"
    bad = CheckResult("beta", False, 2.0, 1.0, 1e-8, detail="off by one")
    assert bad.line().startswith("FAIL beta:")
    assert "(off by one)" in bad.line()


def test_check_value_worst_pair():
    res = check_value("pairs", [(1.0, 1.0), (2.0, 2.5)], tol=0.1)
    assert not res.passed
    assert res.value == pytest.approx(0.5)  # the worst deviation is reported
    res2 = check_value("pairs", [(1.0, 1.0), (2.0, 2.0000001)], tol=1e-3)
    assert res2.passed


def test_check_value_relative():
    res = check_value("rel", [(1000.0, 1001.0)], tol=2e-3, relative=True)
    assert res.passed
    res2 = check_value("rel", [(1000.0, 1001.0)], tol=2e-3, relative=False)
    assert not res2.passed


def test_check_density_integrates_to_one():
    res = check_density(
        "unit-exp", lambda x: math.exp(-x), (0.0, math.inf), tol=1e-9, breakpoints=(1.0,)
    )
    assert res.passed
    res2 = check_density(
        "broken", lambda x: 0.9 * math.exp(-x), (0.0, math.inf), tol=1e-9, breakpoints=()
    )
    assert not res2.passed


def test_ks_statistic_and_critical():
    # Perfectly placed uniform quantiles give the minimal possible statistic.
    n = 100
    vals = np.array([(i + 0.5) / n for i in range(n)])
    stat = ks_statistic(vals, lambda x: x)
    assert stat == pytest.approx(0.5 / n, abs=1e-12)
    # Shifted sample must blow past the 1% critical value.
    bad = ks_statistic(vals * 0.5, lambda x: x)
    assert bad > ks_critical(n)
    assert ks_critical(n) == pytest.approx(1.6276 / math.sqrt(n))


def test_ks_statistic_reads_any_shape_flat():
    d = MaxUExp(1.0, 1.0)
    draws = d.sample_many(RandomStream(3), 30)
    assert ks_statistic(draws.reshape(5, 6), d.cdf) == ks_statistic(draws, d.cdf)
    assert ks_statistic(np.array(0.3), d.cdf) == ks_statistic([0.3], d.cdf)


def test_check_mc_mean_mode():
    res = check_mc("const-mean", np.full(500, 2.0), closed_form=2.0)
    assert res.passed


def test_check_mc_z_score_uses_the_sample_standard_deviation():
    for seed, n in enumerate((2, 3, 100, 1_001, 400_001)):
        draws = RandomStream(seed).uniforms(n)
        res = check_mc("uniform-mean", draws, closed_form=0.5)
        assert "mean mode" in res.detail
        assert res.value == abs(float(draws.mean()) - 0.5) / (
            float(draws.std(ddof=1)) / math.sqrt(n)
        )
        mean, _, se = _mean_se(draws)
        assert (mean, se) == (float(draws.mean()), float(draws.std(ddof=1)) / math.sqrt(n))


def test_check_mc_rejects_fewer_than_two_draws():
    for draws in (np.array([]), np.array([1.0])):
        with pytest.raises(DomainError, match="draws"):
            check_mc("tiny", draws, closed_form=1.0)


def test_check_mc_nonfinite_target_switches_to_quantile():
    # An infinite closed form cannot be checked as a mean; with a cdf
    # supplied the check degrades to quantile agreement.
    res = check_mc(
        "inf-target",
        -np.log(RandomStream(3).uniforms(5_000)),
        closed_form=math.inf,
        cdf=lambda t: -math.expm1(-t),
        cdf_points=(0.5, 1.0, 2.0),
    )
    assert res.passed
    assert "quantile" in res.detail


def test_check_mc_nonfinite_without_cdf_fails():
    res = check_mc("inf-no-cdf", np.ones(100), closed_form=math.inf)
    assert not res.passed
    assert "no cdf supplied" in res.detail


def test_check_mc_heavy_tail_guard():
    # One draw carrying most of the second moment must not be trusted as a
    # mean estimate; the guard reroutes to the quantile comparison.
    draws = np.ones(1_000)
    draws[0] = 1e6
    res = check_mc(
        "heavy",
        draws,
        closed_form=1.0 + 1e6 / 1000,
        cdf=lambda t: 0.0 if t < 1.0 else (0.999 if t < 1e6 else 1.0),
        cdf_points=(1.5,),
    )
    assert res.passed
    assert "quantile" in res.detail


def test_check_ks_gate():
    draws = RandomStream(9).uniforms(2_000)
    res = check_ks("uniform", draws, lambda x: x, ("op",))
    assert res.passed
    assert res.tol == res.target == ks_critical(2_000)
    assert (res.detail, res.ops) == ("1% Kolmogorov gate", ("op",))
    assert not check_ks("wrong-cdf", draws, lambda x: x * x, ("op",)).passed


def test_check_flag():
    ok = check_flag("holds", True, "a property", ("op",))
    assert ok.line() == "PASS holds: value=1 target=1 tol=0 (a property)"
    assert ok.ops == ("op",)
    bad = check_flag("broken", False, "a property", ())
    assert not bad.passed
    assert bad.value == 0.0


def test_check_quantiles():
    draws = -np.log(RandomStream(10).uniforms(5_000))
    res = check_quantiles("exp", draws, lambda t: -math.expm1(-t), (0.5, 1.0, 2.0), "requested", ())
    assert res.passed
    assert res.detail == "quantile mode (requested); worst z over 3 cdf points"
    assert (res.target, res.tol) == (4.0, 4.0)
    wrong = check_quantiles("exp", draws, lambda t: -math.expm1(-2.0 * t), (1.0,), "requested", ())
    assert not wrong.passed


def test_discrepancy_record_json_fields():
    rec = DiscrepancyRecord(
        formula_id="demo",
        params={"a": 1.0},
        paper_literal=2.0,
        corrected=1.0,
        oracle=1.0,
        abs_dev_literal=1.0,
        abs_dev_corrected=0.0,
        verdict="corrected_adopted",
    )
    d = rec.to_json_dict()
    assert list(d.keys()) == [
        "formula_id",
        "params",
        "paper_literal",
        "corrected",
        "oracle",
        "abs_dev_literal",
        "abs_dev_corrected",
        "verdict",
    ]


def test_write_ledger_round_trip(tmp_path):
    recs = [
        DiscrepancyRecord("one", {"t": 1.0}, 0.1, 0.2, 0.2, 0.1, 0.0, "corrected_adopted"),
        DiscrepancyRecord("two", {}, math.inf, 1.5, 1.49, math.inf, 0.01, "corrected_adopted"),
    ]
    path = tmp_path / "ledger.json"
    write_ledger(path, recs)
    back = json.loads(path.read_text())
    assert [r["formula_id"] for r in back] == ["one", "two"]
    assert back[1]["paper_literal"] == math.inf


EXPECTED_FORMULA_IDS = [
    "lst-first-term",
    "count-variance-sign",
    "arrival-moment-rate-factor",
    "pgf-literal-terms",
    "regression-mixing-on-arrival",
    "reciprocal-moment-sign",
    "conditional-density-factor",
    "posterior-density-scale",
    "interarrival-mean-finite",
]


def test_run_ledger_all_corrections_confirmed():
    records = run_ledger(mc_draws=20_000)
    assert {r.formula_id for r in records} == set(EXPECTED_FORMULA_IDS)
    for rec in records:
        assert rec.verdict == "corrected_adopted", rec.formula_id
        assert rec.abs_dev_corrected < rec.abs_dev_literal


def test_run_ledger_divergence_claim_is_literal_infinity():
    records = {r.formula_id: r for r in run_ledger(mc_draws=20_000)}
    rec = records["interarrival-mean-finite"]
    assert rec.paper_literal == math.inf
    assert math.isfinite(rec.corrected)
    assert math.isfinite(rec.oracle)


def test_run_checks_small_budget_green():
    results = run_checks(mc_draws=20_000, paths=2_000)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    covered = set()
    for r in results:
        covered.update(r.ops)
    assert REQUIRED_OPS <= covered


@pytest.mark.parametrize(
    "kwargs", [{"mc_draws": 0}, {"paths": 0}, {"mc_draws": 2.0}, {"mc_draws": 1}, {"paths": 1}]
)
def test_run_checks_rejects_empty_budgets(kwargs):
    with pytest.raises(DomainError, match=next(iter(kwargs))):
        run_checks(**kwargs)


@pytest.mark.parametrize("mc_draws", [0, 1])
def test_run_ledger_rejects_budgets_below_two(mc_draws):
    with pytest.raises(DomainError, match="mc_draws"):
        run_ledger(mc_draws=mc_draws)


@pytest.mark.filterwarnings("error")
def test_path_count_law_at_two_paths_warns_nothing():
    # Two paths at the default seed share N(2), so E N(2) has a zero
    # standard error and a mean off the closed form: z is inf, as in check_mc.
    (law,) = [c for c in _process_checks(1.0, 1.0, 20_260_814 + 50, 2) if "path-count" in c.name]
    assert law.value == math.inf and not law.passed


@pytest.mark.parametrize("law", ["maxuexp", "emue"])
def test_ks_statistic_one_array_call_matches_scalar_loop(law):
    d = MaxUExp(1.0, 1.0) if law == "maxuexp" else ExpMaxUExp(1.0, 1.0)
    draws = d.sample_many(RandomStream(11), 2_000)
    seen = []

    def cdf(x):
        seen.append(np.array(x, copy=True))
        return d.cdf(x)

    stat = ks_statistic(draws, cdf)
    assert len(seen) == 1
    assert np.array_equal(seen[0], np.sort(draws))
    x = np.sort(draws)
    n = x.size
    f = np.array([d.cdf(float(v)) for v in x])
    steps = np.arange(1, n + 1) / n
    reference = max(np.max(steps - f), np.max(f - (steps - 1.0 / n)))
    assert stat == pytest.approx(reference, abs=1e-15)


def test_ks_statistic_evaluates_the_cdf_in_blocks():
    d = MaxUExp(1.0, 1.0)
    draws = d.sample_many(RandomStream(12), 70_000)
    seen = []

    def cdf(x):
        seen.append(np.array(x, copy=True))
        return d.cdf(x)

    stat = ks_statistic(draws, cdf)
    x = np.sort(draws)
    assert [b.size for b in seen] == [_BLOCK, _BLOCK, 70_000 - 2 * _BLOCK]
    assert np.array_equal(np.concatenate(seen), x)
    n = x.size
    f = d.cdf(x)
    steps = np.arange(1, n + 1, dtype=float) / n
    assert stat == max(np.max(steps - f), np.max(f - (steps - 1.0 / n)))


def test_ks_statistic_rejects_an_empty_or_non_finite_sample():
    cdf = MaxUExp(1.0, 1.0).cdf
    for sample in ([], [1.0, math.nan], [math.nan], [1.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(DomainError):
            ks_statistic(sample, cdf)


def test_ks_statistic_rejects_a_cdf_that_does_not_map_arrays():
    with pytest.raises(DomainError):
        ks_statistic(np.linspace(0.1, 0.9, 5), lambda x: 0.5)


# Each parameter point runs these checks in this order: (name, ops, tol);
# None marks a 1% KS gate, whose tol is ks_critical(n).
_POINT_CONTRACT = [
    ("maxuexp-pdf-mass", ("maxuexp.pdf",), 1e-8),
    ("maxuexp-cdf-vs-quadrature", ("maxuexp.cdf",), 1e-8),
    ("maxuexp-hazard-identity", ("maxuexp.hazard",), 1e-12),
    ("maxuexp-quantile-roundtrip", ("maxuexp.quantile",), 1e-9),
    ("maxuexp-moment-vs-quadrature", ("maxuexp.moment", "maxuexp.mean"), 1e-8),
    ("maxuexp-variance-vs-quadrature", ("maxuexp.variance",), 1e-8),
    ("maxuexp-neg-moment-vs-quadrature", ("maxuexp.neg_moment",), 1e-8),
    ("maxuexp-neg-moment-mellin", ("maxuexp.neg_moment", "maxuexp.lst"), 1e-7),
    ("maxuexp-lst-vs-quadrature", ("maxuexp.lst",), 1e-6),
    ("maxuexp-tilted-vs-quadrature", ("maxuexp.tilted_moment",), 1e-8),
    ("maxuexp-scaling-identity", ("maxuexp.scaled",), 1e-9),
    ("maxuexp-sample-mean", ("maxuexp.sample",), 4.0),
    ("maxuexp-sample-ks", ("maxuexp.sample",), None),
    ("emue-pdf-mass", ("waiting.emue_pdf",), 1e-6),
    ("emue-cdf-vs-quadrature", ("waiting.emue_cdf",), 1e-8),
    ("emue-tail-index", ("waiting.emue_cdf",), 0.05),
    ("emue-moment-vs-quadrature", ("waiting.emue_moment",), 1e-7),
    ("emue-joint-marginals", ("waiting.joint_pdf",), 1e-8),
    ("emue-conditional-mass", ("waiting.conditional_mixing_pdf",), 1e-8),
    ("emue-regress-mixing", ("waiting.mean_mixing_given_arrival",), 1e-5),
    ("emue-regress-arrival", ("waiting.mean_arrival_given_mixing",), 1e-9),
    ("emue-joint-interarrival", ("waiting.joint_interarrival_pdf",), 1e-7),
    ("erlang-pdf-mass-n1", ("waiting.erlang_pdf",), 1e-6),
    ("erlang-pdf-mass-n2", ("waiting.erlang_pdf",), 1e-6),
    ("erlang-pdf-mass-n3", ("waiting.erlang_pdf",), 1e-6),
    ("erlang-first-order-reduction", ("waiting.erlang_pdf",), 1e-12),
    ("erlang-pdf-mixture", ("waiting.erlang_pdf",), 1e-8),
    ("erlang-cdf-mass-split", ("waiting.erlang_cdf",), 1e-8),
    ("erlang-moment-vs-quadrature", ("waiting.erlang_moment",), 1e-6),
    ("emue-sample-ks", ("waiting.emue_sample",), None),
    ("erlang-sample-quantiles", ("waiting.erlang_sample", "waiting.erlang_cdf"), 4.0),
]

# The count-process checks, run once at a=1, lam=1.
_PROCESS_CONTRACT = [
    ("pmf-total-mass", ("process.pmf", "process.truncation_point"), 1e-8),
    ("pmf-vs-quadrature", ("process.pmf",), 1e-8),
    ("pmf-tail-bound-valid", ("process.pmf_upper_tail_bound",), 1e-12),
    ("meanvar-vs-series", ("process.mean_variance",), 1e-8),
    ("overdispersion-strict", ("process.mean_variance",), 0.0),
    ("pgf-vs-quadrature", ("process.pgf",), 1e-6),
    ("posterior-mass", ("process.posterior_pdf",), 1e-8),
    ("posterior-mean-vs-quadrature", ("process.posterior_mean",), 1e-6),
    ("posterior-mean-monotone", ("process.posterior_mean",), 0.0),
    ("factorial-moment-vs-series", ("process.factorial_moment",), 1e-6),
    ("ordered-pmf-identities", ("process.ordered_pmf",), 1e-8),
    (
        "increments-ordered-consistency",
        ("process.increments_pmf", "process.to_increments", "process.to_cumulative"),
        0.0,
    ),
    ("conditional-binomial-vs-ordered", ("process.conditional_binomial_pmf",), 1e-8),
    ("time-transform-roundtrip", ("process.time_transform",), 1e-10),
    ("path-shape", ("process.simulate_path",), 0.0),
    ("path-count-law", ("process.simulate_path",), 4.0),
]

def test_run_checks_contract():
    mc_draws = 20_000
    ks_n = {"maxuexp-sample-ks": mc_draws, "emue-sample-ks": mc_draws // 2}
    expected = []
    for tag in ("a=1,lam=1", "a=2,lam=0.5"):
        expected += [(f"{name}[{tag}]", ops, tol) for name, ops, tol in _POINT_CONTRACT]
    expected += [(f"{name}[a=1,lam=1]", ops, tol) for name, ops, tol in _PROCESS_CONTRACT]
    expected.append(("coverage-registry", (), 0.0))
    assert len(expected) == 79

    results = run_checks(mc_draws=mc_draws, paths=2_000)
    assert [(r.name, r.ops) for r in results] == [(name, ops) for name, ops, _ in expected]
    for r, (name, _, tol) in zip(results, expected):
        if tol is None:
            assert r.tol == r.target == ks_critical(ks_n[name.split("[")[0]]), name
        else:
            assert r.tol == tol, name
    assert [r.formula_id for r in run_ledger(mc_draws=mc_draws)] == EXPECTED_FORMULA_IDS
