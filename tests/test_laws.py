"""Harness: registry contents, determinism, coverage, mutation sensitivity."""

import json
import random

import pytest

from rbshuffle import freerb, hurwitz, laws
from rbshuffle.algebra import Hom, Poly, SampleBudget, alg_eq, poly_handle
from rbshuffle.coeffs import INTEGERS, RATIONALS, residues
from rbshuffle.laws import (LAW_COVERAGE, SampleConfig, default_lambdas,
                            registry, run_all, run_suite)
from rbshuffle.reports import LawSuite

REQUIRED_SUITES = {
    "rb_identity", "lambda_leibniz", "higher_leibniz", "monad_laws",
    "comonad_laws", "t_structure", "costructure", "mixed_distlaw_4",
    "beta_naturality", "rb_lift", "n_morphism", "head_tail", "drb",
    "lifted_structures", "mixed_compat", "power_sequence",
    "adjunction_triangles_drb",
}


def test_registry_catalog():
    suites = registry()
    names = [s.name for s in suites]
    assert len(names) == len(set(names))
    assert len(suites) >= 17
    assert REQUIRED_SUITES <= set(names)
    assert all(s.samples > 0 for s in suites)


def test_coverage_manifest_points_at_real_suites():
    names = {s.name for s in registry()}
    for law, suite in LAW_COVERAGE.items():
        assert suite in names, f"{law} points at unknown suite {suite}"
    # one suite per law is structural; spot-check the important anchors
    assert LAW_COVERAGE["rota-baxter-identity"] == "rb_identity"
    assert LAW_COVERAGE["hurwitz-product"] == "hurwitz_algebra"
    assert LAW_COVERAGE["mixed-compatibility-square"] == "mixed_compat"


def test_full_registry_green_default_ring():
    reports = run_all(seed=2)
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.law, r.counterexample) for r in bad]


def test_full_registry_green_mod_five():
    ring = residues(5)
    reports = run_all(seed=2, cfg=SampleConfig.for_ring(ring))
    bad = [r for r in reports if not r.passed]
    assert not bad, [(r.law, r.counterexample) for r in bad]


def test_integer_ring_subset_green():
    cfg = SampleConfig.for_ring(INTEGERS)
    names = ("worked_example", "rb_identity", "lambda_leibniz", "hurwitz_algebra",
             "mixed_distlaw_4")
    reports = run_all(seed=4, cfg=cfg, names=names)
    assert all(r.passed for r in reports)


def test_default_lambda_cycles():
    assert default_lambdas(RATIONALS) == ("0", "1", "1/2")
    assert default_lambdas(INTEGERS) == ("0", "1", "2")
    assert default_lambdas(residues(5)) == ("0", "1", "1/2")
    assert default_lambdas(residues(4)) == ("0", "1", "3")
    assert default_lambdas(residues(2)) == ("0", "1")
    # on even moduli the third weight is the smallest unit, which the
    # difference quotient can divide by
    assert default_lambdas(residues(6)) == ("0", "1", "5")
    assert default_lambdas(residues(8)) == ("0", "1", "3")
    assert default_lambdas(residues(12)) == ("0", "1", "5")


def test_sample_config_sets_ring_weights_and_precision_only():
    assert list(SampleConfig.__dataclass_fields__) == ["ring", "lambdas", "precision"]
    cfg = SampleConfig.for_ring(INTEGERS, precision=3)
    assert cfg == SampleConfig(INTEGERS, ("0", "1", "2"), 3)
    assert SampleConfig.for_ring(INTEGERS, ("1",)).lambdas == ("1",)
    assert cfg.budget() == SampleBudget(precision=3)
    assert cfg.nested_budget() == SampleBudget(max_terms=2, max_tensor_len=2, precision=3)


def test_reports_are_deterministic():
    first = [r.to_json() for r in run_all(seed=7, names=("worked_example",
                                                         "higher_leibniz",
                                                         "comonad_laws"))]
    second = [r.to_json() for r in run_all(seed=7, names=("worked_example",
                                                          "higher_leibniz",
                                                          "comonad_laws"))]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_all(seed=0, names=("nosuch",))


def test_zero_sample_suite_vacuously_passes():
    suite = LawSuite("empty", 0, lambda rng, cfg, i: pytest.fail("never sampled"))
    report = run_suite(suite, seed=0)
    assert report.passed and report.samples == 0


def test_identity_operator_fails_rb_identity():
    # the identity map is not a weight-0 operator: at x = y = 1 the left
    # side is 1 while the right side is 2
    h = poly_handle(("x",), RATIONALS, RATIONALS.zero())
    bad = Hom(h, h, lambda f: f, name="id")
    one = Poly.one(h)
    assert not alg_eq(*laws._rb_identity_sides(bad, one, one, h.weight))

    suite = LawSuite("bad_rb", 10, lambda rng, cfg, i: [(
        "rb-identity[id]", *laws._rb_identity_sides(
            bad, Poly.one(h), Poly.one(h), h.weight),
        {"witness": "unit pair"})])
    report = run_suite(suite, seed=0)
    assert not report.passed
    assert report.samples == 1
    assert report.counterexample["witness"] == "unit pair"


def test_failed_report_carries_replay_data():
    suite = LawSuite("flaky", 50,
                     lambda rng, cfg, i: [("flaky", i < 3, True, {})])
    report = run_suite(suite, seed=9)
    assert not report.passed
    assert report.samples == 4
    assert report.seed == "9:flaky"
    assert report.counterexample["index"] == 3


def test_harness_stops_at_first_failing_claim():
    draws = []

    def check(rng, cfg, i):
        draws.append(rng.random())
        yield "first", 1, 1, {"x": "a"}
        yield "second", 1, 2, {"x": "b", "weight": "7"}
        draws.append(rng.random())
        yield "third", 1, 3, {}

    report = run_suite(LawSuite("stops", 5, check), seed=0)
    assert not report.passed and report.samples == 1
    # one draw before the first claim, nothing after the failing second
    assert len(draws) == 1
    assert report.counterexample == {"index": 0, "weight": "7", "law": "second",
                                     "x": "b", "lhs": "1", "rhs": "2"}
    assert list(report.counterexample) == ["index", "weight", "law", "x",
                                           "lhs", "rhs"]


def test_counterexample_weight_defaults_to_the_cycled_weight():
    suite = LawSuite("cycled", 5, lambda rng, cfg, i: [("late", i < 2, True, {})])
    report = run_suite(suite, seed=0)
    assert report.counterexample["weight"] == "1/2"   # the third of 0, 1, 1/2
    assert report.counterexample["lhs"] == "False"


# --------------------------------------------------------------------------
# Mutation sensitivity: each prescribed corruption must trip a suite
# at default budgets.


def _first_failure(names):
    for report in run_all(seed=0, names=names):
        if not report.passed:
            return report
    return None


def test_mutated_merge_weight_detected(monkeypatch):
    monkeypatch.setattr(freerb, "_merge_weight",
                        lambda handle: handle.weight + handle.ring.one())
    failed = _first_failure(("worked_example", "rb_identity", "sha_algebra"))
    assert failed is not None
    assert failed.counterexample is not None


def test_mutated_series_weight_power_detected(monkeypatch):
    original = hurwitz._lambda_power
    monkeypatch.setattr(hurwitz, "_lambda_power",
                        lambda lam, k: original(lam + lam.ring.one(), k))
    failed = _first_failure(("lambda_leibniz", "rb_lift", "higher_leibniz"))
    assert failed is not None


def test_mutated_free_derivation_tail_detected(monkeypatch):
    def misprinted(factors, d, lam):
        one = lam.ring.one()
        x0 = factors[0]
        rest = factors[1:]
        if not rest:
            return [(one, (d(x0),))]
        out = [(one, (d(x0),) + rest),
               (one, (x0 * rest[0],) + rest[1:])]
        if not lam.is_zero:
            # repeats the merged factor instead of consuming it
            out.append((lam, (d(x0) * rest[0],) + rest))
        return out

    monkeypatch.setattr(freerb, "_free_derivation_terms", misprinted)
    failed = _first_failure(("lambda_leibniz", "drb"))
    assert failed is not None
