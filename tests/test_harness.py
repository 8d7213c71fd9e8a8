"""Verification-suite tests: every check passes at its frozen defaults, the
report contract holds, crashes degrade to failed reports, and refinement
behaves the way the tolerances were justified."""

import json
import math

import numpy as np
import pytest

import fraccalc.harness as hz
from fraccalc import InvalidParameterError, MembershipError, UnknownNameError
from fraccalc.harness import (
    CheckReport,
    SuiteConfig,
    check_counterexample_step,
    check_derivative_commute,
    check_hardy_littlewood,
    check_ids,
    check_integral_shift,
    check_inversion,
    check_leibniz,
    check_semigroup,
    check_vanishing_at_start,
    check_weierstrass_nonmembership,
    run_suite,
)

REGISTRY_ORDER = [
    "semigroup",
    "integral_shift",
    "derivative_commute",
    "inversion",
    "vanishing_at_start",
    "hardy_littlewood",
    "embedding_constant",
    "leibniz_rl",
    "leibniz_caputo",
    "banach_algebra",
    "counterexample_step",
    "weierstrass_nonmembership",
]


@pytest.fixture(scope="module")
def full_suite():
    return run_suite(SuiteConfig())


def test_registry_ids_frozen():
    assert check_ids() == REGISTRY_ORDER


def test_all_checks_pass_at_defaults(full_suite):
    failed = [r.check_id for r in full_suite if not r.passed]
    assert failed == [], f"failing checks: {failed}"
    assert [r.check_id for r in full_suite] == REGISTRY_ORDER


def test_report_contract(full_suite):
    for r in full_suite:
        assert r.passed == (r.max_error <= r.tolerance)
        assert r.tolerance > 0.0
        assert r.grid_n >= 2
        assert isinstance(r.anchor, str) and r.anchor.strip()
        d = r.to_dict()
        assert set(d) == {
            "check_id",
            "anchor",
            "grid_n",
            "max_error",
            "tolerance",
            "passed",
            "details",
        }
        json.dumps(d)  # strictly JSON-serializable


def test_reports_are_immutable(full_suite):
    with pytest.raises(AttributeError):
        full_suite[0].passed = False


class TestResolution:
    def test_all_token(self):
        assert SuiteConfig(checks=("all",)).checks == tuple(REGISTRY_ORDER)
        assert SuiteConfig(checks=("semigroup", "all")).checks == tuple(REGISTRY_ORDER)

    def test_prefix_and_dedupe(self):
        assert SuiteConfig(checks=("check_semigroup", "semigroup", "inversion")).checks == (
            "semigroup",
            "inversion",
        )

    def test_unknown_raises(self):
        with pytest.raises(UnknownNameError):
            SuiteConfig(checks=("nope",))

    def test_bare_string_is_one_token(self):
        assert SuiteConfig(checks="semigroup").checks == ("semigroup",)
        assert SuiteConfig(checks="all").checks == tuple(REGISTRY_ORDER)
        with pytest.raises(UnknownNameError, match="'sem'"):
            SuiteConfig(checks="sem")

    def test_no_selection_means_every_check(self):
        assert SuiteConfig().checks == tuple(REGISTRY_ORDER)

    @pytest.mark.parametrize("tokens", [("nope", "all"), ("check_all",), (7,)])
    def test_every_token_is_admitted(self, tokens):
        with pytest.raises(UnknownNameError):
            SuiteConfig(checks=tokens)

    def test_subset_runs_in_given_order(self):
        reports = run_suite(SuiteConfig(checks=("inversion", "semigroup")))
        assert [r.check_id for r in reports] == ["inversion", "semigroup"]

    def test_config_validation(self):
        with pytest.raises(Exception):
            SuiteConfig(n=64)

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1.5}, {"n": 2049.5}, {"n": "2049"}])
    def test_config_refuses_bad_n_and_seed(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SuiteConfig(**kwargs)

    def test_config_takes_numpy_integers(self):
        config = SuiteConfig(n=np.int64(2049), seed=np.int64(3))
        assert (config.n, config.seed) == (2049, 3)
        assert type(config.n) is int and type(config.seed) is int

    def test_empty_selection_runs_nothing(self):
        assert run_suite(SuiteConfig(checks=())) == []


class TestDeterminism:
    def test_two_runs_identical(self):
        a = [r.to_dict() for r in run_suite(SuiteConfig(n=257))]
        b = [r.to_dict() for r in run_suite(SuiteConfig(n=257))]
        assert a == b


def test_crashed_check_becomes_failed_report(monkeypatch):
    def boom(config):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(hz._REGISTRY, "semigroup", boom)
    reports = run_suite(SuiteConfig(checks=("semigroup",)))
    assert len(reports) == 1
    r = reports[0]
    assert not r.passed
    assert math.isinf(r.max_error)
    assert "synthetic failure" in str(r.details)
    d = r.to_dict()
    assert d["max_error"] is None  # non-finite floats map to null in JSON
    json.dumps(d)


def test_suite_calls_checks_through_the_module(monkeypatch):
    # A wrapper set on the module attribute, as the benchmark tracer installs
    # one, must be the function the suite runs.
    calls = []

    def patched(n):
        calls.append(n)
        return check_semigroup(n)

    monkeypatch.setattr(hz, "check_semigroup", patched)
    (r,) = run_suite(SuiteConfig(n=257, checks=("semigroup",)))
    assert calls == [257] and r.check_id == "semigroup"


@pytest.mark.parametrize("error, recorded", [(MembershipError, True), (TypeError, False)])
def test_banach_algebra_records_only_package_errors_of_its_norms(monkeypatch, error, recorded):
    # A norm refused by the package is a diagnostic; a programming error is a crash.
    def refuse(g, order):
        raise error("synthetic")

    monkeypatch.setattr(hz, "rl_norm", refuse)
    (r,) = run_suite(SuiteConfig(checks=("banach_algebra",)))
    assert r.passed is recorded
    assert r.details.get("norm_error" if recorded else "error") == f"{error.__name__}: synthetic"


_CHECKS_TAKING_N = {
    "semigroup": check_semigroup,
    "integral_shift": check_integral_shift,
    "derivative_commute": check_derivative_commute,
    "inversion": check_inversion,
    "hardy_littlewood": check_hardy_littlewood,
    "leibniz_rl": lambda n: check_leibniz(n, caputo=False),
    "leibniz_caputo": lambda n: check_leibniz(n, caputo=True),
    "banach_algebra": hz.check_banach_algebra,
    "counterexample_step": check_counterexample_step,
}


class TestGridSizeGuard:
    """Every check that takes a grid size shares the suite's n >= 65 minimum,
    so a small grid is a parameter error, not a crash inside numpy."""

    @pytest.mark.parametrize("n", [5, 64])
    @pytest.mark.parametrize("check", sorted(_CHECKS_TAKING_N))
    def test_small_grid_is_a_parameter_error(self, check, n):
        with pytest.raises(InvalidParameterError, match="needs n >= 65"):
            _CHECKS_TAKING_N[check](n)

    @pytest.mark.parametrize("check", sorted(_CHECKS_TAKING_N))
    def test_smallest_grid_produces_a_report(self, check):
        assert isinstance(_CHECKS_TAKING_N[check](65), CheckReport)


class TestConvergenceDiscipline:
    """The frozen tolerances were justified by refinement studies; keep the
    direction of those studies locked in."""

    @pytest.mark.parametrize(
        "factory",
        [
            check_semigroup,
            check_inversion,
            lambda n: check_leibniz(n, caputo=False),
            check_hardy_littlewood,
        ],
        ids=["semigroup", "inversion", "leibniz", "hardy_littlewood"],
    )
    def test_error_shrinks_with_refinement(self, factory):
        coarse = factory(1025).max_error
        fine = factory(2049).max_error
        assert fine < coarse

    def test_refinement_protocol_accepts_smooth_data(self):
        # The same three-level comparison used for the lacunary sum, applied
        # to t^0.5: deviations must shrink by well over the 1.5 factor.
        import fraccalc as fc

        devs = []
        prev = None
        for n in (1025, 2049, 4097):
            g = fc.sample(fc.builtin("power", {"p": 0.5}), 0.0, 1.0, n)
            d = fc.marchaud_derivative(g, 0.5).values
            devs.append(d)
        d0, d1, d2 = devs
        dev1 = np.max(np.abs(d0[32:] - d1[64::2]))
        dev2 = np.max(np.abs(d1[64::2] - d2[128::4]))
        assert dev1 / dev2 >= 1.5

    def test_refinement_protocol_rejects_lacunary_sum(self):
        rep = check_weierstrass_nonmembership()
        assert rep.passed
        ratio = rep.details["deviation_1"] / rep.details["deviation_2"]
        assert ratio < 1.1  # deviations are flat, nowhere near converging


class TestIndividualChecks:
    def test_semigroup_closed_form_details(self):
        rep = check_semigroup(1025)
        assert rep.passed
        assert rep.details["direct_vs_closed"] <= rep.tolerance

    def test_vanishing_at_start(self):
        rep = check_vanishing_at_start()
        assert rep.passed
        assert rep.details["constant_rejected"]

    def test_hardy_littlewood_strictness_gap(self):
        rep = check_hardy_littlewood(1025)
        assert rep.passed
        # The t^(alpha-beta) blowup ratio between node 1 and node 64 is
        # 64^0.4; recording it demonstrates the inclusion is strict.
        assert rep.details["strictness_blowup_ratio"] == pytest.approx(64**0.4, rel=1e-12)

    def test_embedding_constant_frozen_ratio(self):
        rep = hz.check_embedding_constant(7)
        assert rep.passed
        assert rep.details["worst_ratio"] == pytest.approx(0.6262820573621694, abs=1e-9)

    def test_banach_algebra_details(self):
        rep = hz.check_banach_algebra(2049)
        assert rep.passed
        assert rep.details["continuous_at_start"] is True
        assert rep.details["product_norm"] > 0.0

    def test_counterexample_off_node_jump(self):
        # On 2050 nodes t = 0.5 falls midway between two nodes.
        rep = check_counterexample_step(2050)
        assert rep.passed
        assert rep.details["interior_jump_detected"] is True

    def test_leibniz_variants_share_tolerance(self):
        rl = check_leibniz(1025, caputo=False)
        cap = check_leibniz(1025, caputo=True)
        assert rl.check_id == "leibniz_rl" and cap.check_id == "leibniz_caputo"
        assert rl.tolerance == cap.tolerance
        assert rl.passed and cap.passed

    @pytest.mark.parametrize("caputo", [False, True])
    def test_leibniz_grid_derivative_gap_falls_with_h(self, caputo):
        # The formula and the grid derivative of uv are two discretizations of
        # one derivative, so their gap shrinks with h (about 3.5x per 4x here).
        gaps = [check_leibniz(n, caputo).details["grid_derivative_gap"] for n in (257, 1025, 4097)]
        assert gaps[0] > 3.0 * gaps[1] > 9.0 * gaps[2] > 0.0
