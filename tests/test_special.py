"""Special-function unit tests against frozen high-precision references.

Reference values were produced with 60-digit arbitrary-precision arithmetic
and rounded to the nearest double; comparisons are pinned at documented
tolerances, never recomputed from the code under test.
"""

import math

import mpmath
import numpy as np
import pytest

from fraccalc import catalog
from fraccalc import (
    InvalidParameterError,
    NonConvergenceError,
    PoleError,
    gamma,
    mittag_leffler,
    rgamma,
    weierstrass,
)

GAMMA_HALF = 1.7724538509055160273  # sqrt(pi)
GAMMA_3_2 = 0.8862269254527580136


class TestGamma:
    def test_frozen_spot_values(self):
        assert gamma(0.5) == pytest.approx(GAMMA_HALF, rel=1e-15)
        assert gamma(1.5) == pytest.approx(GAMMA_3_2, rel=1e-15)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)
        assert gamma(-1.5) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-14)

    def test_integers_are_factorials(self):
        for k in range(1, 15):
            assert gamma(float(k)) == float(math.factorial(k - 1))

    def test_agrees_with_mpmath(self):
        rng = np.random.default_rng(7)
        with mpmath.workdps(40):
            for x in rng.uniform(0.05, 10.0, 400):
                assert gamma(float(x)) == pytest.approx(float(mpmath.gamma(x)), rel=1e-15)
            for x in rng.uniform(-5.45, -0.55, 200):
                if abs(x - round(x)) < 0.05:
                    continue
                assert gamma(float(x)) == pytest.approx(float(mpmath.gamma(x)), rel=2e-15)

    @pytest.mark.parametrize(
        "lo, hi, rel", [(0.01, 30.0, 1e-15), (30.0, 171.0, 1e-15), (-30.0, 0.0, 2e-15)]
    )
    def test_accuracy_bands_against_mpmath(self, lo, hi, rel):
        # Negative arguments stay at least 1e-3 from a pole.
        xs = np.random.default_rng(11).uniform(lo, hi, 1000)
        xs = xs[np.abs(xs - np.round(xs)) >= 1e-3]
        with mpmath.workdps(40):
            worst = max(abs(gamma(x) / float(mpmath.gamma(x)) - 1.0) for x in xs)
        assert worst <= rel

    def test_overflow_saturates_to_inf(self):
        assert math.isfinite(gamma(170.0))
        assert gamma(171.8) == math.inf
        assert gamma(500.0) == math.inf

    def test_poles_raise(self):
        for x in (0.0, -1.0, -5.0, -40.0):
            with pytest.raises(PoleError):
                gamma(x)

    def test_nan_passthrough(self):
        assert math.isnan(gamma(math.nan))

    def test_minus_inf_is_invalid(self):
        for f in (gamma, rgamma):
            with pytest.raises(InvalidParameterError):
                f(-math.inf)

    @pytest.mark.parametrize("x", [-1e-320, 1e-320])
    def test_overflow_near_zero_keeps_the_sign(self, x):
        # gamma(x) ~ 1/x overflows for |x| below ~5.6e-309.
        with mpmath.workdps(40):
            exact = mpmath.gamma(x)
        assert gamma(x) == math.copysign(math.inf, exact)


class TestReciprocalGamma:
    def test_zero_at_poles(self):
        assert rgamma(0.0) == 0.0
        assert rgamma(-3.0) == 0.0

    def test_frozen_value(self):
        assert rgamma(0.5) == pytest.approx(0.5641895835477562869, rel=1e-15)

    def test_inverse_of_gamma(self):
        for x in (0.3, 1.5, 4.2, -0.7, 10.0):
            assert rgamma(x) * gamma(x) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("x", [-200.5, -201.5, -175.5])
    def test_infinite_where_gamma_underflows(self, x):
        # gamma is 0.0, -0.0 or subnormal there; 1/gamma overflows.
        with mpmath.workdps(40):
            exact = mpmath.rgamma(x)
        assert abs(exact) > 1e308
        assert rgamma(x) == math.copysign(math.inf, exact)

    def test_zero_at_inf(self):
        assert rgamma(math.inf) == 0.0

    @pytest.mark.parametrize("x", [171.5, 172.0, 175.0, 177.5, 178.5, 180.0])
    def test_subnormal_past_gamma_overflow(self, x):
        # gamma overflows past ~171.6, but 1/gamma stays a subnormal up to
        # about x = 178; lgamma ~ 710 there carries ~1e-13 relative.
        exact = float(mpmath.rgamma(x))
        assert abs(rgamma(x) - exact) <= 1e-12 * exact + math.ulp(0.0)
        if x <= 175.0:
            assert rgamma(x) > 0.0

    @pytest.mark.parametrize("x", [1e-320, 1e-310])
    def test_tiny_positive_argument(self, x):
        # gamma ~ 1/x overflows there; 1/gamma ~ x does not.
        assert rgamma(x) == pytest.approx(float(mpmath.rgamma(x)), rel=1e-12, abs=math.ulp(0.0))

    def test_unchanged_where_gamma_is_finite_or_x_negative(self):
        negative = -(np.arange(200.0)[:, None] + [0.01, 0.5, 0.93]).ravel()
        xs = np.concatenate((np.linspace(0.01, 171.6, 997), negative))
        for x in xs:
            g = math.gamma(x)
            expected = math.copysign(math.inf, g) if g == 0.0 else 1.0 / g
            assert rgamma(x) == expected


class TestMittagLeffler:
    def test_frozen_spot_values(self):
        assert mittag_leffler(0.7, 1.0, 0.3) == pytest.approx(
            1.4168633258774752933, rel=1e-13
        )
        assert mittag_leffler(0.7, 1.0, 1.0) == pytest.approx(
            3.7041461454375860340, rel=1e-13
        )
        # E_{2,1}(-z^2) = cos z
        assert mittag_leffler(2.0, 1.0, -1.0) == pytest.approx(
            math.cos(1.0), rel=1e-14
        )
        assert mittag_leffler(0.7, 0.3, -2.5) == pytest.approx(
            -0.0873054641262987986, abs=1e-13
        )

    def test_at_zero_is_reciprocal_gamma(self):
        for beta in (0.4, 1.0, 1.7):
            assert mittag_leffler(0.8, beta, 0.0) == rgamma(beta)

    def test_reduces_to_exp(self):
        for z in np.linspace(-5.0, 5.0, 50):
            assert abs(mittag_leffler(1.0, 1.0, float(z)) - math.exp(z)) <= 1e-12 * math.exp(abs(z))

    def test_box_corner_stays_accurate(self):
        # Largest admissible argument with the slowest admissible order: the
        # series peaks near 1e+90 per term and must still come out right.
        assert mittag_leffler(0.3, 1.0, 5.0) == pytest.approx(
            2.2491502775547119e93, rel=1e-12
        )

    def test_domain_box_is_enforced(self):
        with pytest.raises(InvalidParameterError):
            mittag_leffler(0.25, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            mittag_leffler(0.5, 1.0, 5.01)
        with pytest.raises(InvalidParameterError):
            mittag_leffler(-0.5, 1.0, 1.0)

    def test_term_budget_exhaustion_raises(self, monkeypatch):
        import fraccalc.special as special

        monkeypatch.setattr(special, "_MAX_TERMS", 5)
        with pytest.raises(NonConvergenceError, match="within 5 terms"):
            mittag_leffler(0.3, 1.0, 5.0)


def _ml_mpmath(alpha, beta, z, rgammas):
    # The series at 150 digits, to 1e-25 of its largest term; ``rgammas``
    # caches 1/gamma(alpha*j + beta) by j.
    total, peak, j = mpmath.mpf(0), mpmath.mpf(0), 0
    x = mpmath.mpf(z)
    while True:
        if j == len(rgammas):
            rgammas.append(mpmath.rgamma(mpmath.mpf(alpha) * j + mpmath.mpf(beta)))
        term = x**j * rgammas[j]
        total += term
        peak = max(peak, abs(term))
        if alpha * j + beta > 2 and abs(term) <= mpmath.mpf(10) ** -25 * peak:
            return total
        j += 1


class TestMittagLefflerCancellation:
    @pytest.mark.parametrize("beta", [0.3, 1.0, 1.5])
    @pytest.mark.parametrize("alpha", [0.3, 0.4, 0.5, 0.7, 1.0, 2.0])
    def test_accurate_or_refused(self, alpha, beta):
        # For negative z the alternating terms cancel: E_{0.3}(-3) came out
        # as -432.5 and E_{0.4}(-4) as 0.2048 (true 0.0385).  Each value must
        # now match the 150-digit series to 1e-10 or raise.
        returned = 0
        with mpmath.workdps(150):
            rgammas = []
            for z in np.linspace(-5.0, 5.0, 41):
                try:
                    value = mittag_leffler(alpha, beta, float(z))
                except NonConvergenceError:
                    assert z < 0.0, z
                    continue
                exact = _ml_mpmath(alpha, beta, float(z), rgammas)
                assert abs(value - float(exact)) <= 1e-10 * abs(float(exact)), z
                returned += 1
        assert returned >= 24  # every z >= 0, and some negative z

    @pytest.mark.parametrize("alpha, z", [(0.3, -3.0), (0.4, -4.0), (0.5, -5.0)])
    def test_known_cancellation_cases_raise(self, alpha, z):
        with pytest.raises(NonConvergenceError, match="cancellation"):
            mittag_leffler(alpha, 1.0, z)
        with pytest.raises(NonConvergenceError):
            mittag_leffler(alpha, 1.0, np.array([0.5, z]))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0, 1.6, 2.0])
    def test_catalog_arguments_never_raise(self, alpha):
        # ml_exp evaluates at z = (t - t0)**alpha in [0, 1]; beta = 1 + alpha -
        # order drops to 0 and below for derivatives of order >= 1 + alpha.
        z = np.linspace(0.0, 1.0, 1025) ** alpha
        for beta in (-1.4, -0.35, 0.0, 0.2, 0.5, 1.0, 1.3, 1.7, 2.5):
            assert np.all(np.isfinite(mittag_leffler(alpha, beta, z)))

    @pytest.mark.parametrize("alpha, order", [(0.4, 1.75), (0.3, 2.4), (0.9, 2.15)])
    def test_catalog_closed_forms_past_order_one_plus_alpha(self, alpha, order):
        f = catalog.builtin("ml_exp", {"alpha": alpha})
        t = np.linspace(0.0, 1.0, 257)[1:]
        for closed_form in (f.rl_derivative, f.rl_integral):
            assert np.all(np.isfinite(closed_form(order, t)))
        # The Caputo form there would need f^(m-1)(t0), m = ceil(order), which does not exist.
        with pytest.raises(InvalidParameterError, match="no closed Caputo form"):
            f.caputo_derivative(order, t)

    def test_near_a_zero_for_positive_z_is_returned(self):
        # With beta <= 0 the series for z > 0 has a zero: E_{0.4,-0.35} is
        # about -5.1e-6 here, summed from terms of order 1.  Nothing cancels
        # beyond the first terms, so the value is exact to a few ulps of them.
        z = 0.4311655192066296
        with mpmath.workdps(150):
            exact = float(_ml_mpmath(0.4, -0.35, z, []))
        assert abs(mittag_leffler(0.4, -0.35, z) - exact) <= 1e-15


class TestWeierstrass:
    def test_frozen_spot_values(self):
        # t = 0 needs no argument reduction: plain geometric sum.
        assert weierstrass(0.5, 2.0, 0.0) == pytest.approx(
            3.4142135623730950488, rel=1e-14
        )
        # t > 0 accumulates argument-reduction noise ~1e-8 from the huge
        # cosine arguments; the value itself is deterministic.
        assert weierstrass(0.5, 3.0, 1.0) == pytest.approx(
            -0.2771755986123433238, abs=1e-7
        )

    def test_lacunary_self_similarity(self):
        # W(sigma t) = sigma^alpha (W(t) - cos t) for the lacunary sum.
        a, sigma, t = 0.5, 2.0, 0.3
        lhs = weierstrass(a, sigma, sigma * t)
        rhs = sigma**a * (weierstrass(a, sigma, t) - math.cos(t))
        assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            weierstrass(0.5, 1.0, 0.0)  # sigma must exceed 1
        with pytest.raises(InvalidParameterError):
            weierstrass(1.5, 2.0, 0.0)  # order must lie in (0, 1]
        with pytest.raises(InvalidParameterError):
            weierstrass(0.5, 2.0, math.inf)


def _term_count(alpha, sigma, tol=1e-14):
    # The number of terms weierstrass sums: its own loop, without the cosines.
    q = sigma**-alpha
    tail_scale = 1.0 / (1.0 - q)
    w, count = 1.0, 0
    while True:
        count += 1
        w *= q
        if w * tail_scale <= tol:
            return count


SUITE_GRID = np.linspace(0.0, 1.0, 4097)  # the Weierstrass check's fine grid at n = 1025


class TestWeierstrassFractionPath:
    # For sigma a power of two, the terms past weight 2**-12 take the cosine
    # of an exactly reduced fraction of a turn instead of the huge argument,
    # at anchor terms only; the terms between rotate the anchor's cosine and sine.
    grid = SUITE_GRID
    points = [-5.5, -0.3, 1.7, 37.0, 1000.25] + [float(SUITE_GRID[i]) for i in (1, 1234, 2048, 3071, 4095)]

    @pytest.mark.parametrize("sigma", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
    def test_against_mpmath_over_its_own_terms(self, alpha, sigma):
        # Dense in t, for the anchor spacing's rotation error: a fixed spacing
        # of 16 is off here by up to 5.8e5 ulp at (0.3, 8), and of 8 by 4 ulp.
        points = self.points + [float(x) for x in SUITE_GRID[::16]]
        got = weierstrass(alpha, sigma, np.array(points))
        terms = _term_count(alpha, sigma)
        ulp = math.ulp(1.0 / (1.0 - sigma**-alpha))  # of the largest value the sum can take
        with mpmath.workdps(40):
            a, s = mpmath.mpf(alpha), mpmath.mpf(sigma)
            weights = [s ** (-j * a) for j in range(terms)]
            scales = [s**j for j in range(terms)]
            for x, value in zip(points, got):
                exact = mpmath.fsum(wj * mpmath.cos(mpmath.mpf(x) * sj) for wj, sj in zip(weights, scales))
                assert abs(value - float(exact)) <= 4 * ulp, x

    def test_other_sigma_matches_scalar_loop(self):
        from test_reference_loops import _weierstrass_scalar

        got = weierstrass(0.5, 3.0, np.array(self.points))
        want = np.array([_weierstrass_scalar(0.5, 3.0, x) for x in self.points])
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_no_large_cosine_argument_past_the_switch(self, monkeypatch):
        # Past the first term of weight <= 2**-12 no cosine or sine argument
        # leaves libm's fast reduction range; the direct sum passes up to 2**96
        # there.  Those terms take a cosine and a sine at anchors only, every
        # r = 10 terms at (0.5, 2).
        import fraccalc.special as special

        seen = {"cos": [], "sin": []}

        class TrigRecorder:
            def __getattr__(self, name):
                return getattr(np, name)

            def cos(self, x, *args, **kwargs):
                seen["cos"].append(float(np.max(np.abs(x))))
                return np.cos(x, *args, **kwargs)

            def sin(self, x, *args, **kwargs):
                seen["sin"].append(float(np.max(np.abs(x))))
                return np.sin(x, *args, **kwargs)

        monkeypatch.setattr(special, "np", TrigRecorder())
        special.weierstrass(0.5, 2.0, self.grid)
        q, w, j0 = 2.0**-0.5, 1.0, 0
        while w > 2.0**-12:
            w *= q
            j0 += 1
        anchors = range(j0, _term_count(0.5, 2.0), 10)
        assert (j0, len(anchors)) == (25, 8)
        assert len(seen["cos"]) == j0 + len(anchors)
        assert len(seen["sin"]) == len(anchors)
        assert max(seen["cos"][j0:] + seen["sin"]) <= 2.0**26

    @pytest.mark.parametrize("alpha, sigma", [(0.5, 2.0), (0.3, 2.0), (0.9, 8.0), (0.5, 3.0)])
    def test_entry_independent_of_companions(self, alpha, sigma):
        alone = weierstrass(alpha, sigma, 0.3)
        among = weierstrass(alpha, sigma, np.array([0.3, 0.0, 1.0, 37.0, -5.5]))
        assert alone == among[0]


class TestWeierstrassRefusals:
    # Where q = sigma**-alpha rounds to 1 the sum has no tail bound, where the
    # tail bound needs more than 2,000 terms the budget is spent, and where
    # sigma**j * t leaves the float range within the term count the direct sum
    # would take cos(inf).  All raise the package error before any cosine or sine.
    @pytest.fixture
    def no_cos(self, monkeypatch):
        import fraccalc.special as special

        class NoCos:
            def __getattr__(self, name):
                return getattr(np, name)

            def cos(self, x, *args, **kwargs):
                raise AssertionError("a cosine or sine was taken")

            sin = cos

        monkeypatch.setattr(special, "np", NoCos())
        return special

    @pytest.mark.parametrize(
        "alpha, t",
        [(1e-17, 0.5), (1e-17, 0.0), (1e-6, 0.5), (0.05, 0.5), (0.05, np.array([0.0, 0.5])), (0.0505, 100.0)],
    )
    def test_refused_before_any_cosine(self, alpha, t, no_cos):
        with pytest.raises(NonConvergenceError):
            no_cos.weierstrass(alpha, 2.0, t)

    def test_term_budget_refused_before_any_cosine(self, no_cos):
        # The tail bound at alpha = 1e-3 needs about 57,000 terms.  As
        # 1e-300 * 2**2000 is finite, only the budget can refuse here.
        with pytest.raises(NonConvergenceError, match="more than 2000 terms"):
            no_cos.weierstrass(1e-3, 2.0, np.linspace(0.0, 1e-300, 4097))

    def test_small_alpha_at_zero_is_the_geometric_sum(self):
        # At t = 0 every argument stays 0, so alpha = 0.05 still sums its
        # 1,028 terms; the value is unchanged to the bit.
        terms = _term_count(0.05, 2.0)
        with mpmath.workdps(40):
            q = mpmath.mpf(2) ** mpmath.mpf(-0.05)
            exact = float((1 - q**terms) / (1 - q))
        got = weierstrass(0.05, 2.0, 0.0)
        assert got == 29.3567888732165
        assert got == pytest.approx(exact, rel=1e-14)

    def test_largest_argument_just_inside_the_float_range(self):
        # 63 * 2**1018 is finite and is the last argument the sum forms; 100 *
        # 2**1018 is not (refused above).
        from test_reference_loops import _weierstrass_scalar

        assert _term_count(0.0505, 2.0) == 1018
        got = weierstrass(0.0505, 2.0, 63.0)
        assert got == pytest.approx(_weierstrass_scalar(0.0505, 2.0, 63.0), abs=1e-13)
