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
    SeriesControl,
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

    def test_agrees_with_libm(self):
        # math.gamma is an independent C implementation.
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.05, 10.0, 400):
            assert gamma(float(x)) == pytest.approx(math.gamma(x), rel=1e-13)
        for x in rng.uniform(-5.45, -0.55, 200):
            if abs(x - round(x)) < 0.05:
                continue
            assert gamma(float(x)) == pytest.approx(math.gamma(x), rel=1e-12)

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


class TestReciprocalGamma:
    def test_zero_at_poles(self):
        assert rgamma(0.0) == 0.0
        assert rgamma(-3.0) == 0.0

    def test_frozen_value(self):
        assert rgamma(0.5) == pytest.approx(0.5641895835477562869, rel=1e-15)

    def test_inverse_of_gamma(self):
        for x in (0.3, 1.5, 4.2, -0.7, 10.0):
            assert rgamma(x) * gamma(x) == pytest.approx(1.0, rel=1e-13)


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

    def test_result_independent_of_tolerance_setting(self):
        tight = mittag_leffler(0.3, 1.0, 5.0, SeriesControl(tol=1e-14))
        loose = mittag_leffler(0.3, 1.0, 5.0, SeriesControl(tol=1e-10))
        assert abs(tight - loose) / abs(tight) <= 1e-8

    def test_domain_box_is_enforced(self):
        with pytest.raises(InvalidParameterError):
            mittag_leffler(0.25, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            mittag_leffler(0.5, 1.0, 5.01)
        with pytest.raises(InvalidParameterError):
            mittag_leffler(-0.5, 1.0, 1.0)

    def test_term_budget_exhaustion_raises(self):
        with pytest.raises(NonConvergenceError):
            mittag_leffler(0.3, 1.0, 5.0, SeriesControl(max_terms=5))

    def test_control_validation(self):
        with pytest.raises(InvalidParameterError):
            SeriesControl(tol=0.0)
        with pytest.raises(InvalidParameterError):
            SeriesControl(max_terms=0)


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
        for closed_form in (f.rl_derivative, f.caputo_derivative, f.rl_integral):
            assert np.all(np.isfinite(closed_form(order, t)))

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
