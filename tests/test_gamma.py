"""Tests for the log-space incomplete gamma module.

Oracles, in order of authority:

1. closed forms for small integer shapes (Q(1, z) = e^-z etc.),
2. adaptive quadrature of the normalized integrand (scipy.integrate.quad on
   exp((a-1) log x - x - lgamma(a)), no special-function code shared with the
   implementation),
3. frozen 60-digit mpmath references, recorded below as literals so the test
   run does not depend on mpmath.

The implementation carries two genuinely different evaluation routes for
integer shapes (series/continued-fraction vs the anchored finite sum); their
agreement is asserted here and is relied on by the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ginibre_overcrowding.gamma import (
    ConvergenceError,
    GammaDomainError,
    log1mexp,
    log_gamma_lower,
    log_gamma_lower_asymptotic,
    log_poisson_pmf,
    log_q,
    log_q_asymptotic,
    log_q_integer,
)

# ----------------------------
# quadrature oracle
# ----------------------------


def quad_log_q(a: float, z: float) -> float:
    """log Q(a, z) by adaptive quadrature of the normalized density.

    Integrates whichever tail is the smaller one (so the quadrature itself is
    well scaled) and complements if needed.  Usable for moderate a only.
    """

    def density(x: float) -> float:
        return math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))

    if z >= a:
        val, err = quad(density, z, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
        assert err < 1e-12 * val
        return math.log(val)
    val, err = quad(density, 0.0, z, epsabs=0.0, epsrel=1e-13, limit=400)
    assert err < 1e-12 * val
    return math.log1p(-val)


def quad_log_p(a: float, z: float) -> float:
    def density(x: float) -> float:
        return math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))

    if z >= a:
        val, err = quad(density, z, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
        assert err < 1e-12 * val
        return math.log1p(-val)
    val, err = quad(density, 0.0, z, epsabs=0.0, epsrel=1e-13, limit=400)
    assert err < 1e-12 * val
    return math.log(val)


# Frozen references, computed once with mpmath at 60 significant digits:
#   log Q: mp.log(mp.gammainc(a, z, inf, regularized=True))      for z > a
#          mp.log(1 - mp.gammainc(a, 0, z, regularized=True))     for z <= a
# and symmetrically for log P, complementing only the larger tail.
MPMATH_LOG_Q = {
    (100.0, 120.0): -3.580429080927531251167,
    (1000.0, 900.0): -0.0005500535174143447312485,
    (50.0, 10.0): -1.854726883869799300724e-19,
    (7.5, 3.25): -0.03038597424229696116395,
    (2000.0, 2100.0): -4.294201292263509621199,
}
MPMATH_LOG_P = {
    (100.0, 120.0): -0.02825929904892038216275,
    (1000.0, 900.0): -7.505769994233892399147,
    (50.0, 10.0): -43.13137931408242809982,
    (7.5, 3.25): -3.508928666918371215193,
    (2000.0, 2100.0): -0.01374145043444612238567,
}
MPMATH_LOG_PMF = {
    (150.0, 130.0): -4.889938281086320847251,
    (12.0, 3.5): -8.45405887371747020126,
    (0.0, 2.0): -2.0,
}


# ----------------------------
# closed-form and frozen-value checks
# ----------------------------


def test_q_exponential_shape():
    # Q(1, z) = e^-z exactly, on both evaluation routes
    for z in [0.0, 0.3, 1.0, 4.5, 40.0]:
        assert log_q(1.0, z) == pytest.approx(-z, abs=1e-14)
        assert log_q_integer(1, z) == pytest.approx(-z, abs=1e-14)


def test_q_small_integer_closed_forms():
    # Q(3, 2) = e^-2 (1 + 2 + 2), Q(4, 1) = e^-1 (1 + 1 + 1/2 + 1/6)
    assert log_q(3.0, 2.0) == pytest.approx(math.log(5.0) - 2.0, abs=1e-14)
    assert log_q_integer(3, 2.0) == pytest.approx(math.log(5.0) - 2.0, abs=1e-14)
    assert log_q_integer(4, 1.0) == pytest.approx(math.log(8.0 / 3.0) - 1.0, abs=1e-14)


def test_boundary_values():
    assert log_q(5.0, 0.0) == 0.0
    assert log_q_integer(5, 0.0) == 0.0
    assert log_gamma_lower(5.0, 0.0) == -math.inf
    # large z: finite, very negative, never -inf
    assert log_q(2.0, 5000.0) < -4000.0
    assert math.isfinite(log_q(2.0, 5000.0))


@pytest.mark.parametrize("a,z", sorted(MPMATH_LOG_Q))
def test_against_frozen_mpmath(a, z):
    ref_q = MPMATH_LOG_Q[(a, z)]
    ref_p = MPMATH_LOG_P[(a, z)]
    assert log_q(a, z) == pytest.approx(ref_q, rel=1e-12, abs=1e-13)
    assert log_gamma_lower(a, z) == pytest.approx(ref_p, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("k,z", sorted(MPMATH_LOG_PMF))
def test_poisson_pmf_frozen(k, z):
    assert log_poisson_pmf(k, z) == pytest.approx(MPMATH_LOG_PMF[(k, z)], rel=1e-13, abs=1e-13)


def test_poisson_pmf_against_direct_formula():
    # below the Stirling threshold the direct formula is the reference
    for k in [0.5, 3.0, 11.0, 19.5]:
        for z in [0.1, 2.0, 30.0]:
            direct = k * math.log(z) - z - math.lgamma(k + 1.0)
            assert log_poisson_pmf(k, z) == pytest.approx(direct, rel=1e-15, abs=1e-13)


def test_poisson_pmf_normalization():
    # sum over k of the pmf at z = 37.5 should be 1; crosses the k = 20 branch
    z = 37.5
    total = sum(math.exp(log_poisson_pmf(float(k), z)) for k in range(400))
    assert total == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize(
    "a,z",
    [(0.5, 0.25), (1.0, 1.0), (2.5, 7.0), (10.0, 3.0), (30.0, 30.0), (120.0, 100.0), (120.0, 160.0)],
)
def test_against_quadrature(a, z):
    assert log_q(a, z) == pytest.approx(quad_log_q(a, z), rel=1e-11, abs=1e-12)
    assert log_gamma_lower(a, z) == pytest.approx(quad_log_p(a, z), rel=1e-11, abs=1e-12)


# ----------------------------
# structural properties
# ----------------------------


def test_each_tail_pair_comes_from_one_branch_split():
    # below z = a + 1 the series gives P and Q is its log1mexp, above it the
    # continued fraction gives Q and P is its log1mexp, bit for bit
    for a in [0.01, 1.0, 3.7, 50.0, 1e4]:
        for z in [1e-3 * a, 0.5 * a, math.nextafter(a + 1.0, 0.0), a + 1.0, 2.0 * a + 5.0]:
            log_p, log_q_val = log_gamma_lower(a, z), log_q(a, z)
            if z < a + 1.0:
                assert log_q_val == min(log1mexp(log_p), 0.0)
            else:
                assert log_p == min(log1mexp(log_q_val), 0.0)


def test_complement_identity_designed_grid():
    for a in [0.1, 1.0, 3.7, 50.0, 1000.0, 10000.0]:
        for frac in [0.1, 0.5, 0.9, 1.0, 1.1, 2.0]:
            z = a * frac
            defect = abs(math.exp(log_q(a, z)) + math.exp(log_gamma_lower(a, z)) - 1.0)
            assert defect < 1e-14, (a, z, defect)


def test_route_agreement_designed_grid():
    # series/CF route vs anchored finite sum, inside the zone where a 1e-12
    # log agreement is representable at all (|log Q| <= 2500; beyond that one
    # ulp of the result already exceeds the tolerance)
    worst = 0.0
    for n in [1, 2, 5, 17, 100, 999, 5000]:
        for mult in [0.25, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0, 4.0]:
            z = n * mult
            general = log_q(float(n), z)
            if general < -2500.0:
                continue
            worst = max(worst, abs(general - log_q_integer(n, z)))
    assert worst < 1e-12, worst


def test_monotone_decreasing_in_z():
    # Q(a, .) strictly decreasing
    for a in [0.5, 4.0, 256.0]:
        zs = np.linspace(0.0, 4.0 * a + 8.0, 60)
        vals = [log_q(a, z) for z in zs]
        assert all(v2 < v1 for v1, v2 in zip(vals[:-1], vals[1:] )) or vals[0] == 0.0
        assert all(v2 < v1 for v1, v2 in zip(vals[1:-1], vals[2:]))


def test_monotone_increasing_in_shape():
    # Q(n+1, z) > Q(n, z): an extra factor in the waiting sum
    for n in [100, 1000, 10000]:
        for d in [-3.0, -1.0, 0.0, 1.0, 3.0]:
            z = n + d * math.sqrt(n)
            assert log_q_integer(n + 1, z) > log_q_integer(n, z)


_shape = st.one_of(
    st.floats(min_value=0.05, max_value=10000.0),
    st.sampled_from([1.0, 2.0, 0.999, 20.0, 19.999, 20.001]),
)


@given(a=_shape, frac=st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=300, deadline=None)
def test_complement_identity_hypothesis(a, frac):
    z = a * frac
    p = math.exp(log_gamma_lower(a, z)) if z > 0 else 0.0
    q = math.exp(log_q(a, z))
    assert abs(p + q - 1.0) < 1e-13


@given(n=st.integers(min_value=1, max_value=20000), frac=st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=200, deadline=None)
def test_route_agreement_hypothesis(n, frac):
    z = n * frac
    general = log_q(float(n), z)
    assume(general >= -2500.0)
    assert abs(general - log_q_integer(n, z)) < 1e-12
    assert general <= 0.0


@given(a=_shape, frac=st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_outputs_are_valid_log_probabilities(a, frac):
    z = a * frac
    lq = log_q(a, z)
    lp = log_gamma_lower(a, z)
    assert lq <= 0.0
    assert lp <= 0.0
    assert math.isfinite(lq)
    assert lp == -math.inf if z == 0.0 else math.isfinite(lp)


# ----------------------------
# asymptotic branches
# ----------------------------


def test_asymptotic_error_scaling_upper():
    # leading-order Laplace estimate: log-space error should fall like 1/a
    errs = [abs(log_q_asymptotic(a, 2.0) - log_q(a, 2.0 * a)) for a in (1e3, 1e4, 1e5)]
    assert errs[0] > errs[1] > errs[2]
    assert 8.0 < errs[0] / errs[1] < 12.0
    assert 8.0 < errs[1] / errs[2] < 12.0


def test_asymptotic_error_scaling_lower():
    for lam in (0.5, 0.8):
        errs = [
            abs(log_gamma_lower_asymptotic(a, lam) - log_gamma_lower(a, lam * a))
            for a in (1e3, 1e4, 1e5)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert 8.0 < errs[0] / errs[1] < 12.0


def test_asymptotic_lower_reaches_below_double_underflow():
    # at a = 1e5, lam = 0.5 the lower tail is ~e^-19314; only the log route works
    val = log_gamma_lower_asymptotic(1e5, 0.5)
    assert -19400.0 < val < -19200.0


def test_asymptotic_upper_small_lambda_is_complement():
    # for lam < 1 the upper estimate goes through the complement of the lower one
    ours = log_q_asymptotic(200.0, 0.6)
    exact = log_q(200.0, 120.0)
    assert ours == pytest.approx(exact, rel=0.1)


# ----------------------------
# domain errors
# ----------------------------


@pytest.mark.parametrize(
    "fn,args",
    [
        (log_q, (0.0, 1.0)),
        (log_q, (-1.0, 2.0)),
        (log_q, (1.0, -0.5)),
        (log_q, (math.inf, 1.0)),
        (log_q, (math.nan, 1.0)),
        (log_q, (1.0, math.inf)),
        (log_gamma_lower, (0.0, 1.0)),
        (log_gamma_lower, (2.0, -1.0)),
        (log_q_integer, (0, 1.0)),
        (log_q_integer, (2.5, 1.0)),
        (log_q_integer, (3, -1.0)),
        (log_q_asymptotic, (10.0, 1.0)),
        (log_q_asymptotic, (10.0, -0.5)),
        (log_q_asymptotic, (0.0, 2.0)),
        (log_gamma_lower_asymptotic, (10.0, 1.5)),
        (log_gamma_lower_asymptotic, (10.0, 0.0)),
        (log_poisson_pmf, (-1.0, 2.0)),
        (log_poisson_pmf, (2.0, -1.0)),
    ],
)
def test_domain_errors(fn, args):
    with pytest.raises(GammaDomainError):
        fn(*args)


def test_log1mexp():
    # both sides of the -log 2 switch point, against the naive formula at
    # moderate arguments where the naive formula is itself accurate
    for x in [-0.1, -0.69, -0.70, -5.0, -50.0]:
        assert log1mexp(x) == pytest.approx(math.log(1.0 - math.exp(x)), rel=1e-13)
    # tiny |x|, where the naive formula cancels: log(1 - e^x) -> log(-x) + x/2
    assert log1mexp(-1e-12) == pytest.approx(math.log(1e-12), abs=1e-9)
    with pytest.raises(GammaDomainError):
        log1mexp(0.0)
    with pytest.raises(GammaDomainError):
        log1mexp(0.5)


def test_convergence_error_is_exported():
    assert issubclass(ConvergenceError, RuntimeError)
