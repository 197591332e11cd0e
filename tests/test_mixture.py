"""Tests for the mixture representation.

Primary oracle: brute-force enumeration over all 2^N subsets of the Bernoulli
field law, with weights computed by scipy.special.gammaincc (a code path the
package does not use).  Everything the module computes by DP, telescoping or
encoding tricks is compared against that enumeration on small instances.
At larger N the oracles are the dense (N+1)^2 Poisson-binomial DP below and
the scalar gamma routes ``log_q_integer`` and ``log_gamma_lower``.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.stats import chisquare

from ginibre_overcrowding import mixture
from ginibre_overcrowding.gamma import log_gamma_lower, log_q_integer
from ginibre_overcrowding.mixture import (
    BernoulliWeights,
    ConstraintViolation,
    CountDistribution,
    EnsembleParams,
    IndexSet,
    OccupationVector,
    bernoulli_weights,
    count_distribution,
    indexset_to_occupation,
    log_hole_factor,
    log_hole_factor_rescaled,
    log_ratio_approx,
    log_ratio_exact,
    occupation_to_indexset,
    overcrowding_probability_asymptotic,
    overcrowding_probability_exact,
    sample_conditioned_indexset,
)
from ginibre_overcrowding.mixture import _banded, _count_band


# ----------------------------
# enumeration oracle
# ----------------------------


def oracle_weights(params: EnsembleParams) -> np.ndarray:
    """a_k = Q(k+1, N R^2) via scipy's regularized upper incomplete gamma."""
    return gammaincc(np.arange(1, params.N + 1, dtype=float), params.z)


def oracle_subset_prob(members: tuple[int, ...], a: np.ndarray) -> float:
    prob = 1.0
    for k in range(len(a)):
        prob *= a[k] if k in members else 1.0 - a[k]
    return prob


def _poisson_binomial_dp(log_a: np.ndarray, log_one_minus_a: np.ndarray) -> np.ndarray:
    """F[k, r] = log P(B_0 + ... + B_{k-1} = r), shape (N+1, N+1): the dense DP."""
    N = len(log_a)
    F = np.full((N + 1, N + 1), -np.inf)
    F[0, 0] = 0.0
    for k in range(1, N + 1):
        la = log_a[k - 1]
        lna = log_one_minus_a[k - 1]
        F[k, 0] = F[k - 1, 0] + lna
        F[k, 1 : k + 1] = np.logaddexp(F[k - 1, 1 : k + 1] + lna, F[k - 1, 0:k] + la)
    return F


def mixed_err(value, ref) -> float:
    """Largest |value - ref| / max(1, |ref|)."""
    value, ref = np.asarray(value), np.asarray(ref)
    return float(np.max(np.abs(value - ref) / np.maximum(1.0, np.abs(ref))))


def oracle_count_probs(params: EnsembleParams) -> np.ndarray:
    a = oracle_weights(params)
    probs = np.zeros(params.N + 1)
    for size in range(params.N + 1):
        for members in itertools.combinations(range(params.N), size):
            probs[size] += oracle_subset_prob(members, a)
    return probs


# ----------------------------
# parameters and weights
# ----------------------------


def test_params_derived_quantities():
    p = EnsembleParams(N=10, c=0.5, R=0.8)
    assert p.N_c == 5
    assert p.z == pytest.approx(6.4)
    # floor(c N) robust to c N landing an ulp under an integer
    assert EnsembleParams(N=100, c=0.29, R=0.9).N_c == 29


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(N=0, c=0.5, R=0.8),
        dict(N=10, c=0.0, R=0.8),
        dict(N=10, c=1.5, R=0.8),
        dict(N=10, c=0.5, R=0.0),
        dict(N=10, c=0.5, R=1.0),
        dict(N=10, c=0.5, R=0.6),  # R^2 = 0.36 < 1 - c
        dict(N=5, c=0.1, R=0.99),  # floor(c N) = 0
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ConstraintViolation):
        EnsembleParams(**kwargs)


def test_weights_first_entry_and_monotone():
    p = EnsembleParams(N=40, c=0.8, R=0.7)
    w = bernoulli_weights(p)
    assert w.log_a[0] == pytest.approx(-p.z, abs=1e-12)
    assert np.all(np.diff(w.log_a) > 0)
    assert np.all(np.diff(w.log_one_minus_a) < 0)
    # two-sided consistency
    assert np.allclose(np.exp(w.log_a) + np.exp(w.log_one_minus_a), 1.0, atol=1e-14)


def _params_at(N: int, x: float) -> EnsembleParams:
    """A valid triple with R^2 / (1 - c) = x; N = 1 needs c = 1 and then keeps R^2 = x / 4."""
    c = 1.0 if N == 1 else 0.75
    return EnsembleParams(N=N, c=c, R=math.sqrt(x * 0.25))


@pytest.mark.parametrize("x", [1.005, 1.3, 3.9])
@pytest.mark.parametrize("N", [1, 5, 19, 20, 21, 200, 1000, 10_000])
def test_weights_match_scalar_gamma_routes(N, x):
    # the one-pass Poisson tails against the per-k series and continued fractions
    p = _params_at(N, x)
    w = bernoulli_weights(p)
    ref_a = [log_q_integer(k + 1, p.z) for k in range(N)]
    ref_b = [log_gamma_lower(float(k + 1), p.z) for k in range(N)]
    assert mixed_err(w.log_a, ref_a) <= 1e-13
    assert mixed_err(w.log_one_minus_a, ref_b) <= 1e-13


@pytest.mark.parametrize("N, c, R", [(40, 0.8, 0.7), (300, 0.9, 0.7), (2000, 0.515, 0.7), (1, 1.0, 0.6)])
def test_rescaled_hole_factor_matches_scalar_sum(N, c, R):
    p = EnsembleParams(N=N, c=c, R=R)
    z_small = p.N_c * R * R
    ref = sum(log_q_integer(j, z_small) for j in range(1, p.N_c + 1))
    assert abs(log_hole_factor_rescaled(p) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_weights_against_quadrature():
    p = EnsembleParams(N=4, c=0.8, R=0.5)
    w = bernoulli_weights(p)
    for k in range(4):
        a = k + 1.0

        def density(x: float, a: float = a) -> float:
            return math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))

        val, err = quad(density, p.z, math.inf, epsabs=0.0, epsrel=1e-12)
        assert err < 1e-11 * val
        assert w.log_a[k] == pytest.approx(math.log(val), abs=1e-10)


# ----------------------------
# count distribution
# ----------------------------


def test_dp_on_synthetic_fair_coins():
    log_half = np.full(3, math.log(0.5))
    F = _poisson_binomial_dp(log_half, log_half)
    assert math.exp(F[3, 2]) == pytest.approx(3.0 / 8.0, rel=1e-14)
    assert math.exp(F[3, 0]) == pytest.approx(1.0 / 8.0, rel=1e-14)
    coins = BernoulliWeights(log_a=log_half, log_one_minus_a=log_half)
    for m, prob in enumerate([1.0, 3.0, 3.0, 1.0]):
        assert math.exp(_banded(coins, m).log_prob) == pytest.approx(prob / 8.0, rel=1e-14)


@pytest.mark.parametrize(
    "N, c, R",
    [
        (2, 0.5, 0.9),
        (7, 0.6, 0.8),
        (60, 0.9, 0.7),
        (300, 0.515, 0.7),  # x = 1.0103, near critical
        (900, 0.3, 0.9),
        (1500, 0.95, 0.3),
        (4000, 0.515, 0.7),
        (4000, 0.8, 0.55),
    ],
)
def test_banded_probability_matches_dense_dp(N, c, R):
    p = EnsembleParams(N=N, c=c, R=R)
    w = bernoulli_weights(p)
    F = _poisson_binomial_dp(w.log_a, w.log_one_minus_a)
    for m in sorted({p.N_c, max(0, p.N_c - 3), min(N, p.N_c + 3)}):
        band = _banded(w, m)
        assert abs(band.log_prob - F[N, m]) <= 1e-11 * max(1.0, abs(F[N, m]))
        assert 0.0 <= band.neglected <= 2.0**-60
    band = _count_band(p, p.N_c)
    assert band.log_prob == overcrowding_probability_exact(p)
    # a band, not the dense table
    assert N < 60 or band.log_F.shape[1] < N // 4
    np.testing.assert_array_equal(count_distribution(p).log_probs, F[N])


def test_band_widens_when_the_answer_is_below_its_guess(monkeypatch):
    # tilted for m - 30, the first band sits off the mass and the guess at the
    # answer is too high, so that pass cannot certify itself; the second pass
    # sets its cut from the first pass's answer
    p = EnsembleParams(N=300, c=0.5, R=0.75)
    w = bernoulli_weights(p)
    F = _poisson_binomial_dp(w.log_a, w.log_one_minus_a)
    passes = []
    forward, tilt = mixture._forward, mixture._tilt
    monkeypatch.setattr(mixture, "_forward", lambda *args: passes.append(1) or forward(*args))
    monkeypatch.setattr(mixture, "_tilt", lambda w, m: tilt(w, m - 30))
    band = _banded(w, p.N_c)
    assert len(passes) == 2
    assert band.neglected <= 2.0**-60
    assert abs(band.log_prob - F[p.N, p.N_c]) <= 1e-11 * abs(F[p.N, p.N_c])


def test_exact_probability_at_scale_stays_small():
    # the dense table would be 20001^2 doubles, 3.2 GB
    p = EnsembleParams(N=20_000, c=0.7, R=0.6)
    tracemalloc.start()
    try:
        exact = overcrowding_probability_exact(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(exact) and exact < 0.0
    assert peak < 64 * 2**20
    assert _count_band(p, p.N_c).neglected <= 2.0**-60


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "N, c, R",
    [
        (1, 1.0, 0.5),
        (30, 1.0, 1e-160),  # N R^2 is subnormal
        (200, 0.5, math.sqrt(0.5025)),  # x = 1.005
        (200, 0.5, math.sqrt(0.98)),
        (50, 1.0, math.sqrt(0.98)),
        (3000, 0.9, math.sqrt(0.1005)),  # x = 1.005
    ],
)
def test_edge_triples_raise_no_warnings(N, c, R):
    p = EnsembleParams(N=N, c=c, R=R)
    w = bernoulli_weights(p)
    assert np.all(np.isfinite(w.log_a)) and np.all(np.isfinite(w.log_one_minus_a))
    for m in {0, p.N_c, N}:
        assert math.isfinite(_banded(w, m).log_prob)
    assert math.isfinite(log_hole_factor_rescaled(p))
    sample_conditioned_indexset(p, p.N_c, np.random.default_rng(0))


def test_count_distribution_matches_enumeration():
    p = EnsembleParams(N=10, c=0.7, R=0.6)
    dist = count_distribution(p)
    ref = oracle_count_probs(p)
    assert np.all(np.isfinite(dist.log_probs))
    np.testing.assert_allclose(np.exp(dist.log_probs), ref, rtol=1e-12)


def test_count_distribution_normalizes():
    for p in [
        EnsembleParams(N=25, c=0.9, R=0.5),
        EnsembleParams(N=120, c=0.7, R=0.8),
        EnsembleParams(N=400, c=0.9, R=0.7),
    ]:
        total = np.logaddexp.reduce(count_distribution(p).log_probs)
        assert abs(total) < 1e-10


def test_count_distribution_mode_location():
    # the fraction outside tends to 1 - R^2
    p = EnsembleParams(N=100, c=0.9, R=0.6)
    mode = int(np.argmax(count_distribution(p).log_probs))
    assert abs(mode - (1.0 - p.R**2) * p.N) <= 3


# ----------------------------
# occupation/index encoding
# ----------------------------


def test_encoding_hand_examples():
    p = EnsembleParams(N=5, c=0.4, R=0.9)
    assert p.N_c == 2
    assert occupation_to_indexset(OccupationVector(n=(0, 0)), p).members == (3, 4)
    assert occupation_to_indexset(OccupationVector(n=(1, 0)), p).members == (2, 4)
    assert indexset_to_occupation(IndexSet(members=(2, 4), N=5), p).n == (1, 0)


def test_encoding_roundtrip_exhaustive_small():
    for N, c in [(6, 0.5), (8, 0.4), (8, 0.9)]:
        p = EnsembleParams(N=N, c=c, R=0.95)
        for members in itertools.combinations(range(N), p.N_c):
            J = IndexSet(members=members, N=N)
            n = indexset_to_occupation(J, p)
            assert occupation_to_indexset(n, p) == J


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_encoding_roundtrip_random(data):
    N = data.draw(st.integers(min_value=2, max_value=60))
    N_c = data.draw(st.integers(min_value=1, max_value=N))
    c = N_c / N
    p = EnsembleParams(N=N, c=c, R=0.999)
    assert p.N_c == N_c
    entries = data.draw(
        st.lists(st.integers(min_value=0, max_value=N - N_c), min_size=N_c, max_size=N_c)
    )
    n = OccupationVector(n=tuple(sorted(entries, reverse=True)))
    assert indexset_to_occupation(occupation_to_indexset(n, p), p) == n


def test_encoding_validation():
    p = EnsembleParams(N=5, c=0.4, R=0.9)
    with pytest.raises(ConstraintViolation):
        OccupationVector(n=(0, 1))  # increasing
    with pytest.raises(ConstraintViolation):
        OccupationVector(n=(-1, -1))
    with pytest.raises(ConstraintViolation):
        occupation_to_indexset(OccupationVector(n=(4, 0)), p)  # n_1 > N - N_c
    with pytest.raises(ConstraintViolation):
        occupation_to_indexset(OccupationVector(n=(1,)), p)  # wrong length
    with pytest.raises(ConstraintViolation):
        indexset_to_occupation(IndexSet(members=(0, 1, 2), N=5), p)  # wrong size
    with pytest.raises(ConstraintViolation):
        IndexSet(members=(1, 1), N=5)
    with pytest.raises(ConstraintViolation):
        IndexSet(members=(0, 7), N=5)


# ----------------------------
# probability ratios
# ----------------------------


def test_ratio_exact_zero_vector():
    p = EnsembleParams(N=20, c=0.5, R=0.9)
    assert log_ratio_exact(OccupationVector(n=(0,) * p.N_c), p) == 0.0


def test_ratio_exact_against_enumeration():
    p = EnsembleParams(N=12, c=0.5, R=0.8)
    a = oracle_weights(p)
    base = occupation_to_indexset(OccupationVector(n=(0,) * p.N_c), p)
    p0 = oracle_subset_prob(base.members, a)
    for nvec in [(1, 0, 0, 0, 0, 0), (2, 1, 1, 0, 0, 0), (6, 6, 5, 3, 1, 1), (6, 6, 6, 6, 6, 6)]:
        n = OccupationVector(n=nvec)
        J = occupation_to_indexset(n, p)
        ref = math.log(oracle_subset_prob(J.members, a) / p0)
        assert log_ratio_exact(n, p) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_ratio_exact_decreasing_in_each_entry():
    p = EnsembleParams(N=30, c=0.5, R=0.8)
    # raising any single displacement strictly lowers the probability
    for base in [(0,) * 15, (3, 2, 1) + (0,) * 12]:
        val = log_ratio_exact(OccupationVector(n=base), p)
        for j in range(3):
            bumped = list(base)
            bumped[j] += 1
            bumped = tuple(sorted(bumped, reverse=True))
            assert log_ratio_exact(OccupationVector(n=bumped), p) < val


def test_ratio_approx_closed_form():
    p = EnsembleParams(N=100, c=0.9, R=0.7)
    assert log_ratio_approx(OccupationVector(n=(0,) * p.N_c), p) == 0.0
    n = OccupationVector(n=(2, 1) + (0,) * (p.N_c - 2))
    assert log_ratio_approx(n, p) == pytest.approx(-3.0 * math.log(4.9), rel=1e-14)


def test_ratio_approx_tracks_exact_at_large_n():
    # relative scale of the discrepancy is log^3(N)/N; at N = 400 the measured
    # gaps (6e-3 for total 1, 0.27 for total 9) sit far inside that envelope
    p = EnsembleParams(N=400, c=0.9, R=0.7)
    envelope = math.log(p.N) ** 3 / p.N
    for nvec in [(1,), (2, 1), (5, 3, 1)]:
        n = OccupationVector(n=nvec + (0,) * (p.N_c - len(nvec)))
        gap = abs(log_ratio_exact(n, p) - log_ratio_approx(n, p))
        assert gap < envelope * max(1, sum(nvec)) / 2


def test_ratio_approx_fully_suppressed_at_c_1():
    p = EnsembleParams(N=20, c=1.0, R=0.7)
    assert log_ratio_approx(OccupationVector(n=(0,) * 20), p) == 0.0
    assert log_ratio_approx(OccupationVector(n=(1,) + (0,) * 19), p) == -math.inf


# ----------------------------
# conditional sampling
# ----------------------------


def test_sampler_degenerate_sizes():
    p = EnsembleParams(N=7, c=0.5, R=0.9)
    rng = np.random.default_rng(1)
    assert sample_conditioned_indexset(p, 7, rng).members == tuple(range(7))
    assert sample_conditioned_indexset(p, 0, rng).members == ()
    with pytest.raises(ConstraintViolation):
        sample_conditioned_indexset(p, 8, rng)
    with pytest.raises(ConstraintViolation):
        sample_conditioned_indexset(p, -1, rng)


def test_sampler_exact_distribution_chisquare():
    # all 20 subsets of size 3 out of 6, against the enumerated conditional law
    p = EnsembleParams(N=6, c=0.5, R=0.8)
    a = oracle_weights(p)
    subsets = list(itertools.combinations(range(6), 3))
    probs = np.array([oracle_subset_prob(s, a) for s in subsets])
    probs /= probs.sum()
    index = {s: i for i, s in enumerate(subsets)}
    rng = np.random.default_rng(20240817)
    draws = 1_000_000
    counts = np.zeros(len(subsets))
    for _ in range(draws):
        counts[index[sample_conditioned_indexset(p, 3, rng).members]] += 1
    stat, pvalue = chisquare(counts, probs * draws)
    assert pvalue > 0.001, (stat, pvalue)


def test_sampler_off_target_size_chisquare():
    # m = 2 of 7 is not N_c = 5: the walk follows its own band
    p = EnsembleParams(N=7, c=0.75, R=0.8)
    m = 2
    a = oracle_weights(p)
    subsets = list(itertools.combinations(range(7), m))
    probs = np.array([oracle_subset_prob(s, a) for s in subsets])
    probs /= probs.sum()
    index = {s: i for i, s in enumerate(subsets)}
    rng = np.random.default_rng(20261018)
    draws = 200_000
    counts = np.zeros(len(subsets))
    for _ in range(draws):
        counts[index[sample_conditioned_indexset(p, m, rng).members]] += 1
    stat, pvalue = chisquare(counts, probs * draws)
    assert pvalue > 0.001, (stat, pvalue)


def test_sampler_marginals_within_mc_error():
    # inclusion probabilities against enumeration, four standard errors
    p = EnsembleParams(N=8, c=0.5, R=0.75)
    m = p.N_c
    a = oracle_weights(p)
    subsets = list(itertools.combinations(range(8), m))
    probs = np.array([oracle_subset_prob(s, a) for s in subsets])
    probs /= probs.sum()
    marginal = np.zeros(8)
    for s, q in zip(subsets, probs):
        for k in s:
            marginal[k] += q
    rng = np.random.default_rng(7)
    draws = 200_000
    hits = np.zeros(8)
    for _ in range(draws):
        for k in sample_conditioned_indexset(p, m, rng).members:
            hits[k] += 1
    freq = hits / draws
    se = np.sqrt(marginal * (1.0 - marginal) / draws)
    assert np.all(np.abs(freq - marginal) < 4.0 * se + 1e-12)


# ----------------------------
# overcrowding probability
# ----------------------------


def test_exact_probability_matches_enumeration():
    p = EnsembleParams(N=10, c=0.5, R=0.8)
    ref = oracle_count_probs(p)[p.N_c]
    assert overcrowding_probability_exact(p) == pytest.approx(math.log(ref), rel=1e-12)


def test_exact_probability_monotone_in_radius():
    # pushing the wall outwards makes the overcrowding event rarer
    vals = [
        overcrowding_probability_exact(EnsembleParams(N=40, c=0.6, R=r))
        for r in [0.65, 0.7, 0.75, 0.8, 0.85, 0.9]
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_exact_equals_asymptotic_when_all_points_conditioned():
    # at c = 1 only one subset survives and the partition series is 1, so the
    # two routes must coincide up to DP roundoff; the two hole-product
    # conventions also coincide because N_c = N
    p = EnsembleParams(N=30, c=1.0, R=0.5)
    exact = overcrowding_probability_exact(p)
    asym = overcrowding_probability_asymptotic(p)
    w = bernoulli_weights(p)
    assert exact == pytest.approx(float(np.sum(w.log_a)), abs=1e-10)
    assert asym == pytest.approx(float(np.sum(w.log_a)), abs=1e-10)
    assert log_hole_factor_rescaled(p) == pytest.approx(log_hole_factor(p), abs=1e-12)


def test_asymptotic_brackets_exact_at_moderate_size():
    p = EnsembleParams(N=50, c=0.9, R=0.7)
    exact = overcrowding_probability_exact(p)
    asym = overcrowding_probability_asymptotic(p)
    assert abs(exact - asym) < 0.5


def test_asymptotic_ratio_improves_with_size():
    gaps = []
    for N in [100, 200, 400]:
        p = EnsembleParams(N=N, c=0.9, R=0.7)
        gaps.append(abs(overcrowding_probability_exact(p) - overcrowding_probability_asymptotic(p)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_hole_factor_is_top_block_weight_sum():
    p = EnsembleParams(N=25, c=0.6, R=0.8)
    w = bernoulli_weights(p)
    expected = float(np.sum(w.log_a[p.N - p.N_c :]))
    assert log_hole_factor(p) == pytest.approx(expected, rel=1e-13)
    # the rescaled convention is a different number at c < 1
    assert log_hole_factor_rescaled(p) != pytest.approx(log_hole_factor(p), abs=0.1)
