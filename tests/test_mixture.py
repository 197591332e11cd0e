"""Tests for the mixture representation.

Primary oracle: brute-force enumeration over all 2^N subsets of the Bernoulli
field law, with weights computed by scipy.special.gammaincc (a code path the
package does not use).  Everything the module computes by DFT, telescoping or
encoding tricks is compared against that enumeration on small instances.
At larger N the oracles are the dense (N+1)^2 Poisson-binomial DP below and
the scalar gamma routes ``log_q_integer`` and ``log_gamma_lower``.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.stats import chisquare

from ginibre_overcrowding import mixture
from ginibre_overcrowding.gamma import _STIRLING_COEFFS, _STIRLING_MIN_X, log_gamma_lower, log_poisson_pmf, log_q_integer
from ginibre_overcrowding.mixture import (
    BernoulliWeights,
    ConstraintViolation,
    EnsembleParams,
    IndexSet,
    bernoulli_weights,
    log_hole_factor,
    log_hole_factor_rescaled,
    log_ratio_approx,
    log_ratio_exact,
    overcrowding_probability_asymptotic,
    overcrowding_probability_exact,
    sample_conditioned_indexset,
    top_block,
)
from ginibre_overcrowding.mixture import (
    _ALIASED,
    _FOLD,
    _FOLD_LOG_ODDS,
    _CHUNK,
    _bennett,
    _log_count_prob,
    _log_poisson_pmfs,
    _log_poisson_tails,
    _phi_near_one,
    _tail_length,
    _tilt,
    log_factorials,
)
from ginibre_overcrowding.validation import enumerate_count_log_probs


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


def dft_count_log_probs(params: EnsembleParams) -> np.ndarray:
    """log P(#J = m) for m = 0, ..., N, each by its own tilted DFT."""
    w = bernoulli_weights(params)
    return np.array([_log_count_prob(w, m)[0] for m in range(params.N + 1)])


class FullTilt(NamedTuple):
    theta: float
    p: np.ndarray
    var: float
    log_k: float


def full_tilt(w: BernoulliWeights, m: int) -> "FullTilt | None":
    """The tilt with every step over all N factors: the oracle of the windowed ``_tilt``."""
    log_odds = w.log_a - w.log_one_minus_a
    N = len(log_odds)
    if m in (0, N):
        return None
    lower, upper = -float(log_odds.max()) - 40.0, -float(log_odds.min()) + 40.0
    theta = -0.5 * float(log_odds[N - m - 1] + log_odds[N - m])
    for _ in range(200):
        s = log_odds + theta
        log_norm = np.logaddexp(0.0, s)
        p = np.exp(s - log_norm)
        var = np.exp(s - 2.0 * log_norm)
        excess = float(p.sum()) - m
        if abs(excess) < 1e-9 or upper - lower < 1e-12 * max(1.0, abs(theta)):
            break
        if excess > 0.0:
            upper = theta
        else:
            lower = theta
        theta -= excess / max(float(var.sum()), 1e-300)
        if not lower < theta < upper:
            theta = 0.5 * (lower + upper)
    top = N - m
    log_k = float(
        np.sum(np.logaddexp(w.log_one_minus_a[:top], w.log_a[:top] + theta))
        + np.sum(np.logaddexp(w.log_one_minus_a[top:] - theta, w.log_a[top:]))
    )
    return FullTilt(theta=theta, p=p, var=float(var.sum()), log_k=log_k)


def full_char_product(r: np.ndarray, e1: np.ndarray) -> np.ndarray:
    out = np.ones_like(e1)
    for start in range(0, r.size, _CHUNK):
        out *= np.prod(1.0 + r[start : start + _CHUNK, None] * e1, axis=0)
    return out


def full_log_count_prob(w: BernoulliWeights, m: int, tilt: "FullTilt | None") -> tuple[float, float, int]:
    """The tilted DFT with its masks over all N factors: the oracle of the windowed ``_log_count_prob``."""
    N = len(w.log_a)
    if tilt is None:
        return float(np.sum(w.log_a if m else w.log_one_minus_a)), 0.0, 1
    excess = abs(float(tilt.p.sum()) - m)
    reach = max(m, N - m)

    def aliased(L: int) -> float:
        if L > reach:
            return 0.0
        return 2.0 * math.exp(-_bennett(L - excess, tilt.var + 1e-300))

    floor = 1.0 / math.sqrt(1.0 + 12.0 * tilt.var)
    size = 2
    while aliased(size) > _ALIASED * floor:
        size *= 2
    s = w.log_a - w.log_one_minus_a + tilt.theta
    r = np.exp(-np.logaddexp(0.0, np.abs(s)))
    low, high = r[s <= 0.0], r[s > 0.0]
    tiny_low, tiny_high = low[low < _FOLD], high[high < _FOLD]
    j = np.arange(size // 2 + 1)
    omega = 2.0 * math.pi * j / size
    e1 = -2.0 * np.sin(0.5 * omega) ** 2 + 1j * np.sin(omega)
    shift = (high.size - m) % size
    phi = np.exp(
        2j * math.pi * (j * shift % size) / size
        + e1 * float(tiny_low.sum())
        + e1.conj() * float(tiny_high.sum())
    )
    phi *= full_char_product(low[low >= _FOLD], e1) * full_char_product(high[high >= _FOLD], e1).conj()
    weights = np.full(j.size, 2.0)
    weights[[0, -1]] = 1.0
    p_m = float(weights @ phi.real) / size
    folded = float(tiny_low @ tiny_low + tiny_high @ tiny_high)
    fold = math.expm1(2.0 * folded / (1.0 - 2.0 * _FOLD))
    return tilt.log_k + math.log(p_m), (aliased(size) + fold) / p_m, size


def assert_windowed_matches_full(w: BernoulliWeights, ms) -> None:
    """The windowed tilt and DFT against the full-array ones: log P(#J = m) to 2e-15 mixed error, the same L."""
    for m in ms:
        got, certificate, L = _log_count_prob(w, m)
        want, _, full_L = full_log_count_prob(w, m, full_tilt(w, m))
        assert mixed_err(got, want) <= 2e-15, (m, got, want)
        assert L == full_L and 0.0 <= certificate <= 2.0**-60, (m, L, full_L, certificate)


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


@pytest.mark.parametrize(
    "N, c, R", [(4000, 0.95, math.sqrt(0.98)), (300, 0.2, math.sqrt(0.98)), (1, 1.0, 0.6), (1, 1.0, 0.99)]
)
def test_weights_are_the_first_n_entries_of_the_one_tail_pass(N, c, R):
    # the pass runs T entries past N for the inner radial law; its first N
    # entries are bit for bit the N-entry pass
    p = EnsembleParams(N=N, c=c, R=R)
    w = bernoulli_weights(p)
    log_a, log_one_minus_a = _log_poisson_tails(p.N, p.z)
    assert np.array_equal(w.log_a, log_a)
    assert np.array_equal(w.log_one_minus_a, log_one_minus_a)
    assert w.log_survival.size == N + _tail_length(N, p.z)
    assert np.array_equal(w.log_survival[:N], w.log_one_minus_a)
    assert np.all(np.diff(w.log_survival) <= 0)
    for table in (w.log_a, w.log_one_minus_a, w.log_survival):
        assert not table.flags.writeable


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


def _rescaled_triples(count: int, seed: int) -> list[EnsembleParams]:
    """Seeded valid triples: N log-uniform in [1, 2·10^5], c up to 1 (one in seven exactly 1), and R^2 either
    uniform over (1 - c, 1 - 10^-7] or within 10^-7 to c of 1, log-uniformly."""
    rng = np.random.default_rng(seed)
    triples: list[EnsembleParams] = []
    while len(triples) < count:
        N = int(round(math.exp(rng.uniform(0.0, math.log(2e5)))))
        c = 1.0 if rng.random() < 1 / 7 else rng.uniform(1.0 / N, 1.0)
        if rng.random() < 0.5:
            R2 = rng.uniform(1.0 - c, 1.0 - 1e-7)
        else:
            R2 = 1.0 - math.exp(rng.uniform(math.log(1e-7), math.log(c)))
        try:
            triples.append(EnsembleParams(N=N, c=c, R=math.sqrt(R2)))
        except ConstraintViolation:
            continue
    return triples


def test_rescaled_hole_factor_matches_the_table_sum():
    # the smaller tails over the pmf up to M against the sum of the N_c-point ensemble's cached table,
    # c = 1 with small R included: there most terms are within 10^-8 of 0, which a forward sum alone
    # gets only to its absolute rounding (2e-14 relative at N_c = 1154, R = 0.12)
    triples = _rescaled_triples(240, seed=2025)
    assert min(p.N_c for p in triples) == 1 and max(p.N_c for p in triples) > 10**5
    assert max(p.R for p in triples) ** 2 > 1.0 - 2e-7 and any(p.N_c > 1000 and p.R < 0.3 for p in triples)
    try:
        for p in triples:
            ref = float(np.sum(bernoulli_weights(EnsembleParams(N=p.N_c, c=1.0, R=p.R)).log_a))
            assert abs(log_hole_factor_rescaled(p) - ref) <= 2e-15 * abs(ref), p
    finally:
        bernoulli_weights.cache_clear()


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


def test_tail_table_cap_admits_its_own_size(monkeypatch):
    p = EnsembleParams(N=300, c=0.7, R=0.99)
    bernoulli_weights.cache_clear()
    entries = p.N + _tail_length(p.N, p.z)
    monkeypatch.setattr(mixture, "_MAX_TAIL_ENTRIES", entries - 1)
    with pytest.raises(ValueError, match=f": {entries}, over the cap of {entries - 1}$"):
        bernoulli_weights(p)
    monkeypatch.setattr(mixture, "_MAX_TAIL_ENTRIES", entries)
    assert len(bernoulli_weights(p).log_survival) == entries


def _geometric_tail_length(n: int, z: float) -> int:
    """The looser cut: rho^(T+1)/(1-rho) <= 2^-64 with rho = z/(n+1), every ratio past n bounded by rho."""
    rho = z / (n + 1.0)
    return math.ceil((64.0 * math.log(2.0) - math.log1p(-rho)) / -math.log(rho))


_TAIL_CASES = [
    (30, 1e-18), (1, 0.36), (1, 1e-4), (1, 0.98), (7, 6.5), (40, 19.6), (300, 294.0), (1000, 360.0),
    (1000, 999.0), (4000, 3920.0), (20_000, 19_999.99), (100_000, 36_000.0),
]


@pytest.mark.parametrize("n, z", _TAIL_CASES)
def test_tail_length_is_the_tight_cut(n, z, monkeypatch):
    T = _tail_length(n, z)
    T_geo = _geometric_tail_length(n, z)
    assert 0 <= T <= T_geo
    # the omitted mass past n + T against a table twice as long as the geometric cut
    log_pmf = _log_poisson_pmfs(n + 2 * T_geo + 64, z)
    omitted = np.logaddexp.reduce(log_pmf[n + T + 1 :]) - log_pmf[n]
    assert omitted <= -64.0 * math.log(2.0)
    # T is the first t whose bound on that mass over pmf(n) reaches 2^-64
    def log_bound(t: int) -> float:
        i = np.arange(1.0, t + 2.0)
        return float(np.sum(np.log(z / (n + i))) - math.log1p(-z / (n + t + 2.0)))

    assert log_bound(T) <= -64.0 * math.log(2.0)
    assert T == 0 or log_bound(T - 1) > -64.0 * math.log(2.0)
    # the first-n tails are bit for bit those of the geometric cut
    tight = _log_poisson_tails(n, z)
    monkeypatch.setattr(mixture, "_tail_length", _geometric_tail_length)
    for new, old in zip(tight, _log_poisson_tails(n, z)):
        assert np.array_equal(new, old)


def test_tail_length_near_r_one():
    # N = 10^6 at R^2 = 1 - 10^-6: 28.7 million geometric terms, under 10^4 tight ones
    n, z = 1_000_000, 1_000_000 * (1.0 - 1e-6)
    assert _geometric_tail_length(n, z) == 28_741_892
    assert _tail_length(n, z) == 9_912


@pytest.mark.parametrize(
    "n, z",
    [(60, 1e-10), (60, 0.37), (60, 7.5), (60, 19.5), (60, 25.0), (400, 30.0), (400, 399.0), (3000, 1000.0),
     (5000, 4990.0), (2000, 1e4)],
)
def test_array_pmf_matches_scalar_reference(n, z):
    # every k < n: the direct formula below k = 20, Stirling's series past it, k near z and both far tails
    ref = [log_poisson_pmf(float(k), z) for k in range(n)]
    assert mixed_err(_log_poisson_pmfs(n, z), ref) <= 2e-15


def horner_log_poisson_pmfs(n: int, z: float) -> np.ndarray:
    """The pmf pass with phi(lam) = sum_{j>=2} (-u)^j / j by a degree-60 Horner in u = lam - 1 on
    |u| < 1/2, as it stood before the atanh series: the oracle of ``_log_poisson_pmfs``.  On that band
    u is taken as (z - k)/k, as the pass takes it, so the two differ only in the series."""
    k = np.arange(n, dtype=float)
    out = np.empty(n)
    small = min(n, int(_STIRLING_MIN_X))
    out[:small] = k[:small] * math.log(z) - z - log_factorials(small)
    if n > small:
        k = k[small:]
        lam = z / k
        u = lam - 1.0
        near = np.abs(u) < 0.5
        phi = np.empty_like(lam)
        un = (z - k[near]) / k[near]
        series = np.full_like(un, 1.0 / 60)
        for j in range(59, 1, -1):
            series *= -un
            series += 1.0 / j
        phi[near] = series * un * un
        far = ~near
        phi[far] = lam[far] - 1.0 - np.log(lam[far])
        inv2 = 1.0 / (k * k)
        tail = np.full_like(k, _STIRLING_COEFFS[-1])
        for coeff in _STIRLING_COEFFS[-2::-1]:
            tail *= inv2
            tail += coeff
        out[small:] = -k * phi - 0.5 * np.log(2.0 * math.pi * k) - tail / k
    return out


def running_sums(log_pmf: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """log P(X <= k) and log P(X > k) for k < n, each summed over the whole table."""
    lower = np.logaddexp.accumulate(log_pmf[:n])
    return lower, np.logaddexp.accumulate(log_pmf[:0:-1])[::-1][:n]


def where_log_poisson_tails(log_pmf: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tails as first written, both log1mexp branches taken at every k and the pair picked by
    ``np.where``: the oracle of the split in ``_log_poisson_tails``."""
    lower, upper = running_sums(log_pmf, n)
    lower_is_small = lower < upper
    small = np.where(lower_is_small, lower, upper)
    large = np.where(small > -math.log(2.0), np.log(-np.expm1(small)), np.log1p(-np.exp(small)))
    return np.where(lower_is_small, small, large), np.where(lower_is_small, large, small)


@pytest.mark.parametrize(
    "n, z",
    [(60, 25.0), (400, 399.0), (3000, 1000.0), (5000, 4990.0), (200_000, 1.5e5), (1_000_000, 3.6e5),
     (2_000_000, 2e6 * (1.0 - 1e-6))],
)
def test_atanh_pmf_matches_the_horner_pass(n, z):
    assert mixed_err(_log_poisson_pmfs(n, z), horner_log_poisson_pmfs(n, z)) <= 2e-15


def test_phi_series_against_mpmath():
    gen = np.random.default_rng(11)
    spread = np.exp(gen.uniform(math.log(1e-9), math.log(0.5), 2000)) * np.where(gen.random(2000) < 0.5, -1.0, 1.0)
    edges = [np.nextafter(-0.5, 0.0), np.nextafter(0.5, 0.0), -1e-9, 1e-9]
    u = np.concatenate([gen.uniform(-0.5, 0.5, 2000), spread, edges])
    assert np.all(np.abs(u) < 0.5)
    got = _phi_near_one(u)
    with mpmath.workdps(40):
        ref = np.array([float(x - mpmath.log1p(x)) for x in map(mpmath.mpf, u.tolist())])
    assert float(np.max(np.abs(got - ref) / ref)) <= 5e-16


@pytest.mark.parametrize("z", [3000.5, 1e6])
def test_pmf_near_the_mode_against_mpmath(z):
    # 301 k within 5,000 of z, by both routes: u = (z - k)/k rounds once, so k phi carries no
    # (z - k) 2^-53 error from rounding z/k first (2.8e-14 at z = 10^6 that way)
    ks = np.unique(np.linspace(max(0.0, z - 5000), z + 5000, 301).round().astype(int)).tolist()
    with mpmath.workdps(40):
        ref = [float(k * mpmath.log(z) - z - mpmath.loggamma(k + 1)) for k in ks]
    assert mixed_err(_log_poisson_pmfs(ks[-1] + 1, z)[ks], ref) <= 1e-15
    assert mixed_err([log_poisson_pmf(float(k), z) for k in ks], ref) <= 1e-15


@pytest.mark.parametrize(
    "n, z",
    [(1, 1e-4), (1, 0.36), (1, 1.9), (2, 1.5), (7, 6.5), (7, float(np.nextafter(8.0, 0.0))), (30, 1e-18), (40, 19.6),
     (40, 19.9), (1000, 360.0), (1000, 360.9), (1000, 999.0), (4000, 3920.0), (100_000, 36_000.0)],
)
def test_split_tails_match_the_where_tails(n, z):
    log_pmf = _log_poisson_pmfs(n + _tail_length(n, z) + 1, z)
    for got, want in zip(_log_poisson_tails(n, z), where_log_poisson_tails(log_pmf, n)):
        assert got.tobytes() == want.tobytes()


def test_split_tails_match_the_where_tails_at_a_median_tie(monkeypatch):
    # A pmf table of even length 2h that reads the same backwards gives the two running sums the same
    # terms in the same order up to k = h - 1, so they tie there bit for bit. The pass compares the
    # sums only within 3 of z, so (n, z) is searched for a table length n + T + 1 that puts k there.
    def palindrome(length: int, z: float) -> np.ndarray:
        half = _log_poisson_pmfs(length // 2, z)
        return np.concatenate((half, half[::-1]))

    def tie(n: int, z: float) -> "int | None":
        length = n + _tail_length(n, z) + 1
        k = length // 2 - 1
        return k if length % 2 == 0 and math.floor(z) - 2 <= k < min(n, math.floor(z) + 3) else None

    n, z = next((n, z) for n in range(20, 400) for z in n - np.arange(0.5, 8.0, 0.5) if tie(n, z) is not None)
    k = tie(n, z)
    log_pmf = palindrome(n + _tail_length(n, z) + 1, z)
    lower, upper = running_sums(log_pmf, n)
    assert lower[k] == upper[k]
    monkeypatch.setattr(mixture, "_log_poisson_pmfs", palindrome)
    for got, want in zip(_log_poisson_tails(n, z), where_log_poisson_tails(log_pmf, n)):
        assert got.tobytes() == want.tobytes()


def test_rescaled_hole_factor_reads_the_capped_table(monkeypatch):
    # the N_c-point ensemble at c = 1 owns the table, so its cap refuses the rescaled factor too
    p = EnsembleParams(N=300, c=0.5, R=0.9)
    small = EnsembleParams(N=p.N_c, c=1.0, R=p.R)
    assert log_hole_factor_rescaled(p) == log_hole_factor(small) == float(np.sum(bernoulli_weights(small).log_a))
    bernoulli_weights.cache_clear()
    entries = small.N + _tail_length(small.N, small.z)
    monkeypatch.setattr(mixture, "_MAX_TAIL_ENTRIES", entries - 1)
    with pytest.raises(ValueError, match=f": {entries}, over the cap of {entries - 1}$"):
        log_hole_factor_rescaled(p)


# ----------------------------
# count distribution
# ----------------------------


def test_dp_on_synthetic_fair_coins():
    log_half = np.full(3, math.log(0.5))
    F = _poisson_binomial_dp(log_half, log_half)
    assert math.exp(F[3, 2]) == pytest.approx(3.0 / 8.0, rel=1e-14)
    assert math.exp(F[3, 0]) == pytest.approx(1.0 / 8.0, rel=1e-14)
    coins = BernoulliWeights(log_a=log_half, log_one_minus_a=log_half, log_survival=log_half)
    for m, prob in enumerate([1.0, 3.0, 3.0, 1.0]):
        log_prob, certificate, _ = _log_count_prob(coins, m)
        assert math.exp(log_prob) == pytest.approx(prob / 8.0, rel=1e-14)
        assert certificate <= 2.0**-60
    assert_windowed_matches_full(coins, range(4))


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
    # the tilted DFT against the dense DP at every count m = 0, ..., N, and the windowed
    # tilt and DFT against their full-array oracles there
    p = EnsembleParams(N=N, c=c, R=R)
    w = bernoulli_weights(p)
    F = _poisson_binomial_dp(w.log_a, w.log_one_minus_a)
    for m in range(N + 1):
        log_prob, certificate, _ = _log_count_prob(w, m)
        assert abs(log_prob - F[N, m]) <= 1e-11 * max(1.0, abs(F[N, m]))
        assert 0.0 <= certificate <= 2.0**-60
    assert_windowed_matches_full(w, range(N + 1))
    assert _log_count_prob(w, p.N_c)[0] == overcrowding_probability_exact(p)


@pytest.mark.parametrize("N, c, R", [(300, 0.5, 0.75), (4000, 0.515, 0.7), (1500, 0.95, 0.3)])
def test_doubled_dft_size_agrees(N, c, R):
    # the aliasing that L leaves is below what doubling it can show
    p = EnsembleParams(N=N, c=c, R=R)
    w = bernoulli_weights(p)
    log_prob, _, L = _log_count_prob(w, p.N_c)
    assert L < N
    assert mixed_err(_log_count_prob(w, p.N_c, size=2 * L)[0], log_prob) <= 1e-13


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
    w = bernoulli_weights(p)
    assert _log_count_prob(w, p.N_c)[1] <= 2.0**-60


def test_windowed_count_law_at_a_million():
    # a few hundred live factors of 10^6; the full-array oracle takes about 0.1 s per count
    p = EnsembleParams(N=1_000_000, c=0.7, R=0.6)
    w = bernoulli_weights(p)
    tilt = _tilt(w, p.N_c)
    assert tilt.s.size < 2_000
    # every factor outside the window is within _FOLD of 0 or 1, and its first-order sums are min(p, 1 - p)'s;
    # the squares are those of the first-order terms e^(-|s|), which the certificate counts twice for the
    # up to 2 _FOLD by which they exceed the squares of min(p, 1 - p)
    s = w.log_a - w.log_one_minus_a + tilt.theta
    r = np.exp(-np.logaddexp(0.0, np.abs(s)))
    first = np.exp(-np.abs(s))
    outside = np.r_[: tilt.lo, tilt.lo + tilt.s.size : p.N]
    below, above = r[: tilt.lo], r[tilt.lo + tilt.s.size :]
    assert np.all(s[: tilt.lo] < -_FOLD_LOG_ODDS) and np.all(s[tilt.lo + tilt.s.size :] > _FOLD_LOG_ODDS)
    assert 0.0 < tilt.far[0] == pytest.approx(below.sum(), rel=1e-12, abs=0.0)
    assert 0.0 < tilt.far[1] == pytest.approx(above.sum(), rel=1e-12, abs=0.0)
    assert tilt.far_squares == pytest.approx(first[outside] @ first[outside], rel=1e-12, abs=0.0)
    assert_windowed_matches_full(w, [1, 1_000, 300_000, 359_000, p.N_c, 999_000, 999_999])


def test_window_is_the_first_order_rule_over_sweep_triples():
    # at the returned theta the tilt's window holds exactly the factors with |s| <= _FOLD_LOG_ODDS, the
    # ones every stage takes exactly, and the windowed count law matches the full-array oracle
    rng = np.random.default_rng(33)
    for i in range(200):
        N = int(round(200 * 20 ** rng.uniform()))  # log-uniform in [200, 4000]
        c = rng.uniform(0.2, 0.95)
        # one triple in five near x = 1, the others with x in [1.1, 4], R^2 below 0.98
        x_lo, x_hi = (1.005, 1.05) if i % 5 == 0 else (1.1, 4.0)
        x = rng.uniform(x_lo, min(x_hi, 0.98 / (1.0 - c)))
        p = EnsembleParams(N=N, c=c, R=math.sqrt(x * (1.0 - c)))
        w = bernoulli_weights(p)
        tilt = _tilt(w, p.N_c)
        s = w.log_a - w.log_one_minus_a + tilt.theta
        live = np.flatnonzero(np.abs(s) <= _FOLD_LOG_ODDS)
        assert live.size == tilt.s.size and np.array_equal(live, tilt.lo + np.arange(tilt.s.size)), p
        assert np.array_equal(tilt.s, s[live]), p
        assert_windowed_matches_full(w, [p.N_c])


def test_count_law_memory_at_a_million():
    # the tilt holds one array of N log odds, the DFT only the window: the full-array path peaked at 53 MiB
    p = EnsembleParams(N=1_000_000, c=0.7, R=0.6)
    w = bernoulli_weights(p)
    tracemalloc.start()
    try:
        log_prob, certificate, _ = _log_count_prob(w, p.N_c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(log_prob) and certificate <= 2.0**-60
    assert peak < 24 * 2**20


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
        log_prob, certificate, _ = _log_count_prob(w, m)
        assert math.isfinite(log_prob) and certificate <= 2.0**-60
    assert_windowed_matches_full(w, range(N + 1))
    assert math.isfinite(log_hole_factor_rescaled(p))
    sample_conditioned_indexset(p, p.N_c, np.random.default_rng(0))


def test_count_distribution_matches_enumeration():
    # the tilted DFT at every count, the untilted m = 0 and m = N included, against scipy's weights
    p = EnsembleParams(N=10, c=0.7, R=0.6)
    log_probs = dft_count_log_probs(p)
    ref = oracle_count_probs(p)
    assert np.all(np.isfinite(log_probs))
    np.testing.assert_allclose(np.exp(log_probs), ref, rtol=1e-12)
    np.testing.assert_allclose(np.exp(log_probs), np.exp(enumerate_count_log_probs(p)), rtol=1e-13)


def _bit_matrix_count_log_probs(params: EnsembleParams) -> np.ndarray:
    """log P(#J = m) from the (2^N, N) matrix of subset bits: the enumeration before doubling."""
    w = bernoulli_weights(params)
    N = params.N
    bits = ((np.arange(1 << N, dtype=np.uint32)[:, None] >> np.arange(N)[None, :]) & 1).astype(float)
    log_p = bits @ w.log_a + (1.0 - bits) @ w.log_one_minus_a
    sizes = bits.sum(axis=1).astype(int)
    shift = log_p.max()
    acc = np.zeros(N + 1)
    np.add.at(acc, sizes, np.exp(log_p - shift))
    with np.errstate(divide="ignore"):
        return np.log(acc) + shift


def _enumeration_triples():
    # x = R^2 / (1 - c) in {1.01, 1.5, 3} where R < 1; c = 1 at three radii;
    # c = 0.2 gives N_c = 1 for N = 5..9, and N = 1, c = 1 gives N_c = N = 1
    for N in range(1, 15):
        for c in (0.2, 0.5, 0.8):
            for x in (1.01, 1.5, 3.0):
                if math.floor(c * N) >= 1 and x * (1 - c) < 1:
                    yield EnsembleParams(N=N, c=c, R=math.sqrt(x * (1 - c)))
        for R in (0.3, 0.7, 0.95):
            yield EnsembleParams(N=N, c=1.0, R=R)


def test_doubling_enumeration_matches_bit_matrix():
    cases = list(_enumeration_triples())
    assert any(p.N_c == 1 and p.N > 1 for p in cases)
    for p in cases:
        got = enumerate_count_log_probs(p)
        want = _bit_matrix_count_log_probs(p)
        assert got.shape == (p.N + 1,)
        assert np.all(np.isfinite(want))
        assert np.all(np.abs(np.expm1(got - want)) <= 1e-13), p
    # at c = 1, R = 0.01, N = 14, P(#J = 0) is about e^-840 and underflows to
    # -inf on both sides; the other log-probabilities reach -722, where
    # rounding in a sum of 14 logs is about 1e-13 of the probability
    p = EnsembleParams(N=14, c=1.0, R=0.01)
    with np.errstate(divide="ignore"):
        got = enumerate_count_log_probs(p)
    want = _bit_matrix_count_log_probs(p)
    assert np.array_equal(np.isneginf(got), np.isneginf(want)) and np.isneginf(want[0])
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-15 * np.abs(want[finite]))


def test_doubling_enumeration_memory_at_n16():
    # a few length-2^16 arrays; the bit matrices held 17 MB at once
    p = EnsembleParams(N=16, c=0.5, R=0.8)
    bernoulli_weights(p)
    tracemalloc.start()
    try:
        log_probs = enumerate_count_log_probs(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    w = bernoulli_weights(p)
    F = _poisson_binomial_dp(w.log_a, w.log_one_minus_a)
    np.testing.assert_allclose(np.exp(log_probs), np.exp(F[p.N]), rtol=1e-12)


def test_count_distribution_normalizes():
    for p in [
        EnsembleParams(N=25, c=0.9, R=0.5),
        EnsembleParams(N=120, c=0.7, R=0.8),
        EnsembleParams(N=400, c=0.9, R=0.7),
    ]:
        total = np.logaddexp.reduce(dft_count_log_probs(p))
        assert abs(total) < 1e-10


def test_count_distribution_mode_location():
    # the fraction outside tends to 1 - R^2
    p = EnsembleParams(N=100, c=0.9, R=0.6)
    mode = int(np.argmax(dft_count_log_probs(p)))
    assert abs(mode - (1.0 - p.R**2) * p.N) <= 3


# ----------------------------
# index-set validation
# ----------------------------


def test_encoding_validation():
    p = EnsembleParams(N=5, c=0.4, R=0.9)
    for ratio in (log_ratio_exact, log_ratio_approx):
        with pytest.raises(ConstraintViolation, match=r"^index set must have size N_c=2, got 3$"):
            ratio(IndexSet(members=(0, 1, 2), N=5), p)
    # one fault each; (-1, 2) is increasing, so only the range check may name it
    for members, message in [
        ((1.5,), "must be integers"),
        ((0, 7), "must lie in"),
        ((-1, 2), "must lie in"),
        ((1, 1), "strictly increasing"),
    ]:
        with pytest.raises(ConstraintViolation, match=message):
            IndexSet(members=members, N=5)


# ----------------------------
# probability ratios
# ----------------------------


def displaced(params: EnsembleParams, shifts: tuple[int, ...]) -> IndexSet:
    """The top block with its k-th smallest member moved shifts[k] places down (nonincreasing shifts)."""
    base = params.N - params.N_c
    shifts = shifts + (0,) * (params.N_c - len(shifts))
    return IndexSet(members=tuple(base + k - n_k for k, n_k in enumerate(shifts)), N=params.N)


def test_ratio_exact_zero_vector():
    p = EnsembleParams(N=20, c=0.5, R=0.9)
    assert log_ratio_exact(top_block(p), p) == 0.0


def test_ratio_exact_against_enumeration():
    p = EnsembleParams(N=12, c=0.5, R=0.8)
    a = oracle_weights(p)
    p0 = oracle_subset_prob(top_block(p).members, a)
    for members in [(5, 7, 8, 9, 10, 11), (4, 6, 7, 9, 10, 11), (0, 1, 3, 6, 9, 10), (0, 1, 2, 3, 4, 5)]:
        J = IndexSet(members=members, N=p.N)
        ref = math.log(oracle_subset_prob(members, a) / p0)
        assert log_ratio_exact(J, p) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_ratio_exact_decreasing_in_each_entry():
    p = EnsembleParams(N=30, c=0.5, R=0.8)
    # moving any of the three smallest members one place down, into a free place, strictly lowers the probability
    for J in [top_block(p), displaced(p, (3, 2, 1))]:
        val = log_ratio_exact(J, p)
        members = list(J.members)
        for j in range(3):
            if j and members[j] - 1 == members[j - 1]:
                continue
            moved = members[:j] + [members[j] - 1] + members[j + 1 :]
            assert log_ratio_exact(IndexSet(members=tuple(moved), N=p.N), p) < val


def test_ratio_approx_closed_form():
    p = EnsembleParams(N=100, c=0.9, R=0.7)
    assert log_ratio_approx(top_block(p), p) == 0.0
    # |n| = sum J_0 - sum J = 3: the two smallest members moved down 2 and 1 places
    J = IndexSet(members=(8, 10) + tuple(range(12, 100)), N=p.N)
    assert log_ratio_approx(J, p) == pytest.approx(-3.0 * math.log(4.9), rel=1e-14)


def test_ratio_approx_tracks_exact_at_large_n():
    # relative scale of the discrepancy is log^3(N)/N; at N = 400 the measured
    # gaps (6e-3 for total 1, 0.27 for total 9) sit far inside that envelope
    p = EnsembleParams(N=400, c=0.9, R=0.7)
    envelope = math.log(p.N) ** 3 / p.N
    for shifts in [(1,), (2, 1), (5, 3, 1)]:
        J = displaced(p, shifts)
        gap = abs(log_ratio_exact(J, p) - log_ratio_approx(J, p))
        assert gap < envelope * max(1, sum(shifts)) / 2


def test_ratio_approx_fully_suppressed_at_c_1():
    # at c = 1 the only set of size N_c = N is J_0, so x = inf leaves 0 and no nan
    p = EnsembleParams(N=20, c=1.0, R=0.7)
    assert log_ratio_approx(top_block(p), p) == 0.0


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
    # m = 2 of 7 is not N_c = 5: the draws are tilted to their own mean
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


def test_hole_factor_sums_without_a_list():
    # a list of N_c Python floats would hold about 4 MB at this size
    p = EnsembleParams(N=200_000, c=0.7, R=0.6)
    bernoulli_weights(p)
    tracemalloc.start()
    try:
        hole = log_hole_factor(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(hole) and hole < 0.0
    assert peak < 2**20
