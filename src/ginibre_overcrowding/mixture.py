"""Mixture representation of the conditioned ensemble.

Conditioned on the number of eigenvalues outside the disk of radius R, the
ensemble is a mixture of projection processes indexed by subsets
J of {0, ..., N-1}.  The unconditioned law of J factorizes over independent
Bernoulli variables with success probabilities a_k = Q(k+1, N R^2), so
everything here reduces to log-space work on those weights:

* the law of #J is Poisson-binomial; P(#J = m) comes from a forward DP over
  the band of states that can carry it,
* conditional sampling of J given #J = m walks the same band backwards,
* subsets of size N_c are encoded by occupation vectors n, with
  n_k = N - N_c + k - x_k for the sorted members x_1 < ... < x_{N_c}
  (x = kernel index + 1), so the most likely set J_0 = {N-N_c, ..., N-1}
  is n = 0 and probability ratios against it telescope over k with n_k > 0.

Weights.  Q(k+1, z) = P(Poisson(z) <= k), so all N weights come from one
pass over the Poisson(z) pmf at z = N R^2.  The pmf is evaluated at every k
at once with the cancellation-free formula of ``gamma.log_poisson_pmf``; a
forward running log-sum-exp gives log a_k and a backward one gives
log(1 - a_k), the backward sum cut where a geometric bound puts the rest
below 2^-64 of it.  At each k the smaller of the two tails is kept and the
larger is log1mexp of it.  a_k underflows double precision for k well below
N R^2 and 1 - a_k for k well above it, so each is kept exact in relative
terms where it is small.

Band.  Write S_k = B_0 + ... + B_{k-1} and T_k = #J - S_k.  Paths through
the DP state (k, r) carry at most P(S_k = r) P(T_k = m - r) of
P(#J = m).  Tilting every Bernoulli by the theta at which E #J = m turns
that product into exp(K) times two tilted probabilities, with
K = log E exp(theta #J) - theta m, and Bennett's inequality bounds each by
the distance of r (or m - r) from its tilted mean.  The exponent is convex
in r, so the states it cannot rule out form one interval per layer; all
layers' edges are found at once by bisection, and the DP runs in an
(N+1, W) strip of log-probabilities with W of a few dozen.  A state is
dropped only when its bound is below 2^-60 P(#J = m) / (N (m+1)), with
P(#J = m) first guessed from the tilted variance; the run records the
resulting bound on the neglected share of P(#J = m), and if the answer
comes out below the guess, so that the bound exceeds 2^-60, the band is
rebuilt once from the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gamma import _STIRLING_COEFFS, _STIRLING_MIN_X
from .partitions import partition_series

__all__ = [
    "ConstraintViolation",
    "EnsembleParams",
    "IndexSet",
    "OccupationVector",
    "CountDistribution",
    "BernoulliWeights",
    "bernoulli_weights",
    "count_distribution",
    "occupation_to_indexset",
    "indexset_to_occupation",
    "log_ratio_exact",
    "log_ratio_approx",
    "sample_conditioned_indexset",
    "overcrowding_probability_exact",
    "overcrowding_probability_asymptotic",
    "log_hole_factor",
    "log_hole_factor_rescaled",
    "log_factorials",
    "top_block",
]


class ConstraintViolation(ValueError):
    """Raised when a parameter set, index set or occupation vector is invalid."""


@dataclass(frozen=True)
class EnsembleParams:
    """Size N, overcrowding fraction c and disk radius R.

    The overcrowding regime requires R^2 > 1 - c: the expected fraction of
    eigenvalues outside radius R is about 1 - R^2, so asking for a fraction
    c of them outside is a rare event exactly when c > 1 - R^2.
    """

    N: int
    c: float
    R: float

    def __post_init__(self) -> None:
        if self.N != int(self.N) or self.N < 1:
            raise ConstraintViolation(f"N must be a positive integer, got {self.N!r}")
        if not (0.0 < self.c <= 1.0):
            raise ConstraintViolation(f"c must lie in (0, 1], got {self.c!r}")
        if not (0.0 < self.R < 1.0):
            raise ConstraintViolation(f"R must lie in (0, 1), got {self.R!r}")
        if not self.R * self.R > 1.0 - self.c:
            raise ConstraintViolation(
                f"overcrowding regime needs R^2 > 1 - c, got R^2={self.R**2}, 1-c={1.0 - self.c}"
            )
        if self.N_c < 1:
            raise ConstraintViolation(
                f"floor(c N) must be at least 1, got c={self.c}, N={self.N}"
            )

    @property
    def N_c(self) -> int:
        # the small shift guards against c*N landing one ulp under an integer
        return int(math.floor(self.c * self.N + 1e-12))

    @property
    def z(self) -> float:
        """The incomplete-gamma argument N R^2 shared by every weight."""
        return self.N * self.R * self.R

    @property
    def x(self) -> float:
        """The partition-series argument R^2 / (1 - c), infinite at c = 1."""
        return math.inf if self.c == 1.0 else self.R * self.R / (1.0 - self.c)


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing member indices drawn from {0, ..., N-1}."""

    members: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        ms = self.members
        if any(m != int(m) for m in ms):
            raise ConstraintViolation(f"index set members must be integers, got {ms!r}")
        if any(not (0 <= m < self.N) for m in ms):
            raise ConstraintViolation(f"index set members must lie in [0, {self.N}), got {ms!r}")
        if any(a >= b for a, b in zip(ms, ms[1:])):
            raise ConstraintViolation(f"index set members must be strictly increasing, got {ms!r}")

    @property
    def size(self) -> int:
        return len(self.members)


def top_block(params: EnsembleParams) -> IndexSet:
    """The top block J_0 = {N - N_c, ..., N - 1}, the most likely index set."""
    return IndexSet(members=tuple(range(params.N - params.N_c, params.N)), N=params.N)


@dataclass(frozen=True)
class OccupationVector:
    """Nonincreasing nonnegative displacements (n_1, ..., n_{N_c}).

    Entry k measures how far the k-th smallest member of the set sits below
    its position in the top block J_0; n = 0 is J_0 itself.  The upper bound
    n_1 <= N - N_c depends on the ensemble and is checked where parameters
    are available.
    """

    n: tuple[int, ...]

    def __post_init__(self) -> None:
        v = self.n
        if any(x != int(x) for x in v):
            raise ConstraintViolation(f"occupation entries must be integers, got {v!r}")
        if any(x < 0 for x in v):
            raise ConstraintViolation(f"occupation entries must be >= 0, got {v!r}")
        if any(a < b for a, b in zip(v, v[1:])):
            raise ConstraintViolation(f"occupation entries must be nonincreasing, got {v!r}")

    @property
    def total(self) -> int:
        return sum(self.n)


@dataclass(frozen=True)
class BernoulliWeights:
    """log a_k and log(1 - a_k) for k = 0, ..., N-1, each from its own tail."""

    log_a: np.ndarray
    log_one_minus_a: np.ndarray


@dataclass(frozen=True)
class CountDistribution:
    """Log-probabilities of #J = m for m = 0, ..., N."""

    params: EnsembleParams
    log_probs: np.ndarray


@lru_cache(maxsize=256)
def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0, ..., n-1, read-only."""
    out = np.array([math.lgamma(k + 1.0) for k in range(n)])
    out.flags.writeable = False
    return out


# a dropped DP state may carry at most 2^-60 of P(#J = m), shared over all states
_LOG_NEGLECTED = -60.0 * math.log(2.0)
# the terms past this degree sum to less than 1e-18 of phi for |lam - 1| < 0.5
_PHI_DEGREE = 60


def _log_poisson_pmfs(n: int, z: float) -> np.ndarray:
    """``gamma.log_poisson_pmf(k, z)`` for k = 0, ..., n-1 in one pass, for z > 0."""
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
        # phi(lam) = lam - 1 - log(lam) = sum_{j>=2} (-u)^j / j by Horner near lam = 1
        un = u[near]
        series = np.full_like(un, 1.0 / _PHI_DEGREE)
        for j in range(_PHI_DEGREE - 1, 1, -1):
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


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - e^x) elementwise for x < 0, as ``gamma.log1mexp``."""
    return np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))


def _log_poisson_tails(n: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(log Q(k+1, z), log P(k+1, z)) for k = 0, ..., n-1, with 0 < z < n + 1.

    Q(k+1, z) = P(X <= k) and P(k+1, z) = P(X > k) for X ~ Poisson(z).  Past
    X = n every pmf ratio z/(j+1) is at most rho = z/(n+1), so stopping the
    upper sum T terms after n, with rho^(T+1)/(1-rho) <= 2^-64, leaves out
    less than 2^-64 of every upper tail.
    """
    rho = z / (n + 1.0)
    T = math.ceil((64.0 * math.log(2.0) - math.log1p(-rho)) / -math.log(rho))
    log_pmf = _log_poisson_pmfs(n + T + 1, z)
    lower = np.logaddexp.accumulate(log_pmf[:n])
    upper = np.logaddexp.accumulate(log_pmf[:0:-1])[::-1][:n]
    lower_is_small = lower < upper
    small = np.where(lower_is_small, lower, upper)
    large = _log1mexp(small)
    return np.where(lower_is_small, small, large), np.where(lower_is_small, large, small)


@lru_cache(maxsize=64)
def bernoulli_weights(params: EnsembleParams) -> BernoulliWeights:
    log_a, log_one_minus_a = _log_poisson_tails(params.N, params.z)
    log_a.flags.writeable = False
    log_one_minus_a.flags.writeable = False
    return BernoulliWeights(log_a=log_a, log_one_minus_a=log_one_minus_a)


def _forward(w: BernoulliWeights, lo: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The Poisson-binomial DP over the band lo[k] <= r < lo[k] + W of each layer k.

    ``rows`` has W + 2 columns: column c holds
    log P(B_0 + ... + B_{k-1} = lo[k] - 1 + c), and columns 0 and W + 1 stay
    -inf.  Layer k goes to rows[k % len(rows)], so two rows make a rolling
    pass and N + 1 rows keep the whole band.  lo starts at 0 and grows by 0
    or 1 per layer.  Returns the last layer.
    """
    n, W = rows.shape[0], rows.shape[1] - 2
    rows[:] = -np.inf
    rows[0, 1] = 0.0
    stay = np.empty(W)
    move = np.empty(W)
    prev = rows[0]
    steps = zip(np.diff(lo).tolist(), w.log_a.tolist(), w.log_one_minus_a.tolist())
    for k, (d, log_a, log_b) in enumerate(steps, start=1):
        row = rows[k % n]
        np.add(prev[1 + d : 1 + d + W], log_b, out=stay)
        np.add(prev[d : d + W], log_a, out=move)
        np.logaddexp(stay, move, out=row[1 : W + 1])
        prev = row
    return prev


def count_distribution(params: EnsembleParams) -> CountDistribution:
    """Poisson-binomial distribution of the number of points outside radius R."""
    N = params.N
    last = _forward(bernoulli_weights(params), np.zeros(N + 1, dtype=np.int64), np.empty((2, N + 3)))
    log_probs = last[1 : N + 2].copy()
    log_probs.flags.writeable = False
    return CountDistribution(params=params, log_probs=log_probs)


@dataclass(frozen=True)
class CountBand:
    """The DP states that can carry P(#J = m), as laid out by ``_forward``.

    Row k of ``log_F`` holds log P(B_0 + ... + B_{k-1} = lo[k] - 1 + c) in
    column c; every other state is either unreachable from the band or
    dropped.  ``neglected`` bounds the mass of P(#J = m) carried by the
    dropped states, relative to P(#J = m); it is at most 2^-60.
    """

    m: int
    lo: np.ndarray
    log_F: np.ndarray
    neglected: float

    @property
    def log_prob(self) -> float:
        return float(self.log_F[-1, self.m - self.lo[-1] + 1])


def _bennett(t: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Bennett's exponent: P(X - E X >= t) and P(X - E X <= -t) are at most
    exp(-this) for X a sum of independent Bernoullis of total variance var > 0."""
    t = np.abs(t)
    return (var + t) * np.log1p(t / var) - t


def _tilt(w: BernoulliWeights, m: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(theta, p, p (1 - p)) with sum p = m for p_k = a_k e^theta / (1 - a_k + a_k e^theta).

    Safeguarded Newton in theta, for 0 < m < N.
    """
    log_odds = w.log_a - w.log_one_minus_a
    N = len(log_odds)
    # every p_k is below e^-40 at the lower end and above 1 - e^-40 at the upper one
    lower, upper = -float(log_odds.max()) - 40.0, -float(log_odds.min()) + 40.0
    # start with the top block half in, half out
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
    return theta, p, var


def _band_edges(mean, var, mean_rest, var_rest, m: int, win_lo, win_hi, drop: float):
    """First and last r of each layer whose Bennett exponents sum to at most ``drop``.

    The sum is convex in r and near 0 at the rounded tilted mean, so each
    side of that centre is one bisection, done for all layers at once.  A
    layer whose centre is cut keeps its whole window.
    """

    def kept(r):
        return _bennett(r - mean, var) + _bennett(m - r - mean_rest, var_rest) <= drop

    centre = np.clip(np.rint(mean).astype(np.int64), win_lo, win_hi)
    whole = ~kept(centre)
    a, b = win_lo.copy(), centre.copy()
    while np.any(a < b):
        mid = (a + b) // 2
        ok = kept(mid)
        b = np.where(ok, mid, b)
        a = np.where(ok, a, mid + 1)
    lo = a
    a, b = centre.copy(), win_hi.copy()
    while np.any(a < b):
        mid = (a + b + 1) // 2
        ok = kept(mid)
        a = np.where(ok, mid, a)
        b = np.where(ok, b, mid - 1)
    return np.where(whole, win_lo, lo), np.where(whole, win_hi, a)


def _banded(w: BernoulliWeights, m: int) -> CountBand:
    """The certified band for P(#J = m): its states, their log-probabilities and the bound."""
    N = len(w.log_a)
    k = np.arange(N + 1)
    win_lo = np.maximum(0, m - N + k)
    win_hi = np.minimum(k, m)
    if m in (0, N):
        # one reachable path: the window is the band
        rows = np.empty((N + 1, 3))
        _forward(w, win_lo, rows)
        return CountBand(m=m, lo=win_lo, log_F=rows, neglected=0.0)
    theta, p, var = _tilt(w, m)
    log_k = float(np.logaddexp(w.log_one_minus_a, w.log_a + theta).sum()) - theta * m
    # prefix and suffix tilted means and variances; the floor covers underflowed terms
    mean = np.concatenate(([0.0], np.cumsum(p)))
    var_pre = np.concatenate(([0.0], np.cumsum(var))) + 1e-300
    mean_rest = np.concatenate((np.cumsum(p[::-1])[::-1], [0.0]))
    var_rest = np.concatenate((np.cumsum(var[::-1])[::-1], [0.0])) + 1e-300
    # the states a dropped one is shared with, and one nat for rounding in the bounds
    margin = -_LOG_NEGLECTED + math.log(N * (m + 1.0)) + 1.0
    # the tilted law of #J has mean m, so its mode m has probability at least
    # 1 / sqrt(1 + 12 var): a guess at the answer, checked below
    drop = 0.5 * math.log1p(12.0 * float(var_pre[-1])) + margin
    n_window = int((win_hi - win_lo + 1).sum())
    for _ in range(2):
        lo, hi = _band_edges(mean, var_pre, mean_rest, var_rest, m, win_lo, win_hi, drop)
        # the DP needs lo to grow by 0 or 1 per layer: lower it where it does not
        lo = np.minimum.accumulate(lo[::-1])[::-1]
        lo = k + np.minimum.accumulate(lo - k)
        W = int((hi - lo).max()) + 1
        rows = np.empty((N + 1, W + 2))
        log_prob = float(_forward(w, lo, rows)[m - lo[N] + 1])
        kept = np.minimum(lo + W - 1, win_hi) - np.maximum(lo, win_lo) + 1
        n_dropped = n_window - int(np.maximum(kept, 0).sum())
        log_neglected = log_k - drop + math.log(n_dropped) - log_prob if n_dropped else -math.inf
        if log_neglected <= _LOG_NEGLECTED:
            return CountBand(m=m, lo=lo, log_F=rows, neglected=math.exp(log_neglected))
        # the answer came out below the guess: the band it gives is wider
        drop = log_k - log_prob + margin
    raise FloatingPointError(f"could not certify the DP band for m={m}, N={N}")


@lru_cache(maxsize=8)
def _count_band(params: EnsembleParams, m: int) -> CountBand:
    band = _banded(bernoulli_weights(params), m)
    band.log_F.flags.writeable = False
    return band


def _validate_occupation(n: OccupationVector, params: EnsembleParams) -> None:
    if len(n.n) != params.N_c:
        raise ConstraintViolation(
            f"occupation vector must have length N_c={params.N_c}, got {len(n.n)}"
        )
    if n.n and n.n[0] > params.N - params.N_c:
        raise ConstraintViolation(
            f"occupation entries must be <= N - N_c = {params.N - params.N_c}, got {n.n[0]}"
        )


def occupation_to_indexset(n: OccupationVector, params: EnsembleParams) -> IndexSet:
    """Decode n to its index set via x_k = N - N_c + k - n_k, members = x - 1."""
    _validate_occupation(n, params)
    base = params.N - params.N_c
    members = tuple(base + (k + 1) - n_k - 1 for k, n_k in enumerate(n.n))
    return IndexSet(members=members, N=params.N)


def indexset_to_occupation(J: IndexSet, params: EnsembleParams) -> OccupationVector:
    """Inverse encoding; requires |J| = N_c."""
    if J.N != params.N:
        raise ConstraintViolation(f"index set is over {{0..{J.N - 1}}}, params have N={params.N}")
    if J.size != params.N_c:
        raise ConstraintViolation(f"index set must have size N_c={params.N_c}, got {J.size}")
    base = params.N - params.N_c
    n = tuple(base + (k + 1) - (m + 1) for k, m in enumerate(J.members))
    return OccupationVector(n=n)


def log_ratio_exact(n: OccupationVector, params: EnsembleParams) -> float:
    """log(P_n / P_0), telescoped over the displaced positions.

    Each k with n_k > 0 moves one member from shape N - N_c + k down to
    shape N - N_c + k - n_k, contributing the log-ratio of the two upper
    tails plus the log-ratio of the two complementary lower tails.  Entries
    with n_k = 0 contribute exactly nothing.  Shape s is the cached weight
    of index s - 1.
    """
    _validate_occupation(n, params)
    w = bernoulli_weights(params)
    base = params.N - params.N_c
    total = 0.0
    for k, n_k in enumerate(n.n, start=1):
        if n_k == 0:
            continue
        hi = base + k - 1
        lo = hi - n_k
        total += w.log_a[lo] - w.log_a[hi]
        total += w.log_one_minus_a[hi] - w.log_one_minus_a[lo]
    return float(total)


def log_ratio_approx(n: OccupationVector, params: EnsembleParams) -> float:
    """Leading-order log(P_n / P_0) = -log(R^2 / (1-c)) * sum_j n_j."""
    total = n.total
    if total == 0:
        return 0.0
    return -math.log(params.x) * total


def sample_conditioned_indexset(
    params: EnsembleParams, m: int, rng: np.random.Generator
) -> IndexSet:
    """Draw J exactly from the law of the Bernoulli field conditioned on #J = m.

    Walks k = N-1, ..., 0 through the certified band of the DP for m: with r
    members still to place among {0, ..., k}, index k is included with
    probability a_k P(first k sum to r-1) / P(first k+1 sum to r).
    """
    if m != int(m) or not (0 <= m <= params.N):
        raise ConstraintViolation(f"conditioned size must be an integer in [0, {params.N}], got {m!r}")
    m = int(m)
    band = _count_band(params, m)
    F = band.log_F
    lo = band.lo.tolist()
    log_a = bernoulli_weights(params).log_a
    members: list[int] = []
    r = m
    for k in range(params.N - 1, -1, -1):
        if r == 0:
            break
        if r == k + 1:
            # every remaining index is forced in
            members.extend(range(k, -1, -1))
            r = 0
            break
        # F is -inf below the band, so a move into a dropped state has probability 0
        p_include = math.exp(log_a[k] + F[k, r - lo[k]] - F[k + 1, r - lo[k + 1] + 1])
        if rng.random() < p_include:
            members.append(k)
            r -= 1
    return IndexSet(members=tuple(reversed(members)), N=params.N)


def overcrowding_probability_exact(params: EnsembleParams) -> float:
    """log P(#J = N_c), from the certified band of the Poisson-binomial DP.

    The band is not cached: only ``sample_conditioned_indexset`` walks it
    again, and a cached band at N = 10^5 holds over 20 MB.
    """
    return _banded(bernoulli_weights(params), params.N_c).log_prob


def log_hole_factor(params: EnsembleParams) -> float:
    """log prod_{k in J_0} a_k: the probability that the top block is fully outside.

    This is the product of the N_c largest weights, with shapes
    N - N_c + 1, ..., N at argument N R^2, and is the leading factor of the
    asymptotic overcrowding probability.  It is read off the cached weights
    that the exact probability uses.
    """
    return sum(bernoulli_weights(params).log_a[params.N - params.N_c :].tolist())


def log_hole_factor_rescaled(params: EnsembleParams) -> float:
    """log prod_{j=1}^{N_c} Q(j, N_c R^2): hole probability of a size-N_c ensemble.

    Exposed for comparison only.  A standalone ensemble of N_c points carries
    the argument N_c R^2 rather than N R^2; whether this product or
    ``log_hole_factor`` is meant by "hole probability of the small ensemble"
    is a normalization convention, and the two differ at finite N.  All
    asymptotic formulas in this package use ``log_hole_factor``, which is the
    one validated against the exact mixture probability.
    """
    z_small = params.N_c * params.R * params.R
    return sum(_log_poisson_tails(params.N_c, z_small)[0].tolist())


def overcrowding_probability_asymptotic(params: EnsembleParams) -> float:
    """Asymptotic log-probability: hole factor plus the partition series.

    log P(#J = N_c) ~ log prod_{k in J_0} a_k + log sum_l p(l) x^(-l) with
    x = R^2 / (1 - c); the relative error of the approximation is
    O(log^3 N / N).
    """
    return log_hole_factor(params) + partition_series(params.x)
