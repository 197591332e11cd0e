"""Mixture representation of the conditioned ensemble.

Conditioned on the number of eigenvalues outside the disk of radius R, the
ensemble is a mixture of projection processes indexed by subsets
J of {0, ..., N-1}.  The unconditioned law of J factorizes over independent
Bernoulli variables with success probabilities a_k = Q(k+1, N R^2), so
everything here reduces to log-space work on those weights:

* the law of #J is Poisson-binomial; P(#J = m), for each m asked for,
  comes from that law tilted to mean m,
* conditional sampling of J given #J = m draws from the same tilted law and
  keeps the first draw with m members,
* a subset J of size N_c is compared with the most likely set
  J_0 = {N-N_c, ..., N-1} by pairing its sorted members x_1 < ... < x_{N_c}
  (x = kernel index + 1) with the places N - N_c + k of J_0.  The
  displacements n_k = N - N_c + k - x_k are the paper's occupation vector:
  n = 0 is J_0, |n| = sum J_0 - sum J is what the partition series counts,
  and P_J / P_{J_0} telescopes over the k with n_k > 0.

Weights.  Q(k+1, z) = P(Poisson(z) <= k), so all N weights come from one
pass over the Poisson(z) pmf at z = N R^2.  The pmf is evaluated at every k
at once by the formulas of ``gamma.log_poisson_pmf``, with the atanh series
of Loader (2000) for its deviance near k = z.  A forward running log-sum-exp
gives log a_k below the Poisson median and a backward one log(1 - a_k)
above it.  At each k the smaller of the two tails is kept and the larger
is log1mexp of it.  a_k underflows double precision for k well below
N R^2 and 1 - a_k for k well above it, so each is kept exact in relative
terms where it is small.  The cached ``BernoulliWeights`` keeps
log P(X > j) for all j < N + T, with T = ``_tail_length(N, N R^2)`` the
first count past N where a bound on the mass past N + T falls below 2^-64
of pmf(N), so that the inner radial draw finds every count it can hit:
the one Poisson(N R^2) tail table, read by the weights, the tilt, the DFT,
the hole factor, the kernel norms and both radial draws of ``sampler``.
The pass runs further than the table: ``bernoulli_weights`` hands N + T
to ``_log_poisson_tails``, which cuts its backward sum another
T' = ``_tail_length(N + T, N R^2)`` terms on, so the pmf spans
N + T + T' + 1 entries (T = 75 and T' = 69 at N = 1500, c = 0.7,
R = 0.75).  The mass left out is then below 2^-64 of pmf(N + T), which no
kept P(X > j), j < N + T, is smaller than, so each is summed to within
2^-64 of itself.  A table longer than ``_MAX_TAIL_ENTRIES`` is refused with
``ValueError`` before the pass: N + T entries peak at up to about 100
bytes each over a ``prob`` call, and T stays near 10 sqrt(N) or below even
as R nears 1 (9,912 at N = 10^6, R^2 = 1 - 10^-6).

Tilt.  Tilting every Bernoulli by the theta at which E #J = m gives
P(#J = m) = exp(K) P_theta(#J = m), with K = log E exp(theta (#J - m)).
The tilted law of #J has mean m and variance var, so it is concentrated
near m: P_theta(#J = m) >= 1 / sqrt(1 + 12 var), the floor for a discrete
log-concave law, and Bennett's inequality bounds P_theta(|#J - m| >= L).
So P_theta(#J = m) is an L-point DFT of the tilted generating function,
(1/L) sum_j e^(-i w_j m) prod_k (1 - p_k + p_k e^(i w_j)), with L the
smallest power of two whose aliasing bound is below 2^-60 of that floor;
L is a few dozen.  A factor with p_k > 1/2 is written
e^(i w) (1 + q_k (e^(-i w) - 1)) with q_k = 1 - p_k from the log odds.  One
rule says which factors are exact: one with min(p_k, 1 - p_k) < 2^-40, so
with tilted log odds |s_k| = |log a_k - log(1 - a_k) + theta| above
``_FOLD_LOG_ODDS`` (about 27.7), enters at first order everywhere, as e^(s_k)
or e^(-s_k), in the mean, the variance, K and the DFT; every other factor
enters exactly.  The s_k never decrease in k, so the exact factors form one
window, found by ``searchsorted`` at each Newton step's theta: 41 to 737 of
up to 4,000 factors over 600 triples at N = 200 to 4000, and 304 at N = 10^6
and 4·10^6 (c = 0.7, R = 0.6).  A first-order factor's term of K,
e^(-|s|) in place of log1p(e^(-|s|)), is off by less than r^2 / 2 < 2^-81
with r = min(p, 1 - p); in the DFT its squared first-order term is counted
twice in the certificate (once for the first order, once for writing r as
e^(-|s|)).  So no stage holds more than the one array of N log odds.  The
same tilt draws J given #J = m exactly by rejection, its p_k over all N
formed only there.
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
    "BernoulliWeights",
    "bernoulli_weights",
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
    """Raised when a parameter set or index set is invalid."""


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
        prev = -math.inf
        for m in ms:
            if m != int(m):
                raise ConstraintViolation(f"index set members must be integers, got {ms!r}")
            if m <= prev:
                raise ConstraintViolation(f"index set members must be strictly increasing, got {ms!r}")
            prev = m
        # strictly increasing, so the ends bound every member
        if ms and not (0 <= ms[0] and ms[-1] < self.N):
            raise ConstraintViolation(f"index set members must lie in [0, {self.N}), got {ms!r}")

    @property
    def size(self) -> int:
        return len(self.members)


def _check_index_set(params: EnsembleParams, J: IndexSet) -> None:
    """Refuse an index set drawn from another ensemble size than ``params``."""
    if J.N != params.N:
        raise ConstraintViolation(f"index set is over {{0..{J.N - 1}}} but N = {params.N}")


def top_block(params: EnsembleParams) -> IndexSet:
    """The top block J_0 = {N - N_c, ..., N - 1}, the most likely index set."""
    return IndexSet(members=tuple(range(params.N - params.N_c, params.N)), N=params.N)


@dataclass(frozen=True)
class BernoulliWeights:
    """The Poisson(N R^2) tails of one ensemble from one ``_log_poisson_tails`` pass, read-only:
    ``log_survival`` is log P(X > j) for j < N + T, T = ``_tail_length(N, N R^2)``, and ``log_a``
    and ``log_one_minus_a`` are the pass's first-N views, log P(X <= k) and log P(X > k) for k < N."""

    log_a: np.ndarray
    log_one_minus_a: np.ndarray
    log_survival: np.ndarray


@lru_cache(maxsize=256)
def log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0, ..., n-1, read-only."""
    out = np.array([math.lgamma(k + 1.0) for k in range(n)])
    out.flags.writeable = False
    return out


# N + T entries of one Poisson tail table; ``prob`` at the cap peaked at 1.07 GB RSS
_MAX_TAIL_ENTRIES = 10 << 20
# the DFT for P(#J = m) may alias at most 2^-60 of the floor of its tilted value
_ALIASED = 2.0**-60
# factors with min(p, 1 - p) below this enter the tilt and its DFT at first order
_FOLD = 2.0**-40
# |log odds| at which min(p, 1 - p) = 1 / (1 + e^|s|) falls to ``_FOLD``
_FOLD_LOG_ODDS = math.log(1.0 / _FOLD - 1.0)
# e^-x is below 2^-1075, so rounds to 0, past this x
_UNDERFLOW = 1075.0 * math.log(2.0)
# factors per block of the DFT product
_CHUNK = 1024
# uniforms per block of rejective index-set draws, unless one row is larger
_DRAW_ENTRIES = 1 << 16
# terms of S(w) = sum_j w^j / (2j+3) that ``_log_poisson_pmfs`` keeps on its band w <= 1/9
_ATANH_TERMS = 17


def _phi_near_one(u: np.ndarray) -> np.ndarray:
    """phi(1 + u) = u - log(1 + u) for |u| < 1/2, by the deviance series of Loader (2000).

    With v = u/(2+u), log(1 + u) = 2 atanh(v), so phi = v (u - 2 v^2 S(v^2)) with
    S(w) = sum_j w^j / (2j+3).  On the band w <= 1/9 and |u - 2 v^2 S| >= 1.5 |v|, so the terms past
    the first ``_ATANH_TERMS`` change phi by less than (4/9) w^17 / (37 (1 - w)) < 2^-60 of itself.
    """
    v = u / (u + 2.0)
    w = v * v
    series = np.full_like(w, 2.0 / (2 * _ATANH_TERMS + 1))
    for j in range(_ATANH_TERMS - 2, -1, -1):
        series *= w
        series += 2.0 / (2 * j + 3)
    return v * (u - w * series)


def _log_poisson_pmfs(n: int, z: float) -> np.ndarray:
    """``gamma.log_poisson_pmf(k, z)`` for k = 0, ..., n-1 in one pass, for z > 0, to 2e-15 mixed error.

    The scalar route's formulas, with phi(lam) = lam - 1 - log(lam) from ``_phi_near_one`` on |lam - 1| < 1/2,
    where u = (z - k)/k rounds once: z - k is exact there (Sterbenz), while z/k - 1 would round z/k first.
    """
    k = np.arange(n, dtype=float)
    out = np.empty(n)
    small = min(n, int(_STIRLING_MIN_X))
    out[:small] = k[:small] * math.log(z) - z - log_factorials(small)
    if n > small:
        k = k[small:]
        lam = z / k
        u = lam - 1.0
        # u decreases in k, so the band |u| < 1/2 is the slice [lo, hi)
        lo, hi = np.count_nonzero(u >= 0.5), u.size - np.count_nonzero(u <= -0.5)
        phi = np.empty_like(k)
        for far in (slice(lo), slice(hi, None)):
            np.subtract(u[far], np.log(lam[far]), out=phi[far])
        phi[lo:hi] = _phi_near_one((z - k[lo:hi]) / k[lo:hi])
        inv2 = 1.0 / (k * k)
        tail = np.full_like(k, _STIRLING_COEFFS[-1])
        for coeff in _STIRLING_COEFFS[-2::-1]:
            tail *= inv2
            tail += coeff
        out[small:] = -k * phi - 0.5 * np.log(2.0 * math.pi * k) - tail / k
    return out


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - e^x) elementwise for x < 0, as ``gamma.log1mexp``, each branch on its own entries."""
    out = np.empty_like(x)
    near = x > -math.log(2.0)
    for branch, inner, outer in ((near, np.expm1, np.log), (~near, np.exp, np.log1p)):
        inner(x, out=out, where=branch)
        np.negative(out, out=out, where=branch)
        outer(out, out=out, where=branch)
    return out


def _tail_length(n: int, z: float) -> int:
    """The first T at which the Poisson(z) mass past n + T is at most 2^-64 pmf(n), for 0 < z < n + 1.

    The pmf ratios past n + T + 1 are at most z/(n+T+2), so that mass over pmf(n) is at most e^f(T),
    f(t) = sum_{i <= t+1} log(z/(n+i)) - log1p(-z/(n+t+2)), which decreases in t: T is found by
    doubling t, then bisecting, with the sum taken as a difference of lgammas.
    """

    log_z, lgamma_n, floor = math.log(z), math.lgamma(n + 1.0), -64.0 * math.log(2.0)

    def above(t: int) -> bool:
        m = n + t + 2.0
        return (t + 1) * log_z - math.lgamma(m) + lgamma_n - math.log1p(-z / m) > floor

    lo, hi = -1, 1
    while above(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _smaller_tails(log_pmf: np.ndarray, n: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(log P(X <= k) for k < split, log P(X > k) for split <= k < n): the smaller tail of X ~ Poisson(z)
    at each k < n, the upper ones summed over ``log_pmf``, which runs past n.  The median of X is in
    [z - log 2, z + 1/3] (Choi 1994), so the lower tail is the smaller one below floor(z) - 2 and the larger
    past floor(z) + 2: each running sum stops there, and the two are compared in between.
    """
    lo, hi = max(0, math.floor(z) - 2), min(n, math.floor(z) + 3)
    lower = np.logaddexp.accumulate(log_pmf[:hi])
    # upper[i] = log P(X > lo + i)
    upper = np.logaddexp.accumulate(log_pmf[:lo:-1])[::-1][: n - lo]
    split = lo + int(np.count_nonzero(lower[lo:] < upper[: hi - lo]))
    return lower[:split], upper[split - lo :]


def _log_poisson_tails(n: int, z: float) -> tuple[np.ndarray, np.ndarray]:
    """(log Q(k+1, z), log P(k+1, z)) for k = 0, ..., n-1, with 0 < z < n + 1.

    Q(k+1, z) = P(X <= k) and P(k+1, z) = P(X > k) for X ~ Poisson(z).  The upper sum stops
    T = ``_tail_length(n, z)`` terms after n, which leaves out at most 2^-64 pmf(n), so less than
    2^-64 of every upper tail.  The smaller tail is that of ``_smaller_tails``, the larger log1mexp of it.
    """
    below, above = _smaller_tails(_log_poisson_pmfs(n + _tail_length(n, z) + 1, z), n, z)
    large = _log1mexp(np.concatenate((below, above)))
    return np.concatenate((below, large[below.size :])), np.concatenate((large[: below.size], above))


def refuse_past(cap: int, size: int, what: str) -> int:
    """``size``, or a ``ValueError`` that names ``what``, ``size`` and ``cap`` when ``size`` is past ``cap``.

    The one refusal of every size cap, called before what it counts is built."""
    if size > cap:
        raise ValueError(f"{what}: {size}, over the cap of {cap}")
    return size


def _tail_entries(N: int, R: float) -> int:
    """N + T, the entries of the Poisson(N R^2) tail table, refused past ``_MAX_TAIL_ENTRIES``: an O(log N) search."""
    entries = N + _tail_length(N, N * R * R)
    return refuse_past(_MAX_TAIL_ENTRIES, entries, f"Poisson tail table entries at N = {N}, R = {R!r}")


@lru_cache(maxsize=64)
def bernoulli_weights(params: EnsembleParams) -> BernoulliWeights:
    N = params.N
    log_lower, log_survival = _log_poisson_tails(_tail_entries(N, params.R), params.z)
    log_lower.flags.writeable = False
    log_survival.flags.writeable = False
    return BernoulliWeights(log_lower[:N], log_survival[:N], log_survival)


@dataclass(frozen=True)
class CountTilt:
    """The Bernoulli field tilted to mean m: p_k = a_k e^theta / (1 - a_k + a_k e^theta).

    The tilt multiplies the law of J by exp(theta (#J - m) - K), with
    K = log E exp(theta (#J - m)); ``var`` is the tilted variance of #J and
    ``excess`` its tilted mean less m.  Only the window k in [lo, lo + len(s))
    is held, as the tilted log odds s_k = log a_k - log(1 - a_k) + theta: it
    holds exactly the factors with |s_k| <= ``_FOLD_LOG_ODDS``, the ones taken
    exactly.  The factors below it have min(p_k, 1 - p_k) = e^(s_k) and those
    above it e^(-s_k), to first order; ``far`` holds the sums of those two and
    ``far_squares`` the sum of their squares.  No p_k is held: ``_tilted_draws``
    forms them over all N on demand, for rejective draws only.
    """

    theta: float
    lo: int
    s: np.ndarray
    far: tuple[float, float]
    far_squares: float
    var: float
    excess: float
    log_k: float


def _bennett(t: float, var: float) -> float:
    """Bennett's exponent: P(X - E X >= t) and P(X - E X <= -t) are at most
    exp(-this) for X a sum of independent Bernoullis of total variance var > 0."""
    t = abs(t)
    return (var + t) * math.log1p(t / var) - t


def _window(log_odds: np.ndarray, theta: float, reach: float) -> tuple[int, int]:
    """[lo, hi): the k with -reach < log_odds[k] + theta <= reach, one slice as the log odds never decrease in k."""
    lo, hi = log_odds.searchsorted((-theta - reach, reach - theta), side="right").tolist()
    return lo, hi


def _tilt(w: BernoulliWeights, m: int) -> "CountTilt | None":
    """The tilt of the field to mean m by safeguarded Newton in theta; None at m = 0 or N.

    Each Newton step works on the window of factors with |s_k| <= ``_FOLD_LOG_ODDS`` at
    its own theta, an O(log N) search; the factors outside it add at most N ``_FOLD`` to
    the mean, and enter at first order once theta has converged.  K is summed term by
    term, the top block's m terms shifted by -theta, so each term is near 0 where the
    weights put the mass and nothing cancels: a term outside the window is
    log(1 - a_k) + e^(s_k) below it and log a_k + e^(-s_k) above it, each shifted by
    theta where the top block's edge falls outside the window.
    """
    log_odds = w.log_a - w.log_one_minus_a
    N = len(log_odds)
    if m in (0, N):
        return None
    # every p_k is below _FOLD at the lower end and above 1 - _FOLD at the upper one
    lower, upper = -float(log_odds[-1]) - _FOLD_LOG_ODDS, -float(log_odds[0]) + _FOLD_LOG_ODDS
    # start with the top block half in, half out
    theta = -0.5 * float(log_odds[N - m - 1] + log_odds[N - m])
    for _ in range(200):
        lo, hi = _window(log_odds, theta, _FOLD_LOG_ODDS)
        s = log_odds[lo:hi] + theta
        odds = np.exp(s)
        norm = 1.0 + odds
        p = odds / norm
        var = p / norm
        excess = float(p.sum()) + (N - hi) - m
        if abs(excess) < 1e-9 or upper - lower < 1e-12 * max(1.0, abs(theta)):
            break
        if excess > 0.0:
            upper = theta
        else:
            lower = theta
        theta -= excess / max(float(var.sum()), 1e-300)
        if not lower < theta < upper:
            theta = 0.5 * (lower + upper)
    # past the fringe each far term is below 2^-1075, so 0 in double precision
    fringe_lo, fringe_hi = _window(log_odds, theta, _UNDERFLOW)
    below = np.exp(log_odds[fringe_lo:lo] + theta)
    above = np.exp(-theta - log_odds[hi:fringe_hi])
    far = (float(below.sum()), float(above.sum()))
    top = min(max(N - m, lo), hi)
    log_k = float(
        np.logaddexp(w.log_one_minus_a[lo:top], w.log_a[lo:top] + theta).sum()
        + np.logaddexp(w.log_one_minus_a[top:hi] - theta, w.log_a[top:hi]).sum()
        + w.log_one_minus_a[:lo].sum()
        + w.log_a[hi:].sum()
        + (far[0] + far[1])
        + theta * (max(0, N - m - hi) - max(0, lo - (N - m)))
    )
    s.flags.writeable = False
    return CountTilt(
        theta=theta,
        lo=lo,
        s=s,
        far=far,
        far_squares=float(below @ below + above @ above),
        var=float(var.sum()) + far[0] + far[1],
        excess=excess + far[0] - far[1],
        log_k=log_k,
    )


@lru_cache(maxsize=8)
def _tilted_draws(params: EnsembleParams, m: int) -> tuple[np.ndarray, int]:
    """The p_k of ``_tilt`` at (params, m) over all N, read-only, and the rows per block of
    rejective draws, enough to expect one hit at the floor of P_theta(#J = m); for 0 < m < N."""
    w = bernoulli_weights(params)
    tilt = _tilt(w, m)
    s = w.log_a - w.log_one_minus_a + tilt.theta
    p = np.exp(s - np.logaddexp(0.0, s))
    p.flags.writeable = False
    return p, max(1, min(math.ceil(math.sqrt(1.0 + 12.0 * tilt.var)), _DRAW_ENTRIES // params.N))


@lru_cache(maxsize=16)
def _frequencies(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(j, e^(i w_j) - 1, weights) at w_j = 2 pi j / L for j = 0, ..., L/2, read-only.

    P_theta(#J = m) is real, so the frequencies past pi are the conjugates of
    those below: the weights count j = 1, ..., L/2 - 1 twice.
    """
    j = np.arange(size // 2 + 1)
    omega = 2.0 * math.pi * j / size
    e1 = -2.0 * np.sin(0.5 * omega) ** 2 + 1j * np.sin(omega)
    weights = np.full(j.size, 2.0)
    weights[[0, -1]] = 1.0
    for array in (j, e1, weights):
        array.flags.writeable = False
    return j, e1, weights


def _char_product(r: np.ndarray, split: int, e1: np.ndarray) -> np.ndarray:
    """prod_{k < split} (1 + r_k e1) prod_{k >= split} (1 + r_k e1^*), ``_CHUNK`` factors at a time."""
    out = np.ones_like(e1)
    for start in range(0, r.size, _CHUNK):
        block = np.multiply.outer(r[start : start + _CHUNK], e1)
        conjugated = block[max(0, split - start) :]
        np.conjugate(conjugated, out=conjugated)
        block += 1.0
        out *= block.prod(axis=0)
    return out


def _log_count_prob(w: BernoulliWeights, m: int, size: "int | None" = None) -> tuple[float, float, int]:
    """(log P(#J = m), certificate, L): K plus log P_theta(#J = m) by an L-point DFT of ``_tilt(w, m)``.

    L is the smallest power of two whose aliasing bound is below ``_ALIASED``
    of the floor of P_theta(#J = m), unless ``size`` gives it.  The
    certificate bounds the relative error of P_theta(#J = m) left by
    aliasing and by the factors taken at first order.
    Only the tilt's window is read, split once at s = 0: the factors with
    p <= 1/2 enter as 1 + r e1, those with p > 1/2 as a phase times the conjugate.
    """
    N = len(w.log_a)
    tilt = _tilt(w, m)
    if tilt is None:
        return float(np.sum(w.log_a if m else w.log_one_minus_a)), 0.0, 1
    excess = abs(tilt.excess)
    reach = max(m, N - m)

    def aliased(L: int) -> float:
        # P_theta(|#J - m| >= L), which is 0 once L is past every count
        if L > reach:
            return 0.0
        return 2.0 * math.exp(-_bennett(L - excess, tilt.var + 1e-300))

    if size is None:
        floor = 1.0 / math.sqrt(1.0 + 12.0 * tilt.var)
        size = 2
        while aliased(size) > _ALIASED * floor:
            size *= 2
    s = tilt.s
    # r = min(p, 1 - p), rising in s up to 0 and falling past it; |s| <= _FOLD_LOG_ODDS in the window
    r = 1.0 / (1.0 + np.exp(np.abs(s)))
    high = int(s.searchsorted(0.0, side="right"))
    j, e1, weights = _frequencies(size)
    # factors with p > 1/2 are e^(i omega) (1 + q e1)^*; the phase is taken mod L exactly
    shift = (N - tilt.lo - high - m) % size
    phi = np.exp(2j * math.pi * (j * shift % size) / size + e1 * tilt.far[0] + e1.conj() * tilt.far[1])
    phi *= _char_product(r, high, e1)
    p_m = float(weights @ phi.real) / size
    # |log(1 + x) - x| <= |x|^2 / (2 (1 - |x|)) with |x| <= 2 r; a far factor's first-order
    # r = e^(-|s|) is off by at most r^2, so its r^2 is counted twice
    folded = 2.0 * tilt.far_squares
    fold = math.expm1(2.0 * folded / (1.0 - 2.0 * _FOLD))
    return tilt.log_k + math.log(p_m), (aliased(size) + fold) / p_m, size


def _check_ratio_set(J: IndexSet, params: EnsembleParams) -> None:
    """Refuse a J over another N than ``params``, or of another size than N_c, for a ratio against J_0."""
    _check_index_set(params, J)
    if J.size != params.N_c:
        raise ConstraintViolation(f"index set must have size N_c={params.N_c}, got {J.size}")


def log_ratio_exact(J: IndexSet, params: EnsembleParams) -> float:
    """log(P_J / P_{J_0}) for |J| = N_c, telescoped over the displaced members.

    The k-th smallest member x of J is paired with the k-th place t of J_0 and
    contributes the log-ratio of the two upper tails, a_x / a_t, plus that of
    the complementary lower tails, (1 - a_t) / (1 - a_x).  A member at its own
    place contributes exactly nothing.
    """
    _check_ratio_set(J, params)
    w = bernoulli_weights(params)
    x = np.array(J.members)
    top = np.arange(params.N - params.N_c, params.N)
    return float(np.sum(w.log_a[x] - w.log_a[top] + w.log_one_minus_a[top] - w.log_one_minus_a[x]))


def log_ratio_approx(J: IndexSet, params: EnsembleParams) -> float:
    """Leading-order log(P_J / P_{J_0}) = -log(R^2 / (1-c)) |n|, with |n| = sum J_0 - sum J."""
    _check_ratio_set(J, params)
    total = params.N_c * (2 * params.N - params.N_c - 1) // 2 - sum(J.members)
    if total == 0:
        return 0.0
    return -math.log(params.x) * total


def sample_conditioned_indexset(
    params: EnsembleParams, m: int, rng: np.random.Generator
) -> IndexSet:
    """Draw J exactly from the law of the Bernoulli field conditioned on #J = m.

    Rejective sampling (Hajek 1964; Chen, Dempster and Liu 1994): rows of N
    Bernoullis tilted to mean m are drawn a block at a time, and J is the
    first row with exactly m members.  The tilt multiplies the law of a row
    by a function of #J alone, so the kept row has the conditioned law; it
    only sets the acceptance rate P_theta(#J = m) >= 1 / sqrt(1 + 12 var),
    and a block holds enough rows to expect one hit at that floor.
    """
    if m != int(m) or not (0 <= m <= params.N):
        raise ConstraintViolation(f"conditioned size must be an integer in [0, {params.N}], got {m!r}")
    m = int(m)
    N = params.N
    if m in (0, N):
        return IndexSet(members=tuple(range(m)), N=N)
    p, rows = _tilted_draws(params, m)
    while True:
        draws = rng.random((rows, N)) < p
        sizes = draws.sum(axis=1).tolist()
        if m in sizes:
            return IndexSet(members=tuple(np.flatnonzero(draws[sizes.index(m)]).tolist()), N=N)


def overcrowding_probability_exact(params: EnsembleParams) -> float:
    """log P(#J = N_c), by the tilted DFT of ``_log_count_prob``."""
    return _log_count_prob(bernoulli_weights(params), params.N_c)[0]


def log_hole_factor(params: EnsembleParams) -> float:
    """log prod_{k in J_0} a_k: the probability that the top block is fully outside.

    This is the product of the N_c largest weights, with shapes
    N - N_c + 1, ..., N at argument N R^2, and is the leading factor of the
    asymptotic overcrowding probability.  It is read off the cached weights
    that the exact probability uses.
    """
    return float(np.sum(bernoulli_weights(params).log_a[params.N - params.N_c :]))


def log_hole_factor_rescaled(params: EnsembleParams) -> float:
    """log prod_{j=1}^{N_c} Q(j, N_c R^2): hole probability of a size-N_c ensemble.

    Exposed for comparison only.  A standalone ensemble of N_c points carries
    the argument N_c R^2 rather than N R^2; whether this product or
    ``log_hole_factor`` is meant by "hole probability of the small ensemble"
    is a normalization convention, and the two differ at finite N.  All
    asymptotic formulas in this package use ``log_hole_factor``, which is the
    one validated against the exact mixture probability.  Q(k+1, z) = P(X <= k)
    for X ~ Poisson(z = N_c R^2), taken as ``_smaller_tails`` over the pmf up to
    M = m + ``_tail_length(m, z)``, m = floor(z) + 1, and the terms k >= M are
    dropped: both leave out at most (2M + 2/(1 - z/(M+2))) 2^-64 pmf(m), under
    2^-59 of the sum, which is at least z in size (z = 10^-300 to 10^7).  It is
    refused where the N_c-point table would be.
    """
    n, R = params.N_c, params.R
    _tail_entries(n, R)
    z = n * R * R
    top = math.floor(z) + 1
    last = top + _tail_length(top, z)
    below, above = _smaller_tails(_log_poisson_pmfs(last + 1, z), min(n, last), z)
    # past the split the upper tail is at most 1/2, where log1mexp is log1p(-e^x)
    return float(np.concatenate((below, np.log1p(-np.exp(above)))).sum())


def overcrowding_probability_asymptotic(params: EnsembleParams) -> float:
    """Asymptotic log-probability: hole factor plus the partition series.

    log P(#J = N_c) ~ log prod_{k in J_0} a_k + log sum_l p(l) x^(-l) with
    x = R^2 / (1 - c); the relative error of the approximation is
    O(log^3 N / N).
    """
    return log_hole_factor(params) + partition_series(params.x)
