"""Mixture representation of the conditioned ensemble.

Conditioned on the number of eigenvalues outside the disk of radius R, the
ensemble is a mixture of projection processes indexed by subsets
J of {0, ..., N-1}.  The unconditioned law of J factorizes over independent
Bernoulli variables with success probabilities a_k = Q(k+1, N R^2), so
everything here reduces to log-space work on those weights:

* the distribution of #J is Poisson-binomial, computed by a forward DP,
* conditional sampling of J given #J = m walks the same DP backwards,
* subsets of size N_c are encoded by occupation vectors n, with
  n_k = N - N_c + k - x_k for the sorted members x_1 < ... < x_{N_c}
  (x = kernel index + 1), so the most likely set J_0 = {N-N_c, ..., N-1}
  is n = 0 and probability ratios against it telescope over k with n_k > 0.

Both tails of every weight are computed directly (log_q_integer for a_k,
log_gamma_lower for 1 - a_k); a_k is doubly-exponentially small for
k << N R^2 and 1 - a_k for k >> N R^2, so neither is ever formed as
1 - exp(other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gamma import log_gamma_lower, log_q_integer
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


@lru_cache(maxsize=64)
def bernoulli_weights(params: EnsembleParams) -> BernoulliWeights:
    z = params.z
    log_a = np.array([log_q_integer(k + 1, z) for k in range(params.N)])
    log_one_minus_a = np.array([log_gamma_lower(float(k + 1), z) for k in range(params.N)])
    log_a.flags.writeable = False
    log_one_minus_a.flags.writeable = False
    return BernoulliWeights(log_a=log_a, log_one_minus_a=log_one_minus_a)


def _poisson_binomial_dp(log_a: np.ndarray, log_one_minus_a: np.ndarray) -> np.ndarray:
    """F[k, r] = log P(B_0 + ... + B_{k-1} = r), shape (N+1, N+1)."""
    N = len(log_a)
    F = np.full((N + 1, N + 1), -np.inf)
    F[0, 0] = 0.0
    for k in range(1, N + 1):
        la = log_a[k - 1]
        lna = log_one_minus_a[k - 1]
        F[k, 0] = F[k - 1, 0] + lna
        F[k, 1 : k + 1] = np.logaddexp(F[k - 1, 1 : k + 1] + lna, F[k - 1, 0:k] + la)
    return F


@lru_cache(maxsize=8)
def _forward_dp(params: EnsembleParams) -> np.ndarray:
    w = bernoulli_weights(params)
    F = _poisson_binomial_dp(w.log_a, w.log_one_minus_a)
    F.flags.writeable = False
    return F


def count_distribution(params: EnsembleParams) -> CountDistribution:
    """Poisson-binomial distribution of the number of points outside radius R."""
    F = _forward_dp(params)
    log_probs = F[params.N].copy()
    log_probs.flags.writeable = False
    return CountDistribution(params=params, log_probs=log_probs)


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

    Walks k = N-1, ..., 0 against the stored DP layers: with r members still
    to place among {0, ..., k}, index k is included with probability
    a_k P(first k sum to r-1) / P(first k+1 sum to r).
    """
    if m != int(m) or not (0 <= m <= params.N):
        raise ConstraintViolation(f"conditioned size must be an integer in [0, {params.N}], got {m!r}")
    m = int(m)
    F = _forward_dp(params)
    w = bernoulli_weights(params)
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
        p_include = math.exp(w.log_a[k] + F[k, r - 1] - F[k + 1, r])
        if rng.random() < p_include:
            members.append(k)
            r -= 1
    return IndexSet(members=tuple(reversed(members)), N=params.N)


def overcrowding_probability_exact(params: EnsembleParams) -> float:
    """log P(#J = N_c), read off the Poisson-binomial distribution."""
    return float(count_distribution(params).log_probs[params.N_c])


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
    return sum(log_q_integer(j, z_small) for j in range(1, params.N_c + 1))


def overcrowding_probability_asymptotic(params: EnsembleParams) -> float:
    """Asymptotic log-probability: hole factor plus the partition series.

    log P(#J = N_c) ~ log prod_{k in J_0} a_k + log sum_l p(l) x^(-l) with
    x = R^2 / (1 - c); the relative error of the approximation is
    O(log^3 N / N).
    """
    return log_hole_factor(params) + partition_series(params.x)
