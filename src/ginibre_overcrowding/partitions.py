"""Integer partition counting and the conditioned-probability series.

Exact counts are kept as Python ints (p(n) outgrows 64 bits near n = 400);
they serve as the reference for the series.  The series
sum_{l>=0} p(l) x^(-l), which multiplies the hole factor in the asymptotic
overcrowding probability, is evaluated through Euler's product
prod_{k>=1} 1/(1 - x^(-k)), kept well conditioned for every x > 1 by the
modular transformation of the Dedekind eta function.
"""

from __future__ import annotations

import math

__all__ = [
    "partition_count",
    "partition_series",
]

# growing memo table for the pentagonal recurrence; p(0) = 1
_p_cache: list[int] = [1]


def _extend_cache(n: int) -> None:
    while len(_p_cache) <= n:
        m = len(_p_cache)
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > m:
                break
            sign = 1 if j % 2 == 1 else -1
            total += sign * _p_cache[m - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= m:
                total += sign * _p_cache[m - g2]
            j += 1
        _p_cache.append(total)


def partition_count(n: int) -> int:
    """Exact number of integer partitions of n, by the pentagonal recurrence."""
    if n != int(n) or n < 0:
        raise ValueError(f"partition_count needs an integer n >= 0, got {n!r}")
    n = int(n)
    _extend_cache(n)
    return _p_cache[n]


def _minus_log_euler_product(q: float, *head: float) -> float:
    """fsum(head) - sum_{k>=1} log(1 - q^k) for 0 <= q <= 1/e.

    The terms fall at least geometrically with ratio q, so the sum stops at
    the first term below 2^-53 of the running total; the neglected rest is
    smaller than that term.
    """
    terms = list(head)
    total = math.fsum(terms)
    k = 1
    while True:
        term = -math.log1p(-(q**k))
        terms.append(term)
        total += term
        if term <= 2.0**-53 * total:
            return math.fsum(terms)
        k += 1


def partition_series(x: float) -> float:
    """log of sum_{l>=0} p(l) x^(-l) = -sum_{k>=1} log(1 - x^(-k)), for x > 1.

    With t = ln x, eta(-1/tau) = sqrt(-i tau) eta(tau) at tau = i t/(2 pi)
    turns the product into
    pi^2/(6t) - t/24 + log(t/(2 pi))/2 - sum_k log(1 - e^(-4 pi^2 k/t)).
    The plain product is summed for t >= 1 (at most about 45 factors), the
    transformed one for t < 1 (its first factor is already below 1e-17).
    Splitting at t = 1 keeps pi^2/(6t) from cancelling against t/24 near
    t = 2 pi.
    """
    if math.isnan(x) or x <= 1.0:
        raise ValueError(f"partition_series needs x > 1, got {x!r}")
    t = math.log(x)
    if t >= 1.0:
        return _minus_log_euler_product(1.0 / x)
    return _minus_log_euler_product(
        math.exp(-4.0 * math.pi**2 / t),
        math.pi**2 / (6.0 * t),
        -t / 24.0,
        0.5 * math.log(t / (2.0 * math.pi)),
    )
