"""Tests for partition counting and the partition series.

Oracles: a recursive enumeration counter written here from the definition
(count partitions of n with parts bounded by m), sharing no code with the
module under test; exact Fraction sums of 300 pentagonal counts, whose
truncation error is bounded by the Hardy-Ramanujan estimate at far below the
comparison tolerance, frozen as literals; and Euler's product
prod_k 1/(1 - x^(-k)) multiplied out directly in numpy, without the
modular transformation the module uses for x < e.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from ginibre_overcrowding.partitions import partition_count, partition_series


@lru_cache(maxsize=None)
def enum_count(n: int, max_part: int) -> int:
    """Number of partitions of n into parts <= max_part, by direct recursion."""
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    total = 0
    largest = min(n, max_part)
    for first in range(1, largest + 1):
        total += enum_count(n - first, first)
    return total


# exact Fraction sums of 300 terms; HR tail at l = 300 is below e-163
FROZEN_SERIES = {
    2.0: 1.242062094812415,
    4.9: 0.28151737063255822,
}


def test_partition_count_examples():
    assert partition_count(0) == 1
    assert partition_count(5) == 7
    assert partition_count(10) == 42
    assert partition_count(100) == 190569292


def test_partition_count_against_enumeration():
    for n in range(41):
        assert partition_count(n) == enum_count(n, n if n else 1), n


def test_generating_function_identity():
    # sum_n p(n) q^n = prod_j (1 - q^j)^(-1), compared exactly to degree 60
    # via integer polynomial arithmetic
    degree = 60
    poly = [0] * (degree + 1)
    poly[0] = 1
    for j in range(1, degree + 1):
        # multiply by (1 - q^j)^(-1) = 1 + q^j + q^2j + ... truncated
        for s in range(j, degree + 1):
            poly[s] += poly[s - j]
    assert poly == [partition_count(n) for n in range(degree + 1)]


def test_growth_bound_k_1_2():
    # p(n) <= 1.2^n for all n >= n0; exact integer comparison p(n) 5^n <= 6^n
    n0 = int(math.ceil((math.pi**2 * 2.0 / 3.0) / math.log(1.2) ** 2))
    assert n0 == 198
    for n in range(n0, 2001):
        assert partition_count(n) * 5**n <= 6**n, n


def test_series_frozen_values():
    for x, ref in FROZEN_SERIES.items():
        assert partition_series(x) == pytest.approx(ref, abs=2e-14)


def test_series_oracle_fraction_sum():
    # recompute one reference here so the frozen literal stays auditable
    x = Fraction(49, 10)
    total = Fraction(0)
    power = Fraction(1)
    for l in range(0, 301):
        total += partition_count(l) * power
        power /= x
    assert math.log(total) == pytest.approx(FROZEN_SERIES[4.9], abs=1e-15)


def test_series_limits():
    # only the l = 0 term survives as x -> inf
    assert partition_series(1e12) == pytest.approx(1e-12, rel=1e-2)
    assert partition_series(math.inf) == 0.0


def direct_euler_product(x: float) -> float:
    """-sum_k log(1 - x^(-k)) over every k with x^(-k) above 1e-20."""
    k = np.arange(1.0, math.ceil(46.0 / math.log(x)) + 2.0)
    return -math.fsum(np.log1p(-np.power(x, -k)))


def test_series_domain_and_convergence_errors():
    with pytest.raises(ValueError):
        partition_series(1.0)
    with pytest.raises(ValueError):
        partition_series(0.5)
    with pytest.raises(ValueError):
        partition_series(math.nan)
    # no term cap: x right above 1 (a 460,000-factor direct product), both
    # sides of the branch switch at x = e, and the plain product far out
    for x in (1.0 + 1e-4, 1.005, 1.0103, math.e * (1 - 1e-9), math.e * (1 + 1e-9), 10.0, 1e6):
        assert partition_series(x) == pytest.approx(direct_euler_product(x), rel=1e-13), x


def test_count_domain_errors():
    with pytest.raises(ValueError):
        partition_count(-1)
