"""Tests for the kernel evaluations.

Oracles: 40-digit mpmath summation of the defining series, term by term
at every pair (and 50-digit values frozen as literals), scipy quadrature
for orthonormality/trace/reproducing identities, and an independent grid
scan for the normalization-mismatch maximum.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import xlogy

from ginibre_overcrowding import cli, kernels, sampler

from ginibre_overcrowding.kernels import (
    KernelSpec,
    eval_limit,
    evaluate_diagonal,
    evaluate_grid,
    evaluate_kernel,
    feature_rows,
    g_max_diagnostic,
)
from ginibre_overcrowding.mixture import EnsembleParams, IndexSet, top_block


# 50-digit reference values from direct summation of the defining series
# (mpmath, dps=50)
GINIBRE_50_HALF = 15.91549430918951551269
OUTER_REF_PARAMS = dict(N=20, c=0.6, R=0.7)
OUTER_REF_SET = (8, 11, 15, 19)
OUTER_REF_POINT = (0.9 + 0.2j, 0.8 - 0.35j)
OUTER_REF_VALUE = 0.12724220153580651154 - 0.20202530500511922163j
INNER_REF_POINT = (0.3 + 0.1j, 0.25 - 0.2j)
INNER_REF_VALUE = -0.33145505409610283416 + 2.4728557486757819728j


# ----------------------------
# plain kernel
# ----------------------------


def test_ginibre_at_origin():
    K = KernelSpec("ginibre_N", EnsembleParams(N=50, c=0.9, R=0.7))
    assert evaluate_kernel(K, 0, 0) == pytest.approx(50 / math.pi, rel=1e-14)


def test_ginibre_frozen_reference():
    K = KernelSpec("ginibre_N", EnsembleParams(N=50, c=0.9, R=0.7))
    assert evaluate_kernel(K, 0.5, 0.5) == pytest.approx(GINIBRE_50_HALF, rel=1e-13)


def test_ginibre_hermitian_and_diagonal():
    K = KernelSpec("ginibre_N", EnsembleParams(N=40, c=0.8, R=0.8))
    rng = np.random.default_rng(3)
    for _ in range(10):
        z, w = (complex(*rng.normal(0, 0.7, 2)) for _ in range(2))
        assert evaluate_kernel(K, z, w) == pytest.approx(evaluate_kernel(K, w, z).conjugate(), rel=1e-12)
        diag = evaluate_kernel(K, z, z)
        assert diag.imag == pytest.approx(0.0, abs=1e-12 * abs(diag))
        assert diag.real >= 0.0


def test_ginibre_no_overflow_at_large_size():
    val = evaluate_kernel(KernelSpec("ginibre_N", EnsembleParams(N=10_000, c=0.9, R=0.7)), 3.0, 3.0)
    assert math.isfinite(val.real) and math.isfinite(val.imag)
    # density far outside the support is essentially zero but not junk
    assert 0.0 <= val.real < 1e-6


# ----------------------------
# outer projection kernel
# ----------------------------


def test_outer_frozen_reference():
    p = EnsembleParams(**OUTER_REF_PARAMS)
    J = IndexSet(members=OUTER_REF_SET, N=p.N)
    val = evaluate_kernel(KernelSpec("outer_J", p, J), *OUTER_REF_POINT)
    assert val == pytest.approx(OUTER_REF_VALUE, rel=1e-12)


def test_outer_empty_set_and_support():
    p = EnsembleParams(N=12, c=0.6, R=0.7)
    assert evaluate_kernel(KernelSpec("outer_J", p, IndexSet(members=(), N=12)), 0.9, 0.9) == 0j
    K = KernelSpec("outer_J", p, top_block(p))
    assert evaluate_kernel(K, 0.3, 0.9) == 0j  # first argument inside the disk
    assert evaluate_kernel(K, 0.9, 0.69) == 0j
    assert evaluate_kernel(K, 0.9, 0.9) != 0j


def test_outer_single_index_normalization_by_quadrature():
    # the diagonal of a rank-one projection integrates to 1 over its support
    p = EnsembleParams(N=16, c=0.7, R=0.6)
    for k in (0, 7, 15):
        K = KernelSpec("outer_J", p, IndexSet(members=(k,), N=16))

        def diag(r: float) -> float:
            return evaluate_kernel(K, r, r).real * 2.0 * math.pi * r

        hi = p.R + 10.0 / math.sqrt(p.N)
        val, err = quad(diag, p.R, hi, epsabs=1e-11, epsrel=1e-11, limit=300)
        assert err < 1e-9
        assert val == pytest.approx(1.0, abs=1e-8)


def test_outer_trace_equals_rank():
    p = EnsembleParams(N=12, c=0.7, R=0.6)
    K = KernelSpec("outer_J", p, IndexSet(members=(3, 7, 11), N=12))

    def diag(r: float) -> float:
        return evaluate_kernel(K, r, r).real * 2.0 * math.pi * r

    hi = p.R + 10.0 / math.sqrt(p.N)
    val, err = quad(diag, p.R, hi, epsabs=1e-11, epsrel=1e-11, limit=300)
    assert val == pytest.approx(3.0, abs=1e-8)


def test_outer_reproducing_property_by_2d_quadrature():
    # projection kernels reproduce themselves: int K(z,u) K(u,w) dA(u) = K(z,w)
    p = EnsembleParams(N=12, c=0.7, R=0.6)
    K = KernelSpec("outer_J", p, IndexSet(members=(10, 11), N=12))
    z, w = 0.8 + 0.1j, 0.75 - 0.2j
    hi = p.R + 10.0 / math.sqrt(p.N)

    def integrand(theta: float, r: float, take) -> float:
        u = r * cmath.exp(1j * theta)
        return take(evaluate_kernel(K, z, u) * evaluate_kernel(K, u, w)) * r

    re, re_err = dblquad(integrand, p.R, hi, 0.0, 2.0 * math.pi, args=(lambda v: v.real,), epsabs=1e-9)
    im, im_err = dblquad(integrand, p.R, hi, 0.0, 2.0 * math.pi, args=(lambda v: v.imag,), epsabs=1e-9)
    target = evaluate_kernel(K, z, w)
    assert complex(re, im) == pytest.approx(target, abs=1e-6)


def test_outer_top_block_approaches_plain_kernel_outside():
    # with the top block selected, the conditioned kernel looks like the
    # unconditioned one well outside the wall, with an error that dies
    # exponentially in N
    pts = [0.95, 1.0, 0.95 + 0.2j, 1.05 - 0.3j]
    sups = []
    for N in (50, 100, 200):
        p = EnsembleParams(N=N, c=0.9, R=0.7)
        outer, plain = KernelSpec("outer_J", p, top_block(p)), KernelSpec("ginibre_N", p)
        sups.append(
            max(abs(evaluate_kernel(outer, a, b) - evaluate_kernel(plain, a, b)) for a in pts for b in pts)
        )
    assert sups[0] > sups[1] > sups[2]
    assert sups[1] < 1e-2
    assert sups[2] < 1e-4


# ----------------------------
# inner projection kernel
# ----------------------------


def test_inner_frozen_reference():
    p = EnsembleParams(**OUTER_REF_PARAMS)
    J = IndexSet(members=OUTER_REF_SET, N=p.N)
    val = evaluate_kernel(KernelSpec("inner_J_complement", p, J), *INNER_REF_POINT)
    assert val == pytest.approx(INNER_REF_VALUE, rel=1e-12)


def test_inner_full_set_and_support():
    p = EnsembleParams(N=10, c=0.8, R=0.7)
    full = IndexSet(members=tuple(range(10)), N=10)
    assert evaluate_kernel(KernelSpec("inner_J_complement", p, full), 0.3, 0.3) == 0j
    K = KernelSpec("inner_J_complement", p, top_block(p))
    assert evaluate_kernel(K, 0.8, 0.3) == 0j
    assert evaluate_kernel(K, 0.3, 0.3) != 0j


def test_inner_single_complement_normalization():
    # J leaves exactly one inner function; its density integrates to 1
    p = EnsembleParams(N=6, c=0.9, R=0.8)
    assert p.N_c == 5
    K = KernelSpec("inner_J_complement", p, IndexSet(members=(1, 2, 3, 4, 5), N=6))  # complement = {0}

    def diag(r: float) -> float:
        return evaluate_kernel(K, r, r).real * 2.0 * math.pi * r

    val, err = quad(diag, 0.0, p.R, epsabs=1e-11, epsrel=1e-11, limit=300)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_inner_top_block_matches_scaled_small_ensemble():
    # with J the top block, the interior process is a square-root-scaled
    # smaller ensemble up to exponentially small normalization differences
    p = EnsembleParams(N=100, c=0.9, R=0.7)
    M = p.N - p.N_c
    alpha = math.sqrt(M / p.N)
    small = KernelSpec("ginibre_N", EnsembleParams(N=M, c=1.0, R=0.5))  # only N matters here
    inner = KernelSpec("inner_J_complement", p, top_block(p))
    pts = [0.0, 0.2, 0.4, 0.2 + 0.3j, 0.5, 0.6, 0.64]
    sup = max(
        abs(evaluate_kernel(inner, a, b) - evaluate_kernel(small, a / alpha, b / alpha) / alpha**2)
        for a in pts
        for b in pts
    )
    assert sup < 1e-9


# ----------------------------
# edge kernels
# ----------------------------


def test_edge_two_routes_agree():
    p = EnsembleParams(N=200, c=0.9, R=0.7)
    J = top_block(p)
    for z, w in [(1 + 0j, 1 + 0j), (0.5 + 0.7j, 1.2 - 0.3j), (2 + 1j, 0.1 + 0j)]:
        direct = evaluate_kernel(KernelSpec("edge_rescaled_J", p, J), z, w)
        mapped = evaluate_kernel(KernelSpec("outer_J", p, J), p.R + z / p.N, p.R + w / p.N) / p.N**2
        assert direct == pytest.approx(mapped, rel=1e-12)


def test_edge_hermitian_and_diagonal():
    p = EnsembleParams(N=150, c=0.9, R=0.7)
    J = top_block(p)
    rng = np.random.default_rng(11)
    for _ in range(8):
        z = complex(rng.uniform(0.05, 2.0), rng.normal(0, 1.0))
        w = complex(rng.uniform(0.05, 2.0), rng.normal(0, 1.0))
        for x_scaled in (False, True):
            spec = KernelSpec("edge_rescaled_J", p, J, x_scaled=x_scaled)
            zw, wz = evaluate_kernel(spec, z, w), evaluate_kernel(spec, w, z)
            assert zw == pytest.approx(wz.conjugate(), rel=1e-12)
            assert evaluate_kernel(spec, z, z).real >= 0.0


def test_edge_x_scaled_near_limit():
    p = EnsembleParams(N=800, c=0.9, R=0.7)
    edge = KernelSpec("edge_rescaled_J", p, top_block(p), x_scaled=True)
    gap = abs(evaluate_kernel(edge, 1.0, 1.0) - eval_limit(1.0, 1.0))
    assert gap < math.log(p.N) ** 2 / p.N


def test_edge_limit_convergence_rate():
    pts = [0.3 + 0j, 1 + 0j, 1 + 1j, 2 - 0.5j, 0.5 + 2j]
    sups = []
    for N in (200, 400):
        p = EnsembleParams(N=N, c=0.9, R=0.7)
        edge = KernelSpec("edge_rescaled_J", p, top_block(p), x_scaled=True)
        sups.append(max(abs(evaluate_kernel(edge, a, b) - eval_limit(a, b)) for a in pts for b in pts))
    assert sups[1] < sups[0]
    assert 1.4 < sups[0] / sups[1] < 2.8  # consistent with log^2(N)/N across a doubling


# ----------------------------
# 40-digit direct sums of the defining series
# ----------------------------


def mp_kernel(spec: KernelSpec, z: complex, w: complex) -> mpmath.mpc:
    """sum_k N^(k+1) (z conj(w))^k e^(-N(|z|^2+|w|^2)/2) / (pi h_k) at 40 digits.

    The hard-wall limit kind is its closed form (1 - (s+1) e^(-s)) / (pi s^2),
    s = z + conj(w).
    Edge kinds map to the outer kernel at R + zeta/N with the 1/(N beta)^2
    Jacobian and, x-scaled, the gauge phase exp(-i R (Im zeta - Im omega)).
    """
    if spec.kind == "limit_hard_wall":
        with mpmath.workdps(40):
            s = mpmath.mpc(z) + mpmath.conj(mpmath.mpc(w))
            return (1 - (s + 1) * mpmath.exp(-s)) / (mpmath.pi * s * s)
    p, J = spec.params, spec.index_set
    with mpmath.workdps(40):
        N, R = p.N, mpmath.mpf(p.R)
        zm, wm = mpmath.mpc(z), mpmath.mpc(w)
        factor = mpmath.mpf(1)
        kind = spec.kind
        if kind == "edge_rescaled_J":
            beta = (R * R - 1 + mpmath.mpf(p.c)) / R if spec.x_scaled else mpmath.mpf(1)
            zeta, omega = zm / beta, wm / beta
            zm, wm = R + zeta / N, R + omega / N
            factor = 1 / (N * beta) ** 2
            if spec.x_scaled:
                factor *= mpmath.exp(-1j * R * (zeta.imag - omega.imag))
            kind = "outer_J"
        z0 = N * R * R
        if kind == "ginibre_N":
            terms = [(k, mpmath.factorial(k)) for k in range(N)]
        elif kind == "outer_J":
            if not (abs(zm) > R and abs(wm) > R):
                return mpmath.mpc(0)
            terms = [(k, mpmath.gammainc(k + 1, z0)) for k in J.members]
        else:
            if not (abs(zm) < R and abs(wm) < R):
                return mpmath.mpc(0)
            terms = [(k, mpmath.gammainc(k + 1, 0, z0)) for k in range(N) if k not in J.members]
        u = zm * mpmath.conj(wm)
        total = mpmath.fsum(mpmath.mpf(N) ** (k + 1) * u**k / h for k, h in terms)
        gauss = mpmath.exp(-N * (abs(zm) ** 2 + abs(wm) ** 2) / 2)
        return factor * total * gauss / mpmath.pi


_ORACLE_PARAMS = EnsembleParams(N=400, c=0.7, R=0.8)
_TOP = top_block(_ORACLE_PARAMS)
_EVEN = IndexSet(members=tuple(range(0, 400, 2)), N=400)  # 0 in J: inner rows vanish at z = 0
_RIGHT_HALF = [0.05 + 0j, 1.0 + 1.0j, 3.0 - 2.0j, 6.0 + 0.5j]
# |z + conj(w)| from 2e-6 to 1.4e-3 between the first seven points, all on
# the limit kernel's series branch; the closed form would lose about 6e-12
# at |s| = 4e-5
_NEAR_WALL = [1e-6 + 0j, 2e-5 + 1e-5j, 2e-4 + 0j, 4e-4 + 3e-4j, 4.95e-4 + 0j, 5.05e-4 + 1e-5j, 7e-4 - 5e-4j, 0.3 - 0.2j, 2.0 + 1.0j]
# |z + conj(w)| from 1e-3 to 1 between these points, on both sides of the
# switch radius 0.5 (0.498 and 0.502 on the diagonal), where the closed form
# would lose up to 5e-13
_MID_WALL = [
    5e-4 + 2e-4j, 2e-3 - 1e-3j, 0.01 + 0.02j, 0.04 - 0.05j, 0.1 + 0.1j,
    0.2 - 0.15j, 0.249 + 0.01j, 0.251 - 0.02j, 0.35 + 0.2j, 0.5 - 0.1j,
]


@pytest.mark.parametrize(
    "spec, pts",
    [
        (KernelSpec("ginibre_N", _ORACLE_PARAMS), [0j, 0.3 + 0.2j, 0.95 - 0.4j, 1.25j]),
        (KernelSpec("ginibre_N", EnsembleParams(N=7, c=0.9, R=0.5)), [0j, 0.5j, 1.1, 2.5 - 1j]),
        (KernelSpec("outer_J", _ORACLE_PARAMS, _TOP), [0.805, 0.85 + 0.3j, -1.0 + 0.5j, 1.3j]),
        (KernelSpec("outer_J", _ORACLE_PARAMS, _EVEN), [0.805, 0.9 - 0.2j, 1.15j, -1.4]),
        (KernelSpec("inner_J_complement", _ORACLE_PARAMS, _TOP), [0j, 0.1j, 0.5 - 0.3j, 0.79]),
        (KernelSpec("inner_J_complement", _ORACLE_PARAMS, _EVEN), [0j, 0.2, -0.45 + 0.45j, 0.795j]),
        (KernelSpec("edge_rescaled_J", _ORACLE_PARAMS, _TOP), _RIGHT_HALF),
        (KernelSpec("edge_rescaled_J", _ORACLE_PARAMS, _TOP, x_scaled=True), _RIGHT_HALF),
        (KernelSpec("limit_hard_wall"), _RIGHT_HALF),
        (KernelSpec("limit_hard_wall"), _NEAR_WALL),
        (KernelSpec("limit_hard_wall"), _MID_WALL),
    ],
    ids=[
        "ginibre", "ginibre-small", "outer-top", "outer-even", "inner-top", "inner-even", "edge", "edge-x",
        "limit", "limit-near-wall", "limit-mid",
    ],
)
def test_kernels_match_direct_sum(spec, pts):
    # normalized error: entries far below sqrt(K(z,z) K(w,w)) come from
    # cancelling phases and carry no relative accuracy; the limit kernel is a
    # closed form or a series in s = z + conj(w), so every entry is held to a
    # relative error
    limit = spec.kind == "limit_hard_wall"
    ref = {(z, w): complex(mp_kernel(spec, z, w)) for z in pts for w in pts}
    grid = evaluate_grid(spec, pts, pts)
    diag = evaluate_diagonal(spec, pts)
    for i, z in enumerate(pts):
        assert abs(diag[i] - ref[z, z]) <= (2e-15 if limit else 1e-12) * abs(ref[z, z])
        for j, w in enumerate(pts):
            scale = 2e-15 * abs(ref[z, w]) if limit else 1e-12 * math.sqrt(abs(ref[z, z]) * abs(ref[w, w]))
            assert abs(grid[i, j] - ref[z, w]) <= scale
            assert abs(evaluate_kernel(spec, z, w) - ref[z, w]) <= scale


# ----------------------------
# limit kernel
# ----------------------------


def test_limit_small_gap_value():
    assert eval_limit(0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    assert eval_limit(1e-9, 1e-9) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-8)


def test_limit_far_diagonal():
    z = 20.0
    assert eval_limit(z, z) == pytest.approx(1.0 / (4.0 * math.pi * z * z), rel=1e-12)


def test_limit_branch_continuity():
    # 50-digit references on the switch circle |s| = 0.5, evaluated from
    # both sides (mpmath: (1-(s+1)e^-s)/(pi s^2) at dps=50); w = 0 makes s = z
    refs = {
        (1.0 + 0.0j): 0.11485131317451579565,
        (0.6 + 0.8j): 0.12566515425834124806 - 0.033421918231820186056j,
        (0.0 + 1.0j): 0.14934505408706599809 - 0.051737143722417647033j,
    }
    for direction, ref in refs.items():
        # a relative step of 1e-14 to each side moves the kernel by about
        # 5e-16, so both sides matching the reference to 1e-15 pins the
        # branch defect below 2e-15
        inside, outside = direction * 0.5 * (1.0 - 1e-14), direction * 0.5 * (1.0 + 1e-14)
        assert abs(inside) < 0.5 <= abs(outside)
        assert abs(eval_limit(inside, 0.0) - ref) < 1e-15
        assert abs(eval_limit(outside, 0.0) - ref) < 1e-15


def test_limit_branch_defect_at_switch():
    # each branch's formula against eval_limit's other branch, just across
    # the switch circle: Taylor just outside it, the closed form just inside;
    # at |s| = 0.5 both are good to about 1e-15, so they agree to that
    from ginibre_overcrowding.kernels import _LIMIT_TAYLOR

    circle = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 17))
    outside, inside = circle * (1.0 + 1e-9), circle * (1.0 - 1e-9)
    assert np.all(np.abs(outside) >= 0.5) and np.all(np.abs(inside) < 0.5)
    taylor = np.polyval(_LIMIT_TAYLOR, outside) / math.pi
    closed = (-np.expm1(-inside) - inside * np.exp(-inside)) / (math.pi * inside * inside)
    assert np.max(np.abs(eval_limit(outside, 0.0) - taylor)) < 1e-15
    assert np.max(np.abs(eval_limit(inside, 0.0) - closed)) < 1e-15


def test_limit_broadcasts_like_its_scalar_calls():
    rng = np.random.default_rng(8)
    z = rng.uniform(0.0, 2.0, (5, 1)) + 1j * rng.uniform(-2.0, 2.0, (5, 1))
    w = rng.uniform(0.0, 2.0, (1, 4)) + 1j * rng.uniform(-2.0, 2.0, (1, 4))
    z[0, 0] = -w[0, 0].conjugate() + 5e-4j  # one entry on the series branch
    values = eval_limit(z, w)
    assert values.shape == (5, 4)
    scalars = [[eval_limit(complex(a), complex(b)) for b in w[0]] for a in z[:, 0]]
    assert np.array_equal(values, np.array(scalars))
    # a grid of several blocks is its rows taken one call each, also when held in Fortran order
    z = rng.uniform(0.0, 2.0, (400, 1)) + 1j * rng.uniform(-2.0, 2.0, (400, 1))
    w = rng.uniform(0.0, 2.0, (1, 400)) + 1j * rng.uniform(-2.0, 2.0, (1, 400))
    assert z.size * w.size > 2 * kernels._LIMIT_BLOCK
    values = eval_limit(z, w)
    assert np.array_equal(values, np.array([eval_limit(row, w[0]) for row in z]))
    assert np.array_equal(eval_limit(np.asfortranarray(z + 0 * w), w), values)
    assert np.ndim(eval_limit(1.0, 1.0)) == 0 and not isinstance(eval_limit(1.0, 1.0), np.ndarray)
    assert eval_limit(0.0, 0.0) == 1.0 / (2.0 * math.pi)


def test_limit_positive_semidefinite():
    rng = np.random.default_rng(5)
    pts = [complex(rng.uniform(0.01, 3.0), rng.normal(0.0, 2.0)) for _ in range(30)]
    gram = np.array([[eval_limit(a, b) for b in pts] for a in pts])
    assert np.max(np.abs(gram - gram.conj().T)) < 1e-13
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= -1e-10


# ----------------------------
# specs, grids, correlations
# ----------------------------


def test_kernel_spec_validation():
    p = EnsembleParams(N=10, c=0.8, R=0.7)
    J = top_block(p)
    with pytest.raises(ValueError):
        KernelSpec(kind="nope", params=p)
    with pytest.raises(ValueError):
        KernelSpec(kind="outer_J", params=p)  # missing index set
    with pytest.raises(ValueError):
        KernelSpec(kind="ginibre_N", params=p, index_set=J)
    with pytest.raises(ValueError):
        KernelSpec(kind="ginibre_N")  # missing params
    with pytest.raises(ValueError):
        KernelSpec(kind="limit_hard_wall", x_scaled=True)
    # an index set over another N: out of range, or in range but the wrong ensemble
    for kind in ("outer_J", "inner_J_complement", "edge_rescaled_J"):
        for J_other in (IndexSet((11,), N=12), IndexSet((1, 2), N=5)):
            with pytest.raises(ValueError, match=f"over \\{{0..{J_other.N - 1}\\}} but N = 10"):
                KernelSpec(kind=kind, params=p, index_set=J_other)
    # valid ones
    assert KernelSpec(kind="limit_hard_wall").rank() == math.inf
    assert KernelSpec(kind="outer_J", params=p, index_set=J).rank() == p.N_c
    assert KernelSpec(kind="inner_J_complement", params=p, index_set=J).rank() == p.N - p.N_c


def test_evaluate_kernel_dispatch():
    # every kind is the 1x1 grid; for the limit kind that is the closed form
    p = EnsembleParams(N=30, c=0.8, R=0.7)
    J = top_block(p)
    for spec, z in [
        (KernelSpec(kind="ginibre_N", params=p), 0.2),
        (KernelSpec(kind="edge_rescaled_J", params=p, index_set=J, x_scaled=True), 1.0),
        (KernelSpec(kind="limit_hard_wall"), 0.7 - 0.1j),
    ]:
        assert type(evaluate_kernel(spec, z, z)) is complex
        assert evaluate_kernel(spec, z, z) == evaluate_grid(spec, [z], [z])[0, 0]
    assert evaluate_kernel(KernelSpec(kind="limit_hard_wall"), 1.0, 1.0) == eval_limit(1.0, 1.0)


def test_grid_hermitian_defect_and_serialization():
    p = EnsembleParams(N=25, c=0.8, R=0.7)
    J = top_block(p)
    spec = KernelSpec(kind="outer_J", params=p, index_set=J)
    pts = np.array([0.8 + 0.1j, 0.9 - 0.2j, 1.1 + 0.3j])
    grid = evaluate_grid(spec, pts, pts)
    assert np.max(np.abs(grid - grid.conj().T)) < 1e-13
    assert np.all(np.diag(grid).real >= 0.0)
    assert np.max(np.abs(np.diag(grid).imag)) < 1e-13

    csv_text = _csv_text(pts, grid)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "z_re,z_im,w_re,w_im,K_re,K_im"
    assert len(lines) == 1 + len(pts) * len(pts)
    # the JSON rows give back the upper triangle bit for bit, mirrored below a real diagonal
    rows = _json_doc(pts, grid)["rows"]
    assert np.array_equal(np.array([complex(*row[4:]) for row in rows]).reshape(grid.shape), _mirrored(grid))

    # a grid through 0 and across |z| = R: every entry is the 1x1 evaluation,
    # and entries off the support are exactly 0
    cross = [0j, 0.3 - 0.2j, 0.6 + 0.3j, 0.69, -0.71j, 0.8 + 0.1j, 1.1 - 0.4j]
    for kind in ("outer_J", "inner_J_complement", "ginibre_N"):
        spec = KernelSpec(kind=kind, params=p, index_set=None if kind == "ginibre_N" else J)
        values = evaluate_grid(spec, cross, cross)
        pairs = np.array([[evaluate_kernel(spec, z, w) for w in cross] for z in cross])
        scale = np.sqrt(np.outer(np.abs(np.diag(pairs)), np.abs(np.diag(pairs))))
        assert np.all(np.abs(values - pairs) <= 1e-13 * scale)
        moduli = np.abs(np.array(cross))
        off = {"outer_J": moduli <= p.R, "inner_J_complement": moduli >= p.R}.get(kind, moduli < 0)
        assert np.all(values[off, :] == 0) and np.all(values[:, off] == 0)
        assert np.all(np.diag(values)[~off].real > 0)


def test_diagonal_matches_grid_diagonal():
    # one pass of feature rows gives the grid's diagonal for every kind,
    # real and nonnegative, exactly 0 off the support
    p = EnsembleParams(N=25, c=0.8, R=0.7)
    J = top_block(p)
    cross = [0j, 0.3 - 0.2j, 0.6 + 0.3j, 0.69, -0.71j, 0.8 + 0.1j, 1.1 - 0.4j]
    for spec in (
        KernelSpec(kind="ginibre_N", params=p),
        KernelSpec(kind="outer_J", params=p, index_set=J),
        KernelSpec(kind="inner_J_complement", params=p, index_set=J),
        KernelSpec(kind="edge_rescaled_J", params=p, index_set=J, x_scaled=True),
        KernelSpec(kind="limit_hard_wall"),
    ):
        pts = [z + 0.5 for z in cross] if spec.kind in ("edge_rescaled_J", "limit_hard_wall") else cross
        diag = evaluate_diagonal(spec, pts)
        want = np.diag(evaluate_grid(spec, pts, pts))
        assert np.all(np.abs(diag - want) <= 1e-13 * np.abs(want))
        assert np.all(diag.imag == 0) and np.all(diag.real >= 0)
        assert np.array_equal(diag == 0, want == 0)


class _CountedWrites(io.StringIO):
    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def _csv_text(points: np.ndarray, values: np.ndarray) -> str:
    """The ``kernel --kind`` CSV of ``values``, one write for the header and one per z point."""
    buf = _CountedWrites()
    cli._write_table(buf, "csv", {}, cli._GRID_COLUMNS, cli._grid_blocks(points, values, "csv"))
    assert buf.writes == 1 + len(points)
    return buf.getvalue()


def _json_doc(points: np.ndarray, values: np.ndarray) -> dict:
    """The ``kernel --kind`` JSON document of ``values``, parsed."""
    buf = io.StringIO()
    cli._write_table(buf, "json", {"kind": "any"}, cli._GRID_COLUMNS, cli._grid_blocks(points, values, "json"))
    return json.loads(buf.getvalue())


def _mirrored(values: np.ndarray) -> np.ndarray:
    """The matrix a ``kernel --kind`` table holds: the upper triangle of ``values``, its conjugate below
    with imaginary parts 0.0 - im (so +0.0 for either zero), and the real parts on the diagonal."""
    upper = np.triu(np.ones(values.shape, dtype=bool), 1)
    out = np.empty_like(values)
    out.real = np.where(upper, values.real, values.real.T)
    out.imag = np.where(upper, values.imag, 0.0 - values.imag.T)
    np.fill_diagonal(out.imag, 0.0)
    return out


def _csv_writer_oracle(points: np.ndarray, values: np.ndarray) -> str:
    """The table written by ``csv.writer`` over the numpy scalars of ``points`` and ``values``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["z_re", "z_im", "w_re", "w_im", "K_re", "K_im"])
    for i, z in enumerate(points):
        for j, w in enumerate(points):
            v = values[i, j]
            writer.writerow([z.real, z.imag, w.real, w.imag, v.real, v.imag])
    return buf.getvalue()


def _lines(text: str) -> list[str]:
    """Lines with their ends kept: equal lists mean equal texts, and a mismatch reports one line."""
    return text.splitlines(keepends=True)


def _assert_json_rows_are_csv_rows(points: np.ndarray, values: np.ndarray, csv_text: str) -> None:
    """The JSON document holds the CSV's columns and rows, cell for cell (nan as nan, -0.0 as -0.0)."""
    doc = _json_doc(points, values)
    header, *rows = csv.reader(io.StringIO(csv_text))
    assert doc["kind"] == "any" and doc["columns"] == header
    assert [[repr(v) for v in row] for row in doc["rows"]] == rows


def test_grid_serialization_matches_oracles_on_every_kind():
    # a 9 x 7 grid across |z| = R and Re z = 0, so the outer, inner and edge
    # kinds have entries off their support, which are exactly 0
    p = EnsembleParams(N=25, c=0.8, R=0.7)
    J = top_block(p)
    pts = np.array([complex(a, b) for a in np.linspace(-0.9, 1.1, 9) for b in np.linspace(-0.6, 0.6, 7)])
    for spec in (
        KernelSpec(kind="ginibre_N", params=p),
        KernelSpec(kind="outer_J", params=p, index_set=J),
        KernelSpec(kind="inner_J_complement", params=p, index_set=J),
        KernelSpec(kind="edge_rescaled_J", params=p, index_set=J),
        KernelSpec(kind="edge_rescaled_J", params=p, index_set=J, x_scaled=True),
        KernelSpec(kind="limit_hard_wall"),
    ):
        values = evaluate_grid(spec, pts, pts)
        if spec.kind in ("outer_J", "inner_J_complement", "edge_rescaled_J"):
            assert np.any(values == 0) and np.any(values != 0)
        text = _csv_text(pts, values)
        assert _lines(text) == _lines(_csv_writer_oracle(pts, _mirrored(values)))
        _assert_json_rows_are_csv_rows(pts, values, text)


def test_grid_serialization_matches_oracles_on_edge_floats():
    # both signed zeros, the smallest subnormal, the repr exponent switches,
    # infinities and nan, in points and values
    special = [-0.0, 5e-324, 1e16, 1e-5, 1e22, math.inf, -math.inf, math.nan, 0.1, -2.5e-300, 0.0]
    points = np.array([complex(a, b) for a, b in zip(special, special[::-1])])
    values = np.array([[complex(a, b) for b in special] for a in special])
    text = _csv_text(points, values)
    assert _lines(text) == _lines(_csv_writer_oracle(points, _mirrored(values)))
    assert text.count("\r\n") == 1 + len(points) ** 2
    _assert_json_rows_are_csv_rows(points, values, text)


def _table_values(text: str, fmt: str) -> np.ndarray:
    """The K column of a written ``kernel --kind`` table as a square complex matrix."""
    if fmt == "csv":
        _, *rows = csv.reader(io.StringIO(text))
        rows = [[float(cell) for cell in row] for row in rows]
    else:
        rows = json.loads(text)["rows"]
    values = np.array([complex(*row[4:]) for row in rows])
    return values.reshape(math.isqrt(values.size), -1)


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_written_grid_is_exactly_hermitian_on_every_kind(fmt):
    # a grid across |z| = R, so the finite-N kinds write zeros off their support
    p = EnsembleParams(N=25, c=0.8, R=0.7)
    J = top_block(p)
    pts = cli._parse_grid("-0.9:1.1:5,-0.6:0.6:4", squared=True)
    for spec in (
        KernelSpec(kind="ginibre_N", params=p),
        KernelSpec(kind="outer_J", params=p, index_set=J),
        KernelSpec(kind="inner_J_complement", params=p, index_set=J),
        KernelSpec(kind="edge_rescaled_J", params=p, index_set=J),
        KernelSpec(kind="limit_hard_wall"),
    ):
        values = evaluate_grid(spec, pts, pts)
        buf = io.StringIO()
        cli._write_table(buf, fmt, {"kind": spec.kind}, cli._GRID_COLUMNS, cli._grid_blocks(pts, values, fmt))
        written = _table_values(buf.getvalue(), fmt)
        # the upper triangle as evaluated, K_ji = conj(K_ij) bit for bit below it (a zero
        # imaginary part as +0.0), and a diagonal whose imaginary part is exactly +0.0
        i, j = np.triu_indices(len(pts), 1)
        assert np.array_equal(_bits(written[i, j]), _bits(values[i, j]))
        assert np.array_equal(_bits(written.real[j, i]), _bits(written.real[i, j]))
        assert np.array_equal(_bits(written.imag[j, i]), _bits(0.0 - written.imag[i, j]))
        assert np.all(_bits(written.imag[j, i][written.imag[j, i] == 0]) == 0)
        assert np.array_equal(_bits(np.diag(written).real), _bits(np.diag(values).real))
        assert np.all(_bits(np.diag(written).imag) == 0)
        if spec.kind in ("outer_J", "inner_J_complement", "edge_rescaled_J"):
            assert np.any(values[i, j] == 0) and np.any(values[i, j] != 0)


def _json_rows(csv_text: str) -> str:
    """CSV rows as JSON rows: each row a list after a comma and a newline, cells after ", ", and nan and
    inf spelled as ``json`` spells them (a row holds floats only, so the letters spell nothing else)."""
    rows = csv_text[:-2].replace(",", ", ").replace("\r\n", "],\n[")
    return ",\n[" + rows.replace("nan", "NaN").replace("inf", "Infinity") + "]"


def _per_point_grid_blocks(points: np.ndarray, values: np.ndarray, fmt: str = "csv"):
    """``kernel --kind`` rows with every coordinate formatted at each of its points: the coordinate oracle."""
    texts = [f"{re!r},{im!r}," for re, im in zip(points.real.tolist(), points.imag.tolist())]
    for z, vs in zip(texts, values):
        text = "".join(f"{z}{w}{v.real!r},{v.imag!r}\r\n" for w, v in zip(texts, vs.tolist()))
        yield text if fmt == "csv" else _json_rows(text)


def _per_point_compare_blocks(points: np.ndarray, a: np.ndarray, b: np.ndarray, diff: np.ndarray, fmt: str):
    """``kernel --compare`` rows with every float formatted where it stands, one block."""
    columns = (points.real, points.imag, a.real, a.imag, b.real, b.imag, diff)
    text = "".join(",".join(map(repr, row)) + "\r\n" for row in zip(*(column.tolist() for column in columns)))
    yield text if fmt == "csv" else _json_rows(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_coordinates_formatted_once_per_axis_value_keep_the_bytes(fmt):
    # a product grid (n + m distinct coordinates), and points with both signed zeros and nan in one column
    special = [-0.0, 0.0, math.nan, 1e-5, -0.0, 0.1, math.inf, 0.0]
    odd = np.array([complex(a, b) for a, b in zip(special, special[::-1])])
    gen = np.random.default_rng(5)
    for points in (cli._parse_grid("-1:1:7,-0.5:0.5:5", squared=True), odd):
        values = gen.normal(size=(points.size, points.size)) + 1j * gen.normal(size=(points.size, points.size))
        a, b = np.diag(values).copy(), values[0]
        diff = np.hypot(a.real - b.real, a.imag - b.imag)
        for columns, blocks, oracle in (
            (cli._GRID_COLUMNS, cli._grid_blocks(points, values, fmt), _per_point_grid_blocks(points, _mirrored(values), fmt)),
            (
                cli._COMPARE_COLUMNS,
                cli._compare_blocks(points, a, b, diff, fmt),
                _per_point_compare_blocks(points, a, b, diff, fmt),
            ),
        ):
            got, want = io.StringIO(), io.StringIO()
            cli._write_table(got, fmt, {}, columns, blocks)
            cli._write_table(want, fmt, {}, columns, oracle)
            assert _lines(got.getvalue()) == _lines(want.getvalue())


_EDGE_FLOATS = [0.0, -0.0, math.nan, float(np.copysign(math.nan, -1.0)), math.inf, -math.inf]
_EDGE_FLOATS += [5e-324, -5e-324, 1e-310, -2.5e-310, 0.1, -0.1, 1e16, -1e-5, 1e22, 2.5]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", [1, 2, 5, 7, 12])
def test_grid_blocks_match_the_per_point_oracle_at_every_block_size(fmt, size, monkeypatch):
    # blocks of one row up to several rows, the last one short: 1, 3, P + 1, 3P - 1 and 3P values,
    # over both signed zeros, nan with and without its sign bit, both infinities, subnormals and
    # repeated values, in the points and in both parts of K
    gen = np.random.default_rng(size)
    points, values = np.empty(size, dtype=complex), np.empty((size, size), dtype=complex)
    for part in (points.real, points.imag, values.real, values.imag):
        part[...] = gen.choice(_EDGE_FLOATS, size=part.shape)
    # from 7 points on, the written imaginary parts hold every edge float
    upper = np.triu_indices(size, 1)
    values.imag[upper] = np.resize(_EDGE_FLOATS, upper[0].size)
    for block in (1, 3, size + 1, 3 * size - 1, 3 * size):
        monkeypatch.setattr(cli, "_GRID_BLOCK", block)
        texts = list(cli._grid_blocks(points, values, fmt))
        assert len(texts) == size
        got, want = io.StringIO(), io.StringIO()
        cli._write_table(got, fmt, {}, cli._GRID_COLUMNS, iter(texts))
        cli._write_table(want, fmt, {}, cli._GRID_COLUMNS, _per_point_grid_blocks(points, _mirrored(values), fmt))
        assert _lines(got.getvalue()) == _lines(want.getvalue())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_written_grid_is_exactly_hermitian_across_small_blocks(fmt, monkeypatch):
    # the 20-point grid in blocks of 2 rows, the last one short
    monkeypatch.setattr(cli, "_GRID_BLOCK", 41)
    test_written_grid_is_exactly_hermitian_on_every_kind(fmt)


def test_grid_writer_calls_repr_once_per_distinct_float_of_a_block(monkeypatch):
    # the hard-wall kernel depends on z + conj(w) alone, so a 9 x 9 grid repeats most of its values
    points = cli._parse_grid("0.05:3:9,-2:2:9", squared=True)
    values = evaluate_grid(KernelSpec("limit_hard_wall"), points, points)
    calls = []
    monkeypatch.setattr(cli, "repr", lambda x: calls.append(x) or repr(x), raising=False)
    text = "".join(cli._grid_blocks(points, values, "csv"))
    monkeypatch.undo()
    assert text == "".join(_per_point_grid_blocks(points, _mirrored(values)))
    # per block: Re K on and above the diagonal and |Im K| above it; then the coordinates of both axes
    distinct = lambda x: np.unique(x.view(np.int64)).size
    allowed = distinct(np.concatenate([points.real, points.imag]))
    rows = max(1, cli._GRID_BLOCK // points.size)
    for a in range(0, points.size, rows):
        i, j = np.nonzero(np.triu(np.ones((points.size, points.size), dtype=bool))[a : a + rows])
        upper = j > i + a
        allowed += distinct(np.concatenate([values.real[i + a, j], np.abs(values.imag[i + a, j][upper])]))
    assert 0 < len(calls) <= allowed < points.size**2 // 4
    assert rows < points.size  # more than one block


def test_grid_json_limit_kernel_without_params(capsys):
    assert cli.main(["kernel", "--kind", "limit_hard_wall", "--grid", "1:2:2,0:0:1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["kind"], doc["x_scaled"], doc["params"], doc["index_set"]) == ("limit_hard_wall", False, None, None)
    values = evaluate_grid(KernelSpec(kind="limit_hard_wall"), [1.0, 2.0], [1.0, 2.0])
    assert np.array_equal(np.array([complex(*row[4:]) for row in doc["rows"]]).reshape(2, 2), values)


def correlation(points, spec: KernelSpec) -> float:
    """k-point correlation det(K(x_i, x_j)) of the kernel, from one ``evaluate_grid`` call."""
    return float(np.linalg.det(evaluate_grid(spec, points, points)).real)


def test_correlation_single_and_repeated_points():
    p = EnsembleParams(N=20, c=0.8, R=0.7)
    spec = KernelSpec(kind="ginibre_N", params=p)
    x = 0.4 + 0.2j
    assert correlation([x], spec) == pytest.approx(evaluate_grid(spec, [x], [x])[0, 0].real, rel=1e-13)
    assert correlation([x, x], spec) == pytest.approx(0.0, abs=1e-10)


def test_correlation_pair_formula():
    p = EnsembleParams(N=20, c=0.8, R=0.7)
    J = top_block(p)
    spec = KernelSpec(kind="outer_J", params=p, index_set=J)
    x, y = 0.9 + 0.1j, 1.0 - 0.3j
    direct = (
        evaluate_grid(spec, [x], [x])[0, 0].real * evaluate_grid(spec, [y], [y])[0, 0].real
        - abs(evaluate_grid(spec, [x], [y])[0, 0]) ** 2
    )
    assert correlation([x, y], spec) == pytest.approx(direct, rel=1e-11)


# ----------------------------
# feature rows
# ----------------------------


def xlogy_magnitudes(params, basis, t):
    """|rows| of ``xlogy_feature_rows`` before the phase, and the row shifts."""
    ks = basis.ks
    half = 0.5 * ((ks + 1.0) * math.log(params.N) - math.log(math.pi) - basis.log_h)
    log_mag = xlogy(0.5 * ks, t[:, None]) - (0.5 * params.N) * t[:, None]
    log_mag += half[None, :]
    shift = log_mag.max(axis=1, initial=-math.inf)
    shift[shift == -math.inf] = 0.0
    log_mag -= shift[:, None]
    return np.exp(log_mag), shift


def xlogy_feature_rows(params, basis, t, theta):
    """The feature rows as first written: scipy's xlogy for (k/2) log t, cos and sin of the rounded theta k.

    The basis's gap table, which ``feature_rows`` takes, is not used."""
    magnitudes, shift = xlogy_magnitudes(params, basis, t)
    phase = np.multiply.outer(theta, basis.ks.astype(float))
    return magnitudes * (np.cos(phase) + 1j * np.sin(phase)), shift


_U = 2.0**-53


def phase_bound(theta, ks):
    """Entrywise bound on |phase - oracle phase| between ``feature_rows`` and the oracle, to first order in 2^-53.

    The oracle rounds theta k (within |theta k| 2^-53) and takes its cos and
    sin.  ``feature_rows`` multiplies the n = j + 1 factors e^(i theta d) up
    to k = ks[j], each from a rounded theta d (those errors sum to |theta| k)
    and its own cos and sin, and rounds each of the n - 1 complex products
    within sqrt(5) 2^-53.  With cos and sin within 4 ulps (12 x 2^-53 for the
    pair) the oracle is within (|theta| k + 12) 2^-53 of e^(i theta k) and
    ``feature_rows`` within (|theta| k + 12 n + sqrt(5) (n - 1)) 2^-53.
    """
    n = np.arange(1, ks.size + 1)
    return (2.0 * np.abs(theta)[:, None] * ks + 15.0 * n + 12.0) * _U


@pytest.mark.parametrize("kind", ["ginibre_N", "outer_J", "inner_J_complement"])
def test_feature_rows_match_xlogy_within_the_phase_bound(kind):
    # ginibre_N and inner_J_complement rows hold k = 0, outer_J rows do not
    # thousands of t: numpy's SIMD log can differ from libm's in the last bit on about 1 t in 700
    params = EnsembleParams(N=60, c=0.7, R=0.8)
    basis = kernels.basis(params, top_block(params), kind)
    ks = basis.ks
    assert (ks[0] == 0) == (kind != "outer_J")
    gen = np.random.default_rng(17)
    t = np.concatenate([[0.0, 5e-324, 1e-300, 1.0, 0.64], 3.0 * gen.random(4000), np.exp(8.0 * gen.normal(size=1000))])
    theta = 2.0 * math.pi * gen.random(t.size)
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        rows, shift = feature_rows(params, basis, t, theta)
    want_rows, want_shift = xlogy_feature_rows(params, basis, t, theta)
    # the magnitudes and shifts are the oracle's bit for bit, so the rows differ by their phases,
    # and by 2^-1074 in each part where a magnitude is subnormal
    assert shift.tobytes() == want_shift.tobytes()
    assert np.array_equal(rows == 0.0, want_rows == 0.0)
    assert np.all(np.abs(rows - want_rows) <= phase_bound(theta, ks) * np.abs(want_rows) + 2.0**-1073)
    # at z = 0 only k = 0 survives
    assert np.count_nonzero(rows[0]) == (kind != "outer_J")


@pytest.mark.parametrize(
    "N, kind, points", [(60, "ginibre_N", 40), (60, "outer_J", 40), (60, "inner_J_complement", 40), (2000, "ginibre_N", 6)]
)
def test_feature_row_phases_at_least_as_accurate_as_the_oracle(N, kind, points):
    # rows at uniform points of the unit disk against 140-bit values of the float magnitude both
    # routes share times e^(i theta k) of the float theta: the largest error of the running product
    # is no larger than that of the rounded theta k (about 4x and 6x smaller at N = 60 and 2000)
    params = EnsembleParams(N=N, c=0.7, R=0.8)
    basis = kernels.basis(params, top_block(params), kind)
    ks = basis.ks
    gen = np.random.default_rng(N)
    t, theta = gen.random(points), 2.0 * math.pi * gen.random(points)
    magnitudes, _ = xlogy_magnitudes(params, basis, t)
    routes = (feature_rows(params, basis, t, theta)[0], xlogy_feature_rows(params, basis, t, theta)[0])
    worst = [0.0, 0.0]
    with mpmath.workprec(140):
        for i, j in zip(*np.nonzero(magnitudes)):
            exact = mpmath.mpf(magnitudes[i, j]) * mpmath.expj(mpmath.mpf(theta[i]) * int(ks[j]))
            for r, rows in enumerate(routes):
                worst[r] = max(worst[r], float(abs(mpmath.mpc(rows[i, j]) - exact)))
    assert 0.0 < worst[0] <= worst[1]


@pytest.mark.parametrize("basis", ["outer_J", "inner_J_complement"])
def test_pool_rows_match_the_complex_product(basis, monkeypatch):
    # a sampler pool as ``_draw_pool`` draws it, against the same pool with the oracle's rows
    params = EnsembleParams(N=150, c=0.7, R=0.8)
    fb = kernels.basis(params, top_block(params), basis)
    ks = fb.ks
    pool = sampler._draw_pool(params, fb, 600, np.random.default_rng(3))
    monkeypatch.setattr(sampler, "feature_rows", xlogy_feature_rows)
    want = sampler._draw_pool(params, fb, 600, np.random.default_rng(3))
    for got, ref in zip(pool[:3], want[:3]):
        assert got.tobytes() == ref.tobytes()
    psi, ref = pool[3], want[3]
    assert np.array_equal(psi == 0.0, ref == 0.0)
    # unit rows a/|a| and b/|b| lie within 2 |a - b| / |b| of each other, and each normalization
    # within (m + 4) 2^-53 of its exact unit row
    t, theta = pool[:2]
    rows, _ = xlogy_feature_rows(params, fb, t, theta)
    apart = np.linalg.norm(phase_bound(theta, ks) * np.abs(rows), axis=1) / np.linalg.norm(rows, axis=1)
    assert np.all(np.linalg.norm(psi - ref, axis=1) <= 2.0 * apart + 2.0 * (ks.size + 4) * _U)


def test_grid_with_underflowed_rows_matches_the_complex_product(monkeypatch):
    # points from 0 to |z| = 3 at N = 1000: a fifth of the row entries underflow to 0
    spec = KernelSpec("ginibre_N", EnsembleParams(N=1000, c=0.7, R=0.8))
    pts = np.linspace(0.0, 3.0, 41) * np.exp(1j * np.linspace(-3.0, 3.0, 41))
    rows, shift, _ = kernels._projection_rows(spec, pts)
    assert np.count_nonzero(rows == 0.0) > rows.size // 6
    values = evaluate_grid(spec, pts, pts[::-1])
    monkeypatch.setattr(kernels, "feature_rows", xlogy_feature_rows)
    want_rows, want_shift, _ = kernels._projection_rows(spec, pts)
    want = evaluate_grid(spec, pts, pts[::-1])
    assert shift.tobytes() == want_shift.tobytes()
    assert np.array_equal(rows == 0.0, want_rows == 0.0)
    # K(z, w) = e^(shift_z + shift_w) rows_z . conj(rows_w): the phase bound enters through either
    # factor, and each route's complex product and scaling round within (m + 4) 2^-53 of the
    # sum of the |terms|
    m = want_rows.shape[1]
    a = np.abs(want_rows)
    b = phase_bound(np.angle(pts), np.arange(m)) * a
    terms = b @ a[::-1].T + a @ b[::-1].T + 2.0 * (m + 4) * _U * (a @ a[::-1].T)
    assert np.all(np.abs(values - want) <= np.exp(shift[:, None] + shift[None, ::-1]) * terms)


@pytest.mark.parametrize("kind", ["outer_J", "inner_J_complement", "ginibre_N", "edge_rescaled_J"])
@pytest.mark.parametrize("N", [25, 300])
def test_one_point_list_as_z_and_w_matches_the_stacked_rows(kind, N):
    # rows built once for a list passed as both z and w, against the rows of the stacked z and w;
    # the grid straddles |z| = R (and Re z = 0 for the edge kind), so some points are off support
    p = EnsembleParams(N=N, c=0.7, R=0.8)
    spec = KernelSpec(kind, p, None if kind == "ginibre_N" else top_block(p), x_scaled=kind == "edge_rescaled_J")
    centre = 0.0 if kind == "edge_rescaled_J" else p.R
    pts = cli._parse_grid(f"{centre - 0.4}:{centre + 0.4}:7,-0.5:0.5:6", squared=True)
    if kind == "edge_rescaled_J":
        pts = pts * 3.0
    once = evaluate_grid(spec, pts, pts)
    stacked = evaluate_grid(spec, pts, pts.copy())
    assert once.tobytes() == stacked.tobytes()
    if kind != "ginibre_N":
        off = np.all(once == 0, axis=1)
        assert 0 < np.count_nonzero(off) < pts.size


def test_feature_row_cap_refuses_before_any_row(monkeypatch):
    params = EnsembleParams(N=20, c=0.7, R=0.8)
    spec = KernelSpec("ginibre_N", params)
    pts = [0.1 * i + 0.05j for i in range(5)]
    # distinct z and w lists are stacked: 10 points x rank 20; one list as both is 5 points x rank 20
    monkeypatch.setattr(kernels, "_MAX_ROW_ENTRIES", 200)
    assert evaluate_grid(spec, pts, list(pts)).shape == (5, 5)
    monkeypatch.setattr(kernels, "_MAX_ROW_ENTRIES", 100)
    assert evaluate_grid(spec, pts, pts).shape == (5, 5)
    monkeypatch.setattr(kernels, "_MAX_ROW_ENTRIES", 199)
    monkeypatch.setattr(kernels, "basis", None)  # any row built would fail on this
    with pytest.raises(ValueError, match=r"feature-row entries of 10 points x rank 20: 200, over the cap of 199$"):
        evaluate_grid(spec, pts, list(pts))
    with pytest.raises(ValueError, match="10 points x rank 20"):
        evaluate_diagonal(spec, pts + pts)
    monkeypatch.setattr(kernels, "_MAX_ROW_ENTRIES", 99)
    with pytest.raises(ValueError, match=r"feature-row entries of 5 points x rank 20: 100, over the cap of 99$"):
        evaluate_grid(spec, pts, pts)


# ----------------------------
# normalization-mismatch diagnostic
# ----------------------------


def oracle_log_abs_h(u: float, l: int, n: int) -> float:
    """Independent evaluation of log |u^(l-n) e^-u (1/(l-n)! - u^n/l!)|."""
    t1 = -math.lgamma(l - n + 1.0)
    t2 = n * math.log(u) - math.lgamma(l + 1.0)
    hi, lo = max(t1, t2), min(t1, t2)
    if hi == lo:
        return -math.inf
    bracket = hi + math.log1p(-math.exp(lo - hi))
    return (l - n) * math.log(u) - u + bracket


def test_g_max_against_grid_scan():
    l, n = 2500, 2
    max_val, bound, _ = g_max_diagnostic(l, n, 10_000)
    grid = np.linspace(l - 6 * math.sqrt(l), l + 6 * math.sqrt(l), 20001)
    scan = max(oracle_log_abs_h(u, l, n) for u in grid)
    assert max_val >= math.exp(scan) * (1.0 - 1e-12)
    assert max_val == pytest.approx(math.exp(scan), rel=1e-4)
    assert bound == pytest.approx(n / l, rel=1e-12)


def test_g_max_envelope_and_location():
    l, n, N = 10_000, 1, 100_000
    max_val, bound, s_max = g_max_diagnostic(l, n, N)  # asserts internally too
    assert bound == pytest.approx(n / (N * (1.0 - 0.9)), rel=1e-12)
    assert max_val <= bound * (1.0 + 5.0 * n / math.sqrt(l))
    # the maximum sits within two standard widths of l, in u = N s units
    assert (l - 2 * math.sqrt(l)) / N <= s_max <= (l + 2 * math.sqrt(l)) / N
    grid = np.linspace(l - 2 * math.sqrt(l), l + 2 * math.sqrt(l), 4001)
    inner_max = max(oracle_log_abs_h(u, l, n) for u in grid)
    assert max_val == pytest.approx(math.exp(inner_max), rel=1e-3)


def test_g_max_degenerate_and_errors():
    assert g_max_diagnostic(100, 0, 1000) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        g_max_diagnostic(10, 11, 100)  # n > l
    with pytest.raises(ValueError):
        g_max_diagnostic(100, 1, 100)  # l >= N
    with pytest.raises(ValueError):
        g_max_diagnostic(0, 0, 10)
