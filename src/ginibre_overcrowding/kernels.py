"""Finite-N and limiting correlation kernels.

Conventions
-----------
All kernel sums are sharply peaked in the summation index around
k = N |z w|, so every evaluation accumulates per-term log-magnitudes and
phases, shifts by the running maximum, and drops terms more than 40 nats
below it before exponentiating.  Per-parameter normalization logs
(log Gamma(k+1, N R^2) and log gamma_lower(k+1, N R^2)) come from the
cached Bernoulli weights, so repeated evaluations cost O(#terms) vector
arithmetic only.

Domains: the plain kernel lives on the whole plane; the outer projection
kernel is supported on |z| > R and the inner one on |z| < R (evaluations
off-support return 0, implementing the defining indicators).  The edge
kernel works in coordinates z with Re z > 0 mapped to R + z/N, and its
x-scaled variant divides by beta = (R^2 - 1 + c)/R and removes the pure
gauge phase exp(-i R (Im zeta - Im omega)), which cancels in every
determinant but would otherwise keep the finite-N kernel from converging
pointwise to the limit.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .gamma import log1mexp
from .mixture import EnsembleParams, IndexSet, bernoulli_weights, log_factorials

__all__ = [
    "KernelSpec",
    "KernelGrid",
    "CorrelationResult",
    "eval_ginibre",
    "eval_outer",
    "eval_inner",
    "eval_edge_rescaled",
    "eval_edge_x_scaled",
    "eval_limit",
    "evaluate_kernel",
    "evaluate_grid",
    "correlation",
    "g_max_diagnostic",
]

_LOG_PI = math.log(math.pi)
_DROP_NATS = 40.0

KERNEL_KINDS = (
    "ginibre_N",
    "outer_J",
    "inner_J_complement",
    "edge_rescaled_J",
    "limit_hard_wall",
)
_KINDS_WITH_INDEX_SET = {"outer_J", "inner_J_complement", "edge_rescaled_J"}


@lru_cache(maxsize=64)
def _log_norms(params: EnsembleParams) -> tuple[np.ndarray, np.ndarray]:
    """(log Gamma(k+1, N R^2), log gamma_lower(k+1, N R^2)) for k = 0, ..., N-1."""
    w = bernoulli_weights(params)
    lf = log_factorials(params.N)
    upper = w.log_a + lf
    lower = w.log_one_minus_a + lf
    upper.flags.writeable = False
    lower.flags.writeable = False
    return upper, lower


def _peaked_sum(log_mag: np.ndarray, phase: np.ndarray) -> complex:
    """sum of exp(log_mag) * exp(i phase) by max-shift; drops tiny terms."""
    if len(log_mag) == 0:
        return 0j
    m = float(np.max(log_mag))
    if m == -math.inf:
        return 0j
    keep = log_mag >= m - _DROP_NATS
    s = np.sum(np.exp(log_mag[keep] - m) * np.exp(1j * phase[keep]))
    return complex(math.exp(m) * s)


def _log_radius(r: float, ks: np.ndarray) -> np.ndarray:
    """k * log(r), with the k = 0 term equal to 0 even at r = 0."""
    if r == 0.0:
        out = np.full(len(ks), -math.inf)
        out[ks == 0] = 0.0
        return out
    return ks * math.log(r)


def eval_ginibre(params: EnsembleParams, z: complex, w: complex) -> complex:
    """K_N(z, w) = sum_{k<N} N^(k+1) (z conj(w))^k e^(-N(|z|^2+|w|^2)/2) / (pi k!)."""
    N = params.N
    z, w = complex(z), complex(w)
    u = z * w.conjugate()
    ks = np.arange(N)
    gauss = -0.5 * N * (abs(z) ** 2 + abs(w) ** 2)
    log_mag = (ks + 1.0) * math.log(N) + _log_radius(abs(u), ks) + gauss - log_factorials(N) - _LOG_PI
    phase = ks * cmath.phase(u) if u != 0 else np.zeros(N)
    return _peaked_sum(log_mag, phase)


def _projection_sum(
    params: EnsembleParams,
    ks: np.ndarray,
    log_norm: np.ndarray,
    z: complex,
    w: complex,
) -> complex:
    """sum over ks of N^(k+1) z^k conj(w)^k e^(-N(|z|^2+|w|^2)/2) / (pi norm_k)."""
    if len(ks) == 0:
        return 0j
    N = params.N
    gauss = -0.5 * N * (abs(z) ** 2 + abs(w) ** 2)
    log_mag = (
        (ks + 1.0) * math.log(N)
        + _log_radius(abs(z), ks)
        + _log_radius(abs(w), ks)
        + gauss
        - log_norm
        - _LOG_PI
    )
    phase = ks * (cmath.phase(z) - cmath.phase(w)) if z != 0 and w != 0 else np.zeros(len(ks))
    return _peaked_sum(log_mag, phase)


def eval_outer(params: EnsembleParams, J: IndexSet, z: complex, w: complex) -> complex:
    """Projection kernel onto the outer functions with indices in J.

    Supported on |z|, |w| > R; returns 0 off-support.
    """
    z, w = complex(z), complex(w)
    if not (abs(z) > params.R and abs(w) > params.R):
        return 0j
    ks = np.asarray(J.members, dtype=int)
    upper, _ = _log_norms(params)
    return _projection_sum(params, ks, upper[ks], z, w)


def eval_inner(params: EnsembleParams, J: IndexSet, z: complex, w: complex) -> complex:
    """Projection kernel onto the inner functions with indices NOT in J.

    Supported on |z|, |w| < R; returns 0 off-support.
    """
    z, w = complex(z), complex(w)
    if not (abs(z) < params.R and abs(w) < params.R):
        return 0j
    mask = np.ones(params.N, dtype=bool)
    mask[list(J.members)] = False
    ks = np.nonzero(mask)[0]
    _, lower = _log_norms(params)
    return _projection_sum(params, ks, lower[ks], z, w)


def eval_edge_rescaled(params: EnsembleParams, J: IndexSet, z: complex, w: complex) -> complex:
    """Edge zoom (1/N^2) K^J(R + z/N, R + w/N), for Re z, Re w > 0.

    Assembled directly in edge coordinates (the 1/N^2 Jacobian is folded
    into the per-term logs) rather than by calling ``eval_outer``, so the
    two routes can be compared as a consistency check.
    """
    N = params.N
    z, w = complex(z), complex(w)
    zm = params.R + z / N
    wm = params.R + w / N
    if not (abs(zm) > params.R and abs(wm) > params.R):
        return 0j
    ks = np.asarray(J.members, dtype=int)
    if len(ks) == 0:
        return 0j
    upper, _ = _log_norms(params)
    gauss = -0.5 * N * (abs(zm) ** 2 + abs(wm) ** 2)
    log_mag = (
        (ks + 1.0) * math.log(N)
        - 2.0 * math.log(N)
        + _log_radius(abs(zm), ks)
        + _log_radius(abs(wm), ks)
        + gauss
        - upper[ks]
        - _LOG_PI
    )
    phase = ks * (cmath.phase(zm) - cmath.phase(wm))
    return _peaked_sum(log_mag, phase)


def eval_edge_x_scaled(params: EnsembleParams, J: IndexSet, z: complex, w: complex) -> complex:
    """Edge kernel in units where the exterior density slope is normalized.

    Divides the edge coordinates by beta = (R^2 - 1 + c)/R, applies the
    matching 1/beta^2 density factor, and strips the determinant-preserving
    gauge phase exp(-i R (Im zeta - Im omega)); what remains converges
    pointwise to ``eval_limit`` on compacts of the right half plane.
    """
    beta = (params.R * params.R - 1.0 + params.c) / params.R
    zeta = complex(z) / beta
    omega = complex(w) / beta
    val = eval_edge_rescaled(params, J, zeta, omega) / (beta * beta)
    return val * cmath.exp(-1j * params.R * (zeta.imag - omega.imag))


def _cexpm1(x: complex) -> complex:
    """e^x - 1 with full relative accuracy for small |x| (complex expm1)."""
    a, b = x.real, x.imag
    half = math.sin(0.5 * b)
    return complex(
        math.expm1(a) * math.cos(b) - 2.0 * half * half,
        math.exp(a) * math.sin(b),
    )


# Taylor coefficients of (1 - (s+1)e^(-s))/s^2 = sum_m (-1)^m (m+1)/(m+2)! s^m
_LIMIT_TAYLOR = [(-1.0) ** m * (m + 1) / math.factorial(m + 2) for m in range(16)]


def eval_limit(z: complex, w: complex) -> complex:
    """Hard-wall edge kernel (1 - (s+1)e^(-s)) / (pi s^2), s = z + conj(w).

    For |s| < 1e-3 the removable singularity is handled by the Taylor
    series of the numerator over s^2 (value 1/(2 pi) at s = 0); the two
    branches agree to about 1e-13 at the switch radius.
    """
    s = complex(z) + complex(w).conjugate()
    if abs(s) < 1e-3:
        acc = 0j
        power = 1.0 + 0j
        for coeff in _LIMIT_TAYLOR:
            acc += coeff * power
            power *= s
        return acc / math.pi
    numerator = -_cexpm1(-s) - s * cmath.exp(-s)
    return numerator / (math.pi * s * s)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel kind plus whatever parameters that kind needs.

    ``x_scaled`` applies to ``edge_rescaled_J`` only and selects the
    beta-normalized, gauge-stripped variant.
    """

    kind: str
    params: EnsembleParams | None = None
    index_set: IndexSet | None = None
    x_scaled: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {KERNEL_KINDS}")
        needs_set = self.kind in _KINDS_WITH_INDEX_SET
        if needs_set and self.index_set is None:
            raise ValueError(f"kernel kind {self.kind!r} requires an index set")
        if not needs_set and self.index_set is not None:
            raise ValueError(f"kernel kind {self.kind!r} does not take an index set")
        if self.kind != "limit_hard_wall" and self.params is None:
            raise ValueError(f"kernel kind {self.kind!r} requires ensemble parameters")
        if self.x_scaled and self.kind != "edge_rescaled_J":
            raise ValueError("x_scaled applies to the edge kernel only")

    def rank(self) -> float:
        """Maximal number of points with nonzero correlation."""
        if self.kind == "ginibre_N":
            return self.params.N
        if self.kind == "outer_J" or self.kind == "edge_rescaled_J":
            return self.index_set.size
        if self.kind == "inner_J_complement":
            return self.params.N - self.index_set.size
        return math.inf


def evaluate_kernel(spec: KernelSpec, z: complex, w: complex) -> complex:
    if spec.kind == "ginibre_N":
        return eval_ginibre(spec.params, z, w)
    if spec.kind == "outer_J":
        return eval_outer(spec.params, spec.index_set, z, w)
    if spec.kind == "inner_J_complement":
        return eval_inner(spec.params, spec.index_set, z, w)
    if spec.kind == "edge_rescaled_J":
        if spec.x_scaled:
            return eval_edge_x_scaled(spec.params, spec.index_set, z, w)
        return eval_edge_rescaled(spec.params, spec.index_set, z, w)
    return eval_limit(z, w)


@dataclass(frozen=True)
class KernelGrid:
    """Kernel values on a product grid of evaluation points."""

    spec: KernelSpec
    z_points: tuple[complex, ...]
    w_points: tuple[complex, ...]
    values: np.ndarray = field(repr=False)

    def hermitian_defect(self) -> float:
        """max |K(z_i, z_j) - conj(K(z_j, z_i))| when the two grids coincide."""
        if self.z_points != self.w_points:
            raise ValueError("hermitian defect needs coinciding grids")
        return float(np.max(np.abs(self.values - self.values.conj().T)))

    def to_json(self) -> str:
        def pair(x: complex) -> list[float]:
            return [float(x.real), float(x.imag)]

        payload: dict = {
            "kind": self.spec.kind,
            "x_scaled": self.spec.x_scaled,
            "params": None,
            "index_set": None,
            "z_points": [pair(z) for z in self.z_points],
            "w_points": [pair(w) for w in self.w_points],
            "values": [[pair(v) for v in row] for row in self.values],
        }
        if self.spec.params is not None:
            p = self.spec.params
            payload["params"] = {"N": p.N, "c": p.c, "R": p.R}
        if self.spec.index_set is not None:
            payload["index_set"] = list(self.spec.index_set.members)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "KernelGrid":
        payload = json.loads(text)
        params = None
        if payload["params"] is not None:
            params = EnsembleParams(**payload["params"])
        index_set = None
        if payload["index_set"] is not None:
            index_set = IndexSet(members=tuple(payload["index_set"]), N=params.N)
        spec = KernelSpec(
            kind=payload["kind"],
            params=params,
            index_set=index_set,
            x_scaled=payload.get("x_scaled", False),
        )
        values = np.array(
            [[complex(re, im) for re, im in row] for row in payload["values"]]
        ).reshape(len(payload["z_points"]), len(payload["w_points"]))
        return cls(
            spec=spec,
            z_points=tuple(complex(re, im) for re, im in payload["z_points"]),
            w_points=tuple(complex(re, im) for re, im in payload["w_points"]),
            values=values,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["z_re", "z_im", "w_re", "w_im", "K_re", "K_im"])
        for i, z in enumerate(self.z_points):
            for j, w in enumerate(self.w_points):
                v = self.values[i, j]
                writer.writerow([z.real, z.imag, w.real, w.imag, v.real, v.imag])
        return buf.getvalue()


def evaluate_grid(
    spec: KernelSpec, z_points: Sequence[complex], w_points: Sequence[complex]
) -> KernelGrid:
    values = np.array(
        [[evaluate_kernel(spec, z, w) for w in w_points] for z in z_points]
    ).reshape(len(z_points), len(w_points))
    return KernelGrid(
        spec=spec,
        z_points=tuple(complex(z) for z in z_points),
        w_points=tuple(complex(w) for w in w_points),
        values=values,
    )


@dataclass(frozen=True)
class CorrelationResult:
    """Correlation-function determinant, clamped to be a valid density value."""

    value: float
    raw: float


def correlation(points: Sequence[complex], spec: KernelSpec) -> CorrelationResult:
    """k-point correlation det(K(x_i, x_j)) for the given kernel.

    The raw determinant can round to a tiny negative number; ``value``
    clamps it at 0 while ``raw`` keeps the unclamped real part.
    """
    pts = [complex(p) for p in points]
    k = len(pts)
    if k == 0:
        raise ValueError("correlation needs at least one point")
    if k > spec.rank():
        raise ValueError(f"{k} points exceed the kernel rank {spec.rank()}")
    gram = np.array([[evaluate_kernel(spec, a, b) for b in pts] for a in pts])
    raw = float(np.linalg.det(gram).real)
    return CorrelationResult(value=max(raw, 0.0), raw=raw)


def _log_abs_h(u: float, l: int, n: int, log_u0: float, lg_small: float) -> float:
    """log |u^(l-n) e^(-u) (1/(l-n)! - u^n/l!)| via the sign-change factorization."""
    d = n * (math.log(u) - log_u0)
    if d < 0.0:
        bracket = log1mexp(d)
    elif d == 0.0:
        return -math.inf
    else:
        bracket = d + log1mexp(-d)
    return (l - n) * math.log(u) - u - lg_small + bracket


def g_max_diagnostic(l: int, n: int, N: int) -> tuple[float, float, float]:
    """Largest normalization-mismatch term against its claimed envelope.

    The difference between the two single-index normalizations, written on
    the diagonal s = t and in units u = N s, is
    h(u) = u^(l-n) e^(-u) (1/(l-n)! - u^n/l!); the maximum of |h| over u > 0
    controls how far a displaced inner function can be from its undisplaced
    partner.  Returns (max_u |h(u)|, n/(N(1-c)), s_max) under the
    calibration l = N(1-c) implied by the arguments (so the envelope equals
    n/l); s_max = u_max/N is the maximizer in the original s variable.
    Checks max <= envelope * (1 + 5 n/sqrt(l)) in the regime l >= 1e4,
    n <= 20 where that inflation is known to cover the correction term.

    |h| vanishes at u = u0 = (l!/(l-n)!)^(1/n) where the bracket changes
    sign, and at 0 and infinity, so each flank of u0 holds one interior
    maximum; both are located by bounded scalar minimization.
    """
    if l != int(l) or l < 1 or n != int(n) or n < 0 or N != int(N) or N < 1:
        raise ValueError(f"g_max_diagnostic needs integers l >= 1, n >= 0, N >= 1")
    if n > l:
        raise ValueError(f"g_max_diagnostic needs n <= l, got n={n}, l={l}")
    if l >= N:
        raise ValueError(f"g_max_diagnostic needs l < N, got l={l}, N={N}")
    bound = n / (N * (l / N))
    if n == 0:
        # the two normalization terms coincide and g vanishes identically
        return 0.0, 0.0, 0.0
    lg_small = math.lgamma(l - n + 1.0)
    log_u0 = (math.lgamma(l + 1.0) - lg_small) / n
    u0 = math.exp(log_u0)
    spread = 10.0 * math.sqrt(l) + n + 1.0
    lo = max(1e-8, l - spread)
    hi = l + spread
    if not (lo < u0 < hi):
        raise RuntimeError(f"sign change u0={u0} escaped the search window [{lo}, {hi}]")
    best = -math.inf
    arg = u0
    for a, b in [(lo, u0 * (1.0 - 1e-12)), (u0 * (1.0 + 1e-12), hi)]:
        res = minimize_scalar(
            lambda u: -_log_abs_h(u, l, n, log_u0, lg_small),
            bounds=(a, b),
            method="bounded",
            options={"xatol": 1e-10 * u0},
        )
        if not res.success:
            raise RuntimeError(f"interior maximum search failed on [{a}, {b}]: {res.message}")
        if -res.fun > best:
            best = -res.fun
            arg = float(res.x)
    max_value = math.exp(best)
    if l >= 10_000 and n <= 20:
        if not max_value <= bound * (1.0 + 5.0 * n / math.sqrt(l)):
            raise RuntimeError(f"max |h|={max_value} at u={arg} exceeds the inflated envelope {bound}")
    return max_value, bound, arg / N
