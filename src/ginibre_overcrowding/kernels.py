"""Finite-N and limiting correlation kernels.

Conventions
-----------
Given the index set J, every finite-N kernel is a projection kernel
K(z, w) = Phi(z) . conj(Phi(w)) with feature rows

    Phi_k(z) = sqrt(N^(k+1) / (pi h_k)) z^k e^(-N |z|^2 / 2),

taken over k in J with h_k = Gamma(k+1, N R^2) (outer), over the
complement of J with h_k = gamma_lower(k+1, N R^2) (inner), or over all
k < N with h_k = k! (plain).  ``basis`` gives one read-only value for each
of the three: the k, the log h_k from the cached Bernoulli weights, and the
table of gaps between successive k.  ``feature_rows`` takes that value and
is the one place that evaluates Phi: each row in log space, shifted by its
own maximum before exponentiating, with the phases e^(i theta k) as running
products over the gaps of k, so a grid of kernel values is one complex
matrix product with the shifts multiplied back in.  The same value serves
every finite-N grid, the edge kernel and the sequential sampler.
Nothing is dropped; the rounding error of an entry is bounded relative to
the scale of its row and column, so the accuracy contract is the normalized
error |K - K_exact| <= eps sqrt(K(z, z) K(w, w)), not a relative error:
entries far below that scale come from cancelling phases.

Domains: the plain kernel lives on the whole plane; the outer projection
kernel is supported on |z| > R and the inner one on |z| < R (evaluations
off-support are exactly 0, implementing the defining indicators).  The
edge kernel works in coordinates z with Re z > 0 mapped to R + z/N, with
the outer rows scaled by the 1/N Jacobian factor.  Its x-scaled variant
divides by beta = (R^2 - 1 + c)/R and removes the pure gauge phase
exp(-i R (Im zeta - Im omega)), which cancels in every determinant but
would otherwise keep the finite-N kernel from converging pointwise to the
limit; both are per-row factors too.  The hard-wall limit kernel is a
closed form in s = z + conj(w), which ``eval_limit`` takes elementwise over
broadcast arrays, so a grid of any kind is one array computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gamma import log1mexp
from .mixture import EnsembleParams, IndexSet, _check_index_set, bernoulli_weights, log_factorials, refuse_past

__all__ = [
    "KernelSpec",
    "FeatureBasis",
    "basis",
    "feature_rows",
    "eval_limit",
    "evaluate_kernel",
    "evaluate_diagonal",
    "evaluate_grid",
    "g_max_diagnostic",
]

_LOG_PI = math.log(math.pi)

# (point, k) entries of the feature rows one finite-N evaluation may build,
# about 24 bytes each at the peak of ``feature_rows``: the largest admitted
# evaluation (201 MB) fits in a 1.5 GB address space
_MAX_ROW_ENTRIES = 1 << 23

KERNEL_KINDS = (
    "ginibre_N",
    "outer_J",
    "inner_J_complement",
    "edge_rescaled_J",
    "limit_hard_wall",
)
_KINDS_WITH_INDEX_SET = {"outer_J", "inner_J_complement", "edge_rescaled_J"}


@dataclass(frozen=True, eq=False)
class FeatureBasis:
    """The k of one kind's feature rows, their log h_k, and the gap table of the k, all read-only.

    ``gaps`` holds the distinct gaps between successive k (the first from 0)
    as floats and ``at`` the index into ``gaps`` of each k's gap.
    """

    kind: str
    ks: np.ndarray
    log_h: np.ndarray
    gaps: np.ndarray
    at: np.ndarray


def basis(params: EnsembleParams, J: "IndexSet | None", kind: str) -> FeatureBasis:
    """The feature basis of ``kind``: ``"ginibre_N"`` (all k < N, J unused),
    ``"outer_J"`` (k in J) or ``"inner_J_complement"`` (k not in J)."""
    lf = log_factorials(params.N)
    if kind == "ginibre_N":
        ks, log_h = np.arange(params.N), lf
    elif kind == "outer_J":
        ks = np.array(J.members, dtype=np.int64)
        log_h = bernoulli_weights(params).log_a[ks] + lf[ks]
    elif kind == "inner_J_complement":
        mask = np.ones(params.N, dtype=bool)
        mask[list(J.members)] = False
        ks = np.nonzero(mask)[0]
        log_h = bernoulli_weights(params).log_one_minus_a[ks] + lf[ks]
    else:
        raise ValueError(f"no feature basis for kind {kind!r}")
    gaps, at = np.unique(np.diff(ks, prepend=0), return_inverse=True)
    gaps = gaps.astype(float)
    for array in (ks, log_h, gaps, at):
        array.flags.writeable = False
    return FeatureBasis(kind, ks, log_h, gaps, at)


def feature_rows(
    params: EnsembleParams, basis: FeatureBasis, t: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows at z_i = sqrt(t_i) e^(i theta_i), each scaled by its own maximum.

    Returns (rows, shift) with Phi_k(z_i) = exp(shift_i) rows[i, j] for
    k = basis.ks[j]; the largest |rows[i, j]| of each row is 1.  A row
    without a nonzero entry (z = 0 when 0 is not among the k, or no k) is
    all zeros with shift 0.  Each phase e^(i theta k) is a running product
    of the e^(i theta d) over the basis's gaps d: a few ulps of error per
    factor, against |theta k| 2^-53 for the cos and sin of a rounded theta k.
    """
    ks = basis.ks
    half = 0.5 * ((ks + 1.0) * math.log(params.N) - _LOG_PI - basis.log_h)
    # (k/2) log t with 0 log 0 = 0; math.log is libm's log, as in scipy's xlogy
    log_t = np.array([math.log(v) if v > 0.0 else -math.inf for v in t.tolist()])
    log_mag = np.zeros((t.size, ks.size))
    np.multiply(log_t[:, None], 0.5 * ks, out=log_mag, where=ks != 0)
    log_mag -= (0.5 * params.N) * t[:, None]
    log_mag += half[None, :]
    shift = log_mag.max(axis=1, initial=-math.inf)
    shift[shift == -math.inf] = 0.0
    log_mag -= shift[:, None]
    arg = np.multiply.outer(theta, basis.gaps)
    step = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=step.real)
    np.sin(arg, out=step.imag)
    rows = step.take(basis.at, axis=1)
    np.multiply.accumulate(rows, axis=1, out=rows)
    np.multiply(rows.real, np.exp(log_mag, out=log_mag), out=rows.real)
    np.multiply(rows.imag, log_mag, out=rows.imag)
    return rows, shift


def _projection_rows(spec: "KernelSpec", pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature rows of a finite-N kind at pts: (rows, shift, on), rows for pts[on] only.

    ``on`` marks the points on the kernel's support; off it the kernel is 0.
    The edge kind's coordinate map and per-row factors are applied here.
    Past ``_MAX_ROW_ENTRIES`` points x rank it refuses before any row is built.
    """
    rank = spec.rank()
    refuse_past(_MAX_ROW_ENTRIES, pts.size * rank, f"feature-row entries of {pts.size} points x rank {rank}")
    params, R = spec.params, spec.params.R
    scale = np.ones(pts.size, dtype=complex)
    kind = spec.kind
    if kind == "edge_rescaled_J":
        beta = (R * R - 1.0 + params.c) / R if spec.x_scaled else 1.0
        zeta = pts / beta
        pts = R + zeta / params.N
        if spec.x_scaled:
            scale = np.exp(-1j * R * zeta.imag)
        scale /= params.N * beta
        kind = "outer_J"
    r = np.abs(pts)
    if kind == "ginibre_N":
        on = np.ones(pts.size, dtype=bool)
    else:
        on = r > R if kind == "outer_J" else r < R
    rows, shift = feature_rows(params, basis(params, spec.index_set, kind), r[on] ** 2, np.angle(pts[on]))
    rows *= scale[on, None]
    return rows, shift, on


# Taylor coefficients of (1 - (s+1)e^(-s))/s^2 = sum_m (-1)^m (m+1)/(m+2)! s^m, highest degree first
_LIMIT_TAYLOR = [(-1.0) ** m * (m + 1) / math.factorial(m + 2) for m in range(15, -1, -1)]

# entries of s that ``eval_limit`` takes at a time: its temporaries stay near 7 MB whatever the grid
_LIMIT_BLOCK = 1 << 16


def eval_limit(z: complex | np.ndarray, w: complex | np.ndarray) -> complex | np.ndarray:
    """Hard-wall edge kernel (1 - (s+1)e^(-s)) / (pi s^2), s = z + conj(w), elementwise.

    ``z`` and ``w`` broadcast against each other; the result has their
    broadcast shape (a numpy scalar for two scalars).  Where |s| < 0.5 the
    removable singularity is handled by the degree-15 Taylor series of the
    numerator over s^2 (value 1/(2 pi) at s = 0), whose truncation is below
    1e-19 there; elsewhere the closed form is taken with the numerator
    written -expm1(-s) - s e^(-s).  That numerator cancels to about s^2/2,
    so the closed form loses relative accuracy as |s| falls: about 1e-15 at
    the switch radius, against 5e-13 at |s| = 1e-3.
    """
    s = np.asarray(np.add(z, np.conj(w)), dtype=complex, order="C")  # C order: each block is a view of s
    flat = s.reshape(-1)
    for start in range(0, flat.size, _LIMIT_BLOCK):
        block = flat[start : start + _LIMIT_BLOCK]
        small = np.abs(block) < 0.5
        far = block[~small]
        e = np.exp(-far)
        # the numerator cancels to about s^2/2, scaling the rounding of s e^(-s) by 1/|s|: that product
        # is formed from real parts, so it rounds as the textbook complex product on every machine. The
        # denominator math.pi * far * far is a numpy complex product, whose rounding follows the CPU's SIMD
        # loops, so the values can differ in the last bit from one machine to another.
        s_e = far.real * e.real - far.imag * e.imag + 1j * (far.real * e.imag + far.imag * e.real)
        block[~small] = (-np.expm1(-far) - s_e) / (math.pi * far * far)
        block[small] = np.polyval(_LIMIT_TAYLOR, block[small]) / math.pi
    return s[()]


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
        if needs_set:
            _check_index_set(self.params, self.index_set)
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
    """K(z, w) of one kernel, for every kind the 1x1 case of ``evaluate_grid``."""
    return complex(evaluate_grid(spec, (z,), (w,))[0, 0])


def evaluate_diagonal(spec: KernelSpec, points: Sequence[complex]) -> np.ndarray:
    """K(z_i, z_i) over a point list: one pass over the feature rows, or one ``eval_limit`` call."""
    pts = np.asarray(points, dtype=complex)
    if spec.kind == "limit_hard_wall":
        return eval_limit(pts, pts)
    rows, shift, on = _projection_rows(spec, pts)
    values = np.zeros(pts.size, dtype=complex)
    values[on] = np.exp(2.0 * shift) * np.einsum("ij,ij->i", rows, rows.conj())
    return values


def evaluate_grid(spec: KernelSpec, z_points: Sequence[complex], w_points: Sequence[complex]) -> np.ndarray:
    """K(z_i, w_j) as a complex (P_z, P_w) array: one ``eval_limit`` call, or one product of feature rows."""
    z = np.asarray(z_points, dtype=complex)
    w = np.asarray(w_points, dtype=complex)
    if spec.kind == "limit_hard_wall":
        return eval_limit(z[:, None], w[None, :])
    # one point list passed as both z and w has its rows built once, which then serve as the w rows too
    stacked = z if z_points is w_points else np.concatenate([z, w])
    rows, shift, on = _projection_rows(spec, stacked)
    on_z, on_w = on[: z.size], on[stacked.size - w.size :]
    nz, at = int(np.count_nonzero(on_z)), len(rows) - int(np.count_nonzero(on_w))
    values = np.zeros((z.size, w.size), dtype=complex)
    values[np.ix_(on_z, on_w)] = np.exp(shift[:nz, None] + shift[None, at:]) * (rows[:nz] @ rows[at:].conj().T)
    return values


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
    maximum; both are located by bounded scalar minimization
    (``scipy.optimize.minimize_scalar``, imported here so that only this
    diagnostic loads scipy).
    """
    from scipy.optimize import minimize_scalar

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
