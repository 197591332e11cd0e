"""Acceptance suite: ten numbered criteria covering the whole package.

Each criterion is a self-contained check with frozen seeds, so a run is
deterministic and a pass/fail line is meaningful across machines.  The
checks mix three styles: exact-oracle equivalence at small N (subset
enumeration), measured convergence rates at moderate N (asymptotic
statements become ratio or decay assertions with margins fixed from
reference runs), and Monte-Carlo statistics for the samplers.

``run_criterion`` runs one criterion and returns its ``CriterionResult``;
the command-line ``validate`` subcommand runs them in order, prints one
line each, and folds the outcome into its exit status.  Every threshold
is a literal at the comparison that uses it, so no run can loosen the
gate.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gamma import (
    log_gamma_lower,
    log_gamma_lower_asymptotic,
    log_q,
    log_q_asymptotic,
    log_q_integer,
)
from .kernels import KernelSpec, evaluate_diagonal, evaluate_grid, g_max_diagnostic
from .mixture import (
    EnsembleParams,
    _log_count_prob,
    _log_poisson_tails,
    bernoulli_weights,
    log_ratio_approx,
    log_ratio_exact,
    overcrowding_probability_asymptotic,
    overcrowding_probability_exact,
    sample_conditioned_indexset,
    top_block,
)
from .partitions import partition_count, partition_series
from .sampler import RandomStream, radial_survival, sample_conditioned_ensemble, sample_radii_outer, sample_sequential

__all__ = [
    "CriterionResult",
    "ALL_CRITERIA",
    "QUICK_CRITERIA",
    "enumerate_count_log_probs",
    "run_criterion",
]

# chi-square consistency level for the sampler frequency tests of criterion 7
_CHI_P = 1e-3

# Frozen stream seeds, one per randomized criterion, so reruns replay.
_SEED_RATIO = 1_002_003
_SEED_EDGE_PAIRS = 40_404
_SEED_KERNEL_PAIRS = 50_505
_SEED_PSD = 606_060
_SEED_FULL = 70_701
_SEED_SEQ = 70_702
_SEED_RADIAL = 70_703
_SEED_INDEX = 70_704
_SEED_MONOTONE = 80_808


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        """One machine-readable pass/fail line."""
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} criterion {self.cid:2d} [{self.seconds:7.2f}s] {self.title}: {self.detail}"


def enumerate_count_log_probs(params: EnsembleParams) -> np.ndarray:
    """log P(#J = m) by summing all 2^N subset products, for small N.

    The brute-force oracle behind criterion 1 and the ``prob --oracle``
    flag.  The subset log-probabilities are built by doubling: after
    index k the array holds every subset of {0..k}, those without k in its
    first half and those with k in its second, so entry i is the subset
    whose bit k is bit k of i.  Time grows as 2^N and memory as a few
    length-2^N arrays (about 2 MB traced at N = 16), so keep N small.
    """
    w = bernoulli_weights(params)
    log_p = np.zeros(1)
    sizes = np.zeros(1, dtype=np.intp)
    for log_a, log_b in zip(w.log_a.tolist(), w.log_one_minus_a.tolist()):
        log_p = np.concatenate((log_p + log_b, log_p + log_a))
        sizes = np.concatenate((sizes, sizes + 1))
    shift = log_p.max()
    # a count whose sum underflows to 0 gets -inf, without the divide warning
    with np.errstate(divide="ignore"):
        return np.log(np.bincount(sizes, weights=np.exp(log_p - shift))) + shift


def _criterion_1() -> tuple[bool, str]:
    """Tilted-DFT count probabilities, at every count, vs brute-force subset enumeration."""
    started = time.perf_counter()
    worst = 0.0
    cases = 0
    for N in (6, 9, 12):
        for c in (0.5, 0.8, 1.0):
            for R in (0.75, 0.85, 0.95):
                params = EnsembleParams(N=N, c=c, R=R)
                enum = enumerate_count_log_probs(params)
                w = bernoulli_weights(params)
                for m in range(N + 1):
                    worst = max(worst, abs(math.expm1(_log_count_prob(w, m)[0] - enum[m])))
                exact = overcrowding_probability_exact(params)
                worst = max(worst, abs(math.expm1(exact - enum[params.N_c])))
                cases += 1
    elapsed = time.perf_counter() - started
    # relative agreement between exact probabilities and subset enumeration
    ok = worst <= 1e-12 and elapsed < 30.0
    return ok, f"max rel err {worst:.2e} at every count of {cases} parameter sets (budget 30s)"


def _criterion_2() -> tuple[bool, str]:
    """Exact/asymptotic probability ratio tends to 1 at rate log^3(N)/N."""
    started = time.perf_counter()
    gaps = []
    constants = []
    for N in (50, 100, 200, 400, 800):
        params = EnsembleParams(N=N, c=0.9, R=0.7)
        rho = math.exp(
            overcrowding_probability_exact(params) - overcrowding_probability_asymptotic(params)
        )
        gaps.append(abs(rho - 1.0))
        constants.append(gaps[-1] * N / math.log(N) ** 3)
    elapsed = time.perf_counter() - started
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    c_max, c_min = max(constants), min(constants)
    # the normalized constants staying within a factor 5 across a 16-fold
    # range of N is the rate evidence; divergence would show as drift
    ok = monotone and c_max <= 5.0 * c_min and elapsed < 300.0
    return ok, (
        f"|rho-1| {gaps[0]:.2e}->{gaps[-1]:.2e} monotone={monotone}, "
        f"constant C={c_max:.4f} (spread {c_max / c_min:.2f}x, budget 300s)"
    )


def _criterion_3() -> tuple[bool, str]:
    """Eq-ratio approximation error bounded by one constant times log^3(N)/N."""
    ratios = {}
    for N in (200, 400, 800):
        params = EnsembleParams(N=N, c=0.9, R=0.7)
        gen = np.random.Generator(np.random.Philox(key=[_SEED_RATIO, N]))
        scale = math.log(N) ** 3 / N
        worst = 0.0
        for _ in range(100):
            J = sample_conditioned_indexset(params, params.N_c, gen)
            err = abs(log_ratio_exact(J, params) - log_ratio_approx(J, params))
            worst = max(worst, err / scale)
        ratios[N] = worst
    # one constant bounds |log_ratio_exact - log_ratio_approx| / (log^3 N / N)
    fitted = max(ratios.values())
    ok = fitted <= 1.0
    per_n = ", ".join(f"N={n}: {v:.3f}" for n, v in ratios.items())
    return ok, f"fitted C={fitted:.3f} <= 1.0 ({per_n})"


def _kernel_values(spec: KernelSpec, points: list, pairs: list) -> np.ndarray:
    """K(z, z) over ``points``, then K(z, w) over ``pairs``: one kernel product per list."""
    zs, ws = zip(*pairs)
    return np.concatenate([evaluate_diagonal(spec, points), np.diagonal(evaluate_grid(spec, zs, ws))])


def _criterion_4() -> tuple[bool, str]:
    """Scaled edge kernel approaches the hard-wall limit at rate ~log^2(N)/N."""
    res = np.linspace(0.2, 3.0, 15)
    ims = np.linspace(-2.0, 2.0, 15)
    diag = [complex(a, b) for a in res for b in ims]
    gen = np.random.Generator(np.random.Philox(key=[_SEED_EDGE_PAIRS, 0]))
    pairs = [
        (
            complex(gen.uniform(0.2, 3.0), gen.uniform(-2.0, 2.0)),
            complex(gen.uniform(0.2, 3.0), gen.uniform(-2.0, 2.0)),
        )
        for _ in range(50)
    ]
    limit = _kernel_values(KernelSpec("limit_hard_wall"), diag, pairs)
    sups = []
    for N in (200, 400, 800):
        params = EnsembleParams(N=N, c=0.9, R=0.7)
        edge = KernelSpec("edge_rescaled_J", params, top_block(params), x_scaled=True)
        sups.append(float(np.abs(_kernel_values(edge, diag, pairs) - limit).max()))
    r1, r2 = sups[0] / sups[1], sups[1] / sups[2]
    ok = 1.6 <= r1 <= 2.6 and 1.6 <= r2 <= 2.6
    return ok, f"sups {sups[0]:.3e}/{sups[1]:.3e}/{sups[2]:.3e}, doubling ratios {r1:.2f}, {r2:.2f} in [1.6, 2.6]"


def _criterion_5() -> tuple[bool, str]:
    """Inner/outer kernels converge geometrically to their reference kernels."""
    sups_in, sups_out = [], []
    for N in (100, 200, 400):
        params = EnsembleParams(N=N, c=0.7, R=0.67)
        J = top_block(params)
        M = N - params.N_c
        alpha = math.sqrt(M / N)
        # only N feeds the plain kernel
        small = KernelSpec("ginibre_N", EnsembleParams(N=M, c=1.0, R=0.5))
        plain = KernelSpec("ginibre_N", params)
        inner = KernelSpec("inner_J_complement", params, J)
        outer = KernelSpec("outer_J", params, J)
        gen = np.random.Generator(np.random.Philox(key=[_SEED_KERNEL_PAIRS, N]))
        angles = np.linspace(0.0, 2.0 * math.pi, 9)[:-1]

        inner_pts = [
            r * complex(math.cos(t), math.sin(t))
            for r in np.linspace(0.05, params.R - 0.05, 7)
            for t in angles
        ]
        inner_pairs = [
            (inner_pts[gen.integers(len(inner_pts))], inner_pts[gen.integers(len(inner_pts))])
            for _ in range(40)
        ]

        scaled = _kernel_values(
            small, [z / alpha for z in inner_pts], [(a / alpha, b / alpha) for a, b in inner_pairs]
        ) / (alpha * alpha)
        sups_in.append(float(np.abs(_kernel_values(inner, inner_pts, inner_pairs) - scaled).max()))

        outer_pts = [
            r * complex(math.cos(t), math.sin(t))
            for r in np.linspace(params.R + 0.2, 1.2, 7)
            for t in angles
        ]
        outer_pairs = [
            (outer_pts[gen.integers(len(outer_pts))], outer_pts[gen.integers(len(outer_pts))])
            for _ in range(40)
        ]
        gap = _kernel_values(outer, outer_pts, outer_pairs) - _kernel_values(plain, outer_pts, outer_pairs)
        sups_out.append(float(np.abs(gap).max()))

    def geometric(seq: list) -> bool:
        # halving per doubling at least, with a floor for roundoff noise
        return all(b <= max(0.5 * a, 1e-13) for a, b in zip(seq, seq[1:]))

    ok = geometric(sups_in) and geometric(sups_out)
    return ok, (
        "inner sups " + "/".join(f"{s:.2e}" for s in sups_in)
        + ", outer sups " + "/".join(f"{s:.2e}" for s in sups_out)
    )


def _criterion_6() -> tuple[bool, str]:
    """Hard-wall limit kernel Gram matrices are positive semidefinite."""
    worst = math.inf
    for seed in range(20):
        gen = np.random.Generator(np.random.Philox(key=[_SEED_PSD, seed]))
        pts = [complex(gen.uniform(0.05, 3.0), gen.uniform(-3.0, 3.0)) for _ in range(30)]
        gram = evaluate_grid(KernelSpec("limit_hard_wall"), pts, pts)
        gram = 0.5 * (gram + gram.conj().T)
        worst = min(worst, float(np.linalg.eigvalsh(gram).min()))
    # most negative admissible eigenvalue of the limit-kernel Gram matrix
    ok = worst >= -1e-10
    return ok, f"min eigenvalue {worst:.2e} over 20 seeds x 30 points (floor -1e-10)"


def _criterion_7() -> tuple[bool, str]:
    """Samplers: counts, radial law, binned intensity, index-set frequencies.

    The KS and chi-square tests come from ``scipy.stats``, imported here so
    that importing this module (``prob --oracle`` does) loads no scipy.
    """
    from scipy import stats

    params = EnsembleParams(N=30, c=0.5, R=0.8)
    J = top_block(params)

    # (a) full configurations carry exactly N points with N_c outside
    for i in range(300):
        cfg = sample_conditioned_ensemble(params, RandomStream(seed=_SEED_FULL, stream_id=i))
        if len(cfg.points) != params.N or cfg.n_outside != params.N_c:
            return False, f"(a) configuration {i} violated the count invariant"

    # (b) pooled moduli: sequential vs radial sampler, two-sample KS
    n_cfg = 10_000
    pooled = np.empty(n_cfg * J.size)
    configs = []
    for i in range(n_cfg):
        cfg = sample_sequential(params, J, "outer_J", RandomStream(seed=_SEED_SEQ, stream_id=i))
        configs.append(cfg)
        pooled[i * J.size : (i + 1) * J.size] = [abs(z) for z in cfg.points]
    direct = sample_radii_outer(params, J, RandomStream(seed=_SEED_RADIAL).generator(), size=n_cfg).ravel()
    ks = stats.ks_2samp(pooled, direct)
    if not ks.statistic < 0.02:
        return False, f"(b) KS distance {ks.statistic:.4f} >= 0.02"

    # (c) binned 1-point intensity vs the kernel diagonal (survival masses)
    r_edges = [0.80, 0.86, 0.90, 0.94, 0.98, 1.02, 1.07, 1.13]
    n_sect = 4
    obs = np.zeros((len(r_edges), n_sect))
    for cfg in configs:
        for z in cfg.points:
            row = int(np.searchsorted(r_edges, abs(z), side="right")) - 1
            col = min(int((math.atan2(z.imag, z.real) + math.pi) / (2.0 * math.pi) * n_sect), n_sect - 1)
            obs[row, col] += 1
    surv = [sum(radial_survival(params, k, e * e) for k in J.members) for e in r_edges]
    surv.append(0.0)
    radial_mass = np.array([surv[i] - surv[i + 1] for i in range(len(r_edges))])
    expected = np.outer(radial_mass, np.full(n_sect, 1.0 / n_sect)) * n_cfg
    chi = stats.chisquare(obs.ravel(), expected.ravel())
    if not chi.pvalue > _CHI_P:
        return False, f"(c) intensity chi-square p={chi.pvalue:.2e} <= {_CHI_P}"

    # (d) conditioned index-set frequencies vs exact enumeration at N=6
    small = EnsembleParams(N=6, c=0.5, R=0.8)
    w = bernoulli_weights(small)
    subsets = list(itertools.combinations(range(6), small.N_c))
    log_weights = np.array(
        [
            sum(w.log_a[k] for k in s) + sum(w.log_one_minus_a[k] for k in range(6) if k not in s)
            for s in subsets
        ]
    )
    probs = np.exp(log_weights - log_weights.max())
    probs /= probs.sum()
    lookup = {s: i for i, s in enumerate(subsets)}
    n_draws = 1_000_000
    gen = RandomStream(seed=_SEED_INDEX).generator()
    counts = np.zeros(len(subsets))
    for _ in range(n_draws):
        counts[lookup[sample_conditioned_indexset(small, small.N_c, gen).members]] += 1
    chi_d = stats.chisquare(counts, probs * n_draws)
    if not chi_d.pvalue > _CHI_P:
        return False, f"(d) index-set chi-square p={chi_d.pvalue:.2e} <= {_CHI_P}"

    return True, (
        f"(a) 300 configs exact counts, (b) KS {ks.statistic:.4f} < 0.02, "
        f"(c) intensity p={chi.pvalue:.3f}, (d) index-set p={chi_d.pvalue:.3f}"
    )


def _criterion_8() -> tuple[bool, str]:
    """Incomplete gamma: route agreement, monotonicity, tail-estimate error."""
    # (i) real-parameter route and the vectorized Poisson tail pass that the
    # weights read, each vs the anchored integer route, n <= 1e4, within the
    # double-precision agreement zone |log Q| <= 2500; Q(n, z) is entry n-1
    # of a pass of length max(n, floor(z)), which the pass needs above z - 1
    worst_rel = 0.0
    compared = skipped = 0
    ns = sorted({int(v) for v in np.geomspace(1, 10_000, 40)})
    for n in ns:
        for lam in (0.3, 0.7, 0.95, 1.0, 1.05, 1.5, 3.0):
            z = lam * n
            ref = log_q_integer(n, z)
            if abs(ref) > 2500.0:
                skipped += 1
                continue
            tail = float(_log_poisson_tails(max(n, math.floor(z)), z)[0][n - 1])
            for value in (log_q(float(n), z), tail):
                worst_rel = max(worst_rel, abs(value - ref) / max(1.0, abs(ref)))
            compared += 1
    # mixed absolute/relative agreement of both routes with the integer one
    if not worst_rel <= 1e-12:
        return False, f"(i) route disagreement {worst_rel:.2e} > 1e-12"

    # (ii) strict monotonicity Q(n, z) < Q(n+1, z) on a seeded 1e4 grid.
    # The grid stays where doubles resolve strictness: near the Poisson
    # transition z ~ n (both tails above roundoff) and in the deep right
    # tail z in [1.05 n, 3 n] (consecutive log Q differ by order one).
    # For z << n both values round to exactly 0.0 and order is untestable.
    gen = np.random.Generator(np.random.Philox(key=[_SEED_MONOTONE, 0]))
    for _ in range(10_000):
        n = int(gen.integers(1, 2001))
        if gen.random() < 0.5:
            s = min(float(gen.uniform(-6.0, 6.0)), 0.5 * math.sqrt(n))
            z = n - s * math.sqrt(n)
        else:
            z = float(gen.uniform(1.05, 3.0)) * n
        if not log_q_integer(n, z) < log_q_integer(n + 1, z):
            return False, f"(ii) monotonicity failed at n={n}, z={z!r}"

    # (iii) leading-order tail estimate: relative error times a is bounded
    worst_scaled = 0.0
    for a in (1e3, 1e4, 1e5, 1e6):
        for lam in (0.5, 0.8, 1.3, 2.0):
            if lam > 1.0:
                delta = log_q_asymptotic(a, lam) - log_q(a, lam * a)
            else:
                delta = log_gamma_lower_asymptotic(a, lam) - log_gamma_lower(a, lam * a)
            worst_scaled = max(worst_scaled, a * abs(math.expm1(delta)))
    # measured values cluster at 2.1 (|lam-1| large) to 20.1 (lam = 0.8)
    if not worst_scaled <= 40.0:
        return False, f"(iii) a * rel err {worst_scaled:.1f} > 40"

    return True, (
        f"(i) {compared} (n, z) pairs, log_q and the tail pass agree with log_q_integer to {worst_rel:.1e} "
        f"({skipped} beyond zone), "
        f"(ii) 1e4 monotone, (iii) max a*err {worst_scaled:.1f} <= 40"
    )


def _partitions_by_recursion(n: int, largest: int, memo: dict) -> int:
    if n == 0:
        return 1
    if largest == 0:
        return 0
    key = (n, largest)
    if key not in memo:
        take = _partitions_by_recursion(n - largest, largest, memo) if largest <= n else 0
        memo[key] = take + _partitions_by_recursion(n, largest - 1, memo)
    return memo[key]


def _criterion_9() -> tuple[bool, str]:
    """Partition counts, generating-product identity, the partition series."""
    memo: dict = {}
    for n in range(41):
        if partition_count(n) != _partitions_by_recursion(n, n, memo):
            return False, f"p({n}) disagrees with direct recursion"

    degree = 60
    coeffs = [1] + [0] * degree
    for part in range(1, degree + 1):
        for total in range(part, degree + 1):
            coeffs[total] += coeffs[total - part]
    for n in range(degree + 1):
        if coeffs[n] != partition_count(n):
            return False, f"generating product coefficient {n} disagrees"

    # series: against the pentagonal sum at x = 1.3, 2.0 (transformed branch,
    # ln x < 1) and 4.9 (plain branch); p(l) < exp(pi sqrt(2l/3)) puts every
    # term beyond l = 600 below e^-94 at x = 1.3
    worst = 0.0
    for x in (1.3, 2.0, 4.9):
        direct = math.log(math.fsum(partition_count(l) * x**-l for l in range(601)))
        worst = max(worst, abs(partition_series(x) - direct) / direct)
    # branches: the last double below e takes the transformed product, e the
    # plain one; the function itself moves by about 1e-16 between them
    below, at = partition_series(math.nextafter(math.e, 0.0)), partition_series(math.e)
    seam = abs(below - at) / at
    ok = worst < 1e-13 and seam < 1e-14
    return ok, (
        f"p(n) matches recursion to n=40, product identity to degree {degree}, "
        f"series vs pentagonal sum {worst:.1e} < 1e-13, branch seam at x=e {seam:.1e} < 1e-14"
    )


def _criterion_10() -> tuple[bool, str]:
    """Normalization-mismatch diagnostic: envelope and maximizer location."""
    l, N = 10_000, 100_000
    width = 2.0 * math.sqrt(l)
    records = []
    for n in (1, 2, 5, 10, 20):
        max_val, bound, s_max = g_max_diagnostic(l, n, N)
        envelope = bound * (1.0 + 5.0 * n / math.sqrt(l))
        if not max_val <= envelope:
            return False, f"n={n}: max {max_val:.3e} exceeds envelope {envelope:.3e}"
        if not (l - width) / N <= s_max <= (l + width) / N:
            return False, f"n={n}: maximizer {s_max:.6f} outside [{(l - width) / N:.6f}, {(l + width) / N:.6f}]"
        records.append(max_val / bound)
    return True, (
        "max/envelope-base ratios " + ", ".join(f"{r:.3f}" for r in records)
        + f" for n in (1,2,5,10,20) at l={l}, maximizers within 2 sqrt(l) of l"
    )


_CRITERIA: dict[int, tuple[str, Callable[[], tuple[bool, str]]]] = {
    1: ("exact probabilities vs subset enumeration", _criterion_1),
    2: ("exact/asymptotic ratio converges to 1", _criterion_2),
    3: ("occupation-ratio error within C log^3(N)/N", _criterion_3),
    4: ("edge kernel reaches the hard-wall limit at the expected rate", _criterion_4),
    5: ("inner/outer kernels converge to reference ensembles", _criterion_5),
    6: ("limit kernel positive semidefinite", _criterion_6),
    7: ("sampler counts, radial law, intensity, index-set law", _criterion_7),
    8: ("incomplete-gamma routes, monotonicity, tail estimate", _criterion_8),
    9: ("partition counts, product identity, partition series", _criterion_9),
    10: ("mismatch diagnostic envelope and location", _criterion_10),
}

ALL_CRITERIA = tuple(sorted(_CRITERIA))
# everything but the Monte-Carlo-heavy sampler criterion finishes in seconds
QUICK_CRITERIA = (1, 2, 3, 4, 5, 6, 8, 9, 10)


def run_criterion(cid: int) -> CriterionResult:
    """Run one criterion; exceptions are folded into a failed result."""
    if cid not in _CRITERIA:
        raise KeyError(f"unknown criterion {cid}; valid ids are {list(ALL_CRITERIA)}")
    title, func = _CRITERIA[cid]
    started = time.perf_counter()
    try:
        passed, detail = func()
    except Exception as exc:  # a numeric failure should fail the gate, not crash it
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(
        cid=cid,
        title=title,
        passed=passed,
        detail=detail,
        seconds=time.perf_counter() - started,
    )
