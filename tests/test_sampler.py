"""Tests for the radial and sequential samplers.

Statistical assertions run on fixed RandomStream seeds so every run sees
the same draws; thresholds were chosen with a margin of at least 3x over
the observed values at those seeds.  Analytic references come from three
independent routes: quadrature of the radial density, mpmath overlap
matrices for the two-point determinant formula, and the survival function
built on the package's own incomplete-gamma routines (itself tested
against quadrature here and in test_gamma).
"""

import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from ginibre_overcrowding.gamma import log_gamma_lower, log_q_integer
from ginibre_overcrowding.kernels import basis as feature_basis
from ginibre_overcrowding.mixture import (
    ConstraintViolation,
    EnsembleParams,
    IndexSet,
    log_factorials,
    sample_conditioned_indexset,
)
from ginibre_overcrowding import sampler
from ginibre_overcrowding.sampler import (
    PointConfiguration,
    RandomStream,
    SamplingError,
    radial_survival,
    sample_conditioned_ensemble,
    sample_radii_outer,
    sample_sequential,
)

mp.mp.dps = 30


def top_block(params: EnsembleParams) -> IndexSet:
    return IndexSet(members=tuple(range(params.N - params.N_c, params.N)), N=params.N)


def quad_survival(params: EnsembleParams, k: int, t: float) -> float:
    """Quadrature oracle for P(r_k^2 > t), independent of the gamma module."""
    N = params.N
    shift = k * math.log(k / N) - k if k else 0.0
    upper = (k + 1) / N + 40.0 * math.sqrt(k + 1) / N + 5.0

    def f(s: float) -> float:
        return math.exp(k * math.log(s) - N * s - shift)

    num, _ = integrate.quad(f, t, upper, limit=400)
    den, _ = integrate.quad(f, params.R**2, upper, limit=400)
    return num / den


def truncated_poisson_cumulative(z0: float, lo: int, hi: "int | None" = None) -> np.ndarray:
    """Oracle table: cumulative weights of n ~ Poisson(z0) conditioned on lo <= n <= hi.

    Entry j belongs to n = lo + j.  The weights are normalized at their own
    maximum, so a window deep in a tail does not underflow, and the last
    entry is exactly 1.0.  With ``hi=None`` the window is open above and
    ends at the first n with n + 1 > z0 where the geometric bound
    p_n z0 / (n + 1 - z0) on the neglected tail falls below 2^-64 times
    the kept mass; past the Poisson mode that bound only shrinks, so the
    first such n is the cut.
    """
    top = hi if hi is not None else max(lo, math.ceil(z0)) + math.ceil(12.0 * math.sqrt(z0)) + 64
    while True:
        n = np.arange(lo, top + 1)
        logs = n * math.log(z0) - log_factorials(top + 1)[lo:]
        w = np.exp(logs - logs.max())
        cum = np.cumsum(w)
        if hi is not None:
            break
        excess = n + 1.0 - z0
        cut = (excess > 0.0) & (w * z0 < 2.0**-64 * cum * excess)
        if cut.any():
            cum = cum[: int(np.argmax(cut)) + 1]
            break
        top *= 2
    cum /= cum[-1]
    cum[-1] = 1.0
    return cum


def overlap_matrix(params, ks, t_lo, t_hi, th_lo, th_hi) -> np.ndarray:
    """M_{kl} = integral over the annular sector of phi_k conj(phi_l).

    Closed form: a diagonal angular factor and an incomplete-gamma radial
    factor of (possibly half-integer) shape (k+l)/2 + 1, all in mpmath.
    """
    N, z0 = params.N, params.z
    norm = [mp.sqrt(mp.mpf(N) ** (k + 1) / (mp.pi * mp.gammainc(k + 1, a=z0))) for k in ks]
    M = np.empty((len(ks), len(ks)), dtype=complex)
    for i, k in enumerate(ks):
        for j, l in enumerate(ks):
            d = k - l
            if d == 0:
                ang = mp.mpf(th_hi - th_lo)
            else:
                ang = (mp.exp(1j * d * th_hi) - mp.exp(1j * d * th_lo)) / (1j * d)
            shape = mp.mpf(k + l) / 2 + 1
            rad = mp.gammainc(shape, a=N * t_lo, b=N * t_hi) / (2 * mp.mpf(N) ** shape)
            M[i, j] = complex(norm[i] * norm[j] * ang * rad)
    return M


# ---------------------------------------------------------------------------
# RandomStream


def test_random_stream_replays_and_splits():
    a = RandomStream(seed=123, stream_id=4)
    assert np.array_equal(a.generator().random(8), a.generator().random(8))
    b = RandomStream(seed=123, stream_id=5)
    assert not np.array_equal(a.generator().random(8), b.generator().random(8))


@pytest.mark.parametrize("bad", [{"seed": -1}, {"seed": 1 << 64}, {"seed": 0.5}, {"seed": 3, "stream_id": -2}])
def test_random_stream_rejects_bad_keys(bad):
    with pytest.raises(ValueError):
        RandomStream(**bad)


# ---------------------------------------------------------------------------
# Radial law: survival function and the exact truncated-Gamma draws


def test_truncated_poisson_table_matches_scipy():
    # The oracle tables of the radial draws.  Outer tables are closed
    # windows [0, k]; inner ones are open windows [k+1, oo) cut by the tail
    # bound, here once at a starved index.
    for z0, lo, hi in [(7.3, 0, 12), (2.0, 0, 0), (7.3, 13, None), (16.9, 40, None)]:
        cum = truncated_poisson_cumulative(z0, lo, hi)
        last = lo + cum.size - 1
        law = stats.poisson(z0)
        mass = law.sf(lo - 1) - (0.0 if hi is None else law.sf(hi))
        ref = np.cumsum(law.pmf(np.arange(lo, last + 1)) / mass)
        assert np.allclose(cum, ref, rtol=0, atol=1e-12)
        assert cum[-1] == 1.0
        if hi is None:
            assert law.sf(last) / mass < 2.0**-64
        else:
            assert last == hi


def test_radial_survival_matches_quadrature():
    params = EnsembleParams(N=25, c=0.6, R=0.7)
    for k in (15, 24):
        for t in (0.49, 0.55, 0.7, 0.9, 1.2):
            want = quad_survival(params, k, t)
            got = radial_survival(params, k, t)
            assert got == pytest.approx(want, rel=1e-9)


def test_radial_survival_is_one_at_the_wall():
    params = EnsembleParams(N=25, c=0.6, R=0.7)
    assert radial_survival(params, 20, params.R**2) == 1.0
    assert radial_survival(params, 20, 0.1) == 1.0
    assert radial_survival(params, 20, 0.0) == 1.0


def test_radial_survival_validation():
    params = EnsembleParams(N=25, c=0.6, R=0.7)
    with pytest.raises(ConstraintViolation):
        radial_survival(params, 25, 0.6)
    with pytest.raises(ConstraintViolation):
        radial_survival(params, -1, 0.6)
    with pytest.raises(ValueError):
        radial_survival(params, 3, -0.2)
    with pytest.raises(ValueError):
        radial_survival(params, 3, math.nan)


def test_sample_radii_outer_modes_and_determinism():
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    J = top_block(params)
    rs = RandomStream(seed=5150)
    single = sample_radii_outer(params, J, rs.generator())
    assert single.shape == (1, J.size)
    assert (single > params.R).all()
    assert np.array_equal(single, sample_radii_outer(params, J, rs.generator()))

    batch = sample_radii_outer(params, J, rs.generator(), size=64)
    assert batch.shape == (64, J.size)
    assert (batch > params.R).all()
    assert np.array_equal(batch, sample_radii_outer(params, J, rs.generator(), size=64))


def test_sample_radii_outer_validation():
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    J = top_block(params)
    with pytest.raises(ValueError):
        sample_radii_outer(params, J, RandomStream(seed=1).generator(), size=0)
    for not_a_generator in (42, RandomStream(seed=1)):
        with pytest.raises(TypeError, match="expected a numpy Generator"):
            sample_radii_outer(params, J, not_a_generator)
    with pytest.raises(ConstraintViolation):
        sample_radii_outer(params, IndexSet(members=(1, 2), N=13), RandomStream(seed=1).generator())


def test_sample_radii_outer_empirical_cdf():
    # Spec-level check: KS distance of r^2 against the analytic survival
    # stays under 0.02 on 1e4 draws.
    params = EnsembleParams(N=30, c=0.5, R=0.8)
    J = IndexSet(members=(16, 29), N=30)
    batch = sample_radii_outer(params, J, RandomStream(seed=31415).generator(), size=10_000)
    for col, k in enumerate(J.members):
        t = batch[:, col] ** 2

        def cdf(v, k=k):
            return 1.0 - np.array([radial_survival(params, k, x) for x in np.atleast_1d(v)])

        res = stats.kstest(t, cdf)
        assert res.statistic < 0.02


def test_sample_radii_outer_mean_at_large_k():
    # k = N-1 with R small: truncation is negligible (the lower tail mass
    # below N R^2 is ~1e-78), so E[r^2] is the plain Gamma(k+1, 1/N) mean.
    params = EnsembleParams(N=100, c=0.99, R=0.2)
    J = IndexSet(members=(99,), N=100)
    batch = sample_radii_outer(params, J, RandomStream(seed=2718).generator(), size=100_000)
    mean = float(np.mean(batch[:, 0] ** 2))
    want = 100.0 / params.N
    se = math.sqrt(100.0) / params.N / math.sqrt(batch.shape[0])
    assert abs(mean - want) < 4.0 * se


@pytest.mark.parametrize("k, lower_mass", [(39, (0.0, 0.02)), (8, (0.5, 1.0))], ids=["starved", "well-fed"])
def test_inner_radial_draw_matches_lower_cdf(k, lower_mass):
    # The inner law of r^2 at a starved index, whose mass below N R^2 is
    # about 1e-6, and at a well-fed one, against the analytic lower CDF.
    params = EnsembleParams(N=40, c=0.95, R=0.65)
    lp0 = log_gamma_lower(k + 1.0, params.z)
    assert lower_mass[0] < math.exp(lp0) < lower_mass[1]
    gen = RandomStream(seed=909).generator()
    t = sampler._inner_t_block(params, np.array([k]), np.zeros(500, dtype=np.int64), gen)
    assert ((t > 0.0) & (t < params.R**2)).all()

    def cdf(v):
        return np.array(
            [math.exp(log_gamma_lower(k + 1.0, params.N * x) - lp0) for x in np.atleast_1d(v)]
        )

    res = stats.kstest(t, cdf)
    assert res.pvalue > 1e-3


def per_row_index(tables, picks, u):
    return np.array([np.searchsorted(tables[r], x, side="right") for r, x in zip(picks, u)])


def oracle_tables(params, ks, outer):
    z0 = params.z
    if outer:
        return [truncated_poisson_cumulative(z0, 0, int(k)) for k in ks]
    return [truncated_poisson_cumulative(z0, int(k) + 1) for k in ks]


class EchoGenerator:
    """Returns the given uniforms and echoes the Gamma shape or the second Beta
    parameter, so a radial block's output gives back the Poisson index it drew."""

    def __init__(self, u):
        self.u = np.asarray(u)

    def random(self, size):
        assert size == self.u.size
        return self.u

    def standard_gamma(self, shape):
        return shape

    def beta(self, a, b):
        return b


def block_index(params, ks, picks, u, outer):
    """The index each radial block draws for uniforms u: i for outer rows, n - k - 1 inner."""
    gen = EchoGenerator(u)
    if outer:
        t = sampler._outer_t_block(params, ks, picks, gen)
        return np.rint(ks[picks] + 1.0 - (t * params.N - params.z)).astype(np.int64)
    t = sampler._inner_t_block(params, ks, picks, gen)
    return np.rint(t * params.N / params.z).astype(np.int64) - 1


def test_flat_table_index_matches_per_row_searchsorted():
    # The search of the one Poisson-tail table gives each oracle row's own
    # searchsorted index for the same uniforms: outer closed rows with k = 0
    # among them, and inner open rows at the starved and well-fed indices
    # above.  Uniforms at 0 draw the lowest index.  Uniforms sitting exactly
    # on table entries below 1 may land one entry off, since the log-space
    # table rounds apart from the linear one.
    params = EnsembleParams(N=40, c=0.95, R=0.65)
    gen = RandomStream(seed=4242).generator()
    for ks, outer in ((np.array([0, 1, 8, 39]), True), (np.array([8, 39]), False)):
        tables = oracle_tables(params, ks, outer)
        picks = gen.integers(0, ks.size, size=4000)
        u = gen.random(picks.size)
        got = block_index(params, ks, picks, u, outer)
        assert np.array_equal(got, per_row_index(tables, picks, u))
        rows = np.arange(ks.size)
        with np.errstate(divide="ignore"):  # log 0 = -inf in the outer search
            got = block_index(params, ks, rows, np.zeros(ks.size), outer)
        assert np.array_equal(got, np.zeros(ks.size))
        on_entries = [(r, x) for r, cum in enumerate(tables) for x in cum[:-1] if x < 1.0]
        picks = np.array([r for r, _ in on_entries])
        u = np.array([x for _, x in on_entries])
        got = block_index(params, ks, picks, u, outer)
        assert np.abs(got - per_row_index(tables, picks, u)).max() <= 1


def test_radial_blocks_replay_the_per_row_draws():
    # Each block is one uniform draw, the per-row index, and one Gamma or
    # Beta call; rebuilt by hand from the same stream and the oracle tables
    # it agrees bit for bit.
    params = EnsembleParams(N=40, c=0.95, R=0.65)
    z0 = params.z
    for block, ks in (
        (sampler._outer_t_block, np.array([0, 1, 8, 39])),
        (sampler._inner_t_block, np.array([8, 39])),
    ):
        outer = block is sampler._outer_t_block
        picks = RandomStream(seed=17).generator().integers(0, ks.size, size=2000)
        t = block(params, ks, picks, RandomStream(seed=18).generator())
        gen = RandomStream(seed=18).generator()
        i = per_row_index(oracle_tables(params, ks, outer), picks, gen.random(picks.size))
        k = ks[picks]
        if outer:
            want = (z0 + gen.standard_gamma(k + 1.0 - i)) / params.N
        else:
            want = z0 * gen.beta(k + 1.0, 1 + i) / params.N
        assert np.array_equal(t, want)


# ---------------------------------------------------------------------------
# Sequential sampler


def test_sequential_counts_support_and_determinism():
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    J = top_block(params)
    rs = RandomStream(seed=20240817)
    outer = sample_sequential(params, J, "outer_J", rs)
    assert len(outer.points) == J.size
    assert all(abs(z) > params.R for z in outer.points)
    assert outer.points == sample_sequential(params, J, "outer_J", rs).points
    assert (outer.region, outer.stream) == ("outer", rs)

    inner = sample_sequential(params, J, "inner_J_complement", rs)
    assert len(inner.points) == params.N - J.size
    assert all(abs(z) < params.R for z in inner.points)
    assert inner.region == "inner"


def test_sequential_empty_ranks():
    params = EnsembleParams(N=6, c=0.9, R=0.8)
    full = IndexSet(members=tuple(range(6)), N=6)
    empty = IndexSet(members=(), N=6)
    assert sample_sequential(params, full, "inner_J_complement", RandomStream(seed=1)).points == ()
    assert sample_sequential(params, empty, "outer_J", RandomStream(seed=1)).points == ()


def test_sequential_rank_one_matches_radial_law_and_uniform_angle():
    params = EnsembleParams(N=10, c=0.5, R=0.8)
    J = IndexSet(members=(9,), N=10)
    moduli = np.empty(4000)
    angles = np.empty(4000)
    for i in range(4000):
        cfg = sample_sequential(params, J, "outer_J", RandomStream(seed=424242, stream_id=i))
        (z,) = cfg.points
        moduli[i] = abs(z)
        angles[i] = math.atan2(z.imag, z.real)
    direct = sample_radii_outer(params, J, RandomStream(seed=515151).generator(), size=4000)[:, 0]
    ks = stats.ks_2samp(moduli, direct)
    assert ks.pvalue > 1e-3
    counts, _ = np.histogram(angles, bins=12, range=(-math.pi, math.pi))
    chi = stats.chisquare(counts)
    assert chi.pvalue > 1e-3


def test_sequential_pooled_moduli_match_radial_sampler():
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    J = top_block(params)
    n_cfg = 2500
    pooled = []
    for i in range(n_cfg):
        cfg = sample_sequential(params, J, "outer_J", RandomStream(seed=606060, stream_id=i))
        pooled.extend(abs(z) for z in cfg.points)
    direct = sample_radii_outer(params, J, RandomStream(seed=707070).generator(), size=n_cfg)
    ks = stats.ks_2samp(np.array(pooled), direct.ravel())
    assert ks.statistic < 0.02


def test_sequential_intensity_chisquare():
    # Binned one-point intensity against the kernel diagonal, whose bin
    # masses are survival differences times the sector fraction.
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    J = top_block(params)
    n_cfg = 3000
    r_edges = [0.6, 0.72, 0.78, 0.84, 0.92, 1.02, 1.2]
    n_sect = 4
    obs = np.zeros((len(r_edges), n_sect))
    for i in range(n_cfg):
        cfg = sample_sequential(params, J, "outer_J", RandomStream(seed=808080, stream_id=i))
        for z in cfg.points:
            r, th = abs(z), math.atan2(z.imag, z.real)
            row = np.searchsorted(r_edges, r, side="right") - 1
            col = min(int((th + math.pi) / (2.0 * math.pi) * n_sect), n_sect - 1)
            obs[row, col] += 1
    surv = [sum(radial_survival(params, k, e * e) for k in J.members) for e in r_edges]
    surv.append(0.0)
    expected = np.array([surv[i] - surv[i + 1] for i in range(len(r_edges))])
    exp_grid = np.outer(expected, np.full(n_sect, 1.0 / n_sect)) * n_cfg
    assert exp_grid.min() > 5.0
    res = stats.chisquare(obs.ravel(), exp_grid.ravel())
    assert res.pvalue > 1e-3


def test_sequential_two_point_moments_match_determinant_formula():
    # E[N_A N_B] over disjoint sectors and the second factorial moment of
    # one sector, both against exact overlap-matrix values.
    params = EnsembleParams(N=8, c=0.6, R=0.7)
    ks = (4, 5, 6, 7)
    J = IndexSet(members=ks, N=8)
    t_lo, t_hi = 0.72**2, 0.95**2
    MA = overlap_matrix(params, ks, t_lo, t_hi, -math.pi / 4, math.pi / 4)
    MB = overlap_matrix(params, ks, t_lo, t_hi, 3 * math.pi / 4, 5 * math.pi / 4)
    mu_a = MA.trace().real
    # route check: the diagonal of M must reproduce the survival masses
    direct = sum(radial_survival(params, k, t_lo) - radial_survival(params, k, t_hi) for k in ks)
    assert mu_a == pytest.approx(direct / 4.0, rel=1e-10)

    want_cross = mu_a * MB.trace().real - (MA * MB.conj()).sum().real
    want_pairs = mu_a * mu_a - float((np.abs(MA) ** 2).sum())
    n_cfg = 12_000
    cross = np.empty(n_cfg)
    pairs = np.empty(n_cfg)
    for i in range(n_cfg):
        cfg = sample_sequential(params, J, "outer_J", RandomStream(seed=99, stream_id=i))
        n_a = n_b = 0
        for z in cfg.points:
            t = abs(z) ** 2
            if t_lo < t < t_hi:
                th = math.atan2(z.imag, z.real)
                if abs(th) < math.pi / 4:
                    n_a += 1
                elif abs(th) > 3 * math.pi / 4:
                    n_b += 1
        cross[i] = n_a * n_b
        pairs[i] = n_a * (n_a - 1)
    for emp, want in ((cross, want_cross), (pairs, want_pairs)):
        se = emp.std(ddof=1) / math.sqrt(n_cfg)
        assert abs(emp.mean() - want) < 4.0 * se


def test_outer_and_inner_independent_given_index_set():
    params = EnsembleParams(N=16, c=0.5, R=0.75)
    J = top_block(params)
    n_cfg = 2000
    inner_counts = np.empty(n_cfg)
    outer_means = np.empty(n_cfg)
    for i in range(n_cfg):
        rs = RandomStream(seed=1234, stream_id=i)
        outer = sample_sequential(params, J, "outer_J", rs)
        inner = sample_sequential(params, J, "inner_J_complement", RandomStream(seed=1234, stream_id=100_000 + i))
        inner_counts[i] = sum(1 for z in inner.points if abs(z) < 0.3)
        outer_means[i] = np.mean([abs(z) for z in outer.points])
    corr = stats.pearsonr(inner_counts, outer_means).statistic
    assert abs(corr) * math.sqrt(n_cfg) < 4.0


def test_pool_refills_inside_a_step_keep_the_law(monkeypatch):
    # A budget of 8 entries gives pools of 1 outer or 2 inner proposals, so
    # every rejection is followed by a refill inside its step; counts,
    # support, replay and the pooled moduli must not notice.
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    J = top_block(params)
    monkeypatch.setattr(sampler, "_POOL_ENTRIES", 8)
    pools = []
    draw_pool = sampler._draw_pool
    monkeypatch.setattr(sampler, "_draw_pool", lambda *a: pools.append(a[2]) or draw_pool(*a))
    rs = RandomStream(seed=20240817)
    outer = sample_sequential(params, J, "outer_J", rs)
    assert set(pools) == {1} and len(pools) > J.size
    assert len(outer.points) == J.size and all(abs(z) > params.R for z in outer.points)
    assert outer.points == sample_sequential(params, J, "outer_J", rs).points
    inner = sample_sequential(params, J, "inner_J_complement", rs)
    assert len(inner.points) == params.N - J.size and all(abs(z) < params.R for z in inner.points)

    n_cfg = 2500
    pooled = []
    for i in range(n_cfg):
        cfg = sample_sequential(params, J, "outer_J", RandomStream(seed=616161, stream_id=i))
        pooled.extend(abs(z) for z in cfg.points)
    direct = sample_radii_outer(params, J, RandomStream(seed=717171).generator(), size=n_cfg)
    ks = stats.ks_2samp(np.array(pooled), direct.ravel())
    assert ks.statistic < 0.02


def _copying_reference_projection(params, fb, gen):
    """The sequential loop before the conjugated span, less its error exits: the oracle of its bytes.

    It copies the conjugated span twice per step and tests a window of at
    least 8 proposals; the pool and feature rows are the module's own.
    """
    m = int(fb.ks.size)
    span = np.zeros((m, m), dtype=complex)
    points = []
    uniforms = np.empty(0)
    cursor = 0
    for j in range(m):
        window = int(min(128, max(8, math.ceil(2.0 * m / (m - j)))))
        while True:
            if cursor == uniforms.size:
                t, theta, uniforms, psi = sampler._draw_pool(params, fb, sampler._pool_rows(m, j), gen)
                cursor = 0
            stop = min(cursor + window, uniforms.size)
            coeff = psi[cursor:stop] @ span[:j].conj().T
            accept = 1.0 - (np.abs(coeff) ** 2).sum(axis=1)
            hits = np.flatnonzero(uniforms[cursor:stop] < accept)
            if hits.size:
                break
            cursor = stop
        b = cursor + int(hits[0])
        cursor = b + 1
        v = psi[b] - coeff[hits[0]] @ span[:j]
        v -= (span[:j].conj() @ v) @ span[:j]
        span[j] = v / float(np.linalg.norm(v))
        r = math.sqrt(t[b])
        points.append(complex(r * math.cos(theta[b]), r * math.sin(theta[b])))
    return points


def _window_reference_projection(params, fb, gen):
    """The window loop that kept no coefficients: the oracle of the sampler's bytes.

    Step j tests windows of ceil(1.5 m/(m - j)) proposals from a cursor with
    one product against the span and accepts the first hit; it raises once
    the windows it rejected hold ``_MAX_PROPOSALS`` proposals or more.  The
    pool and feature rows are the module's own.
    """
    m = int(fb.ks.size)
    span_conj = np.zeros((m, m), dtype=complex)
    points = []
    uniforms = np.empty(0)
    cursor = 0
    for j in range(m):
        window = math.ceil(1.5 * m / (m - j))
        rows = span_conj[:j]
        used = 0
        while True:
            if used >= sampler._MAX_PROPOSALS:
                raise SamplingError(f"no acceptance within {used} proposals at point {j + 1} of {m}")
            if cursor == uniforms.size:
                t, theta, uniforms, psi = sampler._draw_pool(params, fb, sampler._pool_rows(m, j), gen)
                cursor = 0
            stop = min(cursor + window, uniforms.size)
            coeff = psi[cursor:stop] @ rows.T
            hits = uniforms[cursor:stop] < 1.0 - (np.abs(coeff) ** 2).sum(axis=1)
            first = int(hits.argmax())
            if hits[first]:
                break
            used += stop - cursor
            cursor = stop
        b = cursor + first
        cursor = b + 1
        u = psi[b].conj() - coeff[first].conj() @ rows
        u -= (rows @ u.conj()).conj() @ rows
        span_conj[j] = u / math.sqrt(u.real.dot(u.real) + u.imag.dot(u.imag))
        r = math.sqrt(t[b])
        points.append(complex(r * math.cos(theta[b]), r * math.sin(theta[b])))
    return points


def _replay_cases(cases, seeds):
    """(params, feature basis, seed) over conditioned index sets, both bases."""
    for N, c in cases:
        params = EnsembleParams(N=N, c=c, R=0.8)
        for seed in seeds:
            J = sample_conditioned_indexset(params, params.N_c, RandomStream(seed=seed).generator())
            for kind in ("outer_J", "inner_J_complement"):
                yield params, feature_basis(params, J, kind), seed


@pytest.mark.parametrize("entries", [1 << 15, 64, 8])
def test_projection_loop_replays_the_reference_loop(monkeypatch, entries):
    # 64 entries give pools of one to a few tens of proposals, 8 entries pools of one or two,
    # so refills land inside steps and between the coefficient updates
    monkeypatch.setattr(sampler, "_POOL_ENTRIES", entries)
    cases = [(1, 1.0), (2, 1.0), (2, 0.6), (6, 1.0), (6, 0.6), (12, 1.0), (12, 0.6), (40, 1.0), (40, 0.6)]
    cases += [(150, 1.0), (150, 0.6)]
    if entries == 1 << 15:
        # m = 400 leaves 81 rows to a pool, and m = 240 or 160 about 140 or 200: refills every few steps
        cases += [(400, 1.0), (400, 0.6)]
    for params, fb, seed in _replay_cases(cases, range(3)):
        stream = RandomStream(seed=seed, stream_id=params.N)
        got = sampler._sample_projection(params, fb, stream.generator())
        assert got == _window_reference_projection(params, fb, stream.generator()), (params, seed, fb.kind)
        assert got == _copying_reference_projection(params, fb, stream.generator()), (params, seed, fb.kind)


def test_exhausted_proposal_budget_raises_where_the_reference_loop_does(monkeypatch):
    # the loop tests at most _MAX_PROPOSALS proposals for a point, the reference loop whole windows
    # until it has tested that many: where the reference raises the loop raises, and where the loop
    # answers the reference answers the same points
    monkeypatch.setattr(sampler, "_MAX_PROPOSALS", 3)
    outcomes = []
    for params, fb, seed in _replay_cases([(6, 0.6), (40, 0.6), (150, 1.0)], range(4)):
        stream = RandomStream(seed=seed, stream_id=params.N)
        try:
            want = _window_reference_projection(params, fb, stream.generator())
        except SamplingError:
            want = None
        try:
            got = sampler._sample_projection(params, fb, stream.generator())
        except SamplingError as exc:
            assert "proposals at point" in str(exc)
            got = None
        assert got is None if want is None else got in (None, want), (params, seed, fb.kind)
        outcomes.append(got is None)
    assert any(outcomes) and not all(outcomes)


def test_rank_512_draw_peaks_under_8_mib():
    # the 512 x 512 span alone is 4 MiB; a second span-sized array or per-step copies pass 8 MiB
    params = EnsembleParams(N=512, c=1.0, R=0.5)
    J = top_block(params)
    fb = feature_basis(params, J, "outer_J")  # the basis and the weights table are built outside the draw
    tracemalloc.start()
    try:
        points = sampler._sample_projection(params, fb, RandomStream(seed=5).generator())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 512
    assert peak < 8 * 2**20


def test_rejection_cap_raises_with_diagnostics(monkeypatch):
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    monkeypatch.setattr(sampler, "_MAX_PROPOSALS", 0)
    with pytest.raises(
        SamplingError, match=r"no acceptance within 0 proposals .*\(basis=outer_J, N=12, c=0.7, R=0.6\)"
    ):
        sample_sequential(params, top_block(params), "outer_J", RandomStream(seed=3))


def test_sequential_validation():
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    J = top_block(params)
    with pytest.raises(ValueError, match="basis"):
        sample_sequential(params, J, "outer", RandomStream(seed=3))
    with pytest.raises(TypeError, match="RandomStream"):
        sample_sequential(params, J, "outer_J", np.random.default_rng(0))
    with pytest.raises(ConstraintViolation):
        sample_sequential(params, IndexSet(members=(0,), N=11), "outer_J", RandomStream(seed=3))


def test_index_set_of_another_size_refused_with_one_message():
    # every reader of an (params, J) pair refuses a J over another N the same way
    from ginibre_overcrowding.kernels import KernelSpec
    from ginibre_overcrowding.mixture import log_ratio_approx, log_ratio_exact

    params = EnsembleParams(N=12, c=0.5, R=0.8)
    J = IndexSet(members=(6, 7, 8, 9, 10, 11), N=13)
    refusals = [
        lambda: log_ratio_exact(J, params),
        lambda: log_ratio_approx(J, params),
        lambda: KernelSpec("outer_J", params, J),
        lambda: PointConfiguration(points=(), params=params, index_set=J, region="outer", stream=RandomStream(seed=0)),
        lambda: sample_radii_outer(params, J, RandomStream(seed=3).generator()),
        lambda: sample_sequential(params, J, "outer_J", RandomStream(seed=3)),
    ]
    for refuse in refusals:
        with pytest.raises(ConstraintViolation, match=r"^index set is over \{0..12\} but N = 12$"):
            refuse()


def test_span_cap_refuses_before_any_draw(monkeypatch):
    # N = 20000, c = 0.7: outer rank 14000, inner rank 6000, both past 2048^2 span entries
    params = EnsembleParams(N=20_000, c=0.7, R=0.8)
    J = top_block(params)
    monkeypatch.setattr(sampler, "sample_conditioned_indexset", None)  # a draw would fail on this
    monkeypatch.setattr(sampler, "_sample_projection", None)
    for basis, m in (("outer_J", 14_000), ("inner_J_complement", 6_000)):
        with pytest.raises(ValueError, match=rf"span entries m\^2 at rank m = {m}: {m * m}, over the cap of 4194304$"):
            sample_sequential(params, J, basis, RandomStream(seed=3))
    with pytest.raises(ValueError, match="rank m = 14000"):
        sample_conditioned_ensemble(params, RandomStream(seed=3))
    # the larger of the two ranks is gated: here the inner one, 2100 > 2048
    with pytest.raises(ValueError, match="rank m = 2100"):
        sample_conditioned_ensemble(EnsembleParams(N=3000, c=0.3, R=0.9), RandomStream(seed=3))


def test_span_cap_boundary(monkeypatch):
    params = EnsembleParams(N=10, c=0.5, R=0.8)  # ranks 5 and 5
    J = top_block(params)
    monkeypatch.setattr(sampler, "_MAX_SPAN_ENTRIES", 25)
    assert len(sample_conditioned_ensemble(params, RandomStream(seed=3)).points) == 10
    monkeypatch.setattr(sampler, "_MAX_SPAN_ENTRIES", 24)
    with pytest.raises(ValueError, match="rank m = 5"):
        sample_sequential(params, J, "inner_J_complement", RandomStream(seed=3))
    with pytest.raises(ValueError, match="rank m = 5"):
        sample_conditioned_ensemble(params, RandomStream(seed=3))


# ---------------------------------------------------------------------------
# Full conditioned ensemble


def test_full_configuration_invariants():
    params = EnsembleParams(N=20, c=0.6, R=0.7)
    for i in range(25):
        cfg = sample_conditioned_ensemble(params, RandomStream(seed=42, stream_id=i))
        assert len(cfg.points) == params.N
        assert cfg.n_outside == params.N_c
        assert cfg.index_set.size == params.N_c
        assert cfg.region == "full"
    again = sample_conditioned_ensemble(params, RandomStream(seed=42, stream_id=0))
    first = sample_conditioned_ensemble(params, RandomStream(seed=42, stream_id=0))
    assert again.points == first.points and again.index_set == first.index_set


def test_full_configuration_three_region_profile():
    # Depleted annulus below R, crowding just past R, ordinary bulk beyond:
    # measured per-area densities at this seed are roughly 11, 0.12, 49, 10.
    params = EnsembleParams(N=40, c=0.9, R=0.7)
    radii = []
    n_cfg = 300
    for i in range(n_cfg):
        cfg = sample_conditioned_ensemble(params, RandomStream(seed=321, stream_id=i))
        radii.extend(abs(z) for z in cfg.points)
    radii = np.array(radii)

    def density(a, b):
        return ((radii > a) & (radii < b)).sum() / n_cfg / (math.pi * (b * b - a * a))

    bulk_inner = density(0.05, 0.28)
    depleted = density(0.45, 0.63)
    spike = density(0.70, 0.78)
    far = density(0.88, 0.98)
    assert depleted < 0.1 * bulk_inner
    assert spike > 2.0 * far


def test_full_configuration_count_beyond_matches_circle_law():
    # Outside R + 0.2 the conditioned ensemble should count points like an
    # unconditioned Ginibre of the same size.
    params = EnsembleParams(N=100, c=0.8, R=0.5)
    s = 0.7
    surv = np.array([radial_survival(params, k, s * s) for k in range(params.N)])
    gen = RandomStream(seed=5).generator()
    ref = float(
        np.mean(
            [
                surv[list(sample_conditioned_indexset(params, params.N_c, gen).members)].sum()
                for _ in range(4000)
            ]
        )
    )
    ginibre = sum(math.exp(log_q_integer(k + 1, params.N * s * s)) for k in range(params.N))
    circle_law = (1.0 - s * s) * params.N
    assert abs(ref - ginibre) < 0.2
    assert abs(ginibre - circle_law) < 0.5

    n_cfg = 120
    counts = np.array(
        [
            sum(
                1
                for z in sample_conditioned_ensemble(params, RandomStream(seed=77, stream_id=i)).points
                if abs(z) > s
            )
            for i in range(n_cfg)
        ],
        dtype=float,
    )
    se = counts.std(ddof=1) / math.sqrt(n_cfg)
    assert abs(counts.mean() - ref) < 4.0 * se


# ---------------------------------------------------------------------------
# PointConfiguration container and serialization


def test_point_configuration_validates_region_support():
    params = EnsembleParams(N=6, c=0.9, R=0.8)
    J = top_block(params)
    with pytest.raises(ConstraintViolation):
        PointConfiguration((0.1 + 0.0j,), params, J, "outer", RandomStream(seed=0))
    with pytest.raises(ConstraintViolation):
        PointConfiguration((0.9 + 0.0j,), params, J, "inner", RandomStream(seed=0))
    with pytest.raises(ConstraintViolation):
        PointConfiguration((0.9 + 0.0j,), params, J, "full", RandomStream(seed=0))
    with pytest.raises(ValueError, match="region"):
        PointConfiguration((), params, J, "annulus", RandomStream(seed=0))


def test_point_configuration_region_tags_split_full():
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    cfg = sample_conditioned_ensemble(params, RandomStream(seed=8))
    tags = cfg.point_regions()
    assert tags.count("outer") == params.N_c
    for z, tag in zip(cfg.points, tags):
        assert (abs(z) > params.R) == (tag == "outer")


def test_json_roundtrip_is_exact():
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    cfg = sample_conditioned_ensemble(params, RandomStream(seed=99))
    clone = PointConfiguration.from_json(cfg.to_json())
    assert clone == cfg
    doc = json.loads(cfg.to_json())
    assert doc["schema"] == "point-configuration/1"
    with pytest.raises(ValueError, match="schema"):
        PointConfiguration.from_json(json.dumps({**doc, "schema": "nope"}))


def test_csv_roundtrip_and_byte_determinism(tmp_path):
    params = EnsembleParams(N=12, c=0.7, R=0.6)
    cfg = sample_conditioned_ensemble(params, RandomStream(seed=100))
    p1 = cfg.write_csv(tmp_path / "a.csv")
    clone = PointConfiguration.read_csv(p1)
    assert clone == cfg

    cfg2 = sample_conditioned_ensemble(params, RandomStream(seed=100))
    cfg2.write_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()

    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header == "re,im,region"
    (tmp_path / "bad.csv").write_text("x,y\n")
    (tmp_path / "bad.csv.meta.json").write_text(json.dumps(json.loads((tmp_path / "a.csv.meta.json").read_text())))
    with pytest.raises(ValueError, match="header"):
        PointConfiguration.read_csv(tmp_path / "bad.csv")
    # the sidecar goes through the same header decoder as the JSON reader
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    (tmp_path / "a.csv.meta.json").write_text(json.dumps({**meta, "schema": "nope"}))
    with pytest.raises(ValueError, match="schema"):
        PointConfiguration.read_csv(p1)
    (tmp_path / "a.csv.meta.json").write_text(json.dumps({**meta, "index_set": [0, 12]}))
    with pytest.raises(ConstraintViolation, match="must lie in"):
        PointConfiguration.read_csv(p1)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.62, max_value=3.0),
            st.floats(min_value=-math.pi, max_value=math.pi),
        ),
        max_size=8,
    )
)
def test_json_roundtrip_property(polar):
    params = EnsembleParams(N=9, c=0.7, R=0.6)
    points = tuple(complex(r * math.cos(a), r * math.sin(a)) for r, a in polar)
    cfg = PointConfiguration(points, params, top_block(params), "outer", RandomStream(seed=7, stream_id=3))
    assert PointConfiguration.from_json(cfg.to_json()) == cfg
