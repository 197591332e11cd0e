"""Exact samplers for the conditioned ensemble.

Two samplers cover two different jobs:

* ``sample_radii_outer`` draws only the moduli of the outer points for a
  fixed index set J.  For a rotation-invariant projection family built on
  distinct monomials the moduli are independent (Kostlan 1992), with r_k^2
  following a Gamma(k+1, 1/N) law truncated to (R^2, oo).  The angles of a
  full configuration are *not* independent of each other, so this sampler
  is valid for radial statistics only.

* ``sample_sequential`` draws a complete point configuration of the rank-m
  projection kernel (outer on |z| > R, or inner complement on |z| < R) one
  point at a time (Hough, Krishnapur, Peres and Virag 2006).  Step one
  draws from the density K(z, z)/m, which for these kernels is an exact
  mixture: a uniformly chosen basis index, the radial law of that index,
  and a uniform angle.  Step j targets the deflated diagonal and is
  realized by rejection against the step-one mixture with the envelope
  m/(m - j); a Gram-Schmidt list of unit vectors tracks the directions
  already spanned.  The draw takes one ``kernels.basis`` value, the k,
  log h_k and phase-gap table of its rows, built once per draw.
  Acceptance ratios only involve the direction of the feature vector, so
  each proposal's row from ``kernels.feature_rows`` (formed in log space
  and scaled by its own maximum) is simply normalized; this keeps the
  sampler usable at N in the hundreds where the raw feature entries
  underflow.

  Proposals come from a pool drawn ahead of the steps, all at once: the
  basis picks, the radii, the angles, the acceptance uniforms and the
  normalized feature rows, sized to the m H_(m-j) proposals the remaining
  steps expect and refilled when used up.  The pool keeps each proposal's
  coefficients on the directions accepted so far and its acceptance ratio
  1 - sum |c|^2: a refill computes them with one matrix product against
  the span, and each accepted direction adds its column to the proposals
  not yet tested with one matrix-vector product.  Step j accepts the first
  proposal from a cursor, in pool order, whose uniform is below its ratio;
  the proposals it rejected are dropped and those behind the hit stay for
  later steps.  Every proposal is tested at exactly one step against its
  own uniform, and proposals not yet tested are independent of everything
  before them, so this is the plain rejection scheme with the random
  numbers drawn in another order.  The span is kept as one m x m array of
  conjugated rows, which every product reads in place, so a step copies
  no rows.

Both samplers draw r^2 through the same exact decompositions of the
truncated Gamma law, ``_outer_t_block`` outside the disk and
``_inner_t_block`` inside it.  A block of any size is one uniform draw,
one search of one log Poisson(N R^2) tail table for all its indices, and
one Gamma or Beta call.  The table is ``mixture.bernoulli_weights``: the
outer counts are searched among the log P(X <= i), which are the log
weights log a_i, and the inner ones among its log P(X > j), which run past
N until they fall below 2^-64 of P(X > N - 1), past any uniform draw.

Randomness comes from ``RandomStream``, a counter-based Philox generator
keyed by (seed, stream_id).  Two streams with different ids are
independent for all practical purposes, and the same (seed, stream_id)
replays bit-identically on any platform, which the serialization tests
and the validation suite rely on.  Configuration-producing samplers
require a ``RandomStream`` and record its seed and stream id, so each
file replays from its own header; ``sample_radii_outer`` takes a
``numpy.random.Generator``, such as ``RandomStream.generator()``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .gamma import log_q_integer
from .kernels import FeatureBasis, basis as feature_basis, feature_rows
from .mixture import (
    ConstraintViolation,
    EnsembleParams,
    IndexSet,
    _check_index_set,
    bernoulli_weights,
    refuse_past,
    sample_conditioned_indexset,
)

__all__ = [
    "SamplingError",
    "RandomStream",
    "PointConfiguration",
    "radial_survival",
    "sample_radii_outer",
    "sample_sequential",
    "sample_conditioned_ensemble",
]

_TWO_PI = 2.0 * math.pi

# Proposal budget per point before the sequential sampler gives up.
_MAX_PROPOSALS = 1_000_000
# Entries (proposals x rank) of one proposal pool's feature-row matrix, and of its coefficients.
_POOL_ENTRIES = 1 << 15
# Entries (rank m squared) of the sequential sampler's span, 16 bytes each:
# m <= 2048, a 64 MiB span, where a draw, which costs O(m^3), takes about 40 s on one core.
_MAX_SPAN_ENTRIES = 1 << 22
# A freshly accepted direction should never be this close to the span of
# the previous ones; if it is, the Gram-Schmidt basis has degenerated.
_MIN_DIRECTION_NORM = 1e-10

_REGIONS = ("outer", "inner", "full")
_SCHEMA = "point-configuration/1"
_UINT64_SPAN = 1 << 64


class SamplingError(RuntimeError):
    """A rejection loop exhausted its proposal budget or lost its basis."""


@dataclass(frozen=True)
class RandomStream:
    """Replayable random source keyed by (seed, stream_id).

    Backed by the Philox counter-based bit generator, so distinct
    stream_ids give independent streams from one seed.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for label, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if value != int(value) or not (0 <= value < _UINT64_SPAN):
                raise ValueError(f"{label} must be an integer in [0, 2^64), got {value!r}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of the stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


def _require_stream(rng: RandomStream) -> RandomStream:
    if not isinstance(rng, RandomStream):
        raise TypeError(
            "configuration samplers record their seed and therefore require a "
            f"RandomStream, got {type(rng).__name__}"
        )
    return rng


@dataclass(frozen=True)
class PointConfiguration:
    """A sampled point set together with everything needed to replay it.

    The region tag states which support the points live on: ``outer``
    (all |z| > R), ``inner`` (all |z| < R) or ``full`` (exactly N points
    of which exactly N_c lie outside radius R).  ``stream`` is the
    ``RandomStream`` the points were drawn from.
    """

    points: tuple[complex, ...]
    params: EnsembleParams
    index_set: IndexSet
    region: str
    stream: RandomStream

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(complex(z) for z in self.points))
        if self.region not in _REGIONS:
            raise ValueError(f"region must be one of {_REGIONS}, got {self.region!r}")
        _check_index_set(self.params, self.index_set)
        R = self.params.R
        if self.region == "outer" and any(abs(z) <= R for z in self.points):
            raise ConstraintViolation("outer configuration contains a point with |z| <= R")
        if self.region == "inner" and any(abs(z) >= R for z in self.points):
            raise ConstraintViolation("inner configuration contains a point with |z| >= R")
        if self.region == "full":
            if len(self.points) != self.params.N:
                raise ConstraintViolation(
                    f"full configuration needs N = {self.params.N} points, got {len(self.points)}"
                )
            if self.n_outside != self.params.N_c:
                raise ConstraintViolation(
                    f"full configuration needs N_c = {self.params.N_c} points outside "
                    f"radius R, got {self.n_outside}"
                )

    @property
    def n_outside(self) -> int:
        return sum(1 for z in self.points if abs(z) > self.params.R)

    def point_regions(self) -> tuple[str, ...]:
        """Per-point region tags; full configurations split by |z| vs R."""
        if self.region != "full":
            return tuple(self.region for _ in self.points)
        R = self.params.R
        return tuple("outer" if abs(z) > R else "inner" for z in self.points)

    def _header(self) -> dict:
        return {
            "schema": _SCHEMA,
            "params": asdict(self.params),
            "index_set": list(self.index_set.members),
            "region": self.region,
            "seed": self.stream.seed,
            "stream_id": self.stream.stream_id,
            "sampler": "sequential",
        }

    def to_json(self) -> str:
        doc = self._header()
        doc["points"] = [[z.real, z.imag] for z in self.points]
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "PointConfiguration":
        doc = json.loads(text)
        fields = _header_fields(doc)
        return cls(points=tuple(complex(re, im) for re, im in doc["points"]), **fields)

    def write_csv(self, path: "str | Path") -> Path:
        """Write ``re,im,region`` rows plus a JSON metadata sidecar.

        The sidecar lands at ``<path>.meta.json`` and holds everything but
        the points, so the pair round-trips losslessly via ``read_csv``.
        """
        path = Path(path)
        rows = ["re,im,region"]
        rows.extend(
            f"{z.real!r},{z.imag!r},{tag}" for z, tag in zip(self.points, self.point_regions())
        )
        path.write_text("\n".join(rows) + "\n")
        Path(str(path) + ".meta.json").write_text(json.dumps(self._header()) + "\n")
        return path

    @classmethod
    def read_csv(cls, path: "str | Path") -> "PointConfiguration":
        path = Path(path)
        fields = _header_fields(json.loads(Path(str(path) + ".meta.json").read_text()))
        points = []
        lines = path.read_text().splitlines()
        if not lines or lines[0] != "re,im,region":
            raise ValueError(f"{path} does not start with the re,im,region header")
        for line in lines[1:]:
            re_s, im_s, _tag = line.split(",")
            points.append(complex(float(re_s), float(im_s)))
        return cls(points=tuple(points), **fields)


def _header_fields(header: dict) -> dict:
    """Every field but the points from a header as ``PointConfiguration._header`` writes it."""
    if header.get("schema") != _SCHEMA:
        raise ValueError(f"unrecognized schema {header.get('schema')!r}")
    params = EnsembleParams(**header["params"])
    return {
        "params": params,
        "index_set": IndexSet(members=tuple(header["index_set"]), N=params.N),
        "region": header["region"],
        "stream": RandomStream(seed=header["seed"], stream_id=header["stream_id"]),
    }


def radial_survival(params: EnsembleParams, k: int, t: float) -> float:
    """P(r_k^2 > t) for the outer modulus of index k: Q(k+1, Nt)/Q(k+1, NR^2).

    Equals 1 for every t at or below R^2 because the law is supported on
    (R^2, oo).  This is the analytic reference the sampling tests invert.
    """
    if k != int(k) or not (0 <= k < params.N):
        raise ConstraintViolation(f"index must be an integer in [0, {params.N}), got {k!r}")
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and nonnegative, got {t!r}")
    r_sq = params.R * params.R
    if t <= r_sq:
        return 1.0
    n = int(k) + 1
    return math.exp(log_q_integer(n, params.N * t) - log_q_integer(n, params.z))


def sample_radii_outer(params: EnsembleParams, J: IndexSet, gen: np.random.Generator, size: int = 1) -> np.ndarray:
    """Independent outer moduli {r_k} for k in J: a (size, |J|) array, each row one exact draw per index in member
    order.  Only radial statistics of a configuration are faithfully reproduced; see the module docstring.
    """
    _check_index_set(params, J)
    if not isinstance(gen, np.random.Generator):
        raise TypeError(f"expected a numpy Generator, got {type(gen).__name__}")
    if size != int(size) or size < 1:
        raise ValueError(f"size must be a positive integer, got {size!r}")
    ks = np.array(J.members, dtype=np.int64)
    picks = np.tile(np.arange(J.size), int(size))
    return np.sqrt(_outer_t_block(params, ks, picks, gen)).reshape(int(size), J.size)


def _outer_t_block(
    params: EnsembleParams, ks: np.ndarray, picks: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Exact draws of t = r^2 for the outer indices ks[picks], vectorized.

    Uses the arrival-time decomposition of the truncated Gamma law: with
    u = Nt ~ Gamma(k+1) conditioned on u > z0, the number i of Poisson
    arrivals before z0 is a Poisson(z0) conditioned on i <= k, and the
    overshoot past z0 is an independent Gamma(k+1-i).  The CDF of i is
    P(X <= i) / P(X <= k) = a_i / a_k, so for a uniform v, i counts the
    log a_i at or below log v + log a_k.  No tolerance enters anywhere.
    """
    z0 = params.z
    log_a = bernoulli_weights(params).log_a
    k = ks[picks]
    i = np.minimum(k, np.searchsorted(log_a, np.log(gen.random(picks.size)) + log_a[k], side="right"))
    return (z0 + gen.standard_gamma(k + 1.0 - i)) / params.N


def _inner_t_block(
    params: EnsembleParams, ks: np.ndarray, picks: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Exact draws of t = r^2 on (0, R^2) for the inner-complement indices ks[picks].

    Uses the order-statistics decomposition of the truncated Gamma law:
    with u = Nt ~ Gamma(k+1) conditioned on u < z0, the number n of Poisson
    arrivals before z0 is a Poisson(z0) conditioned on n >= k+1, and given
    n the arrivals are uniform on (0, z0), so u = z0 Beta(k+1, n-k).  With
    S_j = P(X > j), n exceeds j >= k with probability S_j / S_k, so for a
    uniform v, n counts the S_j at or above (1 - v) S_k.
    """
    z0 = params.z
    neg_log_s = -bernoulli_weights(params).log_survival
    k = ks[picks]
    bound = neg_log_s[k] - np.log1p(-gen.random(picks.size))
    n = np.searchsorted(neg_log_s, bound, side="right")
    return z0 * gen.beta(k + 1.0, n - k) / params.N


def _check_span(m: int) -> None:
    """Refuse a rank-m projection draw whose m x m span would exceed ``_MAX_SPAN_ENTRIES``."""
    refuse_past(_MAX_SPAN_ENTRIES, m * m, f"sequential sampler span entries m^2 at rank m = {m}")


def _pool_rows(m: int, j: int) -> int:
    """Pool size before step j: the expected m H_(m-j) remaining proposals, capped."""
    expected = m * np.reciprocal(np.arange(1.0, m - j + 1)).sum()
    return max(1, min(math.ceil(1.1 * expected) + 8, _POOL_ENTRIES // m))


def _draw_pool(params: EnsembleParams, fb: FeatureBasis, rows: int, gen: np.random.Generator):
    """``rows`` proposals from the step-one mixture of ``fb``: (t, theta, uniforms, unit feature rows)."""
    picks = gen.integers(0, fb.ks.size, size=rows)
    radial_block = _outer_t_block if fb.kind == "outer_J" else _inner_t_block
    t = radial_block(params, fb.ks, picks, gen)
    theta = _TWO_PI * gen.random(rows)
    uniforms = gen.random(rows)
    # acceptance ratios and Gram-Schmidt updates only see directions
    psi, _ = feature_rows(params, fb, t, theta)
    flat = psi.view(float)
    flat /= np.sqrt(np.einsum("ij,ij->i", flat, flat))[:, None]
    return t, theta, uniforms, psi


def _sample_projection(params: EnsembleParams, fb: FeatureBasis, gen: np.random.Generator) -> list[complex]:
    """Sequential draw of all m points of the rank-m projection kernel of the feature basis ``fb``."""
    m = int(fb.ks.size)
    # The Gram-Schmidt rows are kept conjugated, and so is each new direction:
    # conj(psi - x @ span) = conj(psi) - conj(x) @ span_conj, bit for bit since
    # conjugation is exact, so every product reads the span in place.
    span_conj = np.zeros((m, m), dtype=complex)
    points: list[complex] = []
    uniforms = np.empty(0)
    cursor = 0
    for j in range(m):
        rows = span_conj[:j]
        used = 0
        while True:
            if used >= _MAX_PROPOSALS:
                raise SamplingError(
                    f"no acceptance within {used} proposals at point {j + 1} of {m} "
                    f"(basis={fb.kind}, "
                    f"N={params.N}, c={params.c}, R={params.R})"
                )
            if cursor == uniforms.size:
                t, theta, uniforms, psi = _draw_pool(params, fb, _pool_rows(m, j), gen)
                # coeff[p, i] = <psi_p, direction i>; left[p] = 1 - sum |coeff[p]|^2, p's acceptance ratio
                coeff = np.empty((uniforms.size, m), dtype=complex)
                flat = np.matmul(psi, rows.T, out=coeff[:, :j]).view(float)
                left = 1.0 - np.einsum("ij,ij->i", flat, flat)
                cursor = 0
            stop = min(cursor + _MAX_PROPOSALS - used, uniforms.size)
            hits = uniforms[cursor:stop] < left[cursor:stop]
            first = int(hits.argmax())
            if hits[first]:
                break
            used += stop - cursor
            cursor = stop
        b = cursor + first
        cursor = b + 1
        # u: the conjugated direction psi - coeff @ span, then orthogonalized once more
        u = psi[b].conj() - coeff[b, :j].conj() @ rows
        u -= (rows @ u.conj()).conj() @ rows
        # the expression np.linalg.norm evaluates, without its wrapper
        norm = math.sqrt(u.real.dot(u.real) + u.imag.dot(u.imag))
        if norm < _MIN_DIRECTION_NORM:
            raise SamplingError(
                f"accepted direction nearly collinear with the span at point {j + 1} of {m}"
            )
        span_conj[j] = u / norm
        # the new direction's coefficients on the proposals not yet tested
        coeff[cursor:, j] = psi[cursor:] @ span_conj[j]
        left[cursor:] -= np.abs(coeff[cursor:, j]) ** 2
        r = math.sqrt(t[b])
        points.append(complex(r * math.cos(theta[b]), r * math.sin(theta[b])))
    return points


def sample_sequential(
    params: EnsembleParams, J: IndexSet, basis: str, rng: RandomStream
) -> PointConfiguration:
    """Exact configuration of the projection kernel selected by ``basis``.

    ``basis`` is ``"outer_J"`` (rank |J|, support |z| > R) or
    ``"inner_J_complement"`` (rank N - |J|, support |z| < R), as ``kernels``
    names them.  Identical (params, J, basis, stream) replay bit-identically.
    """
    if basis not in ("outer_J", "inner_J_complement"):
        raise ValueError(f"basis must be outer_J or inner_J_complement, got {basis!r}")
    _check_index_set(params, J)
    _check_span(J.size if basis == "outer_J" else params.N - J.size)
    stream = _require_stream(rng)
    points = _sample_projection(params, feature_basis(params, J, basis), stream.generator())
    return PointConfiguration(
        points=tuple(points),
        params=params,
        index_set=J,
        region="outer" if basis == "outer_J" else "inner",
        stream=stream,
    )


def sample_conditioned_ensemble(params: EnsembleParams, rng: RandomStream) -> PointConfiguration:
    """One full draw of the ensemble conditioned on the overcrowding count.

    Draws the index set from the conditioned mixture, then the outer and
    inner point sets from their projection kernels; given J the two are
    independent, so they simply consume the same stream in a fixed order.
    """
    _check_span(max(params.N_c, params.N - params.N_c))
    stream = _require_stream(rng)
    gen = stream.generator()
    J = sample_conditioned_indexset(params, params.N_c, gen)
    outer = _sample_projection(params, feature_basis(params, J, "outer_J"), gen)
    inner = _sample_projection(params, feature_basis(params, J, "inner_J_complement"), gen)
    return PointConfiguration(
        points=tuple(outer) + tuple(inner),
        params=params,
        index_set=J,
        region="full",
        stream=stream,
    )
