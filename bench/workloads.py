"""Seeded operation streams for the three benchmark workloads.

A workload is an endless sequence of blocks with a fixed layout: which
positions are near-critical or oracle ops, which kernel kind and grid size,
which draw type, format and replica count.  Layouts rotate with the block
index in the same way on every seed.  The continuous inputs (N, c and x) of
each block form a Latin hypercube: every N, c and x stratum is used once per
block, and where the block enters its strata moves along a low-discrepancy
sequence from a seeded start.  So any run of whole blocks covers the input
ranges evenly, and two seeds run nearly the same mix of cheap and expensive
operations: their figures differ by the program and the machine, not by the
draw.  The runner stops only at block boundaries.

Triples (N, c, R) are never repeated, so the per-parameter caches of the
package (weights, DP tables, kernel norms) are never shared between ops.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("prob_sweep", "kernel_grid", "sample_draws")

C_RANGE = (0.2, 0.95)
R2_MAX = 0.98
X_RANGE = (1.1, 4.0)
# near-critical ops: x = R^2/(1-c) in (1.005, 1.05], split into four strata
NEAR_X = (1.005, 1.05)
NEAR_STRATA = 4

PROB_N = (200, 4000)
PROB_BLOCK = 20
ORACLE_N = (8, 16)

KERNEL_N = (100, 400)
GRID_SIDES = (5, 6, 7, 8, 9)
# (argv fragment, label); the last entry is the diagonal comparison
KERNEL_OPS = (
    (("--kind", "outer_J"), "outer_J"),
    (("--kind", "inner_J_complement"), "inner_J_complement"),
    (("--kind", "ginibre_N"), "ginibre_N"),
    (("--kind", "edge_rescaled_J", "--x-scaled"), "edge_rescaled_J"),
    (("--kind", "limit_hard_wall"), "limit_hard_wall"),
    (("--compare", "edge_rescaled_J", "limit_hard_wall", "--x-scaled"), "compare"),
)

SAMPLE_N = (30, 200)
SAMPLE_FORMATS = ("csv", "json")
SAMPLE_REPLICAS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Grid:
    """The ``re0:re1:n,im0:im1:m`` product grid of a kernel op."""

    re0: float
    re1: float
    n: int
    im0: float
    im1: float
    m: int

    @property
    def spec(self) -> str:
        return f"{self.re0!r}:{self.re1!r}:{self.n},{self.im0!r}:{self.im1!r}:{self.m}"

    @property
    def size(self) -> int:
        return self.n * self.m


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what its output checks need to know.

    ``sample`` ops get their ``--out`` prefix from the runner, because the
    output directory is only known at run time.
    """

    kind: str  # "prob", "kernel", "compare" or "sample"
    argv: tuple[str, ...]
    N: int
    c: float
    R: float
    near_critical: bool = False
    oracle: bool = False
    label: str = ""
    grid: "Grid | None" = None
    radial: bool = False
    fmt: str = ""
    replicas: int = 0

    @property
    def N_c(self) -> int:
        return int(math.floor(self.c * self.N + 1e-12))


# Roberts' R3 sequence: point b is frac(start + b * alpha) in [0, 1)^3, with
# alpha the inverse powers of the real root of t^4 = t + 1
_PHI3 = 1.2207440846057596
_ALPHA = tuple(_PHI3 ** -j for j in (1, 2, 3))


class _Triples:
    """(N, c, R) triples laid out as a Latin hypercube in each block.

    Slot i of block b in a block of K slots takes N stratum
    (steps[0] i + shifts[0] b) mod K, c stratum (steps[1] i + shifts[1] b) mod K
    and x stratum (steps[2] i + shifts[2] b) mod K, each entered at the block's
    offset, with the steps prime to K.  The offsets of successive blocks are
    successive points of the R3 sequence from a seeded start.  N is
    log-uniform in its range, c uniform in C_RANGE and x uniform in (x_lo, x_hi],
    cut where R^2 = x (1 - c) would reach R2_MAX.  No triple is handed out twice.
    """

    def __init__(self, rng: random.Random, steps: tuple, shifts: tuple) -> None:
        self.start = tuple(rng.random() for _ in _ALPHA)
        self.steps = steps
        self.shifts = shifts
        self.seen: set[tuple[int, float, float]] = set()
        self.begin_block(0)

    def begin_block(self, b: int) -> None:
        self.b = b
        self.offsets = tuple((s + b * a) % 1.0 for s, a in zip(self.start, _ALPHA))

    def slot(self, i: int, K: int) -> tuple[float, float, float]:
        """Fractions (u_N, u_c, u_x) in [0, 1) of slot i in a block of K slots."""
        return tuple(
            ((step * i + shift * self.b) % K + offset) / K
            for step, shift, offset in zip(self.steps, self.shifts, self.offsets)
        )

    def draw(self, u: tuple, n_range: tuple, x_lo: float, x_hi: float) -> tuple[int, float, float]:
        (n_lo, n_hi), (u_n, u_c, u_x) = n_range, u
        N = min(n_hi, round(n_lo * (n_hi / n_lo) ** u_n))
        c = C_RANGE[0] + (C_RANGE[1] - C_RANGE[0]) * u_c
        while True:
            top = min(x_hi, R2_MAX / (1.0 - c) * (1.0 - 1e-12))
            R = math.sqrt((top - (top - x_lo) * u_x) * (1.0 - c))
            if (N, c, R) not in self.seen:
                self.seen.add((N, c, R))
                return N, c, R
            c = math.nextafter(c, 0.0)


def _params(N: int, c: float, R: float) -> tuple[str, ...]:
    return ("-N", str(N), "-c", repr(c), "-R", repr(R))


# positions of the near-critical ops and of the oracle op in a prob block
_NEAR_POSITIONS = (2, 7, 13, 18)
_ORACLE_POSITION = 10


def _prob_block(rng: random.Random, triples: _Triples, b: int) -> list[Op]:
    """PROB_BLOCK ops in increasing N plus one oracle op; four are near-critical, one per x stratum."""
    width = (NEAR_X[1] - NEAR_X[0]) / NEAR_STRATA
    ops = []
    for i in range(PROB_BLOCK):
        u = triples.slot(i, PROB_BLOCK)
        near = i in _NEAR_POSITIONS
        if near:
            lo = NEAR_X[0] + width * ((_NEAR_POSITIONS.index(i) + b) % NEAR_STRATA)
            N, c, R = triples.draw(u, PROB_N, lo, lo + width)
        else:
            N, c, R = triples.draw(u, PROB_N, *X_RANGE)
        ops.append(Op("prob", ("prob",) + _params(N, c, R), N, c, R, near_critical=near))
    N, c, R = triples.draw(triples.offsets, ORACLE_N, *X_RANGE)
    oracle = Op("prob", ("prob",) + _params(N, c, R) + ("--oracle",), N, c, R, oracle=True)
    ops.insert(_ORACLE_POSITION, oracle)
    return ops


def _kernel_grid(rng: random.Random, label: str, R: float, n: int, m: int) -> Grid:
    """A grid inside the support of the kernel kind ``label``."""
    if label == "outer_J":  # |z| >= Re z > R
        re0 = R + rng.uniform(0.01, 0.05)
        half = rng.uniform(0.1, 0.3)
        return Grid(re0, re0 + rng.uniform(0.2, 0.4), n, -half, half, m)
    if label in ("inner_J_complement", "ginibre_N"):
        # inner: |z| <= sqrt(2) * 0.65 R < R
        half = rng.uniform(0.4, 0.65) * R if label == "inner_J_complement" else rng.uniform(0.3, 0.7)
        return Grid(-half, half, n, -half, half, m)
    # edge and hard-wall kernels live on the right half plane Re z > 0
    re0 = rng.uniform(0.05, 0.3)
    half = rng.uniform(0.5, 2.0)
    return Grid(re0, re0 + rng.uniform(1.0, 3.0), n, -half, half, m)


def _kernel_block(rng: random.Random, triples: _Triples, b: int) -> list[Op]:
    """Every kernel op kind at every grid side: len(KERNEL_OPS) * len(GRID_SIDES) ops."""
    ops = []
    slots = [(s, k) for s in range(len(GRID_SIDES)) for k in range(len(KERNEL_OPS))]
    for i, (s, k) in enumerate(slots):
        flags, label = KERNEL_OPS[k]
        n = GRID_SIDES[s]
        m = GRID_SIDES[(s + k + b) % len(GRID_SIDES)]
        N, c, R = triples.draw(triples.slot(i, len(slots)), KERNEL_N, *X_RANGE)
        grid = _kernel_grid(rng, label, R, n, m)
        kind = "compare" if label == "compare" else "kernel"
        argv = ("kernel",) + _params(N, c, R) + flags + (f"--grid={grid.spec}",)
        ops.append(Op(kind, argv, N, c, R, label=label, grid=grid))
    return ops


def _sample_block(rng: random.Random, triples: _Triples, b: int) -> list[Op]:
    """Full and radial draws alternating, each at every replica count once.

    Formats alternate within a draw type and swap every four blocks.
    """
    ops = []
    for i in range(2 * len(SAMPLE_REPLICAS)):
        radial = i % 2 == 1
        q = i // 2
        reps = SAMPLE_REPLICAS[(q + b) % len(SAMPLE_REPLICAS)]
        fmt = SAMPLE_FORMATS[(q + i + b // len(SAMPLE_REPLICAS)) % len(SAMPLE_FORMATS)]
        N, c, R = triples.draw(triples.slot(i, 2 * len(SAMPLE_REPLICAS)), SAMPLE_N, *X_RANGE)
        argv = ("sample",) + _params(N, c, R) + (
            "--seed", str(rng.randrange(1 << 32)), "--replicas", str(reps), "--format", fmt,
        )
        if radial:
            argv += ("--radial-only",)
        ops.append(Op("sample", argv, N, c, R, radial=radial, fmt=fmt, replicas=reps))
    return ops


# block maker, and the Latin-hypercube steps and shifts of its (N, c, x) strata;
# prob blocks run in increasing N, sample blocks give full draws the even N
# strata and radial draws the odd ones
_BLOCKS = {
    "prob_sweep": (_prob_block, (1, 7, 13), (0, 1, 3)),
    "kernel_grid": (_kernel_block, (11, 7, 13), (5, 1, 3)),
    "sample_draws": (_sample_block, (1, 3, 5), (0, 1, 3)),
}


def blocks(workload: str, seed: int) -> Iterator[list[Op]]:
    """The endless block stream of ``workload``; equal seeds give equal streams."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    make, steps, shifts = _BLOCKS[workload]
    triples = _Triples(rng, steps, shifts)
    b = 0
    while True:
        triples.begin_block(b)
        yield make(rng, triples, b)
        b += 1
