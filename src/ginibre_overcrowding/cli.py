"""Command-line surface: probabilities, sampling, kernel grids, validation.

Four subcommands cover the batch workflows:

``prob``
    Log of the exact overcrowding probability next to its asymptotic
    value, their ratio, and the factor breakdown (hole product, partition
    series, and the alternative hole-product convention).  ``--oracle``
    adds a brute-force subset enumeration field for small N.

``sample``
    Writes point-configuration files (or radial-moduli files with
    ``--radial-only``) for a number of replicas.  Replicas derive
    independent counter-based streams from one ``--seed``, so output is
    byte-identical across reruns and replica counts.  ``--replicas`` must
    be at least 1.

``kernel``
    Tabulates a kernel on a grid (``--kind``), or compares two kernels
    pointwise and reports the sup difference (``--compare``); the two are
    mutually exclusive, and ``--x-scaled`` needs ``edge_rescaled_J`` among
    the kernels asked for.

``validate``
    Runs the acceptance suite, one machine-readable line per criterion;
    exit status 0 only if everything passed.

Each subcommand is one ``cmd_*`` function of the parsed arguments.  -N,
-c and -R are given together or not at all, and the triple is validated
before any work, also by ``kernel --kind limit_hard_wall``, which does not
use it.

Exit codes: 2 for invalid parameters, malformed or non-finite grids, bad
flags and any request past a size cap; 3 when a sampler exhausts its
proposal budget.  Nothing is written when a command exits 2 or 3.  The
five caps are the kernel values a grid writes (2^22), N for ``--oracle``
(16), the N + T entries of a Poisson tail table (10 * 2^20), a finite-N
kernel's feature-row entries (2^23) and a draw's m^2 span entries (2^22).
Each refuses through ``mixture.refuse_past``, one stderr line naming what
it counts, the size and the cap, before its command builds anything the
cap counts: ``prob --oracle`` checks N before any probability, and a
kernel of a J kind admits the tail table before it builds the top block.
Randomized commands have no implicit seed; reproducibility is part
of the contract.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .kernels import KERNEL_KINDS, KernelSpec, evaluate_diagonal, evaluate_grid
from .mixture import (
    EnsembleParams,
    IndexSet,
    _tail_entries,
    log_hole_factor,
    log_hole_factor_rescaled,
    overcrowding_probability_exact,
    refuse_past,
    sample_conditioned_indexset,
    top_block,
)
from .partitions import partition_series
from .sampler import RandomStream, SamplingError, sample_conditioned_ensemble, sample_radii_outer
from .validation import ALL_CRITERIA, QUICK_CRITERIA, enumerate_count_log_probs, run_criterion

__all__ = ["main"]

_EXIT_INVALID = 2
_EXIT_NUMERIC = 3

# brute-force enumeration walks 2^N subsets; past this it stops being a tool
_MAX_ORACLE_N = 16

_RADIAL_SCHEMA = "radial-moduli/1"

# kernel values one `kernel` call may write for P grid points: P^2 (``squared``) for --kind, P for --compare
_MAX_GRID_VALUES = 2**22


def _params(args: argparse.Namespace) -> "EnsembleParams | None":
    """The validated -N/-c/-R triple, or None when none of the three is given."""
    given = (args.N, args.c, args.R)
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ValueError("-N, -c and -R must be given together")
    return EnsembleParams(N=args.N, c=args.c, R=args.R)


def _parse_grid(text: str, squared: bool) -> np.ndarray:
    """``re0:re1:n,im0:im1:m`` -> row-major product of two linspaces as a complex array, refused first past the cap."""
    try:
        (re0, re1, n), (im0, im1, m) = (part.split(":") for part in text.split(","))
        re0, re1, im0, im1 = float(re0), float(re1), float(im0), float(im1)
        n, m = int(n), int(m)
    except ValueError as exc:
        raise ValueError(f"malformed grid {text!r}, expected re0:re1:n,im0:im1:m") from exc
    if n < 1 or m < 1:
        raise ValueError(f"grid {text!r} must have at least one point per axis")
    if not np.isfinite([re0, re1, im0, im1]).all():
        raise ValueError(f"grid {text!r} has a non-finite bound")
    refuse_past(_MAX_GRID_VALUES, (n * m) ** 2 if squared else n * m, f"kernel values written for grid {text!r}")
    points = np.empty((n, m), dtype=complex)
    points.real = np.linspace(re0, re1, n)[:, None]
    points.imag = np.linspace(im0, im1, m)[None, :]
    return points.ravel()


@contextlib.contextmanager
def _output(out: "str | None"):
    """A text handle on stdout, or on the file ``out``, which is closed on exit."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as handle:
            yield handle


def _emit(text: str, out: "str | None") -> None:
    with _output(out) as handle:
        handle.write(text)


# per format: the cell separator, the text before and after each row, and the spellings of the
# non-finite floats.  CSV rows are as ``csv.writer`` writes them, CRLF-terminated; a JSON row is
# a list on a line of its own, with non-finite floats as ``json`` spells them.
_LAYOUTS = {
    "csv": (",", "", "\r\n", {}),
    "json": (", ", ",\n[", "]", {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}),
}


def _write_table(handle, fmt: str, head: dict, columns: tuple, blocks) -> None:
    """Write one table as CSV, or as one JSON document: ``head``'s fields, ``columns`` and ``rows``.

    ``blocks`` yields the text of consecutive rows in ``fmt``'s layout (a ``--kind`` table's one z
    point at a time), floats as shortest round-trip decimals; the first JSON row drops its leading
    comma.  Only one text is held at a time, besides what ``blocks`` holds itself (a ``--kind``
    table's queued entries and the block of rows it is formatting, see ``_grid_blocks``).
    """
    if fmt == "csv":
        handle.write(",".join(columns) + "\r\n")
        handle.writelines(blocks)
        return
    handle.write(json.dumps({**head, "columns": columns})[:-1] + ', "rows": [')
    handle.write(next(blocks)[1:])
    handle.writelines(blocks)
    handle.write("\n]}\n")


# ---------------------------------------------------------------- prob


def cmd_prob(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.oracle:
        refuse_past(_MAX_ORACLE_N, params.N, "N of --oracle, which enumerates 2^N subsets")
    exact = overcrowding_probability_exact(params)
    hole = log_hole_factor(params)
    series = partition_series(params.x)
    asymptotic = hole + series
    report = {
        "N": params.N,
        "c": params.c,
        "R": params.R,
        "N_c": params.N_c,
        "log_prob_exact": exact,
        "log_prob_asymptotic": asymptotic,
        "exact_over_asymptotic": float(np.exp(exact - asymptotic)),
        "log_hole_factor": hole,
        "log_partition_series_factor": series,
        "log_hole_factor_rescaled": log_hole_factor_rescaled(params),
    }
    if args.oracle:
        enumerated = float(enumerate_count_log_probs(params)[params.N_c])
        report["log_prob_enumerated"] = enumerated
        report["enumeration_rel_err"] = abs(float(np.expm1(exact - enumerated)))
    if args.format == "csv":
        lines = ["field,value"] + [f"{k},{v!r}" for k, v in report.items()]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        # the indent=2 layout of a flat dict, through the C encoder, which indent would bypass
        _emit("{\n  " + json.dumps(report, separators=(",\n  ", ": "))[1:-1] + "\n}\n", args.out)
    return 0


# ---------------------------------------------------------------- sample


def _sample_one(params: EnsembleParams, seed: int, radial_only: bool, index: int):
    stream = RandomStream(seed=seed, stream_id=index)
    if not radial_only:
        return sample_conditioned_ensemble(params, stream)
    gen = stream.generator()
    J = sample_conditioned_indexset(params, params.N_c, gen)
    return J, sample_radii_outer(params, J, gen)[0].tolist()


def _write_radial(
    path: Path, params: EnsembleParams, args: argparse.Namespace, index: int, J: IndexSet, radii: list
) -> None:
    """One ``radial-moduli/1`` header, as a CSV sidecar or inlined in one JSON document."""
    meta = {
        "schema": _RADIAL_SCHEMA,
        "params": asdict(params),
        "index_set": list(J.members),
        "seed": args.seed,
        "stream_id": index,
        "sampler": "radial",
    }
    if args.format == "json":
        path.write_text(json.dumps({**meta, "radii": radii}, indent=2) + "\n")
        return
    path.write_text("r\n" + "".join(f"{r!r}\n" for r in radii))
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def read_radial_csv(path) -> tuple[list, dict]:
    """Parse a ``--radial-only`` output file; returns (radii, metadata)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "r":
        raise ValueError(f"{path}: expected header 'r', got {lines[0]!r}" if lines else f"{path}: empty file")
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    if meta.get("schema") != _RADIAL_SCHEMA:
        raise ValueError(f"{path}: unsupported schema {meta.get('schema')!r}")
    return [float(s) for s in lines[1:]], meta


def cmd_sample(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.replicas < 1:
        raise ValueError(f"--replicas must be at least 1, got {args.replicas}")
    results = [_sample_one(params, args.seed, args.radial_only, index) for index in range(args.replicas)]
    prefix = Path(args.out)
    for index, result in enumerate(results):
        path = Path(f"{prefix}-{index:04d}.{args.format}")
        if args.radial_only:
            _write_radial(path, params, args, index, *result)
        elif args.format == "json":
            path.write_text(result.to_json() + "\n")
        else:
            result.write_csv(path)
        print(path)
    return 0


# ---------------------------------------------------------------- kernel


def _make_spec(kind: str, params: "EnsembleParams | None", x_scaled: bool) -> KernelSpec:
    if kind == "limit_hard_wall":
        return KernelSpec(kind)
    if params is None:
        raise ValueError(f"kernel kind {kind!r} requires -N, -c and -R")
    if kind == "ginibre_N":
        return KernelSpec(kind, params)
    # the J kinds read the tail table, admitted here before the O(N) top block is built
    _tail_entries(params.N, params.R)
    return KernelSpec(kind, params, top_block(params), x_scaled=x_scaled and kind == "edge_rescaled_J")


_GRID_COLUMNS = ("z_re", "z_im", "w_re", "w_im", "K_re", "K_im")
_COMPARE_COLUMNS = ("z_re", "z_im", "a_re", "a_im", "b_re", "b_im", "diff_abs")

_COMPARE_BLOCK = 1024  # points per block of --compare rows: a few hundred kB of text
_GRID_BLOCK = 1 << 12  # kernel values per block of --kind rows, at least one row: a few hundred kB of text objects

_SIGNS = np.array(["", "-"], dtype=object)


def _float_texts(x: np.ndarray, spell: dict) -> np.ndarray:
    """Text of each float of the 1-D ``x`` as an object array: one ``repr`` call per distinct bit pattern,
    spelled by ``spell`` where it has the ``repr``."""
    bits, at = np.unique(x.view(np.int64), return_inverse=True)
    return np.array([spell.get(text, text) for text in map(repr, bits.view(float).tolist())], dtype=object)[at]


def _point_texts(points: np.ndarray, sep: str, spell: dict) -> np.ndarray:
    """``re,im,`` of each point as an object array: a product grid of n x m points costs n + m ``repr`` calls."""
    texts = _float_texts(np.concatenate([points.real, points.imag]), spell)
    return texts[: points.size] + sep + texts[points.size :] + sep


def _grid_blocks(points: np.ndarray, values: np.ndarray, fmt: str):
    """Rows of K(z_i, z_j), z outer and w inner, one z point a text, read from the upper triangle of ``values``.

    Row i writes K(z_i, z_j), j > i, as evaluated and queues ``re,-im`` (the text of 0.0 - im) for row j, so the
    table is exactly Hermitian, its diagonal ``repr(Re K_ii),0.0``.  The rows are formatted in blocks of about
    ``_GRID_BLOCK`` values: one ``repr`` per distinct float of a block's Re K and |Im K|, the sign written apart,
    and each row joined from a table of its cells.  Up to P^2/4 queued entries are held, one growing text per
    later row, besides one block.  The rows are laid out as ``_LAYOUTS[fmt]`` gives.
    """
    sep, lead, end, spell = _LAYOUTS[fmt]
    size = points.size
    table = np.empty((size, 7), dtype=object)  # z, w, re, sep, sign, |im|, end; a queued entry fills re, "" after
    table[:, 1], table[:, 3], table[:, 6] = _point_texts(points, sep, spell), sep, end
    queued = [bytearray() for _ in range(size)]
    step = max(1, _GRID_BLOCK // size)
    for a in range(0, size, step):
        b = min(a + step, size)
        rows, cols = np.arange(a, b)[:, None], np.arange(a, size)
        upper, diagonal = rows < cols, rows == cols
        block = values[a:b, a:]
        im = block.imag[upper]
        texts = _float_texts(np.concatenate([block.real[upper], np.abs(im), block.real[diagonal]]), spell)
        re, mag, sign, flip = (np.empty(block.shape, dtype=object) for _ in range(4))
        re[upper], mag[upper], re[diagonal] = np.split(texts, [im.size, 2 * im.size])
        mag[diagonal], sign[diagonal] = "0.0", ""
        # a written -0.0 or -inf keeps its sign, nan is written without one; 0.0 - im is negative when im > 0
        sign[upper] = _SIGNS[(np.signbit(im) & ~np.isnan(im)).view(np.int8)]
        flip[upper] = _SIGNS[(im > 0).view(np.int8)]
        # rows a..b-1 read their columns a..b-1 below the diagonal from the block itself
        lower = np.tril_indices(b - a, -1)
        for part, mirror in ((re, re), (mag, mag), (sign, flip)):
            part[lower] = mirror[:, : b - a].T[lower]
        if b < size:
            # one text per later row j: ``re,-im\n`` of each block row, a tab after the last to split them apart
            later = np.empty((size - b, b - a, 5), dtype=object)
            later[:, :, 0], later[:, :, 1], later[:, :, 2] = re[:, b - a :].T, sep, flip[:, b - a :].T
            later[:, :, 3], later[:, :, 4] = mag[:, b - a :].T, "\n"
            later[:, -1, 4] = "\n\t"
            for text, entries in zip(queued[b:], "".join(later.ravel().tolist()).encode().split(b"\t")):
                text += entries
        table[:a, 3:6] = ""
        for r in range(b - a):
            table[:, 0] = lead + table[a + r, 1]
            table[:a, 2] = queued[a + r].decode().splitlines()
            table[a:, 2], table[a:, 4], table[a:, 5] = re[r], sign[r], mag[r]
            queued[a + r] = None
            yield "".join(table.ravel().tolist())


def _compare_blocks(points: np.ndarray, a: np.ndarray, b: np.ndarray, diff: np.ndarray, fmt: str):
    """Rows of z, A(z, z), B(z, z) and |A - B| as ``_LAYOUTS[fmt]`` lays them out, ``_COMPARE_BLOCK`` points a
    block, one ``repr`` per distinct float."""
    sep, lead, end, spell = _LAYOUTS[fmt]
    columns = (points.real, points.imag, a.real, a.imag, b.real, b.imag, diff)
    for start in range(0, points.size, _COMPARE_BLOCK):
        texts = _float_texts(np.concatenate([column[start : start + _COMPARE_BLOCK] for column in columns]), spell)
        table = np.empty((texts.size // len(columns), 2 * len(columns) + 1), dtype=object)
        table[:, 0], table[:, 1::2], table[:, 2::2] = lead, texts.reshape(len(columns), -1).T, sep
        table[:, -1] = end
        yield "".join(table.ravel().tolist())


def cmd_kernel(args: argparse.Namespace) -> int:
    params = _params(args)
    if args.kind is None and args.compare is None:
        raise ValueError("kernel requires --kind or --compare")
    kinds = args.compare or [args.kind]
    if args.x_scaled and "edge_rescaled_J" not in kinds:
        raise ValueError("--x-scaled applies only to edge_rescaled_J, which is neither --kind nor in --compare")
    grid = _parse_grid(args.grid, squared=args.compare is None)
    if args.compare is None:
        spec = _make_spec(args.kind, params, args.x_scaled)
        head = {
            "kind": spec.kind,
            "x_scaled": spec.x_scaled,
            "params": None if spec.params is None else asdict(spec.params),
            "index_set": None if spec.index_set is None else list(spec.index_set.members),
        }
        values = evaluate_grid(spec, grid, grid)
        with _output(args.out) as handle:
            _write_table(handle, args.format, head, _GRID_COLUMNS, _grid_blocks(grid, values, args.format))
        return 0
    specs = [_make_spec(kind, params, args.x_scaled) for kind in args.compare]  # both refuse before either evaluates
    a, b = (evaluate_diagonal(spec, grid) for spec in specs)
    # |a - b| by hypot, as abs of a Python complex takes it; numpy's complex abs can differ in the last bit
    diff = np.hypot(a.real - b.real, a.imag - b.imag)
    # the first largest difference, as max() finds it: a nan in first place stays, a later one never wins
    i = 0 if np.isnan(diff[0]) else int(np.nanargmax(diff))
    sup, at = float(diff[i]), complex(grid[i])
    head = {"compare": args.compare, "sup": sup, "at": [at.real, at.imag]}
    with _output(args.out) as handle:
        _write_table(handle, args.format, head, _COMPARE_COLUMNS, _compare_blocks(grid, a, b, diff, args.format))
    if args.format == "csv":
        print(f"sup |A-B| = {sup!r} at z = {at!r}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------- validate


def cmd_validate(args: argparse.Namespace) -> int:
    chosen = QUICK_CRITERIA if args.quick else ALL_CRITERIA
    failed = []
    for cid in chosen:
        result = run_criterion(cid)
        print(result.line(), flush=True)
        if not result.passed:
            failed.append(cid)
    if failed:
        print(f"FAILED criteria: {failed}")
        return 1
    print(f"all {len(chosen)} criteria passed")
    return 0


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginibre-overcrowding",
        description="Overcrowded Ginibre ensembles: probabilities, samples, kernels, validation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_params(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument("-N", type=int, required=required, help="matrix size")
        p.add_argument("-c", type=float, required=required, help="overcrowding fraction in (0, 1]")
        p.add_argument("-R", type=float, required=required, help="disk radius in (0, 1), with R^2 > 1 - c")

    prob = sub.add_parser("prob", help="exact and asymptotic overcrowding probabilities")
    prob.set_defaults(run=cmd_prob)
    add_params(prob, required=True)
    prob.add_argument("--oracle", action="store_true", help="add a brute-force enumeration field (N <= 16)")
    prob.add_argument("--out", help="output file (default: stdout)")
    prob.add_argument("--format", choices=("csv", "json"), default="json")

    sample = sub.add_parser("sample", help="draw conditioned point configurations")
    sample.set_defaults(run=cmd_sample)
    add_params(sample, required=True)
    sample.add_argument("--seed", type=int, required=True, help="base seed; replica i uses stream id i")
    sample.add_argument("--replicas", type=int, default=1)
    sample.add_argument("--radial-only", action="store_true", help="write outer moduli instead of full configurations")
    sample.add_argument("--out", required=True, help="output file prefix; files get -NNNN suffixes")
    sample.add_argument("--format", choices=("csv", "json"), default="csv")

    kernel = sub.add_parser("kernel", help="tabulate or compare kernels on a grid")
    kernel.set_defaults(run=cmd_kernel)
    add_params(kernel, required=False)
    what = kernel.add_mutually_exclusive_group()
    what.add_argument("--kind", choices=KERNEL_KINDS, help="kernel to tabulate")
    what.add_argument("--compare", nargs=2, metavar=("A", "B"), choices=KERNEL_KINDS, help="emit pointwise differences and the sup")
    kernel.add_argument("--x-scaled", action="store_true", help="use the x-scaled edge kernel variant (edge_rescaled_J only)")
    kernel.add_argument("--grid", required=True, help="re0:re1:n,im0:im1:m")
    kernel.add_argument("--out", help="output file (default: stdout)")
    kernel.add_argument("--format", choices=("csv", "json"), default="csv")

    validate = sub.add_parser("validate", help="run the acceptance criteria")
    validate.set_defaults(run=cmd_validate)
    validate.add_argument("--quick", action="store_true", help="fast subset (skips the Monte-Carlo-heavy criterion)")

    return parser


# built once: parse_args leaves the parser as it found it, and building costs far more than parsing
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except SamplingError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
