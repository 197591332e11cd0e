"""Tests of the benchmark itself: workloads, output checks and tracing.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ginibre_overcrowding import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import END, OP, PARENT, SID, START, TRACED, SpanTable, Tracer  # noqa: E402
from workloads import Grid, Op  # noqa: E402


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _x(op: Op) -> float:
    return op.R * op.R / (1.0 - op.c)


# ---------------------------------------------------------------- workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_seeded_and_never_repeat_a_triple(workload):
    first = [op.argv for block in islice(workloads.blocks(workload, 7), 6) for op in block]
    again = [op.argv for block in islice(workloads.blocks(workload, 7), 6) for op in block]
    other = [op.argv for block in islice(workloads.blocks(workload, 8), 6) for op in block]
    assert first == again
    assert first != other
    ops = [op for block in islice(workloads.blocks(workload, 7), 6) for op in block]
    assert len({(op.N, op.c, op.R) for op in ops}) == len(ops)
    for op in ops:
        assert 0.2 <= op.c <= 0.95 and op.R * op.R < 0.98 and op.R * op.R > 1.0 - op.c


def test_prob_block_mix():
    block = next(workloads.blocks("prob_sweep", 3))
    assert len(block) == workloads.PROB_BLOCK + 1
    oracle = [op for op in block if op.oracle]
    near = sorted(_x(op) for op in block if op.near_critical)
    assert len(oracle) == 1 and 8 <= oracle[0].N <= 16 and "--oracle" in oracle[0].argv
    width = (workloads.NEAR_X[1] - workloads.NEAR_X[0]) / workloads.NEAR_STRATA
    assert [int((x - workloads.NEAR_X[0]) / width) for x in near] == [0, 1, 2, 3]
    rest = [op for op in block if not op.oracle]
    assert all(200 <= op.N <= 4000 for op in rest)
    assert all(1.1 <= _x(op) <= 4.0 + 1e-9 for op in rest if not op.near_critical)


def test_kernel_grids_lie_on_each_support():
    for op in next(workloads.blocks("kernel_grid", 5)):
        points = checks._grid_points(op)
        assert 5 <= op.grid.n <= 9 and 5 <= op.grid.m <= 9
        assert any(a.startswith("--grid=") for a in op.argv)
        if op.label == "outer_J":
            assert all(abs(z) > op.R for z in points)
        elif op.label == "inner_J_complement":
            assert all(abs(z) < op.R for z in points)
        elif op.label != "ginibre_N":
            assert all(z.real > 0 for z in points)


def test_sample_blocks_balance_replicas_and_formats():
    block = next(workloads.blocks("sample_draws", 5))
    for radial in (False, True):
        ops = [op for op in block if op.radial == radial]
        assert sorted(op.replicas for op in ops) == [1, 2, 3, 4]
        assert sorted(op.fmt for op in ops) == ["csv", "csv", "json", "json"]
        assert all(("--radial-only" in op.argv) == radial for op in ops)


# ---------------------------------------------------------------- checks


def _prob_op(N=12, c=0.5, R=0.8, oracle=True) -> Op:
    argv = ("prob", "-N", str(N), "-c", repr(c), "-R", repr(R)) + (("--oracle",) if oracle else ())
    return Op("prob", argv, N, c, R, oracle=oracle)


def test_prob_check_accepts_real_output_and_rejects_corruptions():
    op = _prob_op()
    rc, out, _ = _run(op.argv)
    assert rc == 0 and checks.check_prob(op, out) == []
    report = json.loads(out)
    corruptions = [
        {"log_prob_exact": 0.25},
        {"log_prob_asymptotic": report["log_prob_asymptotic"] * (1 + 1e-9)},
        {"log_hole_factor": float("nan")},
        {"enumeration_rel_err": 1e-6},
        {"N_c": report["N_c"] + 1},
    ]
    for change in corruptions:
        assert checks.check_prob(op, json.dumps({**report, **change})), change
    assert checks.check_prob(op, out[:-5])


def _kernel_op(kind_flags, label, grid: Grid, N=40, c=0.6, R=0.8) -> Op:
    kind = "compare" if label == "compare" else "kernel"
    argv = ("kernel", "-N", str(N), "-c", repr(c), "-R", repr(R)) + kind_flags + (f"--grid={grid.spec}",)
    return Op(kind, argv, N, c, R, label=label, grid=grid)


def test_kernel_check_accepts_real_output_and_rejects_corruptions():
    op = _kernel_op(("--kind", "outer_J"), "outer_J", Grid(0.85, 1.05, 3, -0.1, 0.1, 2))
    rc, out, _ = _run(op.argv)
    assert rc == 0 and checks.check_kernel(op, out) == []
    lines = out.splitlines()

    def with_row(idx, k_re=None, k_im=None):
        fields = lines[idx].split(",")
        if k_re is not None:
            fields[4] = repr(k_re)
        if k_im is not None:
            fields[5] = repr(k_im)
        return "\n".join(lines[:idx] + [",".join(fields)] + lines[idx + 1:]) + "\n"

    P = op.grid.size
    off_diagonal = 1 + 1  # row for the pair (0, 1)
    diagonal = 1 + P + 1  # row for the pair (1, 1)
    assert checks.check_kernel(op, with_row(off_diagonal, k_re=float(lines[2].split(",")[4]) * 1.5 + 1.0))
    assert checks.check_kernel(op, with_row(diagonal, k_im=0.5))
    assert checks.check_kernel(op, with_row(diagonal, k_re=-1.0))
    assert checks.check_kernel(op, "\n".join(lines[:-1]) + "\n")
    zeros = [lines[0]] + [",".join(row.split(",")[:4] + ["0.0", "0.0"]) for row in lines[1:]]
    assert checks.check_kernel(op, "\n".join(zeros) + "\n")


def test_compare_check_accepts_real_output_and_rejects_corruptions():
    flags = ("--compare", "edge_rescaled_J", "limit_hard_wall", "--x-scaled")
    op = _kernel_op(flags, "compare", Grid(0.2, 1.5, 3, -0.5, 0.5, 2))
    rc, out, err = _run(op.argv)
    assert rc == 0 and checks.check_compare(op, out, err) == []
    lines = out.splitlines()
    fields = lines[1].split(",")
    fields[6] = repr(float(fields[6]) + 1.0)
    broken = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    assert checks.check_compare(op, broken, err)
    assert checks.check_compare(op, out, "sup |A-B| = 12.5 at z = 0j\n")


def _sample_op(tmp_path, radial, fmt, N=24, c=0.5, R=0.8, replicas=2) -> tuple[Op, Path]:
    argv = ("sample", "-N", str(N), "-c", repr(c), "-R", repr(R), "--seed", "11",
            "--replicas", str(replicas), "--format", fmt) + (("--radial-only",) if radial else ())
    op = Op("sample", argv, N, c, R, radial=radial, fmt=fmt, replicas=replicas)
    prefix = tmp_path / f"{'radial' if radial else 'full'}-{fmt}"
    return op, prefix


@pytest.mark.parametrize("radial", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_check_accepts_real_output(tmp_path, radial, fmt):
    op, prefix = _sample_op(tmp_path, radial, fmt)
    rc, out, _ = _run(op.argv + ("--out", str(prefix)))
    assert rc == 0 and checks.check_sample(op, out, prefix, cli) == []


def test_sample_check_rejects_corrupted_files(tmp_path):
    op, prefix = _sample_op(tmp_path, False, "csv")
    rc, out, _ = _run(op.argv + ("--out", str(prefix)))
    path = Path(f"{prefix}-0000.csv")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # one point fewer
    assert checks.check_sample(op, out, prefix, cli)

    op, prefix = _sample_op(tmp_path, False, "json")
    rc, out, _ = _run(op.argv + ("--out", str(prefix)))
    path = Path(f"{prefix}-0001.json")
    doc = json.loads(path.read_text())
    outside = next(i for i, (a, b) in enumerate(doc["points"]) if math.hypot(a, b) > op.R)
    doc["points"][outside] = [0.0, 0.0]  # an outside point moved inside
    path.write_text(json.dumps(doc))
    assert checks.check_sample(op, out, prefix, cli)

    op, prefix = _sample_op(tmp_path, True, "csv")
    rc, out, _ = _run(op.argv + ("--out", str(prefix)))
    path = Path(f"{prefix}-0000.csv")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [repr(op.R * 0.5)]) + "\n")  # a radius below R
    assert checks.check_sample(op, out, prefix, cli)

    op, prefix = _sample_op(tmp_path, True, "json")
    rc, out, _ = _run(op.argv + ("--out", str(prefix)))
    path = Path(f"{prefix}-0000.json")
    doc = json.loads(path.read_text())
    doc["index_set"] = doc["index_set"][::-1]
    path.write_text(json.dumps(doc))
    assert checks.check_sample(op, out, prefix, cli)
    Path(f"{prefix}-0001.json").unlink()
    assert checks.check_sample(op, out, prefix, cli)


# ---------------------------------------------------------------- tracing


def test_traced_prob_op_makes_2N_plus_3Nc_gamma_calls():
    op = _prob_op(N=300, c=0.7, R=0.8, oracle=False)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        rc, out, _ = _run(op.argv)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert rc == 0 and checks.check_prob(op, out) == []
    table = SpanTable(tracer.spans)
    assert len(table.named(*TRACED["gamma"][1])) == 2 * op.N + 3 * op.N_c
    assert len(table.named("partition_series")) == 2
    assert tracer.series_terms > 0
    assert len(tracer.dp_peaks) == 1 and tracer.dp_peaks[0] >= (op.N + 1) ** 2 * 8
    from ginibre_overcrowding import mixture

    assert not hasattr(mixture.log_q_integer, "__wrapped__")


def test_worker_thread_spans_attach_to_their_op():
    op = _kernel_op(("--kind", "limit_hard_wall"), "limit_hard_wall", Grid(0.2, 1.0, 2, -0.5, 0.5, 2))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op(4)
        rc, out, _ = _run(op.argv)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert rc == 0
    table = SpanTable(tracer.spans)
    (root,) = table.named("cli.op")
    kernel_spans = table.named("evaluate_kernel")
    assert len(kernel_spans) == op.grid.size ** 2
    assert all(s[PARENT] == root[SID] and s[OP] == 4 for s in kernel_spans)
    assert 0.0 <= table.self_time(root) <= root[END] - root[START]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prob_sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
