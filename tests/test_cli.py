"""Command-line behavior: reports, file outputs, determinism, exit codes."""

import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import ginibre_overcrowding
from ginibre_overcrowding import cli, mixture, sampler, validation
from ginibre_overcrowding.cli import main, read_radial_csv
from ginibre_overcrowding.kernels import KernelSpec, evaluate_diagonal, evaluate_grid
from ginibre_overcrowding.mixture import EnsembleParams, sample_conditioned_indexset
from ginibre_overcrowding.sampler import PointConfiguration, RandomStream, sample_radii_outer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prob_report_fields_and_ratio(capsys):
    code, out, _ = run(capsys, "prob", "-N", "100", "-c", "0.9", "-R", "0.7")
    assert code == 0
    report = json.loads(out)
    assert report["N_c"] == 90
    assert abs(report["exact_over_asymptotic"] - 1.0) < 0.05
    assert report["log_prob_asymptotic"] == pytest.approx(
        report["log_hole_factor"] + report["log_partition_series_factor"]
    )
    # the alternative hole convention is a different normalization, not a typo
    assert report["log_hole_factor_rescaled"] != report["log_hole_factor"]


def test_prob_near_critical_is_answered(capsys):
    # x = R^2/(1-c) = 1.0103: the partition series has no term cap near x = 1
    code, out, _ = run(capsys, "prob", "-N", "100", "-c", "0.515", "-R", "0.7")
    assert code == 0
    report = json.loads(out)
    assert all(math.isfinite(v) for v in report.values())
    assert report["log_partition_series_factor"] > 0.0


def test_prob_oracle_matches_exact(capsys):
    code, out, _ = run(capsys, "prob", "-N", "10", "-c", "0.5", "-R", "0.8", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["enumeration_rel_err"] < 1e-12


def test_prob_oracle_refuses_large_n(capsys):
    code, _, err = run(capsys, "prob", "-N", "30", "-c", "0.5", "-R", "0.8", "--oracle")
    assert code == 2
    assert err == "error: N of --oracle, which enumerates 2^N subsets: 30, over the cap of 16\n"


def test_prob_oversize_tail_table_refused_before_any_output(capsys, tmp_path):
    # N + T table entries past 10 * 2^20: N = 2 * 10^7 away from R = 1, T = 43
    tracemalloc.start()
    try:
        argv = ("prob", "-N", "20000000", "-c", "0.7", "-R", "0.6", "--out", str(tmp_path / "p.json"))
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == "error: Poisson tail table entries at N = 20000000, R = 0.6: 20000043, over the cap of 10485760\n"
    assert peak < 1 << 20
    assert list(tmp_path.iterdir()) == []


def test_prob_near_r_one_tail_table_is_answered(capsys):
    # N = 10^6 at R^2 = 1 - 10^-6: the tail adds T = 9,912 entries, not 28.7 million
    code, out, _ = run(capsys, "prob", "-N", "1000000", "-c", "0.000001", "-R", "0.9999995")
    assert code == 0
    report = json.loads(out)
    assert report["N_c"] == 1
    assert math.isfinite(report["log_prob_exact"]) and report["log_prob_exact"] <= 0.0


def test_reused_parser_leaks_nothing_between_calls(capsys):
    # the parser is built once; one call's flags and errors must not reach the next
    code, out, _ = run(capsys, "prob", "-N", "10", "-c", "0.5", "-R", "0.8", "--oracle")
    assert code == 0 and "log_prob_enumerated" in json.loads(out)
    code, out, _ = run(capsys, "prob", "-N", "10", "-c", "0.5", "-R", "0.8")
    assert code == 0
    report = json.loads(out)
    assert "log_prob_enumerated" not in report and "enumeration_rel_err" not in report
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--kind", "outer_J", "--compare", "ginibre_N", "limit_hard_wall", "--grid", "0:1:2,0:0:1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "kernel", "--kind", "limit_hard_wall", "--grid", "0.2:1:2,0:0:1")
    assert code == 0 and out.startswith("z_re,")
    with pytest.raises(SystemExit) as exc:
        main(["prob", "-N", "ten", "-c", "0.5", "-R", "0.8"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "prob", "-N", "10", "-c", "0.5", "-R", "0.8", "--format", "csv")
    assert code == 0 and out.startswith("field,value\nN,10\n")
    assert "log_prob_enumerated" not in out


def test_prob_invalid_regime_names_condition(capsys):
    code, _, err = run(capsys, "prob", "-N", "10", "-c", "0.3", "-R", "0.5")
    assert code == 2
    assert "R^2 > 1 - c" in err


@pytest.mark.parametrize(
    "exact, hole, series, rescaled, enumerated",
    [
        (math.nan, -1.5, 0.25, math.inf, None),
        (-3.0, -math.inf, 0.5, -math.inf, -3.25),
        (-math.inf, -2.0, math.inf, math.nan, math.nan),
        (-7.125, -6.5, 1e-300, -1e300, -math.inf),
    ],
)
def test_prob_json_report_is_the_indent_2_dump(capsys, monkeypatch, exact, hole, series, rescaled, enumerated):
    # the report writer against json.dumps(report, indent=2): ints, floats, NaN, +-Infinity and the oracle fields
    for name, value in [
        ("overcrowding_probability_exact", exact),
        ("log_hole_factor", hole),
        ("partition_series", series),
        ("log_hole_factor_rescaled", rescaled),
    ]:
        monkeypatch.setattr(cli, name, lambda *_, value=value: value)
    monkeypatch.setattr(cli, "enumerate_count_log_probs", lambda params: np.full(params.N + 1, enumerated))
    oracle = () if enumerated is None else ("--oracle",)
    code, out, _ = run(capsys, "prob", "-N", "12", "-c", "0.5", "-R", "0.9", *oracle)
    assert code == 0
    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n"
    assert ("log_prob_enumerated" in report) == ("enumeration_rel_err" in report) == bool(oracle)
    assert [report["N"], report["N_c"]] == [12, 6]
    assert all(isinstance(v, float) for k, v in report.items() if k not in ("N", "N_c"))
    fields = ["log_prob_exact", "log_hole_factor", "log_partition_series_factor", "log_hole_factor_rescaled"]
    got = [report[k] for k in fields] + [report.get("log_prob_enumerated", None)]
    assert str(got) == str([exact, hole, series, rescaled, enumerated])


def test_prob_json_report_round_trips(capsys):
    code, out, _ = run(capsys, "prob", "-N", "16", "-c", "0.5", "-R", "0.8", "--oracle", "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_prob_csv_format(capsys, tmp_path):
    out_file = tmp_path / "prob.csv"
    code, _, _ = run(capsys, "prob", "-N", "20", "-c", "0.8", "-R", "0.7", "--format", "csv", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "field,value"
    fields = dict(line.split(",", 1) for line in lines[1:])
    assert float(fields["log_prob_exact"]) < 0.0


def test_sample_deterministic_and_correct_counts(capsys, tmp_path):
    args = ("sample", "-N", "40", "-c", "0.9", "-R", "0.7", "--seed", "11", "--replicas", "3")
    code, out, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    assert len(out.splitlines()) == 3
    code, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code == 0
    params = EnsembleParams(N=40, c=0.9, R=0.7)
    for i in range(3):
        pa = tmp_path / f"a-{i:04d}.csv"
        pb = tmp_path / f"b-{i:04d}.csv"
        assert pa.read_bytes() == pb.read_bytes()
        assert (tmp_path / f"a-{i:04d}.csv.meta.json").read_bytes() == (
            tmp_path / f"b-{i:04d}.csv.meta.json"
        ).read_bytes()
        cfg = PointConfiguration.read_csv(pa)
        assert len(cfg.points) == params.N
        assert cfg.n_outside == params.N_c


@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_sample_rejects_fewer_than_one_replica(capsys, tmp_path, replicas):
    code, out, err = run(
        capsys,
        "sample", "-N", "30", "-c", "0.8", "-R", "0.7",
        "--seed", "5", "--replicas", replicas, "--out", str(tmp_path / "none"),
    )
    assert code == 2
    assert "--replicas must be at least 1" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_sample_oversize_span_refused_before_any_file(capsys, tmp_path):
    # outer rank 14000: a 14000^2 complex span is 2.9 GiB
    args = ("sample", "-N", "20000", "-c", "0.7", "-R", "0.8", "--seed", "1")
    code, out, err = run(capsys, *args, "--replicas", "2", "--out", str(tmp_path / "s"))
    assert code == 2
    assert out == ""
    assert "span entries m^2 at rank m = 14000: 196000000, over the cap of 4194304" in err
    assert list(tmp_path.iterdir()) == []
    # the radial sampler holds no span and is not gated
    code, out, _ = run(capsys, *args, "--radial-only", "--out", str(tmp_path / "r"))
    assert code == 0
    assert len(read_radial_csv(out.strip())[0]) == 14_000


def test_sample_exhausted_proposal_budget_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(sampler, "_MAX_PROPOSALS", 0)
    code, out, err = run(
        capsys,
        "sample", "-N", "30", "-c", "0.8", "-R", "0.7", "--seed", "5", "--out", str(tmp_path / "none"),
    )
    assert code == 3
    assert err.startswith("numeric failure: no acceptance within 0 proposals")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_sample_json_round_trip(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "sample", "-N", "12", "-c", "0.7", "-R", "0.6",
        "--seed", "3", "--format", "json", "--out", str(tmp_path / "cfg"),
    )
    assert code == 0
    text = (tmp_path / "cfg-0000.json").read_text()
    cfg = PointConfiguration.from_json(text)
    assert cfg.to_json() + "\n" == text


def test_sample_radial_only_replays_sampler(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "sample", "-N", "30", "-c", "0.8", "-R", "0.75",
        "--seed", "21", "--radial-only", "--out", str(tmp_path / "rad"),
    )
    assert code == 0
    radii, meta = read_radial_csv(tmp_path / "rad-0000.csv")
    assert meta["schema"] == "radial-moduli/1"
    params = EnsembleParams(N=30, c=0.8, R=0.75)
    gen = RandomStream(seed=21, stream_id=0).generator()
    J = sample_conditioned_indexset(params, params.N_c, gen)
    assert list(J.members) == meta["index_set"]
    expected = sample_radii_outer(params, J, gen)[0].tolist()
    assert radii == expected
    assert min(radii) > params.R

    code, _, _ = run(
        capsys,
        "sample", "-N", "30", "-c", "0.8", "-R", "0.75",
        "--seed", "21", "--radial-only", "--format", "json", "--out", str(tmp_path / "radj"),
    )
    assert code == 0
    payload = json.loads((tmp_path / "radj-0000.json").read_text())
    assert payload["schema"] == "radial-moduli/1"
    assert payload["radii"] == expected
    assert {k: v for k, v in payload.items() if k != "radii"} == meta


def test_command_cache_traffic(capsys, tmp_path):
    # the caches kept are the ones a command hits: the replicas of one `sample` share one
    # tilted table, and one `prob` op builds its weights once and reads them again
    mixture._tilted_draws.cache_clear()
    argv = ["sample", "-N", "40", "-c", "0.6", "-R", "0.8", "--seed", "7", "--replicas", "3"]
    assert run(capsys, *argv, "--out", str(tmp_path / "draw"))[0] == 0
    assert mixture._tilted_draws.cache_info()[:2] == (2, 1)
    mixture.bernoulli_weights.cache_clear()
    assert run(capsys, "prob", "-N", "300", "-c", "0.7", "-R", "0.6")[0] == 0
    hits, misses = mixture.bernoulli_weights.cache_info()[:2]
    assert misses == 1 and hits >= 1


# SHA-256 over the files of one seeded ``sample`` run, in name order, per
# (format, radial-only).  A change that alters replay bytes must update these
# digests and name the change in CHANGES.md.
REPLAY_DIGESTS = {
    ("csv", False): "169e065659b514079b05e8f063f1f9360c73809b17f533d140a6d9543ba9c591",
    ("csv", True): "8094e4c1a0865b1ada1e607f45650864cf812aa2ad3b71788360651c829eaa8f",
    ("json", False): "385273f71231e15230c4ac2d8c308fcf91a23a0468585679a980b21af6ed7d38",
    ("json", True): "7e3d540004f89a024356d6d9e1b17dcc919c0ed029cc000b145e81f914a47988",
}


@pytest.mark.parametrize("fmt, radial", sorted(REPLAY_DIGESTS))
def test_sample_replay_bytes_are_frozen(capsys, tmp_path, fmt, radial):
    argv = [
        "sample", "-N", "40", "-c", "0.6", "-R", "0.8", "--seed", "2024",
        "--replicas", "2", "--format", fmt, "--out", str(tmp_path / "draw"),
    ]
    code, _, _ = run(capsys, *argv, *(["--radial-only"] if radial else []))
    assert code == 0
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == REPLAY_DIGESTS[(fmt, radial)]


def test_kernel_tabulate_csv_and_json_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "kernel", "--kind", "limit_hard_wall", "--grid", "0.2:1.0:3,-1:1:2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z_re,z_im,w_re,w_im,K_re,K_im"
    assert len(lines) == 1 + 36  # 6 grid points, product table
    code, again, _ = run(capsys, "kernel", "--kind", "limit_hard_wall", "--grid", "0.2:1.0:3,-1:1:2")
    assert code == 0
    assert again == out

    outer = ["kernel", "-N", "50", "-c", "0.9", "-R", "0.7", "--kind", "outer_J", "--grid", "0.75:1.1:3,0:0.2:2"]
    code, csv_out, _ = run(capsys, *outer)
    assert code == 0
    json_file = tmp_path / "grid.json"
    code, _, _ = run(capsys, *outer, "--format", "json", "--out", str(json_file))
    assert code == 0
    doc = json.loads(json_file.read_text())
    assert doc["kind"] == "outer_J" and doc["params"] == {"N": 50, "c": 0.9, "R": 0.7}
    header, *rows = (line.split(",") for line in csv_out.splitlines())
    assert doc["columns"] == header
    assert [[repr(v) for v in row] for row in doc["rows"]] == rows
    values = np.array([complex(*row[4:]) for row in doc["rows"]]).reshape(6, 6)
    assert np.max(np.abs(values - values.conj().T)) < 1e-12


def test_kernel_compare_reports_sup(capsys):
    argv = [
        "kernel", "-N", "200", "-c", "0.9", "-R", "0.7",
        "--compare", "edge_rescaled_J", "limit_hard_wall", "--x-scaled", "--grid", "0.2:3:5,-2:2:5",
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["z_re", "z_im", "a_re", "a_im", "b_re", "b_im", "diff_abs"]
    top = max(payload["rows"], key=lambda row: row[6])
    assert payload["sup"] == top[6]
    assert payload["at"] == top[:2]
    assert 0.0 < payload["sup"] < 0.05
    # the CSV holds the same rows, CRLF-terminated, and the sup goes to stderr
    code, csv_out, err = run(capsys, *argv)
    assert code == 0
    assert csv_out.count("\r\n") == 1 + 25 and "\n" not in csv_out.replace("\r\n", "")
    header, *rows = (line.split(",") for line in csv_out.splitlines())
    assert [[repr(v) for v in row] for row in payload["rows"]] == rows
    assert err == f"sup |A-B| = {payload['sup']!r} at z = {complex(*payload['at'])!r}\n"


class _CountingSink(io.TextIOBase):
    """A text handle that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_kernel_output_is_streamed(fmt):
    # 65,536 rows each: --kind over 256 points, --compare over 65,536 points; the values are
    # computed first, so the traced peak is the writer's own
    limit = KernelSpec("limit_hard_wall")
    points = cli._parse_grid("0.05:3:16,-2:2:16", squared=True)
    grid_blocks = cli._grid_blocks(points, evaluate_grid(limit, points, points), fmt)
    points = cli._parse_grid("0.05:3:256,-2:2:256", squared=False)
    a = evaluate_diagonal(limit, points)
    b = 0.999 * a
    compare_blocks = cli._compare_blocks(points, a, b, np.abs(a - b), fmt)
    for columns, blocks in ((cli._GRID_COLUMNS, grid_blocks), (cli._COMPARE_COLUMNS, compare_blocks)):
        sink = _CountingSink()
        tracemalloc.start()
        try:
            cli._write_table(sink, fmt, {"sup": 0.0}, columns, blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.chars > 4_000_000
        assert peak < sink.chars / 4


@pytest.mark.parametrize(
    "what",
    [("--kind", "ginibre_N"), ("--kind", "outer_J"), ("--compare", "ginibre_N", "limit_hard_wall")],
)
def test_kernel_x_scaled_needs_the_edge_kernel(capsys, what):
    code, out, err = run(
        capsys, "kernel", "-N", "20", "-c", "0.9", "-R", "0.7", *what, "--x-scaled", "--grid", "0.2:1:2,0:0:1"
    )
    assert code == 2
    assert out == ""
    assert "--x-scaled applies only to edge_rescaled_J" in err


def test_kernel_kind_and_compare_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "-N", "20", "-c", "0.9", "-R", "0.7", "--kind", "outer_J",
              "--compare", "ginibre_N", "limit_hard_wall", "--grid", "0.2:1:2,0:0:1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_kernel_malformed_grid(capsys):
    code, _, err = run(capsys, "kernel", "--kind", "limit_hard_wall", "--grid", "nonsense")
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize("kind", ["limit_hard_wall", "ginibre_N"])
@pytest.mark.parametrize("grid", ["nan:1:2,0:1:2", "0:inf:2,0:1:2", "0:1:2,-inf:1:2"])
def test_kernel_non_finite_grid_bound_refused(capsys, kind, grid):
    params = ("-N", "20", "-c", "0.7", "-R", "0.8") if kind == "ginibre_N" else ()
    code, out, err = run(capsys, "kernel", "--kind", kind, *params, f"--grid={grid}")
    assert code == 2
    assert out == ""
    assert "non-finite bound" in err


def test_kernel_oversize_grid_refused_before_building_points(capsys):
    # 10^10 points would write 10^20 values; the cap is checked on n m alone
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "kernel", "--kind", "limit_hard_wall", "--grid", "0:1:100000,0:1:100000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "kernel values written for grid '0:1:100000,0:1:100000': 100000000000000000000, over the cap of 4194304" in err
    assert peak < 1 << 20


def test_kernel_oversize_feature_rows_refused_before_any_row(capsys):
    # a 9x9 grid at N = 200000: its 81 points, whose rows serve as both z and w, x rank 200000 feature-row entries
    tracemalloc.start()
    try:
        code, out, err = run(
            capsys, "kernel", "--kind", "ginibre_N", "-N", "200000", "-c", "0.7", "-R", "0.8",
            "--grid=-0.5:0.5:9,-0.5:0.5:9",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "feature-row entries of 81 points x rank 200000: 16200000, over the cap of 8388608" in err
    # log N! alone for N = 200000 would take 1.6 MB
    assert peak < 1 << 20


def test_kernel_grid_cap_counts_written_values(capsys):
    # 2049 points: a product table writes 2049^2 > 2^22 values, a compare 2049
    code, out, err = run(capsys, "kernel", "--kind", "limit_hard_wall", "--grid", "0.2:1:2049,0:0:1")
    assert code == 2
    assert out == ""
    assert ": 4198401, over the cap of 4194304" in err
    code, out, _ = run(
        capsys, "kernel", "-N", "10", "-c", "0.9", "-R", "0.7",
        "--compare", "ginibre_N", "limit_hard_wall", "--grid", "0.2:1:2049,0:0:1",
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 2049
    code, out, err = run(
        capsys, "kernel", "--compare", "limit_hard_wall", "limit_hard_wall", "--grid", "0:1:2049,0:1:2048",
    )
    assert code == 2
    assert out == ""
    assert ": 4196352, over the cap of 4194304" in err


def test_kernel_index_kind_needs_params(capsys):
    code, _, err = run(capsys, "kernel", "--kind", "outer_J", "--grid", "0.2:1:2,0:0:1")
    assert code == 2
    assert "requires -N" in err


def test_kernel_validates_unused_params(capsys):
    # the limit kernel ignores the triple, but an invalid one still fails fast
    code, out, err = run(
        capsys, "kernel", "--kind", "limit_hard_wall", "-N", "10", "-c", "0.3", "-R", "0.5",
        "--grid", "0.2:1:2,0:0:1",
    )
    assert code == 2
    assert out == ""
    assert "R^2 > 1 - c" in err


def test_kernel_partial_params_rejected(capsys):
    code, out, err = run(
        capsys, "kernel", "-N", "10", "-c", "0.9", "--kind", "ginibre_N", "--grid", "0.2:1:2,0:0:1"
    )
    assert code == 2
    assert out == ""
    assert "must be given together" in err


def edge_triples(rng: np.random.Generator) -> list:
    """(N, c, R) near the edges of the domain: c = 1, N_c = 1, R^2 within 1e-7 above 1 - c, and one inside.

    At the edge, rounding may leave R^2 at or below 1 - c, which ``prob`` refuses with exit 2."""
    triples = []
    for N in (1, 2, 3, 5, 8, 13, 40, 120):
        inside = rng.uniform(0.05, 1.0)
        for c, gap in (
            (1.0, rng.uniform(0.0, 1e-7)),
            (1.0 / N, rng.uniform(0.0, 1e-7)),
            (rng.uniform(0.05, 1.0), rng.uniform(0.0, 1e-7)),
            (inside, rng.uniform(0.0, inside)),
        ):
            triples.append((N, float(c), math.sqrt(min(1.0 - c + gap, 1.0 - 1e-12))))
    return triples


def test_exit_status_contract_near_the_domain_edges(capsys, tmp_path):
    # every call exits 0, 2 or 3 with no exception escaping main, and every answered prob is a log-probability
    grid = "--grid=0.3:1.2:3,-0.4:0.4:2"
    statuses = []
    for i, (N, c, R) in enumerate(edge_triples(np.random.default_rng(30))):
        triple = ["-N", str(N), "-c", repr(c), "-R", repr(R)]
        calls = [
            ["prob", *triple],
            ["prob", *triple, "--format", "csv"],
            ["kernel", *triple, "--kind", "outer_J", grid],
            ["kernel", *triple, "--kind", "inner_J_complement", grid],
            ["kernel", *triple, "--compare", "edge_rescaled_J", "limit_hard_wall", "--x-scaled", grid],
        ]
        if N <= 16:
            calls.append(["prob", *triple, "--oracle"])
        if N <= 40:
            calls.append(["sample", *triple, "--seed", str(i), "--out", str(tmp_path / f"full{i}")])
            calls.append(["sample", *triple, "--seed", str(i), "--radial-only", "--out", str(tmp_path / f"radial{i}")])
        for argv in calls:
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # nothing may escape main, argparse exits included
                pytest.fail(f"{argv} raised {exc!r}")
            out = capsys.readouterr().out
            assert code in (0, 2, 3), argv
            statuses.append(code)
            if code == 0 and argv[0] == "prob" and "--format" not in argv:
                log_prob = json.loads(out)["log_prob_exact"]
                assert math.isfinite(log_prob) and log_prob <= 0.0, argv
    assert statuses.count(0) > len(statuses) // 2


# (argv, the refusal's size and cap, or None for an answer); each call gets --out into a directory of its own
CONTRACT_CALLS = [
    # past the oracle cap, with no probability computed first
    (["prob", "-N", "10000000", "-c", "0.7", "-R", "0.6", "--oracle"], (10_000_000, 16)),
    # past the tail-table cap, admitted before the top block is built (the last one ran out of memory there)
    (["kernel", "--kind", "inner_J_complement", "-N", "30000000", "-c", "0.7", "-R", "0.8", "--grid", "0:0.1:3,0:0.1:3"],
     (30_000_101, 10_485_760)),
    (["kernel", "--compare", "outer_J", "limit_hard_wall", "-N", "50000000", "-c", "0.7", "-R", "0.8",
      "--grid", "1:1.1:3,0:0.1:3"], (50_000_101, 10_485_760)),
    (["prob", "-N", "20000000", "-c", "0.7", "-R", "0.6"], (20_000_043, 10_485_760)),
    (["kernel", "--kind", "limit_hard_wall", "--grid", "0:1:100000,0:1:100000"], (10**20, 4_194_304)),
    (["kernel", "--kind", "ginibre_N", "-N", "200000", "-c", "0.7", "-R", "0.8", "--grid=-0.5:0.5:9,-0.5:0.5:9"],
     (16_200_000, 8_388_608)),
    (["sample", "-N", "20000", "-c", "0.7", "-R", "0.8", "--seed", "1"], (196_000_000, 4_194_304)),
    # counts whose enumerated sum underflows to 0, answered without a warning
    (["prob", "-N", "13", "-c", "1.0", "-R", "0.00021838721950315725", "--oracle"], None),
    (["prob", "-N", "100", "-c", "0.9", "-R", "0.7", "--format", "csv"], None),
    (["kernel", "--kind", "outer_J", "-N", "40", "-c", "0.9", "-R", "0.7", "--grid", "0.2:1:3,0:0.5:2"], None),
    (["kernel", "-N", "400", "-c", "0.9", "-R", "0.7", "--compare", "edge_rescaled_J", "limit_hard_wall",
      "--x-scaled", "--grid", "0.2:3:3,-2:2:3"], None),
    (["sample", "-N", "12", "-c", "0.7", "-R", "0.6", "--seed", "3", "--replicas", "2"], None),
    (["sample", "-N", "30", "-c", "0.8", "-R", "0.75", "--seed", "21", "--radial-only"], None),
]


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)


def test_exit_status_contract_in_subprocesses(tmp_path):
    # each call in a fresh interpreter with warnings as errors and 1.5 GB of address space: an answer
    # writes its output, a refusal exits 2 with one error line naming its size and cap, and writes nothing
    env = {**source_tree_env(), "OPENBLAS_NUM_THREADS": "1"}  # BLAS thread buffers stay out of the limit
    for i, (argv, refusal) in enumerate(CONTRACT_CALLS):
        out = tmp_path / str(i)
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ginibre_overcrowding.cli", *argv, "--out", str(out / "out")],
            capture_output=True, text=True, timeout=60, env=env, preexec_fn=limit_address_space,
        )
        assert "Traceback" not in proc.stderr, argv
        if refusal is None:
            assert proc.returncode == 0, (argv, proc.stderr)
            assert any(out.iterdir()), argv
            continue
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stdout == "" and list(out.iterdir()) == [], argv
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
        size, cap = refusal
        assert lines[0].endswith(f": {size}, over the cap of {cap}"), argv


def test_validate_quick_passes(capsys):
    code, out, _ = run(capsys, "validate", "--quick")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 9
    assert out.splitlines()[-1] == "all 9 criteria passed"


def test_validate_reports_failed_criterion(capsys, monkeypatch):
    title, _ = validation._CRITERIA[3]
    monkeypatch.setitem(validation._CRITERIA, 3, (title, lambda: (False, "forced")))
    code, out, _ = run(capsys, "validate", "--quick")
    assert code == 1
    assert "FAIL criterion  3 " in out
    assert out.splitlines()[-1] == "FAILED criteria: [3]"


def test_validate_has_no_tolerance_flag(capsys):
    # the thresholds are fixed, so argparse rejects an override flag
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--tol", "bogus=1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_every_public_name_resolves():
    modules = [ginibre_overcrowding] + [
        importlib.import_module(f"ginibre_overcrowding.{info.name}")
        for info in pkgutil.iter_modules(ginibre_overcrowding.__path__)
    ]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing attributes {missing}"


SCRIPT = "ginibre-overcrowding"
SCRIPT_ARGS = ["prob", "-N", "8", "-c", "0.9", "-R", "0.8"]


def check_script_run(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["N_c"] == 7


def source_tree_env() -> dict:
    """The environment for a subprocess that runs the source tree this suite imports, installed or not."""
    src = str(Path(ginibre_overcrowding.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_is_wired():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"][SCRIPT]
    # what an installer's wrapper does: load the declared entry point and exit
    # with its return value, the command's arguments in sys.argv[1:]
    launcher = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"sys.exit(EntryPoint(name={SCRIPT!r}, value={value!r}, group='console_scripts').load()())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *SCRIPT_ARGS],
        capture_output=True, text=True, timeout=120, env=source_tree_env(),
    )
    check_script_run(proc)


NO_SCIPY_SCRIPT = """
import sys
from pathlib import Path

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

from ginibre_overcrowding.cli import main
from ginibre_overcrowding.kernels import KERNEL_KINDS

loaded = {"import": scipy_modules()}
params = ["-N", "40", "-c", "0.9", "-R", "0.7"]
out = Path(sys.argv[1])
runs = {
    "prob": ["prob", *params],
    "prob --oracle": ["prob", "-N", "10", "-c", "0.5", "-R", "0.8", "--oracle"],
    **{f"kernel --kind {kind}": ["kernel", *params, "--kind", kind, "--grid", "0.2:1:3,0:0.5:2"] for kind in KERNEL_KINDS},
    "kernel --compare": ["kernel", *params, "--compare", "edge_rescaled_J", "limit_hard_wall", "--grid", "0.2:1:3,0:0.5:2"],
    "sample": ["sample", *params, "--seed", "11", "--replicas", "2", "--out", str(out / "s")],
    "sample --radial-only": ["sample", *params, "--seed", "11", "--radial-only", "--out", str(out / "r")],
}
for label, argv in runs.items():
    if main(argv) != 0:
        sys.exit(f"{label} failed")
    loaded[label] = scipy_modules()
print("RESULT", [(label, names) for label, names in loaded.items() if names])
"""


def test_cli_commands_load_no_scipy(tmp_path):
    # only validate needs scipy (criterion 7's tests, criterion 10's minimization)
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=source_tree_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT []"


@pytest.mark.skipif(shutil.which(SCRIPT) is None, reason=f"{SCRIPT} is not installed on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(
        [shutil.which(SCRIPT), *SCRIPT_ARGS],
        capture_output=True, text=True, timeout=120,
    )
    check_script_run(proc)
