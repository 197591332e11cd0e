"""Command-line behavior: reports, file outputs, determinism, exit codes."""

import hashlib
import importlib
import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import ginibre_overcrowding
from ginibre_overcrowding.cli import main, read_radial_csv
from ginibre_overcrowding.kernels import KernelGrid
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
    assert "2^N" in err


def test_prob_invalid_regime_names_condition(capsys):
    code, _, err = run(capsys, "prob", "-N", "10", "-c", "0.3", "-R", "0.5")
    assert code == 2
    assert "R^2 > 1 - c" in err


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
    expected = [float(r) for r in sample_radii_outer(params, J, gen)]
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


# SHA-256 over the files of one seeded ``sample`` run, in name order, per
# (format, radial-only).  A change that alters replay bytes must update these
# digests and name the change in CHANGES.md.
REPLAY_DIGESTS = {
    ("csv", False): "64dd067f39da6a602865dd70180eda229880ac68d741741690f36f03650aec5b",
    ("csv", True): "13e387e78e482e44a82f312dc24cffe4c19769ce1df0da9f38c87722d76bc03e",
    ("json", False): "3876144b44891ed402978eb0b321eaacedf709b298813a6acd76e02e92a27cd5",
    ("json", True): "9359881f9cdf67c65627cd39e2210673923b62600c9cab85d87261de5b8ba239",
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

    json_file = tmp_path / "grid.json"
    code, _, _ = run(
        capsys,
        "kernel", "-N", "50", "-c", "0.9", "-R", "0.7",
        "--kind", "outer_J", "--grid", "0.75:1.1:3,0:0.2:2",
        "--format", "json", "--out", str(json_file),
    )
    assert code == 0
    grid = KernelGrid.from_json(json_file.read_text())
    assert grid.spec.kind == "outer_J"
    assert grid.hermitian_defect() < 1e-12


def test_kernel_compare_reports_sup(capsys):
    code, out, _ = run(
        capsys,
        "kernel", "-N", "200", "-c", "0.9", "-R", "0.7",
        "--compare", "edge_rescaled_J", "limit_hard_wall", "--x-scaled",
        "--grid", "0.2:3:5,-2:2:5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    diffs = [p["diff_abs"] for p in payload["points"]]
    assert payload["sup"] == max(diffs)
    assert payload["at"] == max(payload["points"], key=lambda p: p["diff_abs"])["z"]
    assert 0.0 < payload["sup"] < 0.05


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


def test_validate_quick_passes_and_tolerance_override_fails(capsys):
    code, out, _ = run(capsys, "validate", "--quick")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 9

    code, out, _ = run(capsys, "validate", "--quick", "--tol", "ratio_constant=0.01")
    assert code == 1
    assert "FAILED criteria: [3]" in out


def test_validate_rejects_unknown_tolerance(capsys):
    code, _, err = run(capsys, "validate", "--tol", "bogus=1")
    assert code == 2
    assert "unknown tolerance key" in err


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
    # run the same source tree that this suite imports, installed or not
    src = str(Path(ginibre_overcrowding.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *SCRIPT_ARGS],
        capture_output=True, text=True, timeout=120, env=env,
    )
    check_script_run(proc)


@pytest.mark.skipif(shutil.which(SCRIPT) is None, reason=f"{SCRIPT} is not installed on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(
        [shutil.which(SCRIPT), *SCRIPT_ARGS],
        capture_output=True, text=True, timeout=120,
    )
    check_script_run(proc)
