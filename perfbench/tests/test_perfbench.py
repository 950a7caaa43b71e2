"""Tests of the benchmark itself: a tiny-size pass of every workload, the
validator's mutation checks, and the agreement between run.py and
BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def reproduce_tiny(tmp_path_factory):
    """One tiny reproduce-all invocation, run once for the mutation tests."""
    base = tmp_path_factory.mktemp("reproduce")
    done = run.run_pass(workloads.commands("reproduce_all", tiny=True),
                        base / "p0")
    return done["invocations"][0]


def _outcome(rec, out=None, exit_code=None):
    out = out or rec["out"]
    return validate.check_outcome(
        rec["inv"], rec["exit_code"] if exit_code is None else exit_code,
        Path(f"{rec['out']}.stderr").read_text(), out,
        validate.artifact_hashes(out))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pass_of_every_workload_validates(name, work):
    done = run.run_pass(workloads.commands(name, seed=3, tiny=True),
                        work / name)
    validator = run.Validator("test-build")
    for rec in done["invocations"]:
        assert validator.check(rec) == [], rec["inv"].key


def test_traced_pass_gives_every_layer_metric_and_same_artifacts(work):
    invocations = workloads.commands("reproduce_all", tiny=True)
    plain = run.run_pass(invocations, work / "p0")
    traced = run.run_pass(invocations, work / "p1", traced=True)
    validator = run.Validator("test-build")
    for rec in plain["invocations"] + traced["invocations"]:
        assert validator.check(rec) == []
    metrics, functions = run.layer_metrics(traced, plain)
    assert set(metrics) == set(run.PER_LAYER)
    for name in ("cli.import_s", "outputs.write_csv.rows",
                 "outputs.write_csv.mb", "svgplot.heatmap.cells",
                 "biphoton.time_domain.exp_evals",
                 "biphoton.visibility.gflop_computed",
                 "eit.transmission.calls", "eit.fit_gamma_s.total_s",
                 "qubit.chsh_S.self_s", "spectral.build_jsa.calls"):
        assert metrics[name]["value"] > 0, name
    assert metrics["trace.errors"]["value"] == 0
    assert functions["cli.main"]["calls"] == 1
    # cli imports these names directly; the wrappers must see those calls
    for name in ("spectral.build_jsa", "eit.fit_gamma_s",
                 "eit.window_fwhm", "eit.group_delay", "eit.transmission"):
        assert functions[name]["calls"] > 0, name
    # 5 sweep rows plus 2 reference checks that repeat sweep inputs
    assert metrics["biphoton.visibility.calls"]["value"] == 7
    assert metrics["biphoton.visibility.unique_ratio"]["value"] == 5 / 7
    assert metrics["outputs.csv_written_ratio"]["value"] == 1.0


def test_validator_flags_corrupted_artifact(reproduce_tiny, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(reproduce_tiny["out"], out)
    assert _outcome(reproduce_tiny, out) == []
    path = out / "g13.csv"
    data = bytearray(path.read_bytes())
    data[-3] ^= 1
    path.write_bytes(bytes(data))
    assert _outcome(reproduce_tiny, out) == ["sha256 mismatch for g13.csv"]


def test_validator_flags_unexpected_exit_code(reproduce_tiny):
    assert _outcome(reproduce_tiny, exit_code=0) == [
        "exit code 0, expected 4"]


def test_validator_flags_changed_failed_check_set(reproduce_tiny, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(reproduce_tiny["out"], out)
    checks = json.loads((out / "checks.json").read_text())
    checks["failed"] = sorted(workloads.C4_FAILED_CHECKS - {"eit_vg"})
    (out / "checks.json").write_text(json.dumps(checks))
    # keep the manifest consistent so only the failed-set check can object
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        if entry["path"] == "checks.json":
            entry["sha256"] = validate.sha256_file(str(out / "checks.json"))
    (out / "manifest.json").write_text(json.dumps(manifest))
    problems = _outcome(reproduce_tiny, out)
    assert len(problems) == 1 and "failed checks" in problems[0]


def test_validator_flags_numbers_off_reference(reproduce_tiny):
    summary = validate.summarize(reproduce_tiny["out"])
    assert validate.compare(summary, summary) == []
    key = "bell_report.json.S_local"
    moved = dict(summary, **{key: summary[key] * (1 + 1e-5)})
    assert validate.compare(moved, summary) == [
        f"{key}: got {moved[key]!r}, reference {summary[key]!r}"]


def test_validator_flags_artifacts_that_differ_between_repeats(
        reproduce_tiny, tmp_path, work):
    validator = run.Validator("test-build")
    assert validator.check(dict(reproduce_tiny)) == []
    out = tmp_path / "out"
    shutil.copytree(reproduce_tiny["out"], out)
    svg = out / "g13_curve.svg"
    svg.write_text(svg.read_text() + " ")
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["outputs"]:
        if entry["path"] == "g13_curve.svg":
            entry["sha256"] = validate.sha256_file(str(svg))
    (out / "manifest.json").write_text(json.dumps(manifest))
    shutil.copy(f"{reproduce_tiny['out']}.stderr", f"{out}.stderr")
    problems = validator.check(dict(reproduce_tiny, out=out))
    assert problems == ["artifacts differ from an earlier invocation with "
                        "the same inputs"]


def test_seed_picks_inputs_reproducibly_at_fixed_size():
    default = workloads.commands("short_commands")
    assert [inv.key for inv in default[:4]] == [
        "eit --fit-gamma-s 2.9e+06", "store --storage-times-s 0,2e-07,1e-06",
        "bell --storage-times-s 0,2e-07,1e-06", "g13"]
    for name in workloads.NAMES:
        assert workloads.commands(name, 7) == workloads.commands(name, 7)
        assert len(workloads.commands(name, 7)) == len(
            workloads.commands(name))
    assert workloads.commands("short_commands", 7) != default
    assert workloads.commands("reproduce_all", 7) == \
        workloads.commands("reproduce_all")
    target = float(workloads.commands("short_commands", 7)[0].args[2])
    assert workloads.FIT_TARGET_HZ[0] <= target <= workloads.FIT_TARGET_HZ[1]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce_all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_repeated_wrong_artifacts_keep_failing(reproduce_tiny, work):
    validator = run.Validator("test-build")
    key = reproduce_tiny["inv"].key
    summary = validate.summarize(reproduce_tiny["out"])
    validator.refs[key] = dict(summary, **{
        "bell_report.json.S_local": summary["bell_report.json.S_local"] + 1})
    for _ in range(2):
        problems = validator.check(dict(reproduce_tiny))
        assert len(problems) == 1 and "S_local" in problems[0]
    validator.save()
    assert key not in run.Validator("test-build").earlier
