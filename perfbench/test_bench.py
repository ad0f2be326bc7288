"""Tests of the benchmark itself, on the smoke inputs.

Run from the root of the repository: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] != 0 for v in result["metrics"].values())
        for name in ("error_rate", "step_ms_p90"):
            assert name in proc.stdout


def test_smoke_and_full_runs_at_one_seed_keep_separate_digests():
    # same data file, different epochs: the full run must not be held to
    # the smoke run's metrics.csv, nor the other way round
    for extra in (["--smoke"], [], ["--smoke"]):
        proc = bench("--workload", "uci-reg", "--seed", "4", "--seconds", "1", "--trace", "0",
                     *extra)
        assert proc.returncode == 0, proc.stderr


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "uci-reg", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_every_binding():
    import tracer
    import workloads

    mods = workloads.bedl_modules()
    owners = list(mods.values()) + [mods["tensor"].Tensor, mods["train"].Adam,
                                     mods["layers"].MomentNetwork]
    before = [dict(vars(o)) for o in owners]
    with tracer.Tracer(mods):
        assert mods["tensor"].add is not before[0]["add"]
        assert mods["train"].decompose is not before[3]["decompose"]  # imported by name
    assert [dict(vars(o)) for o in owners] == before


def test_failed_job_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    import run
    import workloads

    real, calls = workloads.run_job, []

    def first_job_diverges(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise workloads.bedl_modules()["tensor"].NumericsError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(workloads, "run_job", first_job_diverges)
    rc = run.main(["--workload", "uci-reg", "--seed", "3", "--seconds", "1", "--trace", "0",
                   "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and not result["correct"]
    assert result["failed"] == 1 and result["attempted"] >= 2
