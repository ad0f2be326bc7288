"""Full-size benchmark jobs at the benchmark's gate seed, run through
perfbench/workloads.py: a change that breaks a full-size run, or moves its
quality out of perfbench/tolerances.json, fails here and not only when the
benchmark runs."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads as W  # noqa: E402

GATE_SEED = 21
TOLERANCES = json.loads((PERFBENCH / "tolerances.json").read_text())


# uci-reg trains on split job_no % 20, so its 20 jobs cover every split
@pytest.mark.parametrize("name, n_jobs", [("uci-reg", W.N_UCI_SPLITS), ("mnist-cls", 1),
                                          ("conv-cls", 1)])
def test_full_size_jobs_at_the_gate_seed_meet_the_tolerances(tmp_path, name, n_jobs):
    w, mods = W.WORKLOADS[name], W.bedl_modules()
    W.generate(w, tmp_path, GATE_SEED, smoke=False)
    with W.StepClock(mods["train"]) as clock:
        for job_no in range(n_jobs):
            r = W.run_job(w, mods, tmp_path, tmp_path / "checkpoint.bin", GATE_SEED, job_no,
                          False, clock)
            problems = W.check_quality(w, r.quality, TOLERANCES, smoke=False)
            assert not problems, (f"job {job_no}", problems)
