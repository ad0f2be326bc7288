"""Full-size benchmark jobs at the benchmark's gate seed, run through
perfbench/workloads.py: a change that breaks a full-size run, or moves its
quality out of perfbench/tolerances.json, fails here and not only when the
benchmark runs.

The same jobs must also keep their bits: each job's ``metrics.csv`` sha256
and the ``repr`` of each quality value are compared exactly with
``workload_digests.json``. As with ``golden_digests.json``, the comparison
runs only on the build the digests were recorded on (``test_golden.build()``)
and is skipped on any other; to check a change there, record the digests at
the parent commit first:

    PYTHONPATH=src python tests/test_workloads.py

Each workload's jobs run once per pytest run and serve both tests.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest
from test_golden import build

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads as W  # noqa: E402

GATE_SEED = 21
TOLERANCES = json.loads((PERFBENCH / "tolerances.json").read_text())
DIGESTS = Path(__file__).with_name("workload_digests.json")
# uci-reg trains on split job_no % 20, so its 20 jobs cover every split
N_JOBS = {"uci-reg": W.N_UCI_SPLITS, "mnist-cls": 1, "conv-cls": 1}

_done: dict[str, list] = {}


def jobs(name: str, work_dir: Path) -> list:
    """The JobResults of workload ``name``'s full-size jobs at the gate
    seed, run in ``work_dir`` the first time they are asked for."""
    if name not in _done:
        w, mods = W.WORKLOADS[name], W.bedl_modules()
        W.generate(w, work_dir, GATE_SEED, smoke=False)
        with W.StepClock(mods["train"]) as clock:
            _done[name] = [W.run_job(w, mods, work_dir, work_dir / "checkpoint.bin", GATE_SEED,
                                     job_no, False, clock) for job_no in range(N_JOBS[name])]
    return _done[name]


@pytest.fixture(scope="module")
def work_root(tmp_path_factory):
    return tmp_path_factory.mktemp("workloads")


@pytest.mark.parametrize("name, n_jobs", list(N_JOBS.items()))
def test_full_size_jobs_at_the_gate_seed_meet_the_tolerances(work_root, name, n_jobs):
    results = jobs(name, work_root / name)
    assert len(results) == n_jobs
    for job_no, r in enumerate(results):
        problems = W.check_quality(W.WORKLOADS[name], r.quality, TOLERANCES, smoke=False)
        assert not problems, (f"job {job_no}", problems)


@pytest.mark.parametrize("name", list(N_JOBS))
def test_full_size_jobs_at_the_gate_seed_keep_their_bits(work_root, name):
    recorded = json.loads(DIGESTS.read_text())
    if recorded["build"] != build():
        pytest.skip(f"digests recorded on {recorded['build']}, not on this build {build()}")
    assert [r.digest() for r in jobs(name, work_root / name)] == recorded["runs"][name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: [r.digest() for r in jobs(name, Path(tmp) / name)] for name in N_JOBS}
    DIGESTS.write_text(json.dumps({"build": build(), "runs": runs}, indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {DIGESTS}")
