"""bedl benchmark: train -> save -> load -> eval jobs on seeded synthetic
workloads, with end-to-end metrics (``--trace 0``) or per-layer metrics from
an outside-in trace (``--trace 1``).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload uci-reg --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload conv-cls --seed 1 --seconds 5 --trace 1 --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report. See perfbench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import os

# One BLAS thread: train() is documented single-threaded, and two threads on
# two shared cores gave a 4x step-time tail (p90 126 ms against p50 32 ms on
# mnist-cls; 37 against 35 ms with one thread). Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, or None in a tree without .git (an export)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "src_sha256": files_digest((ROOT / "src" / "bedl").glob("*.py")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def setup_seconds(workload: str, data_dir: Path, seed: int, smoke: bool) -> list[float]:
    """Cold set-up, each in its own interpreter, one after another."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(data_dir), str(seed)]
    if smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(1 if smoke else SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def job_key(w, cfg, data_dir: Path, smoke: bool, env: dict) -> str:
    """Digest of everything that decides a job's outputs: the input files,
    the job code and settings (sizes, TrainConfig), the bedl sources and
    the numeric stack. Same key, same outputs, bit for bit."""
    settings = {
        "inputs": files_digest([*data_dir.iterdir(), HERE / "workloads.py"]),
        "sizes": w.sizes(smoke),
        "config": dataclasses.asdict(cfg),
        **{k: env[k] for k in ("src_sha256", "python", "numpy", "scipy", "blas",
                               "blas_threads", "cpu")},
    }
    return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()[:16]


class Digests:
    """metrics.csv and eval digests per (workload, job key, split), kept
    across runs in the work directory: every run with the same key must
    reproduce them bit for bit."""

    def __init__(self, path: Path, prefix: str):
        self.path, self.prefix = path, prefix
        self.table = json.loads(path.read_text()) if path.exists() else {}

    def check(self, split: int, digest: dict) -> str | None:
        key = f"{self.prefix}|split={split}"
        seen = self.table.setdefault(key, digest)
        if seen != digest:
            return f"split {split}: outputs differ from an earlier run at this seed ({seen} vs {digest})"
        return None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.table, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up probe, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bedl" / "__init__.py").is_file():
        print(f"error: no bedl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import tracer
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = W.WORKLOADS[args.workload]
    tolerances = json.loads((HERE / "tolerances.json").read_text())

    # -- inputs and set-up, before any timing ------------------------------
    WORK.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    data_dir = WORK / f"data-{tag}"
    shutil.rmtree(data_dir, ignore_errors=True)  # left behind by a killed run
    W.generate(w, data_dir, args.seed, args.smoke)
    setup = setup_seconds(w.name, data_dir, args.seed, args.smoke)

    mods = W.bedl_modules()
    env = environment()
    cfg = W.config_for(w, mods, args.seed, args.smoke)
    digests = Digests(WORK / "digests.json", f"{w.name}|{job_key(w, cfg, data_dir, args.smoke, env)}")
    jobs: list = []
    problems: list[str] = []
    attempted = failed = 0

    def run_jobs(until: float, phase, on_job=lambda n: None) -> list:
        """Closed loop, one job at a time, for at least one job and until
        the deadline; a job is not started when less than half of the last
        job's time is left, so a run ends within half a job of the deadline."""
        nonlocal attempted, failed
        ok, tried, last_s = [], 0, 0.0
        while not tried or time.perf_counter() + 0.5 * last_s < until:
            t_job = time.perf_counter()
            job_no, tried = attempted, tried + 1
            attempted += 1
            on_job(job_no)
            try:
                r = W.run_job(w, mods, data_dir, data_dir / "checkpoint.bin", args.seed,
                              job_no, args.smoke, clock, phase)
            except Exception:  # a failed job is counted, and the run goes on
                errs = [traceback.format_exc()]
            else:
                errs = W.check_quality(w, r.quality, tolerances, args.smoke)
                bad = digests.check(r.split, r.digest())
                if bad:
                    errs.append(bad)
            if errs:
                failed += 1
                problems.extend(f"job {job_no}: {e}" for e in errs)
            else:
                ok.append(r)
            last_s = time.perf_counter() - t_job
        jobs.extend(ok)
        return ok

    start = time.perf_counter()
    with W.StepClock(mods["train"]) as clock:
        if not args.trace:
            run_jobs(start + args.seconds, phase=lambda p: None)
        else:
            # RSS is sampled while untraced: the span store would inflate it
            tr = tracer.Tracer(mods)
            with tracer.RssSampler() as rss:
                plain = run_jobs(start + args.seconds / 3, lambda p: setattr(rss, "phase", p))
                rss.phase = None
                with tr:
                    traced = run_jobs(start + args.seconds, lambda p: setattr(tr, "phase", p),
                                      lambda n: setattr(tr, "job", n))
            tr.write(WORK / f"spans-{w.name}.csv")
    digests.save()
    shutil.rmtree(data_dir, ignore_errors=True)

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)

    metrics: dict[str, float] = {}
    report: list[str] = []
    if jobs:
        steps = [s for r in jobs for s in r.step_ms]
        q = jobs[0].quality  # deterministic per seed: the first job's split
        metrics = {
            "setup_s": statistics.median(setup),
            "train_samples_per_s": statistics.median(r.train_samples / r.train_s for r in jobs),
            "step_ms_p50": float(np.percentile(steps, 50)),
            "step_ms_p90": float(np.percentile(steps, 90)),
            "job_s": statistics.median(r.job_s for r in jobs),
            "eval_points_per_s": statistics.median(r.eval_points / r.eval_s for r in jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "final_objective": q["final_objective"],
        }
        report = [
            f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup)} cold starts)",
            f"train_samples_per_s {metrics['train_samples_per_s']:.2f} 1/s",
            f"step_ms_p50 {metrics['step_ms_p50']:.4f} ms (n={len(steps)} steps)",
            f"step_ms_p90 {metrics['step_ms_p90']:.4f} ms (n={len(steps)} steps)",
            f"job_s {metrics['job_s']:.4f} s (median of {len(jobs)} jobs)",
            f"eval_points_per_s {metrics['eval_points_per_s']:.2f} 1/s",
            f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
            f"error_rate {failed / attempted:.4f} ratio ({failed} of {attempted} jobs)",
        ] + [f"{k} {v:.6g} {W.QUALITY_UNITS[k]} (job 0)" for k, v in q.items()]
        if args.trace:
            plain_steps = [s for r in plain for s in r.step_ms]
            traced_steps = [s for r in traced for s in r.step_ms]
            metrics, report = {}, ["trace: no untraced or no traced steps to compare"]
            if plain_steps and traced_steps:
                untraced, traced_p50 = np.median(plain_steps), np.median(traced_steps)
                n_steps = sum(len(r.step_ms) + 1 for r in traced)
                metrics = tracer.per_layer_metrics(
                    tr, rss, n_steps, len(traced), sum(r.train_s for r in traced),
                    100.0 * (traced_p50 / untraced - 1.0))
                report = [f"{k} {v:.6g}" for k, v in metrics.items()] + [
                    f"trace: {len(traced)} traced jobs, {n_steps} steps; step p50 "
                    f"{traced_p50:.3f} ms traced against {untraced:.3f} ms untraced. Wrapper "
                    "cost inflates every per-layer ms by up to trace.overhead_pct; the counts "
                    "are exact."]

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    correct = failed == 0 and all(m["name"] in metrics for m in wanted)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                             "smoke": args.smoke, "env": env, "result": result}) + "\n")
    print(f"# {w.name} seed={args.seed} trace={args.trace} smoke={args.smoke}")
    print("# env " + json.dumps(env, sort_keys=True))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
