"""The benchmark's tracer still sees every live op of the model.

The tracer times a function by rebinding its public name and every bedl
module global bound to it, so a call through anything else that holds the
function, such as a dispatch table or a closure, or through a renamed
private function, reads 0 in its per-layer column without any error. A traced smoke run of each
workload (about 2 s each) must therefore read above 0 in each column of
code that the workload runs; perfbench/test_bench.py checks only that every
column is there with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EVERY_WORKLOAD = [
    "layers.forward.ms", "layers.dense_moments.ms", "layers.relu_moments.ms",
    "layers.eval_forward.ms", "objectives.log_marginal.ms", "objectives.kl.ms",
    "objectives.pac.ms", "tensor.backward.ms", "train.adam.ms",
]
CLASSIFICATION = ["objectives.output_draws", "uncertainty.decompose.ms"]
LIVE = {
    "uci-reg": EVERY_WORKLOAD + ["data.standardize.ms"],
    "mnist-cls": EVERY_WORKLOAD + CLASSIFICATION,
    "conv-cls": EVERY_WORKLOAD + CLASSIFICATION + ["layers.conv2d_moments.ms"],
}


@pytest.mark.parametrize("workload", list(LIVE))
def test_traced_smoke_run_times_every_live_op(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    dead = [name for name in LIVE[workload] if not metrics[name]["value"] > 0]
    assert not dead, f"{workload} reads 0 in {dead}"
