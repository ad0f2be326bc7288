"""Golden digests: small seeded ``train()`` runs whose ``metrics.csv`` and
evaluation values must keep their bits from one commit to the next.

Each run is compared exactly, never under a tolerance, with the sha256 of
its ``metrics_csv()`` and the ``repr`` of each value ``evaluate`` returns.
``golden_digests.json`` also records the numpy, scipy, BLAS and CPU (SIMD)
build the digests were taken on. On any other build the runs are skipped,
because those libraries may round differently; to check a change there,
record the digests on that build at the parent commit first:

    PYTHONPATH=src python tests/test_golden.py

A change that moves a digest on purpose records the new ones the same way
in the same commit.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from bedl.data import Dataset
from bedl.layers import LayerSpec
from bedl.train import TrainConfig, default_specs, evaluate, train

DIGESTS = Path(__file__).with_name("golden_digests.json")


def _regression():
    r = np.random.default_rng(0)
    x = r.normal(size=(60, 3))
    return Dataset(x, np.sin(x[:, 0]) + 0.1 * r.normal(size=60), task="regression")


def _blobs():
    r = np.random.default_rng(1)
    y = np.repeat(np.arange(3), 30)
    x = r.normal(size=(90, 2)) * 0.7 + np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 2.5]])[y]
    return Dataset(x, y, task="classification")


def _images():
    r = np.random.default_rng(2)
    y = np.repeat(np.arange(3), 16)
    x = r.uniform(size=(48, 9, 9, 1)) * 0.5
    for k in range(3):
        x[y == k, 3 * k : 3 * k + 3] += 0.5  # a bright band of rows per class
    return Dataset(x, y, task="classification")


_ELU_DEPTH_3 = [LayerSpec("dense", fan_in=3, fan_out=8, activation="elu"),
                LayerSpec("dense", fan_in=8, fan_out=8, activation="elu"),
                LayerSpec("dense", fan_in=8, fan_out=2)]
_CONV = [LayerSpec("conv2d", in_channels=1, out_channels=4, kernel=3, activation="relu"),
         LayerSpec("conv2d", in_channels=4, out_channels=3, kernel=3, stride=2,
                   activation="relu"),
         LayerSpec("dense", fan_in=27, fan_out=3)]
_DENSE_REG = default_specs("regression", 3, hidden=8)
_DENSE_CLS = default_specs("classification", 2, hidden=8, n_classes=3)

# name: (dataset, layer specs, objective)
RUNS = {
    "regression-bedl": (_regression, _DENSE_REG, "bedl"),
    "regression-bedl+reg": (_regression, _DENSE_REG, "bedl+reg"),
    "regression-bedl-hyper": (_regression, _DENSE_REG, "bedl-hyper"),
    "regression-elu-depth-3-bedl+reg": (_regression, _ELU_DEPTH_3, "bedl+reg"),
    "dense-classification-bedl+reg": (_blobs, _DENSE_CLS, "bedl+reg"),
    "dense-classification-edl": (_blobs, _DENSE_CLS, "edl"),
    "conv-classification-bedl+reg": (_images, _CONV, "bedl+reg"),
}


def build() -> dict:
    """The libraries and CPU features that decide the bits of a run."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine(),
            "blas": f"{blas['name']} {blas.get('version')}",
            "simd": cfg["SIMD Extensions"]["found"]}


def digest(name: str) -> dict:
    data, specs, objective = RUNS[name]
    ds = data()
    # weight variances far above the default init's, so that the activation
    # moments' variance terms reach the outputs
    cfg = TrainConfig(objective=objective, task=ds.task, epochs=20, learning_rate=0.01,
                      batch_size=16, n_classes=3, seed=5, init_log_var_mean=-3.0)
    result = train(ds, specs, cfg)
    values = evaluate(result.checkpoint, ds, cfg).values
    return {"metrics_csv_sha256": hashlib.sha256(result.metrics_csv().encode()).hexdigest(),
            "evaluate": {k: repr(float(v)) for k, v in sorted(values.items())}}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_digest(name):
    golden = json.loads(DIGESTS.read_text())
    if golden["build"] != build():
        pytest.skip(f"digests recorded on {golden['build']}, not on this build {build()}")
    assert digest(name) == golden["runs"][name]


if __name__ == "__main__":
    runs = {name: digest(name) for name in sorted(RUNS)}
    DIGESTS.write_text(json.dumps({"build": build(), "runs": runs}, indent=1, sort_keys=True)
                       + "\n")
    print(f"wrote {DIGESTS}")
