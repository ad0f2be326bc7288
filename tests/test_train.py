import dataclasses
import importlib
import json
import struct

import numpy as np
import pytest

from bedl import tensor as T

tr = importlib.import_module("bedl.train")
from bedl.data import Dataset
from bedl.layers import LayerSpec

rng = np.random.default_rng(61)


def _regression_ds(n=60, d=3, seed=0):
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, d))
    y = np.sin(x[:, 0]) + 0.1 * r.normal(size=n)
    return Dataset(x, y, task="regression")


def _blob_ds(n=100, seed=0):
    r = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate([r.normal(-2.0, 0.5, size=(half, 2)), r.normal(2.0, 0.5, size=(half, 2))])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(half, dtype=int)])
    return Dataset(x, y, task="classification")


# -- config ------------------------------------------------------------------


def test_config_validation():
    # every setting is checked on construction, the head and PAC ones too
    for kw in (
        {"objective": "sgld"},
        {"learning_rate": -1.0},
        {"batch_size": 0},
        {"beta": -1.0},
        {"delta": 2.0},
        {"alpha_prior": 0.0},
        {"task": "ranking"},
        {"objective": "edl"},
        {"task": "classification", "mc_samples": 0},
        {"task": "classification", "n_classes": 1},
    ):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kw)


def test_resolve_batch_size():
    cfg = tr.TrainConfig()
    assert cfg.resolve_batch_size(500) == 500  # full batch below 2000
    assert cfg.resolve_batch_size(60000) == 128
    assert tr.TrainConfig(batch_size=32).resolve_batch_size(10) == 10


# -- adam --------------------------------------------------------------------


def test_adam_zero_grad_leaves_params_unchanged():
    p = T.Parameter(np.array([1.0, -2.0]))
    adam = tr.Adam([p], lr=0.1)
    p.grad = np.zeros(2)
    adam.step()
    np.testing.assert_allclose(p.data, [1.0, -2.0])


def test_adam_first_step_is_lr_times_sign():
    p = T.Parameter(np.array([1.0, -1.0]))
    adam = tr.Adam([p], lr=0.1)
    p.grad = np.array([3.0, -0.5])
    adam.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.1, -1.0 + 0.1], rtol=1e-6)


def test_adam_minimizes_quadratic():
    # 100 steps on f(x) = x^2 from x=1 at lr 0.1 reaches |x| < 0.05
    p = T.Parameter(np.array([1.0]))
    adam = tr.Adam([p], lr=0.1)
    for _ in range(100):
        p.zero_grad()
        p.grad = 2.0 * p.data
        adam.step()
    assert abs(p.data[0]) < 0.05


def test_adam_rejects_nonfinite_gradient():
    p = T.Parameter(np.array([1.0]))
    adam = tr.Adam([p], lr=0.1)
    p.grad = np.array([np.inf])
    with pytest.raises(tr.NumericsError):
        adam.step()


# -- checkpoint format -------------------------------------------------------


def _train_small(objective="bedl+reg", task="regression", epochs=3, **kw):
    ds = _regression_ds() if task == "regression" else _blob_ds()
    cfg = tr.TrainConfig(objective=objective, task=task, epochs=epochs, n_classes=2,
                         batch_size=32, **kw)
    d_in = ds.features.shape[1]
    specs = tr.default_specs(task, d_in, hidden=8, n_classes=2)
    return tr.train(ds, specs, cfg), ds, cfg


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    result, _, _ = _train_small()
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    tr.save_checkpoint(result.checkpoint, p1)
    tr.save_checkpoint(tr.load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:8] == b"BEDLCKP1"


def test_checkpoint_roundtrip_preserves_evaluation(tmp_path):
    result, ds, cfg = _train_small()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(result.checkpoint, path)
    before = tr.evaluate(result.checkpoint, ds, cfg)
    after = tr.evaluate(tr.load_checkpoint(path), ds, cfg)
    assert before.values == after.values


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        tr.load_checkpoint(p)


def test_checkpoint_with_optimizer_and_rng_state_loads(tmp_path):
    # older checkpoints also stored Adam moments (arrays adam.m*/adam.v*)
    # and the adam_t, rng_state and config_hash header keys; all are ignored
    result, ds, cfg = _train_small()
    ckpt = result.checkpoint
    arrays = dict(ckpt.arrays)
    for i, name in enumerate(sorted(ckpt.arrays)):
        arrays[f"adam.m{i}"] = np.full_like(ckpt.arrays[name], 0.5)
        arrays[f"adam.v{i}"] = np.full_like(ckpt.arrays[name], 0.25)
    names = sorted(arrays)
    header = {
        "version": 1,
        "task": ckpt.task,
        "specs": [dataclasses.asdict(s) for s in ckpt.specs],
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
        "adam_t": 6,
        "rng_state": {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"inc": 2**100 + 1, "state": 2**120 + 7}},
        "config_hash": "0123456789abcdef",
        "standardize": ckpt.standardize,
    }
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path = tmp_path / "old.bin"
    path.write_bytes(b"BEDLCKP1" + struct.pack("<I", len(hb)) + hb
                     + b"".join(arrays[n].astype("<f8").tobytes() for n in names))
    loaded = tr.load_checkpoint(path)
    assert loaded.specs == ckpt.specs and loaded.task == ckpt.task
    assert tr.evaluate(loaded, ds, cfg).values == tr.evaluate(ckpt, ds, cfg).values


def test_evaluate_task_mismatch():
    result, _, _ = _train_small()
    for fn in (tr.evaluate, tr.evaluate_entropies):
        with pytest.raises(ValueError, match="task"):
            fn(result.checkpoint, _blob_ds(), tr.TrainConfig(task="classification"))
    with pytest.raises(ValueError, match="task"):
        tr.evaluate_entropies(result.checkpoint, _regression_ds(), tr.TrainConfig())


# -- training behaviour ------------------------------------------------------


def test_training_is_bitwise_deterministic():
    r1, _, _ = _train_small(epochs=4)
    r2, _, _ = _train_small(epochs=4)
    assert r1.metrics_csv() == r2.metrics_csv()
    for name in r1.checkpoint.arrays:
        np.testing.assert_array_equal(r1.checkpoint.arrays[name], r2.checkpoint.arrays[name])


def test_metrics_csv_shape():
    result, _, _ = _train_small(epochs=3)
    lines = result.metrics_csv().strip().splitlines()
    assert lines[0] == "epoch,objective,nll,regularizer"
    assert len(lines) == 4
    assert lines[1].startswith("1,")


@pytest.mark.parametrize("objective,task", [
    ("bedl", "regression"),
    ("bedl+reg", "regression"),
    ("bedl-hyper", "regression"),
    ("bedl", "classification"),
    ("bedl+reg", "classification"),
    ("bedl-hyper", "classification"),
    ("edl", "classification"),
])
def test_all_objectives_run(objective, task):
    result, _, _ = _train_small(objective=objective, task=task, epochs=2)
    assert len(result.metrics) == 2
    assert np.isfinite(result.metrics[-1]["objective"])


def test_edl_requires_classification():
    with pytest.raises(ValueError, match="classification"):
        _train_small(objective="edl", task="regression")


def test_one_datum_linear_fit_approaches_beta_floor():
    # single datum, linear net: NLL can be driven to the beta=100 floor
    # -0.5*log(2*pi/beta) = -1.38364 as the latent variance vanishes
    ds = Dataset(np.array([[1.0]]), np.array([0.3]), task="regression")
    specs = [LayerSpec("dense", fan_in=1, fan_out=2, activation="identity")]
    cfg = tr.TrainConfig(objective="bedl", epochs=600, learning_rate=0.05, seed=1)
    result = tr.train(ds, specs, cfg)
    nlls = [m["nll"] for m in result.metrics]
    assert nlls[-1] < -1.33
    assert nlls[-1] > -1.38365
    # smoke property: monotone non-increasing after the first few epochs,
    # up to tiny Adam oscillations near the floor
    tail = nlls[5:]
    assert all(a >= b - 3e-3 for a, b in zip(tail, tail[1:]))


def test_blob_classification_reaches_zero_train_error():
    ds = _blob_ds()
    cfg = tr.TrainConfig(objective="bedl+reg", task="classification", n_classes=2,
                         epochs=200, batch_size=32)
    specs = tr.default_specs("classification", 2, hidden=16, n_classes=2)
    result = tr.train(ds, specs, cfg)
    metrics = tr.evaluate(result.checkpoint, ds, cfg)
    assert metrics.values["test_error_pct"] == 0.0


def test_training_diverged_carries_last_checkpoint():
    # force a divergence after the first epoch by smashing the adam state
    ds = _regression_ds(n=20)
    specs = tr.default_specs("regression", 3, hidden=4)
    cfg = tr.TrainConfig(epochs=3, learning_rate=1e30, seed=0)
    with np.errstate(over="ignore"), pytest.raises(tr.TrainingDiverged) as info:
        tr.train(ds, specs, cfg)
    # divergence in the first epochs may or may not leave a snapshot;
    # the attribute must exist either way
    assert hasattr(info.value, "checkpoint")
