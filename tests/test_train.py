import dataclasses
import importlib
import json
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest


tr = importlib.import_module("bedl.train")
from bedl.data import DataError, Dataset
from bedl.layers import LayerSpec, MomentNetwork, WeightMoments, build_network
from bedl.uncertainty import decompose

from conftest import check_grads, weighted_sum

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
    # every setting is checked on construction: each number finite and in range
    nan, inf = float("nan"), float("inf")
    for kw in (
        {"objective": "sgld"},
        {"learning_rate": -1.0},
        {"learning_rate": nan},
        {"learning_rate": inf},
        {"beta": inf},
        {"beta": nan},
        {"batch_size": 0},
        {"beta": -1.0},
        {"delta": 2.0},
        {"task": "ranking"},
        {"objective": "edl"},
        {"task": "classification", "mc_samples": 0},
        {"task": "classification", "n_classes": 1},
        {"seed": -1},
    ):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kw)
    # the initial log-variances must be drawable and their exp finite
    for kw in ({"init_log_var_var": -1.0}, {"init_log_var_mean": 800.0},
               {"init_log_var_mean": float("nan")}, {"init_log_var_var": float("inf")}):
        with pytest.raises(ValueError):
            tr.TrainConfig(**kw)


def test_config_types():
    # integer fields take no floats or bools, float fields take ints but
    # no bools or strings
    for kw in (
        {"epochs": 1.5},
        {"seed": True},
        {"batch_size": "32"},
        {"learning_rate": "0.1"},
        {"init_log_var_mean": "-8"},
        {"init_log_var_var": False},
    ):
        with pytest.raises(TypeError):
            tr.TrainConfig(**kw)
    cfg = tr.TrainConfig(learning_rate=1, beta=50, epochs=np.int64(3), batch_size=None)
    assert cfg.learning_rate == 1 and cfg.epochs == 3


def test_pac_likelihood_bound():
    assert tr.TrainConfig(task="classification").likelihood_bound == 1.0
    cfg = tr.TrainConfig(beta=100.0)
    np.testing.assert_allclose(cfg.likelihood_bound, 100.0 / (2 * math.pi), rtol=1e-12)


def test_resolve_batch_size():
    cfg = tr.TrainConfig()
    assert cfg.resolve_batch_size(500) == 500  # full batch below 2000
    assert cfg.resolve_batch_size(60000) == 128
    assert tr.TrainConfig(batch_size=32).resolve_batch_size(10) == 10


# -- adam --------------------------------------------------------------------


def _net(values):
    """A one-unit dense network whose flat buffer holds the 4 ``values``:
    weight mean, log-variance, bias mean, bias log-variance."""
    data = np.array(values, dtype=float)
    return MomentNetwork([LayerSpec("dense", fan_in=1, fan_out=1)], data, np.zeros_like(data))


def test_adam_zero_grad_leaves_params_unchanged():
    net = _net([1.0, -2.0, 3.0, -4.0])
    adam = tr.Adam(net, lr=0.1)
    adam.step()
    np.testing.assert_allclose(net.data, [1.0, -2.0, 3.0, -4.0])


def test_adam_first_step_is_lr_times_sign():
    net = _net([1.0, -1.0, 0.0, 2.0])
    adam = tr.Adam(net, lr=0.1)
    net.grad[:] = [3.0, -0.5, 0.25, -7.0]
    adam.step()
    np.testing.assert_allclose(net.data, [1.0 - 0.1, -1.0 + 0.1, -0.1, 2.0 + 0.1], rtol=1e-6)


def test_adam_minimizes_quadratic():
    # 100 steps on f(x) = |x|^2 from x=1 at lr 0.1 reach |x| < 0.05
    net = _net([1.0] * 4)
    adam = tr.Adam(net, lr=0.1)
    for _ in range(100):
        adam.zero_grad()
        net.grad += 2.0 * net.data
        adam.step()
    assert np.abs(net.data).max() < 0.05


def test_adam_updates_match_the_reference_formula():
    # the flat buffers are updated in place, in the arithmetic order of
    # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g, so every parameter gets
    # the bits of the formula. 1,250 values, so that a bias correction
    # folded into one scalar, m * (lr / (1 - b1**t)), shows: over 19 values
    # and 5 steps it rounds like the formula everywhere
    r = np.random.default_rng(3)
    net = build_network([LayerSpec("dense", fan_in=24, fan_out=25)], r)
    params = net.parameters()
    refs = [p.data.copy() for p in params]
    ms = [np.zeros_like(x) for x in refs]
    vs = [np.zeros_like(x) for x in refs]
    adam = tr.Adam(net, lr=0.01)
    for t in range(1, 6):
        grads = [r.normal(size=x.shape) for x in refs]
        if t % 2:
            grads[2] = np.zeros_like(refs[2])
        for p, g in zip(params, grads):
            p.grad[...] = g
        adam.step()
        for i, g in enumerate(grads):
            ms[i] = 0.9 * ms[i] + (1 - 0.9) * g
            vs[i] = 0.999 * vs[i] + (1 - 0.999) * g * g
            refs[i] -= 0.01 * (ms[i] / (1 - 0.9**t)) / (np.sqrt(vs[i] / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_array_equal(params[i].data, refs[i])
    params[1].grad[4, 7] = np.nan
    with pytest.raises(tr.NumericsError, match="parameter 1$"):
        adam.step()


class _ReferenceAdam:
    """Adam one parameter of the network at a time, with a gradient array
    per parameter (None after zero_grad): the per-parameter loop the flat
    Adam must equal bit for bit."""

    def __init__(self, net, lr):
        self.params = net.parameters()
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise tr.NumericsError(f"non-finite gradient in parameter {i}")
            m, v = self.m[i], self.v[i]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.grad = None


@pytest.mark.parametrize("net", ["regression", "dense-classifier", "conv-classifier"])
def test_training_equals_the_reference_adam_bit_for_bit(monkeypatch, net):
    r = np.random.default_rng(17)
    if net == "conv-classifier":
        ds = Dataset(r.normal(size=(40, 9, 9, 1)), r.integers(0, 3, size=40),
                     task="classification")
        specs = _CONV_SPECS
    else:
        ds = _regression_ds() if net == "regression" else _blob_ds()
        specs = tr.default_specs(ds.task, ds.features.shape[1], hidden=8, n_classes=2)
    cfg = tr.TrainConfig(task=ds.task, n_classes=specs[-1].n_out, epochs=3, batch_size=16)
    flat = tr.train(ds, specs, cfg)
    monkeypatch.setattr(tr, "Adam", _ReferenceAdam)
    reference = tr.train(ds, specs, cfg)
    assert flat.metrics_csv() == reference.metrics_csv()
    assert flat.checkpoint.data.tobytes() == reference.checkpoint.data.tobytes()


def test_the_parameters_are_views_of_the_network_buffers():
    # backward passes add into net.grad, and Adam's step writes where
    # forward reads
    net = build_network([LayerSpec("dense", fan_in=2, fan_out=2)], np.random.default_rng(0))
    params = net.parameters()
    assert all(np.shares_memory(p.data, net.data) and np.shares_memory(p.grad, net.grad)
               for p in params)
    adam = tr.Adam(net, lr=0.1)
    adam.zero_grad()
    weighted_sum((params[0], 3.0)).backward()
    weighted_sum((params[0], 2.0)).backward()
    np.testing.assert_array_equal(net.grad, [5.0] * 4 + [0.0] * 8)
    before = net.data.copy()
    adam.step()
    np.testing.assert_allclose(net.data, np.r_[before[:4] - 0.1, before[4:]], rtol=0, atol=1e-9)
    out = net.forward(np.eye(2)).mean.data
    np.testing.assert_allclose(out, net.data[:4].reshape(2, 2) + net.data[8:10], rtol=1e-12)


def test_adam_rejects_nonfinite_gradient():
    net = _net([1.0] * 4)
    adam = tr.Adam(net, lr=0.1)
    net.grad[3] = np.inf
    with pytest.raises(tr.NumericsError, match="parameter 3$"):
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


def test_checkpoint_with_a_flipped_payload_byte_is_data_error(tmp_path):
    # the header records the crc32 of the array bytes; a flip in the low
    # mantissa byte of one value leaves it finite and plausible
    result, _, _ = _train_small(epochs=1)
    path = tmp_path / "c.bin"
    tr.save_checkpoint(result.checkpoint, path)
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack("<I", raw[8:12])
    raw[12 + hlen + 8 * 5] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="checksum"):
        tr.load_checkpoint(path)


def _rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint file at ``path``."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    edit(header)
    hb = json.dumps(header).encode()
    path.write_bytes(raw[:8] + struct.pack("<I", len(hb)) + hb + raw[12 + hlen :])


def test_checkpoint_header_without_a_checksum_is_data_error(tmp_path):
    # every key of a version 4 header is required: none has a default
    result, _, _ = _train_small(epochs=1)
    path = tmp_path / "c.bin"
    tr.save_checkpoint(result.checkpoint, path)
    _rewrite_header(path, lambda h: h.pop("crc32"))
    with pytest.raises(DataError, match="'crc32'"):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3, 5])
def test_checkpoint_of_another_version_is_data_error_naming_it(tmp_path, version):
    result, _, _ = _train_small(epochs=1)
    path = tmp_path / "c.bin"
    tr.save_checkpoint(result.checkpoint, path)
    _rewrite_header(path, lambda h: h.update(version=version))
    with pytest.raises(DataError, match=f"version {version} checkpoints are not supported"):
        tr.load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"not a checkpoint at all")
    with pytest.raises(DataError):
        tr.load_checkpoint(p)


def test_checkpoint_with_optimizer_and_rng_state_loads(tmp_path):
    # header keys that version 4 does not name are ignored: here adam_t,
    # rng_state and config_hash, and an array manifest as version 3 wrote
    result, ds, cfg = _train_small()
    path = tmp_path / "c.bin"
    tr.save_checkpoint(result.checkpoint, path)
    _rewrite_header(path, lambda h: h.update(
        adam_t=6, config_hash="0123456789abcdef", arrays=[{"name": "w0.mean", "shape": [3, 8]}],
        rng_state={"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                   "state": {"inc": 2**100 + 1, "state": 2**120 + 7}}))
    loaded = tr.load_checkpoint(path)
    assert loaded.specs == result.checkpoint.specs and loaded.config == cfg
    assert tr.evaluate(loaded, ds, cfg).values == tr.evaluate(result.checkpoint, ds, cfg).values


@pytest.mark.parametrize("edit", ["optimizer-arrays-appended", "last-value-cut"])
def test_checkpoint_whose_array_bytes_do_not_match_the_specs_is_data_error(tmp_path, edit):
    # the specs give every array's shape: extra arrays, such as Adam's
    # moments, and missing values are data errors even under a checksum
    # that matches them
    result, _, _ = _train_small(epochs=1)
    path = tmp_path / "c.bin"
    tr.save_checkpoint(result.checkpoint, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    payload = raw[12 + hlen :]
    if edit == "optimizer-arrays-appended":
        payload += np.full_like(result.checkpoint.data, 0.5).tobytes()
    else:
        payload = payload[:-8]
    path.write_bytes(raw[: 12 + hlen] + payload)
    _rewrite_header(path, lambda h: h.update(crc32=zlib.crc32(payload)))
    with pytest.raises(DataError, match="values where the layer specs need"):
        tr.load_checkpoint(path)


def test_checkpoint_arrays_follow_the_parameters_in_order(tmp_path):
    # the payload is the parameters' float64 values, layer by layer in
    # mean, log_var, bias_mean, bias_log_var order, and nothing else
    result, _, _ = _train_small(epochs=1)
    path = tmp_path / "c.bin"
    tr.save_checkpoint(result.checkpoint, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    net = result.checkpoint.build_network()
    assert raw[12 + hlen :] == b"".join(p.data.astype("<f8").tobytes() for p in net.parameters())
    assert [p.data.shape for p in net.parameters()] == [(3, 8), (3, 8), (8,), (8,),
                                                        (8, 2), (8, 2), (2,), (2,)]
    assert "arrays" not in json.loads(raw[12 : 12 + hlen])


def test_checkpoint_spec_with_the_old_bias_or_alpha_key_is_data_error(tmp_path):
    # LayerSpec lost its bias and alpha fields: a spec that names one, even
    # at the value every layer has, names an unknown field
    result, _, _ = _train_small(epochs=1)
    path = tmp_path / "c.bin"
    for key, value in (("bias", True), ("alpha", 1.0)):
        tr.save_checkpoint(result.checkpoint, path)
        _rewrite_header(path, lambda h: h["specs"][0].update({key: value}))
        with pytest.raises(DataError, match=key):
            tr.load_checkpoint(path)


def test_checkpoint_config_with_numpy_integers_saves_and_loads(tmp_path):
    # the config checks take numpy integers, which json cannot write as they are
    cfg = tr.TrainConfig(epochs=np.int64(2), batch_size=np.int64(16), seed=np.int64(4))
    ds = _regression_ds(n=20)
    ckpt = tr.train(ds, tr.default_specs("regression", 3, hidden=np.int64(4)), cfg).checkpoint
    tr.save_checkpoint(ckpt, tmp_path / "c.bin")
    loaded = tr.load_checkpoint(tmp_path / "c.bin")
    assert loaded.config == cfg and type(loaded.config.epochs) is int
    assert tr.evaluate(loaded, ds, cfg).values == tr.evaluate(ckpt, ds, cfg).values


def test_evaluate_task_mismatch():
    result, _, _ = _train_small()
    for fn in (tr.evaluate, tr.evaluate_entropies):
        with pytest.raises(ValueError, match="task"):
            fn(result.checkpoint, _blob_ds(), tr.TrainConfig(task="classification"))
    with pytest.raises(ValueError, match="task"):
        tr.evaluate_entropies(result.checkpoint, _regression_ds(), tr.TrainConfig())
    # a regression checkpoint is scored only under the beta it was trained with
    with pytest.raises(ValueError, match="beta"):
        tr.evaluate(result.checkpoint, _regression_ds(), tr.TrainConfig(beta=10.0))


def test_evaluation_builds_no_tape():
    for task in ("regression", "classification"):
        result, ds, cfg = _train_small(task=task, epochs=1)
        moments, _ = tr._predict(result.checkpoint, ds, cfg)
        for t in (moments.mean, moments.var):
            assert t._parents == () and t._backward_fn is None and not t.requires_grad


@pytest.mark.parametrize("bad", [
    pytest.param(lambda h: h["config"].pop("task"), id="no-task"),
    pytest.param(lambda h: h["config"].pop("beta"), id="config-without-beta"),
    pytest.param(lambda h: h.pop("split"), id="no-split"),
    pytest.param(lambda h: h.pop("target_column"), id="no-target-column"),
    pytest.param(lambda h: h.update(target_column=-1), id="target-column-negative"),
    pytest.param(lambda h: h.update(target_column=2.0), id="target-column-float"),
    pytest.param(lambda h: h.update(target_column=True), id="target-column-bool"),
    pytest.param(lambda h: h["config"].update(beta=-1.0), id="config-beta-negative"),
    pytest.param(lambda h: h["config"].update(epohcs=3), id="config-unknown-key"),
    pytest.param(lambda h: h.update(specs=5), id="specs-not-a-list"),
    pytest.param(lambda h: h["specs"][0].update(fan_in=4), id="spec-array-mismatch"),
    pytest.param(lambda h: h["specs"][0].update(kind="lstm"), id="unknown-layer"),
    pytest.param(lambda h: h.update(target_std=-1.0), id="negative-target-std"),
    pytest.param(lambda h: h.update(split={"index": -1, "seed": 0}), id="split-index-negative"),
    pytest.param(lambda h: h.update(split={"index": 2.0, "seed": 0}), id="split-index-float"),
    pytest.param(lambda h: h.update(split={"index": 2}), id="split-without-seed"),
    pytest.param(lambda h: h.update(split=[2, 0]), id="split-not-an-object"),
])
def test_malformed_checkpoint_header_is_data_error(tmp_path, bad):
    result, _, _ = _train_small(epochs=1)
    path = tmp_path / "c.bin"
    tr.save_checkpoint(result.checkpoint, path)
    _rewrite_header(path, bad)
    with pytest.raises(DataError):
        tr.load_checkpoint(path)


# A conv net on 9x9 single-channel images: conv 3x3 -> 7x7x4, conv 3x3
# stride 2 -> 3x3x3, dense -> 3 classes.
_CONV_SPECS = [
    LayerSpec("conv2d", in_channels=1, out_channels=4, kernel=3, activation="relu"),
    LayerSpec("conv2d", in_channels=4, out_channels=3, kernel=3, stride=2, activation="relu"),
    LayerSpec("dense", fan_in=27, fan_out=3),
]


def test_data_that_does_not_fit_the_checkpoint_is_data_error():
    dense = _train_small(epochs=1)[0].checkpoint  # 3 features
    conv = tr._snapshot(build_network(_CONV_SPECS, np.random.default_rng(0)),
                        tr.TrainConfig(task="classification"), None)
    r = np.random.default_rng(0)
    for ckpt, x in ((dense, r.normal(size=(10, 4))),  # one feature too many
                    (dense, r.normal(size=(0, 3))),  # no rows
                    (conv, r.normal(size=(10, 9, 9, 2))),  # one channel too many
                    (conv, r.normal(size=(10, 11, 11, 1))),  # too wide for the dense layer
                    (conv, r.normal(size=(10, 2, 2, 1))),  # smaller than the kernel
                    (conv, r.normal(size=(10, 81)))):  # not images
        ds = Dataset(x, np.zeros(len(x), dtype=int), task=ckpt.task)
        with pytest.raises(DataError):
            tr.evaluate(ckpt, ds, tr.TrainConfig(task=ckpt.task, n_classes=3))


def test_decompose_over_row_chunks_equals_one_call():
    # decompose works on each row alone, so chunks of rows give the numbers
    # of one call, bit for bit, clipped rows (variances up to 3) included
    r = np.random.default_rng(5)
    mean, var = r.normal(size=(1000, 10)), r.uniform(0.0, 3.0, size=(1000, 10))
    whole = decompose(mean, var)
    for bounds in ([0, 300, 600, 850, 1000], list(range(1001))):
        parts = [decompose(mean[a:b], var[a:b]) for a, b in zip(bounds, bounds[1:])]
        for f in dataclasses.fields(whole):
            np.testing.assert_array_equal(
                np.concatenate([getattr(p, f.name) for p in parts]), getattr(whole, f.name))


def test_evaluation_builds_no_rng_and_starts_no_thread(monkeypatch):
    import threading

    def no_rng(*args, **kwargs):
        raise AssertionError("evaluation built an rng")

    for task in ("regression", "classification"):
        result, ds, cfg = _train_small(task=task, epochs=1)
        threads = threading.active_count()
        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng", no_rng)
            values = tr.evaluate(result.checkpoint, ds, cfg).values
            if task == "classification":
                assert len(tr.evaluate_entropies(result.checkpoint, ds, cfg)) == ds.n
        assert threading.active_count() == threads
        assert all(np.isfinite(v) for v in values.values())


@pytest.mark.parametrize("net", ["dense", "conv"])
def test_evaluation_does_not_depend_on_the_chunk_size(monkeypatch, net):
    # one-row (gemv) and multi-row (gemm) BLAS calls round differently in
    # the last bits, so the chunk sizes agree to a relative 1e-12, not bitwise
    r = np.random.default_rng(6)
    if net == "dense":
        result, ds, cfg = _train_small(task="classification", epochs=2)
        ckpt = result.checkpoint
    else:
        cfg = tr.TrainConfig(task="classification", n_classes=3)
        net_ = build_network(_CONV_SPECS, r, log_var_mean=-3.0, log_var_var=0.1)
        ckpt = tr._snapshot(net_, cfg, None)
        ds = Dataset(r.normal(size=(50, 9, 9, 1)), r.integers(0, 3, size=50), "classification")
    runs = []
    for chunk in (1, 7, ds.n):
        monkeypatch.setattr(tr, "EVAL_CHUNK", chunk)
        runs.append((tr.evaluate(ckpt, ds, cfg).values, tr.evaluate_entropies(ckpt, ds, cfg)))
    for values, entropies in runs[:-1]:
        assert values.keys() == runs[-1][0].keys()
        for k in values:
            assert values[k] == pytest.approx(runs[-1][0][k], rel=1e-12, abs=0.0)
        np.testing.assert_allclose(entropies, runs[-1][1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("net", ["dense", "conv"])
def test_evaluation_computes_weight_moments_once_per_layer(monkeypatch, net):
    # the weights do not change between row chunks, so their moments are
    # computed once per evaluation and layer, even one row at a time
    r = np.random.default_rng(7)
    if net == "dense":
        result, ds, cfg = _train_small(task="classification", epochs=1)
        ckpt = result.checkpoint
    else:
        cfg = tr.TrainConfig(task="classification", n_classes=3)
        ckpt = tr._snapshot(build_network(_CONV_SPECS, r), cfg, None)
        ds = Dataset(r.normal(size=(12, 9, 9, 1)), r.integers(0, 3, size=12), "classification")
    calls = []
    of = WeightMoments.of.__func__
    monkeypatch.setattr(WeightMoments, "of",
                        classmethod(lambda cls, *a: calls.append(a[1]) or of(cls, *a)))
    monkeypatch.setattr(tr, "EVAL_CHUNK", 1)
    tr.evaluate(ckpt, ds, cfg)
    assert calls == [False] + [True] * (len(ckpt.specs) - 1)


def test_regression_evaluation_does_not_depend_on_the_chunk_size(monkeypatch):
    result, ds, cfg = _train_small(epochs=2)
    runs = []
    for chunk in (1, 7, ds.n):
        monkeypatch.setattr(tr, "EVAL_CHUNK", chunk)
        runs.append(tr.evaluate(result.checkpoint, ds, cfg).values)
    for values in runs[:-1]:
        for k in values:
            assert values[k] == pytest.approx(runs[-1][k], rel=1e-12, abs=0.0)


def test_evaluation_memory_does_not_grow_with_the_dataset():
    # 4,096 rows through a 784-256-10 net: one forward pass over all rows
    # allocates about 86 MB, fixed row chunks about 6 MB
    specs = tr.default_specs("classification", 784, hidden=256)
    cfg = tr.TrainConfig(task="classification")
    ckpt = tr._snapshot(build_network(specs, np.random.default_rng(0)), cfg, None)
    r = np.random.default_rng(1)
    ds = Dataset(r.normal(size=(4096, 784)), r.integers(0, 10, size=4096), "classification")
    tracemalloc.start()
    try:
        tr.evaluate(ckpt, ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


# -- training behaviour ------------------------------------------------------


def _tape_nodes(root) -> int:
    seen, todo = {id(root)}, [root]
    while todo:
        for p in todo.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


def test_regression_step_tape_is_small():
    # every moment op is one closed-form node: a 13-50-2 bedl+reg batch
    # objective is 8 parameters, a mean and a variance node per layer and
    # activation, the head, its KL and the PAC total (17 nodes)
    specs = tr.default_specs("regression", 13, hidden=50)
    net = build_network(specs, np.random.default_rng(0))
    cfg = tr.TrainConfig(objective="bedl+reg", batch_size=32)
    x, y = rng.normal(size=(32, 13)), rng.normal(size=32)
    report = tr._batch_objective(net, x, y, cfg, 455, np.random.default_rng(1))
    assert _tape_nodes(report.total) <= 20


def test_classification_step_tape_is_small():
    # the sampled head and its Dirichlet KL are one node each too, so a
    # 784-256-10 bedl+reg batch objective has the same 17 nodes
    specs = tr.default_specs("classification", 784, hidden=256)
    net = build_network(specs, np.random.default_rng(0))
    cfg = tr.TrainConfig(objective="bedl+reg", task="classification", batch_size=16)
    x, y = rng.normal(size=(16, 784)), rng.integers(0, 10, size=16)
    report = tr._batch_objective(net, x, y, cfg, 500, np.random.default_rng(1))
    assert _tape_nodes(report.total) <= 20


def test_conv_step_tape_is_small():
    # a dense layer takes the conv output rows inside its own two nodes, so
    # the conv-cls bedl+reg batch objective records no reshape nodes: 12
    # parameters, 2 nodes per layer and activation, head, KL and PAC total
    specs = [LayerSpec("conv2d", in_channels=1, out_channels=16, kernel=5, activation="relu"),
             LayerSpec("conv2d", in_channels=16, out_channels=16, kernel=5, stride=2,
                       activation="relu"),
             LayerSpec("dense", fan_in=10 * 10 * 16, fan_out=10)]
    net = build_network(specs, np.random.default_rng(0))
    cfg = tr.TrainConfig(objective="bedl+reg", task="classification", batch_size=4)
    r = np.random.default_rng(1)
    x, y = r.normal(size=(4, 28, 28, 1)), r.integers(0, 10, size=4)
    report = tr._batch_objective(net, x, y, cfg, 500, np.random.default_rng(1))
    assert _tape_nodes(report.total) <= 25


@pytest.mark.parametrize("objective", ["edl", "bedl-hyper"])
def test_classification_batch_objective_gradcheck(objective):
    # the evidential loss with its relu(f) + 1 strengths, and the
    # hyperprior penalty added to the sampled head, as training builds them.
    # An ELU hidden layer, as in criterion 3: a ReLU unit that is off leaves
    # gradients near 1e-7, whose finite differences are mostly roundoff
    specs = [LayerSpec("dense", fan_in=2, fan_out=4, activation="elu"),
             LayerSpec("dense", fan_in=4, fan_out=3, activation="identity")]
    net = build_network(specs, np.random.default_rng(2), log_var_mean=-2.0, log_var_var=0.1)
    cfg = tr.TrainConfig(objective=objective, task="classification", n_classes=3, mc_samples=3)
    data = np.random.default_rng(3)
    x, y = data.normal(size=(5, 2)), data.integers(0, 3, size=5)

    def f():
        eps_rng = np.random.default_rng(4)
        return tr._batch_objective(net, x, y, cfg, 50, eps_rng).total

    check_grads(f, net.parameters(), rel_tol=1e-4)


def test_training_is_bitwise_deterministic():
    r1, _, _ = _train_small(epochs=4)
    r2, _, _ = _train_small(epochs=4)
    assert r1.metrics_csv() == r2.metrics_csv()
    np.testing.assert_array_equal(r1.checkpoint.data, r2.checkpoint.data)


@pytest.mark.parametrize("objective", ["bedl", "bedl+reg", "bedl-hyper", "edl"])
def test_every_classification_objective_is_deterministic(objective):
    r1, _, _ = _train_small(objective=objective, task="classification", epochs=2)
    r2, _, _ = _train_small(objective=objective, task="classification", epochs=2)
    assert r1.metrics_csv() == r2.metrics_csv()


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


def test_train_checks_task_and_head_width_before_the_first_step():
    r = np.random.default_rng(2)
    ds = Dataset(r.normal(size=(30, 2)), r.integers(0, 3, size=30), task="classification")
    specs = tr.default_specs("classification", 2, hidden=4, n_classes=3)
    with pytest.raises(ValueError, match="classification dataset .* regression config"):
        tr.train(ds, specs, tr.TrainConfig(epochs=1))
    wide = specs[:1] + [LayerSpec("dense", fan_in=4, fan_out=5)]
    with pytest.raises(ValueError, match="5 units .* reads 3"):
        tr.train(ds, wide, tr.TrainConfig(task="classification", n_classes=3, epochs=1))
    with pytest.raises(ValueError, match="3 units .* reads 2"):
        tr.train(_regression_ds(), specs, tr.TrainConfig(epochs=1))


def test_diverged_run_keeps_the_last_finite_checkpoint(monkeypatch):
    # a weight turned NaN by the epoch's last step must not reach a
    # checkpoint; the checkpoint and the metric rows are those of epoch 2
    ds, specs = _regression_ds(n=20), tr.default_specs("regression", 3, hidden=4)
    finite = tr.train(ds, specs, tr.TrainConfig(epochs=2))
    step = tr.Adam.step

    def poisoned(adam):
        step(adam)
        if adam.t == 3:
            adam.net.data[0] = np.nan

    monkeypatch.setattr(tr.Adam, "step", poisoned)
    with pytest.raises(tr.TrainingDiverged, match="epoch 3") as info:
        tr.train(ds, specs, tr.TrainConfig(epochs=5))  # full batch: one step per epoch
    data = info.value.checkpoint.data
    assert np.isfinite(data).all() and data.tobytes() == finite.checkpoint.data.tobytes()
    assert info.value.metrics == finite.metrics


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
    # a diverged run keeps no checkpoint, or one that evaluation can read:
    # finite weights whose moments, such as exp(log_var), are finite too
    ckpt = info.value.checkpoint
    if ckpt is not None:
        net = ckpt.build_network()
        with np.errstate(all="raise"):
            moments = net.weight_moments()
        assert all(np.isfinite(p.data).all() for p in net.parameters())
        assert all(np.isfinite(a).all() for m in moments for a in (m.var, m.bias_var, m.second)
                   if a is not None)
