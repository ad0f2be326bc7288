"""Training loop, Adam optimizer, checkpointing, and evaluation."""

from __future__ import annotations

import json
import math
import numbers
import struct
import zlib
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import objectives as obj
from . import tensor as T
from .data import DataError, Dataset, SplitPlan, StandardizeRecord, check_labels, one_hot
from .layers import (GaussianActivation, LayerSpec, MomentNetwork, Parameter,
                     WeightDistribution, build_network, check_rows)
from .tensor import NumericsError, Tensor
from .uncertainty import UncertaintyReport, decompose, ecdf_auc, test_error

OBJECTIVES = ("bedl", "bedl+reg", "bedl-hyper", "edl")

# Rows per forward pass and decompose call in evaluation. Memory is
# O(EVAL_CHUNK * eval_samples * C) instead of O(N * eval_samples * C).
EVAL_CHUNK = 64

CHECKPOINT_MAGIC = b"BEDLCKP1"
CHECKPOINT_VERSION = 2
# Checkpoint arrays are named w{layer}.{field} after these WeightDistribution fields.
_WEIGHT_FIELDS = ("mean", "log_var", "bias_mean", "bias_log_var")
# Spec keys of older version 2 headers, and the one value each may hold.
_FIXED_SPEC_KEYS = {"bias": True, "alpha": 1.0}


class TrainingDiverged(RuntimeError):
    """Objective or gradient became non-finite; carries the last good
    checkpoint when one exists."""

    def __init__(self, msg: str, checkpoint: "Checkpoint | None" = None):
        super().__init__(msg)
        self.checkpoint = checkpoint


@dataclass(frozen=True)
class InitConfig:
    log_var_mean: float = -9.0
    log_var_var: float = 0.001


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "bedl+reg"
    task: str = "regression"
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int | None = None  # None: full batch below 2000, else 128
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    beta: float = 100.0
    n_classes: int = 10
    mc_samples: int = 5
    delta: float = 0.05
    alpha_prior: float = 1.0
    beta_edl: float = 100.0
    hyper: obj.HyperpriorConfig = field(default_factory=obj.HyperpriorConfig)
    init: InitConfig = field(default_factory=InitConfig)

    def __post_init__(self):
        """The one check of every setting, so that a bad one fails before
        training starts: types, names, and each number finite and in range
        (the comparisons are False for NaN)."""
        _check_types(self)
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.objective == "edl" and self.task != "classification":
            raise ValueError("edl objective requires classification")
        rules = {
            "epochs >= 1": self.epochs >= 1,
            "batch_size >= 1": self.batch_size is None or self.batch_size >= 1,
            "seed >= 0": self.seed >= 0,
            "n_classes >= 2": self.n_classes >= 2,
            "mc_samples >= 1": self.mc_samples >= 1,
            "0 < learning_rate < inf": 0 < self.learning_rate < math.inf,
            "0 <= beta1 < 1": 0 <= self.beta1 < 1,
            "0 <= beta2 < 1": 0 <= self.beta2 < 1,
            "0 < adam_eps < inf": 0 < self.adam_eps < math.inf,
            "0 < beta < inf": 0 < self.beta < math.inf,
            "0 < delta <= 1": 0 < self.delta <= 1,
            "0 < alpha_prior < inf": 0 < self.alpha_prior < math.inf,
            "0 < beta_edl < inf": 0 < self.beta_edl < math.inf,
            "0 < hyper.alpha0, a0, b0 < inf": all(0 < v < math.inf for v in astuple(self.hyper)),
            # the initial log-variances are drawn as N(mean, var) and exponentiated
            "-inf < init.log_var_mean < log(max float)":
                -math.inf < self.init.log_var_mean < np.log(np.finfo(float).max),
            "0 <= init.log_var_var < inf": 0 <= self.init.log_var_var < math.inf,
        }
        broken = [rule for rule, ok in rules.items() if not ok]
        if broken:
            raise ValueError(f"settings out of range, need {'; '.join(broken)}")

    @classmethod
    def from_dict(cls, raw: dict) -> TrainConfig:
        """The config that plain JSON values describe, as in a ``--config``
        file or a checkpoint header: nested dicts build the hyperprior and
        init configs, and a key that names no field is a ValueError."""
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        nested = {"hyper": obj.HyperpriorConfig, "init": InitConfig}
        return cls(**{key: nested[key](**value) if key in nested and isinstance(value, dict)
                      else value for key, value in raw.items()})

    @property
    def likelihood_bound(self) -> float:
        """The likelihood's constant in the PAC bound: 1 for the categorical
        head, the Gaussian density's peak beta/(2 pi) for regression."""
        if self.task == "classification":
            return 1.0
        return self.beta / (2.0 * math.pi)

    def resolve_batch_size(self, n: int) -> int:
        if self.batch_size is not None:
            return min(self.batch_size, n)
        return n if n < 2000 else 128


def _check_types(cfg) -> None:
    """Each field of a config dataclass holds its annotated type: integers
    (not bools or floats) for int fields, any real number but a bool for
    float fields, the nested config classes for nested configs."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in ("int", "int | None"):
            ok = (value is None and f.type != "int") or (
                isinstance(value, numbers.Integral) and not isinstance(value, bool))
        elif f.type == "float":
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        elif f.type == "str":
            ok = isinstance(value, str)
        else:
            ok = isinstance(value, type(f.default_factory()))
            if ok:
                _check_types(value)
        if not ok:
            raise TypeError(f"{f.name} must be {f.type}, not {type(value).__name__} {value!r}")


# -- Adam --------------------------------------------------------------------


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) over one flat float64 buffer.

    The optimizer owns the parameter storage: ``__init__`` copies every
    parameter into ``self.data`` and rebinds each ``p.data`` to a view of it,
    so an array taken from ``p.data`` before then goes stale. ``zero_grad``
    points each ``p.grad`` at its view of the flat gradient ``self.grad``, into
    which backward passes accumulate in place. ``step`` runs the update as
    in-place passes over the whole buffer, in the arithmetic order of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p -= lr*m_hat / (sqrt(v_hat) + eps), so every parameter gets the same
    bits as from a per-parameter loop."""

    def __init__(self, params: list[Parameter], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._ends = np.cumsum([p.data.size for p in params])
        self.data = np.concatenate([p.data.ravel() for p in params])
        self.grad = np.zeros_like(self.data)
        self.m, self.v = np.zeros_like(self.data), np.zeros_like(self.data)
        self._scratch = np.empty_like(self.data), np.empty_like(self.data)
        for p, view in zip(params, self._views(self.data)):
            p.data = view
        self._grads = self._views(self.grad)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[end - p.data.size : end].reshape(p.data.shape)
                for p, end in zip(self.params, self._ends)]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, view in zip(self.params, self._grads):
            if p.grad is not view:  # rebound by other code; None is no gradient
                view[...] = 0.0 if p.grad is None else p.grad
        g, m, v, (a, b) = self.grad, self.m, self.v, self._scratch
        if not np.isfinite(g).all():
            bad = np.flatnonzero(~np.isfinite(g))[0]
            i = int(np.searchsorted(self._ends, bad, side="right"))
            raise NumericsError(f"non-finite gradient in parameter {i}")
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1 - b1**self.t, out=a)
        a *= self.lr
        np.divide(v, 1 - b2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        self.data -= np.divide(a, b, out=a)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for p, view in zip(self.params, self._grads):
            p.grad = view


# -- checkpoint binary format -----------------------------------------------
#
# magic (8 bytes) | u32 header length | JSON header | float64 LE blobs.
# The version 2 header holds the TrainConfig, the layer specs, the array
# manifest in write order, the train-split std of regression targets, the
# index and seed of that split (null when training was not on a split) and
# the zlib.crc32 of the blobs, so that a flipped byte inside an array is a
# load error (headers written before it was recorded lack the key).
# Writing is fully deterministic, so save -> load -> save is byte-identical.
# Header keys and arrays not named here are ignored; other versions are
# rejected.


@dataclass
class Checkpoint:
    config: TrainConfig  # the one source of the task, beta and head at evaluation
    specs: list[LayerSpec]
    arrays: dict[str, np.ndarray]  # weight means and log-variances
    target_std: float | None = None  # train-split std of regression targets
    split: SplitPlan | None = None  # the regression split it trained on

    @property
    def task(self) -> str:
        return self.config.task

    def build_network(self) -> MomentNetwork:
        """The network for evaluation: plain tensors that record no tape
        (a checkpoint cannot resume training)."""
        return MomentNetwork(self.specs, [
            WeightDistribution(*(Tensor(self.arrays[f"w{i}.{name}"]) for name in _WEIGHT_FIELDS))
            for i in range(len(self.specs))])


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    names = sorted(ckpt.arrays)
    payload = b"".join(np.ascontiguousarray(ckpt.arrays[n], dtype="<f8").tobytes() for n in names)
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(ckpt.config),
        "specs": [asdict(s) for s in ckpt.specs],
        "arrays": [{"name": n, "shape": list(ckpt.arrays[n].shape)} for n in names],
        "target_std": ckpt.target_std,
        "split": None if ckpt.split is None else {"index": ckpt.split.split_index,
                                                  "seed": ckpt.split.seed},
        "crc32": zlib.crc32(payload),
    }
    # a config or spec may hold numpy scalars: json writes the numbers they hold
    hb = json.dumps(header, sort_keys=True, separators=(",", ":"), default=np.generic.item).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(hb)))
        fh.write(hb)
        fh.write(payload)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint file; a malformed one is a DataError."""
    try:
        return _parse_checkpoint(Path(path).read_bytes())
    except (AttributeError, KeyError, TypeError, ValueError, struct.error) as exc:
        raise DataError(f"{path} is not a valid checkpoint: {exc}") from exc


def _without_fixed_keys(spec: dict) -> dict:
    """A spec from a header, less the bias and ELU alpha keys that older
    headers carry; they may hold only the values every layer has now."""
    for key, fixed in _FIXED_SPEC_KEYS.items():
        value = spec.pop(key, fixed)
        if value != fixed:
            raise ValueError(f"layer {key} {value!r} is not supported, only {fixed!r}")
    return spec


def _parse_checkpoint(raw: bytes) -> Checkpoint:
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError("bad magic")
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"version {header['version']} checkpoints are not supported, "
                         f"only version {CHECKPOINT_VERSION}")
    offset = 12 + hlen
    if "crc32" in header and zlib.crc32(raw[offset:]) != header["crc32"]:
        raise ValueError("the array bytes do not match the header's checksum")
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        if min(shape, default=0) < 0 or offset + 8 * count > len(raw):
            raise ValueError("arrays shorter than the manifest")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"{entry['name']} holds non-finite values")
        arrays[entry["name"]] = arr.astype(np.float64)
        offset += 8 * count
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} bytes after the last array")
    specs = [LayerSpec(**_without_fixed_keys(s)) for s in header["specs"]]
    for i, spec in enumerate(specs):
        shapes = [spec.weight_shape] * 2 + [(spec.n_out,)] * 2
        for name, shape in zip(_WEIGHT_FIELDS, shapes):
            if arrays[f"w{i}.{name}"].shape != shape:
                raise ValueError(f"w{i}.{name} does not have the shape {shape} of layer {i}")
    if not specs:
        raise ValueError("no layers")
    target_std = header["target_std"]
    if target_std is not None and not 0 < target_std < math.inf:
        raise ValueError("target_std must be positive")
    # a saved config names every field: a default must not stand in for the trained value
    missing = {f.name for f in fields(TrainConfig)} - set(header["config"])
    if missing:
        raise ValueError(f"config lacks {sorted(missing)}")
    split = header.get("split")  # absent from headers written before it was recorded
    if split is not None:
        split = SplitPlan(split["index"], split["seed"])
    return Checkpoint(TrainConfig.from_dict(header["config"]), specs, arrays, target_std, split)


def _snapshot(net: MomentNetwork, cfg: TrainConfig, record: StandardizeRecord | None,
              split: SplitPlan | None = None) -> Checkpoint:
    arrays = {
        f"w{i}.{name}": getattr(w, name).data.copy()
        for i, w in enumerate(net.weights)
        for name in _WEIGHT_FIELDS
    }
    return Checkpoint(cfg, net.specs, arrays, None if record is None else record.target_std,
                      split)


# -- training ----------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list[dict]  # one row per epoch

    def metrics_csv(self) -> str:
        cols = ["epoch", "objective", "nll", "regularizer"]
        lines = [",".join(cols)]
        for row in self.metrics:
            lines.append(
                ",".join(
                    f"{row[c]:.12g}" if isinstance(row[c], float) else str(row[c]) for c in cols
                )
            )
        return "\n".join(lines) + "\n"


def _batch_objective(
    net: MomentNetwork,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    n_data: int,
    rng: np.random.Generator,
) -> obj.ObjectiveReport:
    if cfg.objective == "edl":
        # ReLU evidence + 1 on the mean output: the baseline ignores weight variances
        alpha = obj.evidential_alpha(net.forward(x).mean)
        return obj.edl_loss(alpha, one_hot(y, cfg.n_classes), cfg.beta_edl)

    moments = net.forward(x)
    if cfg.task == "regression":
        lm = obj.regression_log_marginal(moments, y, cfg.beta)
        kl = obj.regression_kl(moments, cfg.alpha_prior) if cfg.objective == "bedl+reg" else None
    else:
        eps = rng.standard_normal((cfg.mc_samples, len(x), cfg.n_classes))
        lm = obj.classification_log_marginal(moments, one_hot(y, cfg.n_classes), eps=eps)
        kl = obj.classification_kl(moments, eps=eps) if cfg.objective == "bedl+reg" else None
    if kl is not None:
        return obj.pac_objective(lm, kl, n_data, cfg.delta, cfg.likelihood_bound)
    report = obj.bedl_objective(lm)

    if cfg.objective == "bedl-hyper":
        # the penalty over the whole dataset, taken per datum as the nll is
        penalty, scale = obj.hyperprior_penalty(net.weights, cfg.hyper), 1.0 / n_data
        regularizer = penalty.data * scale
        total = T.fused(report.total.data + regularizer, (report.total, penalty),
                        lambda g: (g, g * scale), "bedl_hyper_objective")
        return obj.ObjectiveReport(total=total, nll=report.nll, regularizer=float(regularizer))
    return report


def default_specs(task: str, d_in: int, hidden: int = 50, n_classes: int = 10) -> list[LayerSpec]:
    """Single-hidden-layer ReLU net with the task's head width."""
    d_out = 2 if task == "regression" else n_classes
    return [
        LayerSpec("dense", fan_in=d_in, fan_out=hidden, activation="relu"),
        LayerSpec("dense", fan_in=hidden, fan_out=d_out, activation="identity"),
    ]


def train(
    dataset: Dataset,
    specs: list[LayerSpec],
    cfg: TrainConfig,
    record: StandardizeRecord | None = None,
    split: SplitPlan | None = None,
) -> TrainResult:
    """Seeded, single-threaded, deterministic training run; the checkpoint
    records ``split``, the split of a regression table that ``dataset`` is
    the train part of, so that evaluation scores its test part. A dataset of
    another task than ``cfg``, or an output layer that is not as wide as the
    head, is a ValueError before the first step, and one with no rows a
    DataError."""
    if dataset.n == 0:
        raise DataError("no rows to train on")
    if dataset.task != cfg.task:
        raise ValueError(f"a {dataset.task} dataset cannot train a {cfg.task} config")
    width = 2 if cfg.task == "regression" else cfg.n_classes
    if specs[-1].n_out != width:
        raise ValueError(f"the output layer has {specs[-1].n_out} units but the {cfg.task} "
                         f"head reads {width}")
    rng = np.random.default_rng(cfg.seed)
    net = build_network(specs, rng, log_var_mean=cfg.init.log_var_mean,
                        log_var_var=cfg.init.log_var_var)
    adam = Adam(net.parameters(), cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    n = dataset.n
    batch = cfg.resolve_batch_size(n)
    metrics: list[dict] = []
    last_good: Checkpoint | None = None

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        tot = nll = reg = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            x = dataset.features[idx]
            y = dataset.targets[idx]
            try:
                report = _batch_objective(net, x, y, cfg, n, rng)
                adam.zero_grad()
                report.total.backward()
                adam.step()
            except NumericsError as exc:
                raise TrainingDiverged(
                    f"numerical failure at epoch {epoch}: {exc}", last_good
                ) from exc
            tot += report.total.item()
            nll += report.nll
            reg += report.regularizer
            n_batches += 1
        metrics.append(
            {
                "epoch": epoch,
                "objective": tot / n_batches,
                "nll": nll / n_batches,
                "regularizer": reg / n_batches,
            }
        )
        if not np.isfinite(adam.data).all():
            raise TrainingDiverged(f"non-finite weights after epoch {epoch}", last_good)
        last_good = _snapshot(net, cfg, record, split)

    return TrainResult(checkpoint=last_good, metrics=metrics)


# -- evaluation --------------------------------------------------------------


@dataclass
class EvalMetrics:
    values: dict

    def csv(self) -> str:
        cols = sorted(self.values)
        head = ",".join(cols)
        row = ",".join(f"{self.values[c]:.12g}" for c in cols)
        return f"{head}\n{row}\n"


def _predict(ckpt: Checkpoint, dataset: Dataset, cfg: TrainConfig, eval_samples: int, seed: int):
    """The checkpoint's output moments on the dataset and, for
    classification, their sampled predictive decomposition.

    Rows go through the forward pass and ``decompose`` EVAL_CHUNK at a time
    with one rng, so memory does not grow with the dataset; ``decompose``
    draws row by row, so no value depends on the chunk size. The weight
    moments are computed once, before the first chunk."""
    if ckpt.task != cfg.task:
        raise ValueError(f"checkpoint task {ckpt.task!r} does not match {cfg.task!r}")
    if cfg.task == "regression" and cfg.beta != ckpt.config.beta:
        raise ValueError(f"beta {cfg.beta} does not match the checkpoint's {ckpt.config.beta}")
    x = dataset.features
    if len(x) == 0:
        raise DataError("no rows to evaluate")
    try:
        check_rows(ckpt.specs, x.shape[1:])
    except ValueError as exc:
        raise DataError(f"the data does not fit the checkpoint: {exc}") from exc
    net, rng = ckpt.build_network(), np.random.default_rng(seed)
    weight_moments = net.weight_moments()
    parts, reports = [], []
    for start in range(0, len(x), EVAL_CHUNK):
        m = net.forward(x[start : start + EVAL_CHUNK], weight_moments)
        parts.append((m.mean.data, m.var.data))
        if cfg.task == "classification":
            reports.append(decompose(m.mean.data, m.var.data, n_samples=eval_samples, rng=rng))
    mean, var = (np.concatenate(a) for a in zip(*parts))
    moments = GaussianActivation(Tensor(mean), Tensor(var))
    if not reports:
        return moments, None
    return moments, UncertaintyReport(
        *(np.concatenate([getattr(r, f.name) for r in reports]) for f in fields(UncertaintyReport)))


def evaluate(
    ckpt: Checkpoint,
    dataset: Dataset,
    cfg: TrainConfig,
    eval_samples: int = 100,
    seed: int = 12345,
) -> EvalMetrics:
    """Test metrics for a checkpoint, scored under its own config; ``cfg``
    must agree with it in task and, for regression, in beta.

    Regression: mean per-datum log-likelihood in original target units
    (applies the -log std_y correction recorded at standardization time).
    Classification: test error and the ECDF-AUC of predictive entropies
    over [0, log C], with C the width of the output layer; a label outside
    the C classes is a DataError.
    """
    moments, rep = _predict(ckpt, dataset, cfg, eval_samples, seed)
    if rep is None:
        lm = obj.regression_log_marginal(moments, dataset.targets, ckpt.config.beta)
        correction = 0.0 if ckpt.target_std is None else -math.log(ckpt.target_std)
        values = {
            "test_loglik": float(lm.data.mean() + correction),
            "test_rmse": float(
                np.sqrt(np.mean((moments.mean.data[:, 0] - dataset.targets) ** 2))
            ),
        }
        return EvalMetrics(values)

    n_classes = ckpt.specs[-1].n_out
    values = {
        "test_error_pct": test_error(rep.predictive_mean, check_labels(dataset.targets, n_classes)),
        "ecdf_auc": ecdf_auc(rep.entropy, n_classes),
        "mean_entropy": float(rep.entropy.mean()),
    }
    return EvalMetrics(values)


def evaluate_entropies(
    ckpt: Checkpoint, dataset: Dataset, cfg: TrainConfig, eval_samples: int = 100, seed: int = 12345
) -> np.ndarray:
    """Predictive entropies of a classification checkpoint, one per datum."""
    if cfg.task != "classification":
        raise ValueError(f"predictive entropies need task 'classification', not {cfg.task!r}")
    return _predict(ckpt, dataset, cfg, eval_samples, seed)[1].entropy
