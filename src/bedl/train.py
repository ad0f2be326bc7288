"""Training loop, Adam optimizer, checkpointing, and evaluation."""

from __future__ import annotations

import json
import math
import numbers
import struct
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import objectives as obj
from .data import DataError, Dataset, SplitPlan, check_labels
from .layers import (INIT_LOG_VAR_MEAN, INIT_LOG_VAR_VAR, GaussianActivation, LayerSpec,
                     MomentNetwork, build_network, check_rows)
from .tensor import NumericsError, Tensor
from .uncertainty import decompose, ecdf_auc, test_error

OBJECTIVES = ("bedl", "bedl+reg", "bedl-hyper", "edl")
TASKS = ("regression", "classification")

# Rows per forward pass in evaluation, so that the memory of a conv net's
# activations does not grow with the dataset.
EVAL_CHUNK = 64

CHECKPOINT_MAGIC = b"BEDLCKP1"
CHECKPOINT_VERSION = 4


class TrainingDiverged(RuntimeError):
    """Objective, gradient, weights or weight moments became non-finite;
    carries the last good checkpoint, None before the first epoch finished,
    and the metric rows of the epochs up to it."""

    def __init__(self, msg: str, checkpoint: "Checkpoint | None" = None, metrics=()):
        super().__init__(msg)
        self.checkpoint = checkpoint
        self.metrics = list(metrics)


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "bedl+reg"
    task: str = "regression"
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int | None = None  # None: full batch below 2000, else 128
    seed: int = 0
    beta: float = 100.0
    n_classes: int = 10
    mc_samples: int = 5
    delta: float = 0.05
    # the initial log-variances are drawn from N(init_log_var_mean, init_log_var_var)
    init_log_var_mean: float = INIT_LOG_VAR_MEAN
    init_log_var_var: float = INIT_LOG_VAR_VAR

    def __post_init__(self):
        """The one check of every setting, so that a bad one fails before
        training starts: types, names, and each number finite and in range
        (the comparisons are False for NaN)."""
        _check_types(self)
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.task not in TASKS:
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
            "0 < beta < inf": 0 < self.beta < math.inf,
            "0 < delta <= 1": 0 < self.delta <= 1,
            # the initial log-variances are exponentiated
            "-inf < init_log_var_mean < log(max float)":
                -math.inf < self.init_log_var_mean < np.log(np.finfo(float).max),
            "0 <= init_log_var_var < inf": 0 <= self.init_log_var_var < math.inf,
        }
        broken = [rule for rule, ok in rules.items() if not ok]
        if broken:
            raise ValueError(f"settings out of range, need {'; '.join(broken)}")

    @classmethod
    def from_dict(cls, raw: dict) -> TrainConfig:
        """The config that plain JSON values describe, as in a ``--config``
        file or a checkpoint header; a key that names no field is a
        ValueError."""
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    @property
    def init(self) -> SimpleNamespace:
        """The two init_* settings under their former nested names, which
        perfbench/setup_probe.py reads."""
        return SimpleNamespace(log_var_mean=self.init_log_var_mean,
                               log_var_var=self.init_log_var_var)

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


def _check_types(cfg: TrainConfig) -> None:
    """Each field of the config holds its annotated type: integers (not
    bools or floats) for int fields, any real number but a bool for float
    fields, a string for str fields."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in ("int", "int | None"):
            ok = (value is None and f.type != "int") or (
                isinstance(value, numbers.Integral) and not isinstance(value, bool))
        elif f.type == "float":
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        else:
            ok = isinstance(value, str)
        if not ok:
            raise TypeError(f"{f.name} must be {f.type}, not {type(value).__name__} {value!r}")


# -- Adam --------------------------------------------------------------------


class Adam:
    """Adam (Kingma & Ba, arXiv:1412.6980) over a network's flat buffers.

    ``step`` updates ``net.data`` from ``net.grad``, into which backward
    passes add, as in-place passes over the whole buffer, in the arithmetic
    order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    p -= lr*m_hat / (sqrt(v_hat) + eps), so every parameter gets the same
    bits as from a per-parameter loop. b1, b2 and eps are Kingma & Ba's
    defaults, the class constants BETA1, BETA2 and EPS."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, net: MomentNetwork, lr: float):
        self.net, self.lr, self.t = net, lr, 0
        self.m, self.v = np.zeros_like(net.data), np.zeros_like(net.data)
        self._scratch = np.empty_like(net.data), np.empty_like(net.data)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        g, m, v, (a, b) = self.net.grad, self.m, self.v, self._scratch
        if not np.isfinite(g).all():
            bad = [not np.isfinite(p.grad).all() for p in self.net.parameters()]
            raise NumericsError(f"non-finite gradient in parameter {bad.index(True)}")
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1 - b1**self.t, out=a)
        a *= self.lr
        np.divide(v, 1 - b2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.EPS
        self.net.data -= np.divide(a, b, out=a)

    def zero_grad(self) -> None:
        self.net.grad.fill(0.0)


# -- checkpoint binary format -----------------------------------------------
#
# magic (8 bytes) | u32 header length | JSON header | float64 LE arrays.
# The version 4 header holds the TrainConfig, the layer specs, the
# train-split std of regression targets, the index and seed of that split,
# the CSV column of the targets (each of these three null when there is
# none) and the zlib.crc32 of the arrays, so that a flipped byte inside an
# array is a load error. Every key is required; other keys are ignored. The
# arrays are the network's flat buffer MomentNetwork.data, whose size the
# specs fix, and they must hold weights whose moments evaluation can read.
# Writing is fully deterministic, so save -> load -> save is byte-identical.
# Other versions are rejected.


@dataclass
class Checkpoint:
    config: TrainConfig  # the one source of the task, beta and head at evaluation
    specs: list[LayerSpec]
    data: np.ndarray  # the network's flat buffer of weight means and log-variances
    target_std: float | None = None  # train-split std of regression targets
    split: SplitPlan | None = None  # the regression split it trained on
    target_column: int | None = None  # of the CSV it trained on

    def build_network(self) -> MomentNetwork:
        """The network for evaluation, with no gradient buffer (a
        checkpoint cannot resume training)."""
        return MomentNetwork(self.specs, self.data)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    payload = np.ascontiguousarray(ckpt.data, dtype="<f8").tobytes()
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(ckpt.config),
        "specs": [asdict(s) for s in ckpt.specs],
        "target_std": ckpt.target_std,
        "split": None if ckpt.split is None else {"index": ckpt.split.split_index,
                                                  "seed": ckpt.split.seed},
        "target_column": ckpt.target_column,
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


def _parse_checkpoint(raw: bytes) -> Checkpoint:
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError("bad magic")
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"version {header['version']} checkpoints are not supported, "
                         f"only version {CHECKPOINT_VERSION}")
    payload = raw[12 + hlen :]
    if zlib.crc32(payload) != header["crc32"]:
        raise ValueError("the array bytes do not match the header's checksum")
    net = MomentNetwork([LayerSpec(**s) for s in header["specs"]],
                        np.frombuffer(payload, dtype="<f8").astype(np.float64))
    if not _evaluable(net):
        raise ValueError("the weights or their moments, such as exp(log_var), are not finite")
    target_std = header["target_std"]
    if target_std is not None and not 0 < target_std < math.inf:
        raise ValueError("target_std must be positive")
    # a saved config names every field: a default must not stand in for the trained value
    missing = {f.name for f in fields(TrainConfig)} - set(header["config"])
    if missing:
        raise ValueError(f"config lacks {sorted(missing)}")
    split, column = header["split"], header["target_column"]
    if split is not None:
        split = SplitPlan(split["index"], split["seed"])
    if column is not None and (type(column) is not int or column < 0):
        raise ValueError(f"target_column {column!r} is not a non-negative integer")
    return Checkpoint(TrainConfig.from_dict(header["config"]), net.specs, net.data, target_std,
                      split, column)


def _snapshot(net: MomentNetwork, cfg: TrainConfig, target_std: float | None,
              split: SplitPlan | None = None, target_column: int | None = None) -> Checkpoint:
    return Checkpoint(cfg, net.specs, net.data.copy(), target_std, split, target_column)


# -- training ----------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list[dict]  # one row per epoch

    def metrics_csv(self) -> str:
        return _csv(["epoch", "objective", "nll", "regularizer"], self.metrics)


def _csv(cols: list[str], rows: list[dict]) -> str:
    """A header line of ``cols``, then one line per row, each number as %.12g."""
    lines = [cols] + [[f"{row[c]:.12g}" for c in cols] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


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
        return obj.edl_loss(alpha, y)

    moments = net.forward(x)
    if cfg.task == "regression":
        lm = obj.regression_log_marginal(moments, y, cfg.beta)
        kl = obj.regression_kl(moments) if cfg.objective == "bedl+reg" else None
    else:
        eps = rng.standard_normal((cfg.mc_samples,) + moments.mean.shape)
        lm = obj.classification_log_marginal(moments, y, eps=eps)
        kl = obj.classification_kl(moments, eps=eps) if cfg.objective == "bedl+reg" else None
    if kl is not None:
        return obj.pac_objective(lm, kl, n_data, cfg.delta, cfg.likelihood_bound)
    if cfg.objective == "bedl-hyper":
        return obj.hyperprior_objective(lm, net.weights, n_data)
    return obj.bedl_objective(lm)


def _evaluable(net: MomentNetwork) -> bool:
    """Whether the weights and the weight moments that evaluation reads,
    such as exp(log_var), are all finite; an overflow prints nothing."""
    with np.errstate(all="ignore"):
        moments = net.weight_moments()
    arrays = [net.data] + [a for m in moments for a in (m.var, m.bias_var, m.second)
                           if a is not None]
    return all(np.isfinite(a).all() for a in arrays)


def _check_data(specs: list[LayerSpec], dataset: Dataset, doing: str) -> None:
    """The one check that admits data to a network of ``specs``: no rows,
    rows that do not fit its layers, or a feature column that holds a NaN or
    a value whose square would overflow in the first layer (found by column
    max and min, through which a NaN carries, so with no data-sized copy) is
    a DataError that names it."""
    x, big = dataset.features, math.sqrt(np.finfo(float).max)
    if len(x) == 0:
        raise DataError(f"no rows to {doing}")
    try:
        check_rows(specs, x.shape[1:])
    except ValueError as exc:
        raise DataError(f"the data does not fit the network: {exc}") from exc
    hi, lo = x.max(axis=0), x.min(axis=0)
    nan = np.flatnonzero(np.isnan(hi))
    if nan.size:
        raise DataError(f"feature columns {nan.tolist()} hold NaN")
    huge = np.flatnonzero((hi > big) | (lo < -big))
    if huge.size:
        raise DataError(f"feature columns {huge.tolist()} are too large for the first layer")


def default_specs(task: str, d_in: int, hidden: int = 50, n_classes: int = 10) -> list[LayerSpec]:
    """Single-hidden-layer ReLU net with the task's head width."""
    d_out = 2 if task == "regression" else n_classes
    return [
        LayerSpec("dense", fan_in=d_in, fan_out=hidden, activation="relu"),
        LayerSpec("dense", fan_in=hidden, fan_out=d_out, activation="identity"),
    ]


# every op raises NumericsError on a non-finite result, so numpy's own overflow
# and invalid-value warnings during training would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train(
    dataset: Dataset,
    specs: list[LayerSpec],
    cfg: TrainConfig,
    record: float | None = None,
    split: SplitPlan | None = None,
) -> TrainResult:
    """Seeded, single-threaded, deterministic training run; the checkpoint
    records ``record``, the target std from ``standardize``, ``split``, the
    split of a regression table that ``dataset`` is the train part of, so
    that evaluation scores its test part, and the dataset's CSV target
    column. Before the first step, an output layer not as wide as the head is
    a ValueError, and data that _check_data refuses or, for classification,
    check_labels a DataError. A run that diverges raises TrainingDiverged."""
    width = 2 if cfg.task == "regression" else cfg.n_classes
    if specs[-1].n_out != width:
        raise ValueError(f"the output layer has {specs[-1].n_out} units but the {cfg.task} "
                         f"head reads {width}")
    _check_data(specs, dataset, "train on")
    if cfg.task == "classification":
        check_labels(dataset.targets, width)
    rng = np.random.default_rng(cfg.seed)
    net = build_network(specs, rng, log_var_mean=cfg.init_log_var_mean,
                        log_var_var=cfg.init_log_var_var)
    adam = Adam(net, cfg.learning_rate)
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
            x = dataset.rows(idx)
            y = dataset.targets[idx]
            try:
                report = _batch_objective(net, x, y, cfg, n, rng)
                adam.zero_grad()
                report.total.backward()
                adam.step()
            except NumericsError as exc:
                raise TrainingDiverged(f"at epoch {epoch}: {exc}", last_good, metrics) from exc
            tot += report.total.item()
            nll += report.nll
            reg += report.regularizer
            n_batches += 1
        if not _evaluable(net):
            raise TrainingDiverged(f"non-finite weights or weight moments after epoch {epoch}",
                                   last_good, metrics)
        metrics.append(
            {
                "epoch": epoch,
                "objective": tot / n_batches,
                "nll": nll / n_batches,
                "regularizer": reg / n_batches,
            }
        )
        last_good = _snapshot(net, cfg, record, split, dataset.target_column)

    return TrainResult(checkpoint=last_good, metrics=metrics)


# -- evaluation --------------------------------------------------------------


@dataclass
class EvalMetrics:
    values: dict

    def csv(self) -> str:
        return _csv(sorted(self.values), [self.values])


def _predict(ckpt: Checkpoint, dataset: Dataset, cfg: TrainConfig):
    """The means and variances of the checkpoint's outputs on the dataset.

    Rows go through the forward pass EVAL_CHUNK at a time, so memory does
    not grow with the dataset; the weight moments are computed once,
    before the first chunk."""
    if ckpt.config.task != cfg.task:
        raise ValueError(f"checkpoint task {ckpt.config.task!r} does not match {cfg.task!r}")
    if cfg.task == "regression" and cfg.beta != ckpt.config.beta:
        raise ValueError(f"beta {cfg.beta} does not match the checkpoint's {ckpt.config.beta}")
    _check_data(ckpt.specs, dataset, "evaluate")
    net = ckpt.build_network()
    weight_moments = net.weight_moments()
    parts = []
    for start in range(0, dataset.n, EVAL_CHUNK):
        m = net.forward(dataset.rows(slice(start, start + EVAL_CHUNK)), weight_moments)
        parts.append((m.mean.data, m.var.data))
    return tuple(np.concatenate(a) for a in zip(*parts))


# eval_samples is unread (evaluation draws nothing); perfbench/workloads.py still passes it
def evaluate(ckpt: Checkpoint, dataset: Dataset, cfg: TrainConfig,
             eval_samples: int | None = None) -> EvalMetrics:
    """Test metrics for a checkpoint, scored under its own config; ``cfg``
    must agree with it in task and, for regression, in beta.

    Regression: mean per-datum log-likelihood in original target units
    (applies the -log std_y correction recorded at standardization time).
    Classification: test error, the ECDF-AUC of predictive entropies over
    [0, log C], with C the width of the output layer, and the epistemic and
    aleatoric parts of the predictive variance, each a mean over points and
    classes; a label not among the C classes is a DataError before any row runs.
    """
    if ckpt.config.task == "regression":
        mean, var = _predict(ckpt, dataset, cfg)
        moments = GaussianActivation(Tensor(mean), Tensor(var))
        lm = obj.regression_log_marginal(moments, dataset.targets, ckpt.config.beta)
        correction = 0.0 if ckpt.target_std is None else -math.log(ckpt.target_std)
        return EvalMetrics({
            "test_loglik": float(lm.data.mean() + correction),
            "test_rmse": float(np.sqrt(np.mean((mean[:, 0] - dataset.targets) ** 2))),
        })

    n_classes = ckpt.specs[-1].n_out
    labels = check_labels(dataset.targets, n_classes)
    rep = decompose(*_predict(ckpt, dataset, cfg))
    return EvalMetrics({
        "test_error_pct": test_error(rep.predictive_mean, labels),
        "ecdf_auc": ecdf_auc(rep.entropy, n_classes),
        "mean_entropy": float(rep.entropy.mean()),
        "epistemic_mean": float(rep.epistemic.mean()),
        "aleatoric_mean": float(rep.aleatoric.mean()),
    })


# eval_samples is unread (evaluation draws nothing); perfbench/workloads.py still passes it
def evaluate_entropies(ckpt: Checkpoint, dataset: Dataset, cfg: TrainConfig,
                       eval_samples: int | None = None) -> np.ndarray:
    """Predictive entropies of a classification checkpoint, one per datum."""
    if cfg.task != "classification":
        raise ValueError(f"predictive entropies need task 'classification', not {cfg.task!r}")
    return decompose(*_predict(ckpt, dataset, cfg)).entropy
