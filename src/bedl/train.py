"""Training loop, Adam optimizer, checkpointing, and evaluation."""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import objectives as obj
from .data import Dataset, StandardizeRecord, one_hot
from .layers import LayerSpec, MomentNetwork, Parameter, WeightDistribution, build_network
from .tensor import NumericsError
from .uncertainty import decompose, ecdf_auc, test_error

OBJECTIVES = ("bedl", "bedl+reg", "bedl-hyper", "edl")

CHECKPOINT_MAGIC = b"BEDLCKP1"
# Checkpoint arrays are named w{layer}.{field} after these WeightDistribution fields.
_WEIGHT_FIELDS = ("mean", "log_var", "bias_mean", "bias_log_var")


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
        training starts; the head and PAC configs keep their own rules."""
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.learning_rate <= 0 or self.epochs < 1:
            raise ValueError("invalid optimizer settings")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.objective == "edl" and self.task != "classification":
            raise ValueError("edl objective requires classification")
        self.pac(1)
        self.head()

    def head(self) -> obj.RegressionHeadConfig | obj.ClassificationHeadConfig:
        if self.task == "regression":
            return obj.RegressionHeadConfig(beta=self.beta)
        return obj.ClassificationHeadConfig(self.n_classes, self.mc_samples)

    def pac(self, n_data: int) -> obj.PacConfig:
        return obj.PacConfig(self.task, n_data, self.delta, self.alpha_prior, self.beta)

    def resolve_batch_size(self, n: int) -> int:
        if self.batch_size is not None:
            return min(self.batch_size, n)
        return n if n < 2000 else 128


# -- Adam --------------------------------------------------------------------


class Adam:
    def __init__(self, params: list[Parameter], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"non-finite gradient in parameter {i}")
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**self.t)
            vhat = self.v[i] / (1 - b2**self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


# -- checkpoint binary format -----------------------------------------------
#
# magic (8 bytes) | u32 header length | JSON header | float64 LE blobs.
# The header lists the task, layer specs, the array manifest in write order
# and the target standardization. Writing is fully deterministic, so
# save -> load -> save is byte-identical. Header keys and arrays that are
# not named here (older files also stored Adam and RNG state) are ignored.


@dataclass
class Checkpoint:
    version: int
    specs: list[LayerSpec]
    arrays: dict[str, np.ndarray]  # weight means and log-variances
    task: str
    standardize: dict | None = None

    def build_network(self) -> MomentNetwork:
        weights = []
        for i in range(len(self.specs)):
            parts = (self.arrays.get(f"w{i}.{name}") for name in _WEIGHT_FIELDS)
            weights.append(WeightDistribution(*(a if a is None else Parameter(a.copy()) for a in parts)))
        return MomentNetwork(self.specs, weights)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    names = sorted(ckpt.arrays)
    header = {
        "version": ckpt.version,
        "task": ckpt.task,
        "specs": [asdict(s) for s in ckpt.specs],
        "arrays": [{"name": n, "shape": list(ckpt.arrays[n].shape)} for n in names],
        "standardize": ckpt.standardize,
    }
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(hb)))
        fh.write(hb)
        for n in names:
            fh.write(np.ascontiguousarray(ckpt.arrays[n], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    if header["version"] != 1:
        raise ValueError(f"unsupported checkpoint version {header['version']}")
    offset = 12 + hlen
    arrays = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape)
        arrays[entry["name"]] = arr.astype(np.float64)
        offset += 8 * count
    return Checkpoint(
        version=header["version"],
        specs=[LayerSpec(**s) for s in header["specs"]],
        arrays=arrays,
        task=header["task"],
        standardize=header["standardize"],
    )


def _snapshot(net: MomentNetwork, cfg: TrainConfig, record: StandardizeRecord | None) -> Checkpoint:
    arrays = {
        f"w{i}.{name}": getattr(w, name).data.copy()
        for i, w in enumerate(net.weights)
        for name in _WEIGHT_FIELDS
        if getattr(w, name) is not None
    }
    std = None
    if record is not None:
        std = {
            "target_mean": record.target_mean,
            "target_std": record.target_std,
        }
    return Checkpoint(
        version=1,
        specs=net.specs,
        arrays=arrays,
        task=cfg.task,
        standardize=std,
    )


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


def _edl_forward_alpha(net: MomentNetwork, x: np.ndarray):
    """Deterministic evidential strengths: ReLU evidence + 1 on the mean
    output of the net (weight variances ignored by the baseline)."""
    from . import tensor as T

    moments = net.forward(x)
    return T.relu(moments.mean) + 1.0


def _prepare_features(x: np.ndarray, specs: list[LayerSpec]) -> np.ndarray:
    """Flatten image batches when the first layer is dense."""
    if specs[0].kind == "dense" and x.ndim > 2:
        return x.reshape(len(x), -1)
    return x


def _batch_objective(
    net: MomentNetwork,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    head: obj.RegressionHeadConfig | obj.ClassificationHeadConfig,
    pac: obj.PacConfig,
    rng: np.random.Generator,
) -> obj.ObjectiveReport:
    if cfg.objective == "edl":
        alpha = _edl_forward_alpha(net, x)
        return obj.edl_loss(alpha, one_hot(y, cfg.n_classes), cfg.beta_edl)

    moments = net.forward(x)
    if cfg.task == "regression":
        lm = obj.regression_log_marginal(moments, y, head)
        if cfg.objective == "bedl+reg":
            kl = obj.regression_kl(moments, head, pac)
            return obj.pac_objective(lm, kl, pac)
    else:
        eps = rng.standard_normal((cfg.mc_samples, len(x), cfg.n_classes))
        lm = obj.classification_log_marginal(moments, one_hot(y, cfg.n_classes), head, eps=eps)
        if cfg.objective == "bedl+reg":
            kl = obj.classification_kl(moments, head, eps=eps)
            return obj.pac_objective(lm, kl, pac)
    report = obj.bedl_objective(lm)

    if cfg.objective == "bedl-hyper":
        penalty = obj.hyperprior_penalty(net.weights, cfg.hyper) * (1.0 / pac.n_data)
        total = report.total + penalty
        return obj.ObjectiveReport(
            total=total, nll=report.nll, regularizer=penalty.item()
        )
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
) -> TrainResult:
    """Seeded, single-threaded, deterministic training run."""
    rng = np.random.default_rng(cfg.seed)
    net = build_network(specs, rng, log_var_mean=cfg.init.log_var_mean,
                        log_var_var=cfg.init.log_var_var)
    adam = Adam(net.parameters(), cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)
    n = dataset.n
    batch = cfg.resolve_batch_size(n)
    head, pac = cfg.head(), cfg.pac(n)
    metrics: list[dict] = []
    last_good: Checkpoint | None = None

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        tot = nll = reg = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            x = _prepare_features(dataset.features[idx], specs)
            y = dataset.targets[idx]
            try:
                report = _batch_objective(net, x, y, cfg, head, pac, rng)
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
        last_good = _snapshot(net, cfg, record)

    return TrainResult(checkpoint=last_good, metrics=metrics)


# -- evaluation --------------------------------------------------------------


@dataclass
class EvalMetrics:
    task: str
    values: dict

    def csv(self) -> str:
        cols = sorted(self.values)
        head = ",".join(cols)
        row = ",".join(f"{self.values[c]:.12g}" for c in cols)
        return f"{head}\n{row}\n"


def _predict(ckpt: Checkpoint, dataset: Dataset, cfg: TrainConfig, eval_samples: int, seed: int):
    """The checkpoint's output moments on the whole dataset and, for
    classification, their sampled predictive decomposition."""
    if ckpt.task != cfg.task:
        raise ValueError(f"checkpoint task {ckpt.task!r} does not match {cfg.task!r}")
    moments = ckpt.build_network().forward(_prepare_features(dataset.features, ckpt.specs))
    if cfg.task == "regression":
        return moments, None
    rng = np.random.default_rng(seed)
    return moments, decompose(moments.mean.data, moments.var.data, n_samples=eval_samples, rng=rng)


def evaluate(
    ckpt: Checkpoint,
    dataset: Dataset,
    cfg: TrainConfig,
    eval_samples: int = 100,
    seed: int = 12345,
) -> EvalMetrics:
    """Test metrics for a checkpoint.

    Regression: mean per-datum log-likelihood in original target units
    (applies the -log std_y correction recorded at standardization time).
    Classification: test error and the ECDF-AUC of predictive entropies.
    """
    moments, rep = _predict(ckpt, dataset, cfg, eval_samples, seed)
    if rep is None:
        lm = obj.regression_log_marginal(moments, dataset.targets, cfg.head())
        correction = 0.0
        if ckpt.standardize and ckpt.standardize.get("target_std"):
            correction = -math.log(ckpt.standardize["target_std"])
        values = {
            "test_loglik": float(lm.data.mean() + correction),
            "test_rmse": float(
                np.sqrt(np.mean((moments.mean.data[:, 0] - dataset.targets) ** 2))
            ),
        }
        return EvalMetrics("regression", values)

    values = {
        "test_error_pct": test_error(rep.predictive_mean, dataset.targets),
        "ecdf_auc": ecdf_auc(rep.entropy, cfg.n_classes),
        "mean_entropy": float(rep.entropy.mean()),
    }
    return EvalMetrics("classification", values)


def evaluate_entropies(
    ckpt: Checkpoint, dataset: Dataset, cfg: TrainConfig, eval_samples: int = 100, seed: int = 12345
) -> np.ndarray:
    """Predictive entropies of a classification checkpoint, one per datum."""
    if cfg.task != "classification":
        raise ValueError(f"predictive entropies need task 'classification', not {cfg.task!r}")
    return _predict(ckpt, dataset, cfg, eval_samples, seed)[1].entropy
