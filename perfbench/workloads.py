"""Seeded synthetic inputs and the train -> save -> load -> eval job of each
benchmark workload.

The generators write files (CSV, gzipped IDX) so that the program only ever
sees what a user would hand to ``bedl train`` / ``bedl eval``. Jobs call the
public API of ``bedl.data``, ``bedl.train`` and ``bedl.uncertainty`` through
module attributes, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import math
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_UCI_SPLITS = 20  # the paper's UCI protocol uses 20 random 90/10 splits

# Fixed synthetic populations, so that seeds vary the sample, not the task,
# and quality metrics stay comparable from seed to seed.
POPULATION_SEED = 0

QUALITY_UNITS = {
    "final_objective": "nats",  # last-epoch training objective per datum
    "test_loglik": "nats",  # per datum, in original target units
    "test_rmse": "std",  # in standardized target units, as evaluate() reports it
    "test_error_pct": "%",
    "ecdf_auc": "nats",  # area under the entropy ECDF over [0, log C]
    "ood_ecdf_auc": "nats",
}


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    batch: int
    epochs: int
    smoke_epochs: int
    n_train: int = 0  # image workloads: training images
    n_eval: int = 0  # image workloads: in-domain and OOD images, each
    smoke_n_train: int = 0
    smoke_n_eval: int = 0
    eval_samples: int = 100
    smoke_eval_samples: int = 10
    conv: bool = False

    def sizes(self, smoke: bool) -> dict:
        if smoke:
            return {"epochs": self.smoke_epochs, "n_train": self.smoke_n_train,
                    "n_eval": self.smoke_n_eval, "eval_samples": self.smoke_eval_samples}
        return {"epochs": self.epochs, "n_train": self.n_train,
                "n_eval": self.n_eval, "eval_samples": self.eval_samples}


# Why each workload exists is written up in perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("uci-reg", "regression", batch=32, epochs=40, smoke_epochs=2),
        Workload("mnist-cls", "classification", batch=128, epochs=4, smoke_epochs=1,
                 n_train=3840, n_eval=10000, smoke_n_train=256, smoke_n_eval=500),
        Workload("conv-cls", "classification", batch=32, epochs=4, smoke_epochs=1,
                 n_train=256, n_eval=128, smoke_n_train=64, smoke_n_eval=32, conv=True),
    )
}


# -- generators -------------------------------------------------------------


def write_uci_csv(path: Path, seed: int) -> None:
    """506 x 13 regression table shaped like Boston housing.

    Correlated features with per-column scales and four lognormal columns;
    the target is a smooth nonlinear function of the features with
    input-dependent noise, rescaled to mean 22.5 and std 9.2. The population
    (projections, scales, target function) is the same for every seed; the
    seed draws the 506 rows.
    """
    pop = np.random.default_rng(POPULATION_SEED)
    n, d, k = 506, 13, 4
    mixing, skew = pop.normal(0.0, 1.0, (k, d)), pop.permutation(d)[:4]
    scale, offset = np.exp(pop.uniform(-2.0, 5.0, d)), pop.uniform(-1.0, 1.0, d) * 10.0
    proj, weights = pop.normal(0.0, 1.0, (k, 8)), pop.normal(0.0, 1.0, 8)

    rng = np.random.default_rng([seed, 1])
    z = rng.standard_normal((n, k))
    x = z @ mixing + 0.5 * rng.standard_normal((n, d))
    x[:, skew] = np.exp(0.5 * x[:, skew] / x[:, skew].std(axis=0))  # lognormal, sigma 0.5
    x = x * scale + offset
    signal = np.tanh(z @ proj) @ weights + 0.5 * z[:, 0] ** 2
    noise_sd = 0.25 * np.exp(0.5 * z[:, 1])
    y = signal / signal.std() + noise_sd * rng.standard_normal(n)
    y = 22.5 + 9.2 * (y - y.mean()) / y.std()
    table = np.column_stack([x, y])
    header = ",".join([f"x{i}" for i in range(d)] + ["y"])
    lines = [header] + [",".join(f"{v:.6g}" for v in row) for row in table]
    path.write_text("\n".join(lines) + "\n")


def _strokes(rng: np.random.Generator, n_protos: int) -> np.ndarray:
    """Prototype images in [0, 1]: three pen strokes each, drawn as Gaussian
    dots along random segments."""
    yy, xx = np.mgrid[0:28, 0:28]
    protos = np.zeros((n_protos, 28, 28))
    for p in range(n_protos):
        for _ in range(3):
            a, b = rng.uniform(6, 22, 2), rng.uniform(6, 22, 2)
            for t in np.linspace(0.0, 1.0, 12):
                cy, cx = a + t * (b - a)
                protos[p] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / 3.0)
    return np.clip(protos / protos.max(axis=(1, 2), keepdims=True), 0.0, 1.0)


def _sample_images(rng, protos, n) -> tuple[np.ndarray, np.ndarray]:
    """Shifted, blended and noisy copies of the prototypes as uint8.

    Each image blends its class prototype with another one by up to 40%, so
    a share of images is genuinely ambiguous and the test error stays clear
    of zero.
    """
    c = len(protos)
    labels = rng.integers(0, c, n)
    other = (labels + rng.integers(1, c, n)) % c
    mix = rng.uniform(0.0, 0.4, n)[:, None, None]
    img = (1.0 - mix) * protos[labels] + mix * protos[other]
    shift = rng.integers(-2, 3, (n, 2))
    for s in np.unique(shift, axis=0):
        sel = np.all(shift == s, axis=1)
        img[sel] = np.roll(img[sel], tuple(s), axis=(1, 2))
    img = img * rng.uniform(0.6, 1.0, (n, 1, 1)) + 0.15 * rng.standard_normal(img.shape)
    return np.round(255.0 * np.clip(img, 0.0, 1.0)).astype(np.uint8), labels.astype(np.uint8)


def _write_idx(path: Path, magic: int, arr: np.ndarray) -> None:
    header = struct.pack(">I", magic) + struct.pack(f">{arr.ndim}I", *arr.shape)
    # mtime=0 keeps the gzip bytes a function of the seed alone
    path.write_bytes(gzip.compress(header + arr.tobytes(), compresslevel=1, mtime=0))


def write_image_sets(out: Path, seed: int, n_train: int, n_eval: int) -> None:
    """Train, in-domain test and OOD IDX pairs (gzipped). The OOD set is
    drawn from a second, independent prototype family. The prototypes are
    the same for every seed; the seed draws the images."""
    pop = np.random.default_rng(POPULATION_SEED)
    protos, ood_protos = _strokes(pop, 10), _strokes(pop, 10)
    rng = np.random.default_rng([seed, 2])
    for name, p, n in (("train", protos, n_train), ("test", protos, n_eval),
                       ("ood", ood_protos, n_eval)):
        # chunks keep the generator's memory far below the job's
        parts = [_sample_images(rng, p, min(2000, n - i)) for i in range(0, n, 2000)]
        images = np.concatenate([im for im, _ in parts])
        labels = np.concatenate([lb for _, lb in parts])
        _write_idx(out / f"{name}-images.idx.gz", 0x00000803, images)
        _write_idx(out / f"{name}-labels.idx.gz", 0x00000801, labels)


def generate(w: Workload, out: Path, seed: int, smoke: bool) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if w.task == "regression":
        write_uci_csv(out / "data.csv", seed)
    else:
        s = w.sizes(smoke)
        write_image_sets(out, seed, s["n_train"], s["n_eval"])


# -- the job ----------------------------------------------------------------


def bedl_modules() -> dict:
    """The layers a job goes through. ``bedl.train`` on the package is the
    function ``train``, so the module is imported by name."""
    return {m: importlib.import_module(f"bedl.{m}")
            for m in ("tensor", "layers", "objectives", "train", "uncertainty", "data")}


def specs_for(w: Workload, mods: dict, d_in: int) -> list:
    if not w.conv:
        hidden = 50 if w.task == "regression" else 256
        return mods["train"].default_specs(w.task, d_in, hidden=hidden)
    spec = mods["layers"].LayerSpec
    return [
        spec("conv2d", in_channels=1, out_channels=16, kernel=5, stride=1, activation="relu"),
        spec("conv2d", in_channels=16, out_channels=16, kernel=5, stride=2, activation="relu"),
        spec("dense", fan_in=10 * 10 * 16, fan_out=10),
    ]


def config_for(w: Workload, mods: dict, seed: int, smoke: bool):
    return mods["train"].TrainConfig(
        objective="bedl+reg", task=w.task, epochs=w.sizes(smoke)["epochs"],
        batch_size=w.batch, mc_samples=5, seed=seed,
    )


def load_train_set(w: Workload, mods: dict, data_dir: Path, split: int, seed: int):
    """What ``bedl train`` does before its first step: load, split and
    standardize (regression), then build the specs."""
    data = mods["data"]
    if w.task == "regression":
        ds = data.load_csv(data_dir / "data.csv")
        tr, _ = data.make_splits(ds.n, data.SplitPlan(split, seed=seed))
        ds_std, record = data.standardize(ds, tr)
        train_ds = ds_std.subset(tr)
    else:
        train_ds = data.load_idx(data_dir / "train-images.idx.gz", data_dir / "train-labels.idx.gz")
        record = None
    return train_ds, record, specs_for(w, mods, int(np.prod(train_ds.features.shape[1:])))


@dataclass
class JobResult:
    split: int
    train_samples: int
    train_s: float
    eval_points: int
    eval_s: float
    job_s: float
    step_ms: list
    metrics_csv: str
    quality: dict = field(default_factory=dict)

    def digest(self) -> dict:
        """What must repeat bit for bit across runs at one seed."""
        return {
            "metrics_csv_sha256": hashlib.sha256(self.metrics_csv.encode()).hexdigest(),
            "quality": {k: repr(v) for k, v in sorted(self.quality.items())},
        }


class StepClock:
    """Records the end time of every optimizer step by wrapping
    ``Adam.step``; the only instrumentation of an untraced run."""

    def __init__(self, train_mod):
        self.adam = train_mod.Adam
        self.orig = self.adam.step
        self.ticks: list[float] = []

    def __enter__(self):
        orig, ticks = self.orig, self.ticks

        def step(adam):
            orig(adam)
            ticks.append(time.perf_counter())

        self.adam.step = step
        return self

    def __exit__(self, *exc):
        self.adam.step = self.orig


def run_job(w: Workload, mods: dict, data_dir: Path, ckpt_path: Path, seed: int,
            job_no: int, smoke: bool, clock: StepClock, phase=lambda name: None) -> JobResult:
    """One ``bedl train`` + ``bedl eval`` (or ``ood-eval``) job."""
    data, btrain, unc = mods["data"], mods["train"], mods["uncertainty"]
    sizes = w.sizes(smoke)
    split = job_no % N_UCI_SPLITS if w.task == "regression" else 0
    cfg = config_for(w, mods, seed, smoke)

    t0 = time.perf_counter()
    phase("train")
    train_ds, record, specs = load_train_set(w, mods, data_dir, split, seed)
    clock.ticks.clear()
    t_train = time.perf_counter()
    result = btrain.train(train_ds, specs, cfg, record=record)
    train_s = time.perf_counter() - t_train
    step_ms = list(np.diff(clock.ticks) * 1e3)  # the first step also builds the net
    btrain.save_checkpoint(result.checkpoint, ckpt_path)

    phase("eval")
    t_eval = time.perf_counter()
    ckpt = btrain.load_checkpoint(ckpt_path)
    quality = {"final_objective": result.metrics[-1]["objective"]}
    if w.task == "regression":
        ds = data.load_csv(data_dir / "data.csv")
        tr, te = data.make_splits(ds.n, data.SplitPlan(split, seed=seed))
        ds_std, _ = data.standardize(ds, tr)
        test = ds_std.subset(te)
        quality.update(btrain.evaluate(ckpt, test, cfg).values)
        eval_points = test.n
    else:
        test = data.load_idx(data_dir / "test-images.idx.gz", data_dir / "test-labels.idx.gz")
        ood = data.load_idx(data_dir / "ood-images.idx.gz", data_dir / "ood-labels.idx.gz")
        values = btrain.evaluate(ckpt, test, cfg, eval_samples=sizes["eval_samples"]).values
        ood_entropy = btrain.evaluate_entropies(ckpt, ood, cfg, eval_samples=sizes["eval_samples"])
        quality.update(test_error_pct=values["test_error_pct"], ecdf_auc=values["ecdf_auc"],
                       ood_ecdf_auc=unc.ecdf_auc(ood_entropy, cfg.n_classes))
        eval_points = test.n + ood.n
    t_end = time.perf_counter()
    phase(None)

    return JobResult(
        split=split,
        train_samples=cfg.epochs * train_ds.n,
        train_s=train_s,
        eval_points=eval_points,
        eval_s=t_end - t_eval,
        job_s=t_end - t0,
        step_ms=step_ms,
        metrics_csv=result.metrics_csv(),
        quality={k: float(v) for k, v in quality.items()},
    )


def check_quality(w: Workload, quality: dict, tolerances: dict, smoke: bool) -> list[str]:
    """Finite outputs always; quality ranges outside smoke mode."""
    problems = [f"{k} is not finite: {v!r}" for k, v in quality.items() if not math.isfinite(v)]
    if not smoke:
        for key, (lo, hi) in tolerances[w.name].items():
            if not lo <= quality[key] <= hi:
                problems.append(f"{key}={quality[key]:.6g} outside [{lo}, {hi}]")
    return problems
