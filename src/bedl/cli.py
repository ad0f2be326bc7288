"""Command-line surface: train, eval, ood-eval, splits, verify.

Configuration comes from an optional JSON file plus flag overrides.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import objectives as obj
from .data import DataError, Dataset, SplitPlan, load_csv, load_idx, make_splits, standardize
from .layers import LayerSpec, build_network
from .oracle import make_rng, sample_forward, sample_marginal_likelihood
from .tensor import NumericsError
from .train import (
    OBJECTIVES,
    TASKS,
    EvalMetrics,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    default_specs,
    evaluate,
    evaluate_entropies,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .uncertainty import ecdf_auc


@click.group()
def cli():
    """Moment-matched Bayesian neural nets with evidential heads."""


def _load_dataset(task, data=None, images=None, labels=None, target_column=-1) -> Dataset:
    """The CSV table or IDX pair a command reads; IDX files are classification
    data, so under another task they are a usage error before any file is read."""
    if data is not None:
        return load_csv(data, target_column=target_column)
    if images is not None and labels is not None:
        if task != "classification":
            raise click.UsageError(f"IDX images and labels are classification data, "
                                   f"but the task is {task!r}")
        return load_idx(images, labels)
    raise click.UsageError("provide either --data (CSV) or --images/--labels (IDX)")


def _split(ds: Dataset, plan: SplitPlan):
    """The standardized train rows, test rows and target std of a regression split."""
    tr_idx, te_idx = make_splits(ds.n, plan)
    ds_std, target_std = standardize(ds, tr_idx)
    return ds_std.subset(tr_idx), ds_std.subset(te_idx), target_std


def _build_config(config_path, **overrides) -> TrainConfig:
    """The JSON config file, if any, with the flags that were given on top;
    a file that is not a JSON object is a usage error too."""
    try:
        raw = json.loads(Path(config_path).read_text()) if config_path is not None else {}
        flags = {key: value for key, value in overrides.items() if value is not None}
        return TrainConfig.from_dict({**raw, **flags})
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc


# an existing file: a directory is a usage error, not an IsADirectoryError traceback
_FILE = click.Path(exists=True, dir_okay=False)


def _out_dir(ctx, param, value) -> Path:
    """The --out directory; a file at it or above it is a usage error
    before any data is read, not an OSError once training is done."""
    out = Path(value)
    file = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if file is not None:
        raise click.BadParameter(f"{file} is a file, not a directory")
    return out


def _data_options(fn):
    """The --data, --images and --labels options of a command that reads a dataset."""
    for name, kind in (("--labels", "IDX label"), ("--images", "IDX image"), ("--data", "CSV data")):
        fn = click.option(name, type=_FILE, help=f"{kind} file")(fn)
    return fn


@cli.command("train")
@_data_options
@click.option("--target-column", type=int, default=-1, show_default=True)
# not given: the config file's task, else TrainConfig's default
@click.option("--task", type=click.Choice(TASKS))
@click.option("--config", "config_path", type=_FILE, help="JSON config file")
@click.option("--objective", type=click.Choice(OBJECTIVES))
@click.option("--epochs", type=int)
@click.option("--lr", "learning_rate", type=float)
@click.option("--batch", "batch_size", type=int)
@click.option("--seed", type=int)
@click.option("--delta", type=float)
@click.option("--beta", type=float)
@click.option("--samples", "mc_samples", type=int)
@click.option("--hidden", type=click.IntRange(min=1), default=50, show_default=True)
@click.option("--n-classes", type=int)
# which rows of a regression CSV train; eval scores the rest
@click.option("--split-index", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--split-seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), callback=_out_dir, required=True,
              help="Results directory")
def train_cmd(
    data, images, labels, target_column, config_path, hidden,
    split_index, split_seed, out, **overrides
):
    """Train a model and write metrics CSV plus a checkpoint; a run that
    diverges writes those of its last finite epoch, if any, and exits 3."""
    cfg = _build_config(config_path, **overrides)
    train_ds = _load_dataset(cfg.task, data, images, labels, target_column)

    record = split = None
    if cfg.task == "regression":
        split = SplitPlan(split_index, seed=split_seed)
        train_ds, _, record = _split(train_ds, split)

    d_in = int(np.prod(train_ds.features.shape[1:]))
    specs = default_specs(cfg.task, d_in, hidden=hidden, n_classes=cfg.n_classes)
    try:
        result = train(train_ds, specs, cfg, record=record, split=split)
    except TrainingDiverged as exc:
        if exc.checkpoint is not None:
            _write_run(out, TrainResult(exc.checkpoint, exc.metrics))
        raise
    _write_run(out, result)


def _write_run(out_dir: Path, result: TrainResult) -> None:
    """Write metrics.csv and checkpoint.bin; an OSError is a usage error."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.csv").write_text(result.metrics_csv())
        save_checkpoint(result.checkpoint, out_dir / "checkpoint.bin")
    except OSError as exc:
        raise click.UsageError(f"cannot write the run to {out_dir}: {exc}") from exc
    click.echo(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'checkpoint.bin'}")


@cli.command("eval")
@_data_options
@click.option("--checkpoint", type=_FILE, required=True)
def eval_cmd(data, images, labels, checkpoint):
    """Evaluate a checkpoint, under the config it was trained with, on the
    test part of the split it trained on (regression CSV; split 0 with seed
    0 when the checkpoint records none) or on a full IDX dataset
    (classification). A CSV's targets are read from the column the model
    trained on, the last one when the checkpoint records none."""
    ckpt = load_checkpoint(checkpoint)
    column = -1 if ckpt.target_column is None else ckpt.target_column
    ds = _load_dataset(ckpt.config.task, data, images, labels, column)
    if ckpt.config.task == "regression":
        _, ds, _ = _split(ds, ckpt.split or SplitPlan(0))
    metrics = evaluate(ckpt, ds, ckpt.config)
    click.echo(metrics.csv(), nl=False)


@cli.command("ood-eval")
@click.option("--checkpoint", type=_FILE, required=True)
@click.option("--in-images", type=_FILE, required=True)
@click.option("--in-labels", type=_FILE, required=True)
@click.option("--ood-images", type=_FILE, required=True)
@click.option("--ood-labels", type=_FILE, required=True)
def ood_eval_cmd(checkpoint, in_images, in_labels, ood_images, ood_labels):
    """In-domain test metrics plus out-of-domain entropy metrics, under the
    checkpoint's own config."""
    ckpt = load_checkpoint(checkpoint)
    in_ds = _load_dataset(ckpt.config.task, images=in_images, labels=in_labels)
    ood_ds = _load_dataset(ckpt.config.task, images=ood_images, labels=ood_labels)
    in_metrics = evaluate(ckpt, in_ds, ckpt.config)
    ood_entropy = evaluate_entropies(ckpt, ood_ds, ckpt.config)
    values = {f"in_{k}": v for k, v in in_metrics.values.items()}
    values["ood_ecdf_auc"] = ecdf_auc(ood_entropy, ckpt.specs[-1].n_out)
    values["ood_mean_entropy"] = float(ood_entropy.mean())
    click.echo(EvalMetrics(values).csv(), nl=False)


@cli.command("splits")
@click.option("--n", type=click.IntRange(min=10), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--splits", "n_splits", type=click.IntRange(min=1), default=20, show_default=True)
def splits_cmd(n, seed, n_splits):
    """Print the train/test index assignment for each split as CSV."""
    click.echo("split,role,index")
    for k in range(n_splits):
        tr, te = make_splits(n, SplitPlan(k, seed=seed))
        for i in tr:
            click.echo(f"{k},train,{i}")
        for i in te:
            click.echo(f"{k},test,{i}")


@cli.command("verify")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--n-samples", type=click.IntRange(min=100), default=50000, show_default=True)
@click.option("--n-architectures", type=click.IntRange(min=1), default=5, show_default=True)
def verify_cmd(seed, n_samples, n_architectures):
    """Compare analytic moment propagation and marginal likelihoods
    against the brute-force sampling oracle; prints a CSV table."""
    click.echo("case,quantity,analytic,oracle,oracle_se")
    rng = np.random.default_rng(seed)
    for a in range(n_architectures):
        width = int(rng.integers(4, 17))
        act = ["relu", "elu"][a % 2]
        specs = [
            LayerSpec("dense", fan_in=4, fan_out=width, activation=act),
            LayerSpec("dense", fan_in=width, fan_out=2, activation="identity"),
        ]
        net = build_network(specs, rng, log_var_mean=-4.0, log_var_var=0.25)
        x = rng.normal(size=(1, 4))
        mm = net.forward(x)
        est = sample_forward(net, x, make_rng(seed, stream=a), n_samples)
        for j in range(2):
            click.echo(
                f"net{a}-{act},mean[{j}],{mm.mean.data[0, j]:.8g},"
                f"{est.mean[0, j]:.8g},{est.mean_se[0, j]:.3g}"
            )
            click.echo(
                f"net{a}-{act},var[{j}],{mm.var.data[0, j]:.8g},"
                f"{est.var[0, j]:.8g},{est.var_se[0, j]:.3g}"
            )
        beta, y = 100.0, rng.normal(size=1)
        lm = obj.regression_log_marginal(mm, y, beta)
        mc = sample_marginal_likelihood(net, x, y, beta, make_rng(seed, stream=100 + a), n_samples)
        click.echo(
            f"net{a}-{act},log_marginal,{lm.data[0]:.8g},{mc.value[0]:.8g},{mc.se[0]:.3g}"
        )


def main():
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(2)
    except (NumericsError, TrainingDiverged, FloatingPointError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
