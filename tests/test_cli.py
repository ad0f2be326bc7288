import json
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

BEDL = [sys.executable, "-m", "bedl.cli"]
# the repository's sources come first on the path, so bedl needs no install
SRC = str(Path(__file__).resolve().parent.parent / "src")
# an overflow or invalid value inside numpy fails the command, and so the
# test, as pyproject.toml arranges for in-process tests
ENV = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    return subprocess.run(BEDL + list(args), capture_output=True, text=True, timeout=600, env=ENV)


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    rng = np.random.default_rng(71)
    x = rng.normal(size=(80, 3))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + 0.05 * rng.normal(size=80)
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    rows = ["a,b,c,target"] + [
        ",".join(f"{v:.8f}" for v in row) for row in np.column_stack([x, y])
    ]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_train_and_eval_roundtrip(csv_file, tmp_path):
    out = tmp_path / "run"
    res = run_cli(
        "train", "--data", str(csv_file), "--task", "regression",
        "--objective", "bedl+reg", "--epochs", "5", "--batch", "16",
        "--hidden", "8", "--seed", "3", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert (out / "metrics.csv").exists() and (out / "checkpoint.bin").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,objective,nll,regularizer"

    ev = run_cli(
        "eval", "--data", str(csv_file), "--checkpoint", str(out / "checkpoint.bin"),
    )
    assert ev.returncode == 0, ev.stderr
    head, row = ev.stdout.strip().splitlines()
    assert head == "test_loglik,test_rmse"
    assert all(np.isfinite(float(v)) for v in row.split(","))


def test_train_determinism_via_cli(csv_file, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = run_cli(
            "train", "--data", str(csv_file), "--epochs", "4", "--batch", "16",
            "--hidden", "6", "--seed", "11", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_config_file_plus_override(csv_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "learning_rate": 0.002, "batch_size": 16}))
    out = tmp_path / "run"
    res = run_cli(
        "train", "--data", str(csv_file), "--config", str(cfg),
        "--epochs", "2", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    assert len((out / "metrics.csv").read_text().strip().splitlines()) == 3  # header + 2



def test_config_file_task_holds_unless_the_flag_is_given(tmp_path):
    # the --task flag's former default "regression" overrode the file's task,
    # and a classification config trained a regression checkpoint
    from bedl.train import load_checkpoint

    r = np.random.default_rng(8)
    labels = r.integers(0, 2, size=120)
    x = r.normal(size=(120, 4)) + labels[:, None]
    data = tmp_path / "cls.csv"
    data.write_text("".join(",".join(f"{v:.6f}" for v in row) + f",{c}\n"
                            for row, c in zip(x, labels)))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "classification", "n_classes": 2, "epochs": 2}))
    for flag, task, width in (([], "classification", 2), (["--task", "regression"], "regression", 2)):
        out = tmp_path / task
        res = run_cli("train", "--data", str(data), "--config", str(cfg), *flag,
                      "--hidden", "8", "--out", str(out))
        assert res.returncode == 0, res.stderr
        ckpt = load_checkpoint(out / "checkpoint.bin")
        assert (ckpt.config.task, ckpt.specs[-1].n_out) == (task, width)

def test_unknown_config_key_is_usage_error(csv_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epohcs": 3}))
    res = run_cli("train", "--data", str(csv_file), "--config", str(cfg),
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 1
    assert "unknown config keys" in res.stderr


def test_config_naming_a_removed_setting_is_usage_error_naming_it(csv_file, tmp_path):
    # Adam's betas are constants now: naming one is refused even at its value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 1, "beta1": 0.9}))
    res = run_cli("train", "--data", str(csv_file), "--config", str(cfg),
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 1 and res.stderr.startswith("error:"), res.stderr
    assert "unknown config keys: ['beta1']" in res.stderr
    assert not (tmp_path / "x").exists()


@pytest.fixture(scope="module")
def trained_checkpoint(csv_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    res = run_cli("train", "--data", str(csv_file), "--epochs", "1", "--hidden", "4",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    return out / "checkpoint.bin"


@pytest.mark.parametrize("args,config,code", [
    pytest.param(["--samples", "0", "--task", "classification"], None, 1, id="samples-0"),
    pytest.param(["--batch", "0"], None, 1, id="batch-0"),
    pytest.param(["--beta", "-1"], None, 1, id="beta-negative"),
    pytest.param(["--delta", "2"], None, 1, id="delta-2"),
    pytest.param(["--n-classes", "1", "--task", "classification"], None, 1, id="n-classes-1"),
    pytest.param(["--objective", "edl"], None, 1, id="edl-regression"),
    pytest.param([], {"init_log_var_mean": -8, "init_log_var_var": 0.01}, 0, id="init-flat"),
    pytest.param([], {"init_log_var_men": -8}, 1, id="init-unknown-key"),
    # eval scores under the checkpoint's own beta, classes and split: no flag sets them
    pytest.param(["eval", "--beta", "-1"], None, 1, id="eval-beta-negative"),
    pytest.param(["eval", "--n-classes", "2"], None, 1, id="eval-n-classes"),
    pytest.param(["eval", "--split-seed", "-1"], None, 1, id="eval-split-seed-negative"),
    pytest.param(["eval", "--split-index", "-3"], None, 1, id="eval-split-index-negative"),
    pytest.param(["eval", "--target-column", "0"], None, 1, id="eval-target-column"),
    pytest.param([], {"epochs": 1.5}, 1, id="epochs-float"),
    pytest.param([], {"batch_size": "32"}, 1, id="batch-string"),
    pytest.param([], {"init_log_var_var": -1}, 1, id="init-negative-variance"),
    pytest.param([], {"init_log_var_mean": 800}, 1, id="init-exp-overflow"),
    pytest.param(["--hidden", "0"], None, 1, id="hidden-0"),
    # evaluation draws nothing: the former sample-count flag is unknown
    pytest.param(["eval", "--eval-samples", "1"], None, 1, id="eval-samples-1"),
    pytest.param([], [1, 2], 1, id="config-not-an-object"),
    pytest.param(["--seed", "-1"], None, 1, id="seed-negative"),
    pytest.param(["--split-seed", "-1"], None, 1, id="split-seed-negative"),
    pytest.param(["--split-index", "-3"], None, 1, id="split-index-negative"),
    pytest.param(["splits", "--seed", "-1"], None, 1, id="splits-seed-negative"),
    pytest.param(["--lr", "nan"], None, 1, id="lr-nan"),
    pytest.param(["--lr", "inf"], None, 1, id="lr-inf"),
    pytest.param(["--beta", "inf"], None, 1, id="beta-inf"),
    # settings that are constants now, and the former nested init config:
    # a config file that names one is refused whatever the value
    pytest.param([], {"beta1": 1.0}, 1, id="beta1-1"),
    pytest.param([], {"beta2": -0.1}, 1, id="beta2-negative"),
    pytest.param([], {"adam_eps": 0}, 1, id="adam-eps-0"),
    pytest.param([], {"alpha_prior": float("nan")}, 1, id="alpha-prior-nan"),
    pytest.param([], {"beta_edl": -1.0}, 1, id="beta-edl-negative"),
    pytest.param([], {"hyper": {"a0": -1.0}}, 1, id="hyper-a0-negative"),
    pytest.param([], {"hyper": {"b0": float("nan")}}, 1, id="hyper-b0-nan"),
    pytest.param([], {"init": {"log_var_mean": -8}}, 1, id="init-dict"),
    pytest.param([], {"init": 5}, 1, id="init-int"),
    pytest.param(["verify", "--n-samples", "50"], None, 1, id="verify-n-samples-50"),
    pytest.param(["verify", "--seed", "-1"], None, 1, id="verify-seed-negative"),
    pytest.param(["verify", "--n-architectures", "0"], None, 1, id="verify-n-architectures-0"),
    pytest.param(["splits", "--splits", "0"], None, 1, id="splits-0"),
])
def test_bad_settings_exit_1_before_any_work(csv_file, trained_checkpoint, tmp_path,
                                            args, config, code):
    # every setting is checked when the config is built: a bad one is a
    # usage error before training or scoring starts, never a traceback
    out = tmp_path / "run"
    if args[:1] == ["eval"]:
        cmd = ["eval", "--data", str(csv_file), "--checkpoint", str(trained_checkpoint)] + args[1:]
    elif args[:1] == ["splits"]:
        cmd = ["splits", "--n", "20"] + args[1:]
    elif args[:1] == ["verify"]:
        cmd = ["verify", "--n-architectures", "1"] + args[1:]
    else:
        cmd = ["train", "--data", str(csv_file), "--out", str(out)] + args
        if "epochs" not in (config or {}):  # a flag would override the file's value
            cmd += ["--epochs", "1"]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        cmd += ["--config", str(tmp_path / "cfg.json")]
    res = run_cli(*cmd)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    if code == 1:
        assert res.stderr.startswith("error:"), res.stderr
        assert not out.exists()
    else:
        assert (out / "checkpoint.bin").exists()


def _ood_inputs(path):
    return [a for flag in ("--in-images", "--in-labels", "--ood-images", "--ood-labels")
            for a in (flag, str(path))]


def test_ood_eval_of_regression_checkpoint_is_usage_error(csv_file, trained_checkpoint):
    # the task check comes before any image file is read
    res = run_cli("ood-eval", "--checkpoint", str(trained_checkpoint), *_ood_inputs(csv_file))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


@pytest.mark.parametrize("cmd", [
    ["train", "--data", "{dir}"],
    ["train", "--data", "{csv}", "--config", "{dir}"],
    ["eval", "--data", "{dir}", "--checkpoint", "{ckpt}"],
    ["eval", "--data", "{csv}", "--checkpoint", "{dir}"],
    ["ood-eval", "--checkpoint", "{ckpt}", "--in-images", "{dir}", "--in-labels", "{csv}",
     "--ood-images", "{csv}", "--ood-labels", "{csv}"],
], ids=["train-data", "train-config", "eval-data", "eval-checkpoint", "ood-eval-in-images"])
def test_directory_for_a_file_is_usage_error(csv_file, trained_checkpoint, tmp_path, cmd,
                                             monkeypatch, capsys):
    # cli.main runs in this process, so an unmapped exception fails the test
    from bedl import cli

    (tmp_path / "empty").mkdir()
    paths = {"dir": tmp_path / "empty", "csv": csv_file, "ckpt": trained_checkpoint}
    argv = [a.format(**paths) for a in cmd]
    if cmd[0] == "train":
        argv += ["--epochs", "1", "--out", str(tmp_path / "o")]
    monkeypatch.setattr(sys, "argv", ["bedl", *argv])
    with pytest.raises(SystemExit) as info:
        cli.main()
    err = capsys.readouterr().err
    assert info.value.code == 1 and err.startswith("error:") and "directory" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("out", ["F", "F/sub"], ids=["file", "below-a-file"])
def test_out_at_or_below_a_file_is_usage_error_before_any_data_is_read(tmp_path, out,
                                                                       monkeypatch, capsys):
    # training ran to the end, then mkdir raised FileExistsError or
    # NotADirectoryError as a traceback; this data does not parse, so exit 1
    # shows that the --out check comes first
    from bedl import cli

    data = tmp_path / "bad.csv"
    data.write_text("1,2\nx,3\n")
    (tmp_path / "F").write_text("kept")
    monkeypatch.setattr(sys, "argv", ["bedl", "train", "--data", str(data), "--epochs", "1",
                                      "--out", str(tmp_path / out)])
    with pytest.raises(SystemExit) as info:
        cli.main()
    err = capsys.readouterr().err
    assert info.value.code == 1 and err.startswith("error:"), err
    assert f"{tmp_path / 'F'} is a file, not a directory" in err
    assert (tmp_path / "F").read_text() == "kept"


def test_run_that_cannot_be_written_is_usage_error(csv_file, tmp_path, monkeypatch, capsys):
    # a directory where metrics.csv goes: the write raised IsADirectoryError
    from bedl import cli

    out = tmp_path / "run"
    (out / "metrics.csv").mkdir(parents=True)
    monkeypatch.setattr(sys, "argv", ["bedl", "train", "--data", str(csv_file), "--epochs", "1",
                                      "--hidden", "4", "--out", str(out)])
    with pytest.raises(SystemExit) as info:
        cli.main()
    err = capsys.readouterr().err
    assert info.value.code == 1 and err.startswith(f"error: cannot write the run to {out}"), err
    assert not (out / "checkpoint.bin").exists()


@pytest.fixture(scope="module")
def bad_data(trained_checkpoint, tmp_path_factory):
    """A directory of inputs that each make one command a data error, and a
    3-class checkpoint trained on a CSV."""
    import struct

    d = tmp_path_factory.mktemp("bad")
    rng = np.random.default_rng(5)
    x, labels = rng.normal(size=(30, 2)), rng.integers(0, 3, size=30)
    for name, bad_label in (("cls", None), ("label-minus-1", -1), ("label-3", 3),
                            ("label-1.7", 1.7)):
        y = labels if bad_label is None else np.where(np.arange(30) == 4, bad_label, labels)
        (d / f"{name}.csv").write_text("".join(f"{a:.6f},{b:.6f},{c}\n" for (a, b), c in zip(x, y)))
    res = run_cli("train", "--data", str(d / "cls.csv"), "--task", "classification",
                  "--n-classes", "3", "--epochs", "1", "--hidden", "4", "--out", str(d / "cls"))
    assert res.returncode == 0, res.stderr
    (d / "one-column.csv").write_text("".join(f"{i * i % 7}\n" for i in range(20)))
    (d / "no-images.idx").write_bytes(struct.pack(">4I", 0x803, 0, 6, 6))
    (d / "no-labels.idx").write_bytes(struct.pack(">2I", 0x801, 0))
    raw = trained_checkpoint.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    # a NaN weight under a checksum that matches it, and a flipped low
    # mantissa byte (a finite value) under the original checksum
    payload = raw[12 + hlen : -8] + struct.pack("<d", float("nan"))
    header = json.loads(raw[12 : 12 + hlen])
    header["crc32"] = zlib.crc32(payload)
    hb = json.dumps(header).encode()
    (d / "nan.bin").write_bytes(raw[:8] + struct.pack("<I", len(hb)) + hb + payload)
    flipped = bytearray(raw)
    flipped[12 + hlen + 8] ^= 0x01
    (d / "flipped-byte.bin").write_bytes(bytes(flipped))
    # headers of versions 2 and 3, and version 4 headers that lack a key
    for name, edit in (("version-2", lambda h: h.update(version=2)),
                       ("version-3", lambda h: h.update(version=3)),
                       ("no-crc32", lambda h: h.pop("crc32")),
                       ("no-split", lambda h: h.pop("split")),
                       ("no-target-column", lambda h: h.pop("target_column"))):
        header = json.loads(raw[12 : 12 + hlen])
        edit(header)
        hb = json.dumps(header).encode()
        (d / f"{name}.bin").write_bytes(raw[:8] + struct.pack("<I", len(hb)) + hb
                                        + raw[12 + hlen :])
    # the first layer's spec patched in the header: every layer has a bias, every ELU alpha = 1
    for name, patch in (("alpha-minus-1", {"activation": "elu", "alpha": -1.0}),
                        ("alpha-nan", {"activation": "elu", "alpha": float("nan")}),
                        ("no-bias", {"bias": False}),
                        # sizes are integers, also those the layer's kind does not read
                        ("kernel-float", {"kernel": 3.0}),
                        ("stride-float", {"stride": 1.0}),
                        ("fan-out-bool", {"fan_out": True})):
        header = json.loads(raw[12 : 12 + hlen])
        header["specs"][0].update(patch)
        hb = json.dumps(header).encode()
        (d / f"{name}.bin").write_bytes(raw[:8] + struct.pack("<I", len(hb)) + hb
                                        + raw[12 + hlen :])
    return d


@pytest.mark.parametrize("cmd", [
    ["train", "--task", "classification", "--images", "{d}/no-images.idx",
     "--labels", "{d}/no-labels.idx"],
    ["train", "--data", "{d}/one-column.csv"],
    ["train", "--data", "{csv}", "--target-column", "9"],
    ["eval", "--data", "{d}/label-minus-1.csv", "--checkpoint", "{d}/cls/checkpoint.bin"],
    ["eval", "--data", "{d}/label-3.csv", "--checkpoint", "{d}/cls/checkpoint.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/nan.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/flipped-byte.bin"],
    ["train", "--data", "{d}/label-1.7.csv", "--task", "classification", "--n-classes", "3"],
    ["eval", "--data", "{d}/label-1.7.csv", "--checkpoint", "{d}/cls/checkpoint.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/alpha-minus-1.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/alpha-nan.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/no-bias.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/kernel-float.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/stride-float.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/fan-out-bool.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/version-2.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/version-3.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/no-crc32.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/no-split.bin"],
    ["eval", "--data", "{csv}", "--checkpoint", "{d}/no-target-column.bin"],
], ids=["train-no-rows", "train-no-feature-column", "train-target-column-9",
        "eval-label-minus-1", "eval-label-3", "eval-nan-checkpoint", "eval-flipped-byte",
        "train-label-1.7", "eval-label-1.7", "eval-alpha-minus-1", "eval-alpha-nan",
        "eval-no-bias", "eval-kernel-float", "eval-stride-float", "eval-fan-out-bool",
        "eval-version-2", "eval-version-3", "eval-no-crc32", "eval-no-split",
        "eval-no-target-column"])
def test_bad_data_exits_2_without_traceback(bad_data, csv_file, tmp_path, cmd, monkeypatch,
                                            capsys):
    # cli.main runs in this process, so an unmapped exception fails the test
    from bedl import cli

    argv = [a.format(d=bad_data, csv=csv_file) for a in cmd]
    if cmd[0] == "train":
        argv += ["--epochs", "1", "--out", str(tmp_path / "o")]
    monkeypatch.setattr(sys, "argv", ["bedl", *argv])
    with pytest.raises(SystemExit) as info:
        cli.main()
    err = capsys.readouterr().err
    assert info.value.code == 2 and err.startswith("data error:"), err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_checkpoint_whose_weight_moments_overflow_is_data_error(csv_file, trained_checkpoint,
                                                                tmp_path):
    # a first-layer log-variance of 800 under a checksum that matches it:
    # the weights are finite but exp(800) is not, so the file cannot be
    # scored, and the check prints no numpy warning
    raw = trained_checkpoint.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    payload = np.frombuffer(raw[12 + hlen :], dtype="<f8").copy()
    spec = header["specs"][0]
    payload[spec["fan_in"] * spec["fan_out"]] = 800.0  # the first log-variance
    header["crc32"] = zlib.crc32(payload.tobytes())
    hb = json.dumps(header).encode()
    bad = tmp_path / "overflow.bin"
    bad.write_bytes(raw[:8] + struct.pack("<I", len(hb)) + hb + payload.tobytes())
    res = run_cli("eval", "--data", str(csv_file), "--checkpoint", str(bad))
    assert res.returncode == 2 and res.stderr.startswith("data error:"), res.stderr
    assert "RuntimeWarning" not in res.stderr and "Traceback" not in res.stderr


def test_usage_error_exit_code():
    res = run_cli("train", "--no-such-flag")
    assert res.returncode == 1


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,banana\n")
    res = run_cli("train", "--data", str(bad), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "data error" in res.stderr


def test_regression_csv_too_small_to_split_is_data_error(trained_checkpoint, tmp_path,
                                                         monkeypatch, capsys):
    # cli.main runs in this process, so an unmapped exception fails the test
    from bedl import cli

    tiny = tmp_path / "tiny.csv"
    # four columns, as the checkpoint's CSV has: eval reads its target column 3
    tiny.write_text("".join(f"{i},{i * i % 7},{i % 3},{0.5 * i}\n" for i in range(9)))
    for cmd in (["train", "--data", str(tiny), "--epochs", "1", "--out", str(tmp_path / "o")],
                ["eval", "--data", str(tiny), "--checkpoint", str(trained_checkpoint)]):
        monkeypatch.setattr(sys, "argv", ["bedl", *cmd])
        with pytest.raises(SystemExit) as info:
            cli.main()
        err = capsys.readouterr().err
        assert info.value.code == 2 and err.startswith("data error:"), (cmd[0], err)
        assert "at least 10 data points" in err
    assert not (tmp_path / "o").exists()
    monkeypatch.setattr(sys, "argv", ["bedl", "splits", "--n", "9"])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 1 and capsys.readouterr().err.startswith("error:")


def test_truncated_or_padded_checkpoint_is_data_error(csv_file, trained_checkpoint, tmp_path,
                                                      monkeypatch, capsys):
    # cut in the magic, the header or the arrays, or one byte past the end;
    # cli.main runs in this process, so an unmapped exception fails the test
    from bedl import cli

    raw = trained_checkpoint.read_bytes()
    bad = tmp_path / "bad.bin"
    for body in [raw[:n] for n in range(0, len(raw), 64)] + [raw + b"\0"]:
        bad.write_bytes(body)
        for cmd in (["eval", "--data", str(csv_file)], ["ood-eval", *_ood_inputs(csv_file)]):
            monkeypatch.setattr(sys, "argv", ["bedl", *cmd, "--checkpoint", str(bad)])
            with pytest.raises(SystemExit) as info:
                cli.main()
            err = capsys.readouterr().err
            assert info.value.code == 2 and err.startswith("data error:"), (len(body), cmd[0], err)
            assert "Traceback" not in err


def test_eval_scores_under_the_trained_beta(csv_file, tmp_path):
    # a plain eval of a beta=10 model equals the library's evaluate at beta=10
    from bedl.data import SplitPlan, load_csv, make_splits, standardize
    from bedl.train import TrainConfig, evaluate, load_checkpoint

    out = tmp_path / "run"
    res = run_cli("train", "--data", str(csv_file), "--beta", "10", "--epochs", "3",
                  "--hidden", "4", "--out", str(out))
    assert res.returncode == 0, res.stderr
    ev = run_cli("eval", "--data", str(csv_file), "--checkpoint", str(out / "checkpoint.bin"))
    assert ev.returncode == 0, ev.stderr
    ds = load_csv(csv_file)
    tr_idx, te_idx = make_splits(ds.n, SplitPlan(0))
    test = standardize(ds, tr_idx)[0].subset(te_idx)
    ckpt = load_checkpoint(out / "checkpoint.bin")
    assert ev.stdout == evaluate(ckpt, test, TrainConfig(beta=10.0)).csv()


def test_eval_scores_the_split_the_model_trained_on(csv_file, tmp_path):
    # the checkpoint records its split, so eval scores that split's test rows;
    # a checkpoint whose split is null is scored on split 0 with seed 0
    import struct

    from bedl.data import SplitPlan, load_csv, make_splits, standardize
    from bedl.train import evaluate, load_checkpoint

    out = tmp_path / "run"
    res = run_cli("train", "--data", str(csv_file), "--split-index", "2", "--epochs", "3",
                  "--hidden", "4", "--out", str(out))
    assert res.returncode == 0, res.stderr
    ckpt = load_checkpoint(out / "checkpoint.bin")
    assert ckpt.split == SplitPlan(2, seed=0)
    ds = load_csv(csv_file)
    scores = {}
    for index in (0, 2):
        tr_idx, te_idx = make_splits(ds.n, SplitPlan(index))
        scores[index] = evaluate(ckpt, standardize(ds, tr_idx)[0].subset(te_idx),
                                 ckpt.config).csv()
    assert scores[2] != scores[0]
    ev = run_cli("eval", "--data", str(csv_file), "--checkpoint", str(out / "checkpoint.bin"))
    assert ev.returncode == 0, ev.stderr
    assert ev.stdout == scores[2]

    raw = (out / "checkpoint.bin").read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    header["split"] = None
    hb = json.dumps(header).encode()
    (out / "unsplit.bin").write_bytes(raw[:8] + struct.pack("<I", len(hb)) + hb + raw[12 + hlen :])
    ev = run_cli("eval", "--data", str(csv_file), "--checkpoint", str(out / "unsplit.bin"))
    assert ev.returncode == 0, ev.stderr
    assert ev.stdout == scores[0]


def test_eval_reads_the_target_column_the_model_trained_on(tmp_path):
    # trained on column 0 of five, the model is scored on column 0, not on
    # the last column that a plain load reads
    from bedl.data import SplitPlan, load_csv, make_splits, standardize
    from bedl.train import evaluate, load_checkpoint

    data = tmp_path / "five.csv"
    rows = np.random.default_rng(3).normal(size=(60, 5))
    data.write_text("".join(",".join(f"{v:.8f}" for v in row) + "\n" for row in rows))
    out = tmp_path / "run"
    res = run_cli("train", "--data", str(data), "--target-column", "0", "--epochs", "3",
                  "--hidden", "4", "--out", str(out))
    assert res.returncode == 0, res.stderr
    ckpt = load_checkpoint(out / "checkpoint.bin")
    assert ckpt.target_column == 0
    tr_idx, te_idx = make_splits(60, SplitPlan(0))
    scores = {column: evaluate(ckpt, standardize(load_csv(data, target_column=column), tr_idx)[0]
                               .subset(te_idx), ckpt.config).csv() for column in (0, -1)}
    assert scores[0] != scores[-1]
    ev = run_cli("eval", "--data", str(data), "--checkpoint", str(out / "checkpoint.bin"))
    assert ev.returncode == 0, ev.stderr
    assert ev.stdout == scores[0]


def test_diverged_train_writes_its_last_finite_epoch(csv_file, tmp_path, monkeypatch, capsys):
    # a weight turned NaN by the third step (one step per epoch at full
    # batch) leaves the checkpoint and metrics rows of epoch 2, and exit 3;
    # a run that diverges in its first epoch writes nothing
    import importlib

    from bedl import cli

    btrain = importlib.import_module("bedl.train")  # bedl.train on the package is train()
    args = ["train", "--data", str(csv_file), "--hidden", "4"]
    monkeypatch.setattr(sys, "argv", ["bedl", *args, "--epochs", "2", "--out",
                                      str(tmp_path / "finite")])
    cli.main()
    step = btrain.Adam.step
    for bad_step, out in ((3, tmp_path / "diverged"), (1, tmp_path / "first")):
        def poisoned(adam, bad_step=bad_step):
            step(adam)
            if adam.t == bad_step:
                adam.net.data[0] = np.nan

        monkeypatch.setattr(btrain.Adam, "step", poisoned)
        monkeypatch.setattr(sys, "argv", ["bedl", *args, "--epochs", "5", "--out", str(out)])
        with pytest.raises(SystemExit) as info:
            cli.main()
        err = capsys.readouterr().err
        assert info.value.code == 3 and err.startswith("numerical failure:"), err
    finite, diverged = (btrain.load_checkpoint(tmp_path / name / "checkpoint.bin")
                        for name in ("finite", "diverged"))
    assert diverged.data.tobytes() == finite.data.tobytes()
    assert ((tmp_path / "diverged" / "metrics.csv").read_text()
            == (tmp_path / "finite" / "metrics.csv").read_text())
    assert not (tmp_path / "first").exists()


def test_run_whose_weight_moments_overflow_writes_nothing(tmp_path):
    # at lr 1e300 the first step leaves finite weights whose exp(log_var)
    # overflows: such a checkpoint cannot be evaluated, so none is written,
    # and the check prints no numpy warning
    data = tmp_path / "s60.csv"
    rows = np.random.default_rng(1).normal(size=(60, 5))
    data.write_text("".join(",".join(f"{v:.8f}" for v in row) + "\n" for row in rows))
    res = run_cli("train", "--data", str(data), "--lr", "1e300", "--epochs", "2",
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("numerical failure:") and "after epoch 1" in res.stderr
    assert "Warning" not in res.stderr, res.stderr
    assert not (tmp_path / "o").exists()


def test_feature_constant_on_the_train_rows_is_dropped(tmp_path):
    # a column that is 7.77 on every train row of split 0 and 7.78 on one
    # test row: its float std over the train rows is 1.8e-15, not 0, and
    # dividing by it put that test row at 1e12 and test_rmse at 1e11
    from bedl.data import SplitPlan, make_splits

    r = np.random.default_rng(4)
    x = r.normal(size=(80, 2))
    y = np.sin(x[:, 0]) + 0.5 * x[:, 1] + 0.05 * r.normal(size=80)
    const = np.full(80, 7.77)
    const[make_splits(80, SplitPlan(0))[1][0]] = 7.78
    data = tmp_path / "const.csv"
    data.write_text("".join(f"{a:.8f},{c:.2f},{b:.8f},{t:.8f}\n"
                            for a, c, b, t in zip(x[:, 0], const, x[:, 1], y)))
    out = tmp_path / "run"
    res = run_cli("train", "--data", str(data), "--epochs", "5", "--hidden", "8", "--out", str(out))
    assert res.returncode == 0, res.stderr
    ev = run_cli("eval", "--data", str(data), "--checkpoint", str(out / "checkpoint.bin"))
    assert ev.returncode == 0, ev.stderr
    assert "dropping 1 zero-variance train columns [1]" in ev.stderr
    values = dict(zip(*(line.split(",") for line in ev.stdout.splitlines())))
    assert float(values["test_rmse"]) < 10.0, values


def test_classification_eval_reads_csv_columns_by_position(tmp_path):
    # the train file's feature 0 and the test file's feature 3 are constant:
    # a load that dropped constant columns read the test file's features
    # 0, 1, 2 into the inputs that trained on features 1, 2, 3
    from bedl.data import Dataset
    from bedl.train import evaluate, load_checkpoint

    r = np.random.default_rng(23)
    labels = r.integers(0, 3, size=500)
    x = r.normal(size=(500, 4)) + np.eye(3, 4, 1)[labels] * 2.0
    x[:400, 0], x[400:, 3] = 0.0, 0.0
    x[401, 0] = 1.5
    for name, rows in (("train", slice(0, 400)), ("test", slice(400, 500))):
        (tmp_path / f"{name}.csv").write_text("".join(
            ",".join(f"{v:.6f}" for v in row) + f",{c}\n" for row, c in zip(x[rows], labels[rows])))
    out = tmp_path / "run"
    res = run_cli("train", "--data", str(tmp_path / "train.csv"), "--task", "classification",
                  "--n-classes", "3", "--epochs", "3", "--hidden", "8", "--out", str(out))
    assert res.returncode == 0, res.stderr
    ev = run_cli("eval", "--data", str(tmp_path / "test.csv"),
                 "--checkpoint", str(out / "checkpoint.bin"))
    assert ev.returncode == 0, ev.stderr
    table = np.loadtxt(tmp_path / "test.csv", delimiter=",")
    ckpt = load_checkpoint(out / "checkpoint.bin")
    expected = evaluate(ckpt, Dataset(table[:, :-1], table[:, -1].astype(np.int64)),
                        ckpt.config)
    assert ev.stdout == expected.csv()


def test_feature_too_large_to_standardize_is_data_error(tmp_path):
    # the square inside the std of a column of N(0, 1) * 1e200 overflows;
    # that column was zeroed with a numpy warning and the run went on
    r = np.random.default_rng(6)
    rows = r.normal(size=(80, 4))
    rows[:, 0] *= 1e200
    data = tmp_path / "huge.csv"
    data.write_text("".join(",".join(f"{v:.8g}" for v in row) + "\n" for row in rows))
    res = run_cli("train", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "o"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("data error: feature columns [0] are too large"), res.stderr
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()



@pytest.mark.parametrize("task", ["regression", "classification"])
def test_feature_too_large_for_the_first_layer_is_data_error(tmp_path, task):
    # a value whose square overflows reached the first layer's h * h: numpy
    # warned, and the layer's non-finite check made it a numerical failure
    # (exit 3); a classification CSV is not standardized, and a regression
    # test row is scaled by the train rows' std, so neither refused it
    from bedl.data import SplitPlan, make_splits

    r = np.random.default_rng(9)
    rows = r.normal(size=(80, 4))
    if task == "regression":
        rows[make_splits(80, SplitPlan(0))[1][0], 0] = 1e300
    else:
        rows[:, 0] *= 1e200
        rows[:, -1] = r.integers(0, 2, size=80)
    data = tmp_path / "huge.csv"
    data.write_text("".join(",".join(f"{v:.8g}" for v in row) + "\n" for row in rows))
    out = tmp_path / "o"
    res = run_cli("train", "--data", str(data), "--task", task, "--n-classes", "2",
                  "--epochs", "1", "--hidden", "4", "--out", str(out))
    if task == "regression":
        assert res.returncode == 0, res.stderr
        res = run_cli("eval", "--data", str(data), "--checkpoint", str(out / "checkpoint.bin"))
    else:
        assert not out.exists()
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(
        "data error: feature columns [0] are too large for the first layer"), res.stderr
    assert "Warning" not in res.stderr and "Traceback" not in res.stderr

def test_version_1_checkpoint_is_data_error(csv_file, tmp_path, monkeypatch, capsys):
    # the version 1 header had task and standardize keys and no config;
    # such a file is refused by name, not scored under guessed settings
    import struct

    from bedl import cli

    header = json.dumps({"version": 1, "task": "regression", "specs": [], "arrays": [],
                         "standardize": None}).encode()
    old = tmp_path / "v1.bin"
    old.write_bytes(b"BEDLCKP1" + struct.pack("<I", len(header)) + header)
    monkeypatch.setattr(sys, "argv", ["bedl", "eval", "--data", str(csv_file),
                                      "--checkpoint", str(old)])
    with pytest.raises(SystemExit) as info:
        cli.main()
    err = capsys.readouterr().err
    assert info.value.code == 2 and err.startswith("data error:") and "version 1" in err, err
    assert "Traceback" not in err


def test_eval_on_data_of_another_width_is_data_error(csv_file, trained_checkpoint, tmp_path):
    wide = tmp_path / "wide.csv"
    rows = csv_file.read_text().splitlines()
    wide.write_text("\n".join(f"{r.split(',', 1)[0]},{r}" for r in rows) + "\n")
    res = run_cli("eval", "--data", str(wide), "--checkpoint", str(trained_checkpoint))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("data error:") and "Traceback" not in res.stderr


def test_numerical_failure_exit_code(csv_file, tmp_path):
    res = run_cli(
        "train", "--data", str(csv_file), "--lr", "1e30", "--epochs", "3",
        "--batch", "16", "--out", str(tmp_path / "o"),
    )
    assert res.returncode == 3
    assert "numerical failure" in res.stderr


def test_diverged_train_prints_one_line(csv_file, tmp_path):
    # the op that meets the overflow says so; numpy's own warnings and a
    # second "numerical failure" prefix only repeated it
    res = run_cli("train", "--data", str(csv_file), "--lr", "1e30", "--epochs", "3",
                  "--batch", "16", "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("numerical failure: at epoch 1"), \
        res.stderr
    assert "RuntimeWarning" not in res.stderr and "Traceback" not in res.stderr


def test_splits_subcommand():
    res = run_cli("splits", "--n", "20", "--splits", "2", "--seed", "5")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "split,role,index"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 40  # 2 splits x 20 points
    split0 = [r for r in rows if r[0] == "0"]
    assert sum(1 for r in split0 if r[1] == "train") == 18
    assert sorted(int(r[2]) for r in split0) == list(range(20))


def test_verify_subcommand_agrees_with_oracle():
    res = run_cli("verify", "--n-samples", "20000", "--n-architectures", "2")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "case,quantity,analytic,oracle,oracle_se"
    for ln in lines[1:]:
        _, qty, analytic, oracle, se = ln.split(",")
        analytic, oracle, se = float(analytic), float(oracle), float(se)
        if qty.startswith("log_marginal"):
            # closed form vs MC: approximation gap, not sampling noise;
            # just demand the diagnostic is in the right ballpark
            assert abs(analytic - oracle) < 0.5, ln
        else:
            slack = 6 * se + (0.02 * abs(oracle) if qty.startswith("var") else 0.0)
            assert abs(analytic - oracle) < slack, ln


@pytest.fixture(scope="module")
def idx_run(tmp_path_factory):
    """Synthetic IDX pairs, bright-vs-dark images with noise images as the
    OOD set, and a 2-class checkpoint trained on them."""
    import struct

    def write_idx(path, magic, dims, payload):
        head = struct.pack(">I", magic) + b"".join(struct.pack(">I", d) for d in dims)
        path.write_bytes(head + payload)

    tmp_path = tmp_path_factory.mktemp("idx")
    rng = np.random.default_rng(0)
    n = 60
    labels = rng.integers(0, 2, size=n).astype(np.uint8)
    imgs = np.where(labels[:, None, None] == 1, 200, 30).astype(np.uint8)
    imgs = imgs + rng.integers(0, 20, size=(n, 6, 6), dtype=np.uint8)
    ood = rng.integers(0, 256, size=(n, 6, 6), dtype=np.uint8)

    write_idx(tmp_path / "tr-img.idx", 0x803, (n, 6, 6), imgs.tobytes())
    write_idx(tmp_path / "tr-lab.idx", 0x801, (n,), labels.tobytes())
    write_idx(tmp_path / "ood-img.idx", 0x803, (n, 6, 6), ood.tobytes())
    write_idx(tmp_path / "ood-lab.idx", 0x801, (n,), np.zeros(n, np.uint8).tobytes())
    write_idx(tmp_path / "small-img.idx", 0x803, (n, 5, 5), ood[:, :5, :5].tobytes())

    out = tmp_path / "run"
    res = run_cli(
        "train", "--images", str(tmp_path / "tr-img.idx"), "--labels", str(tmp_path / "tr-lab.idx"),
        "--task", "classification", "--n-classes", "2", "--epochs", "30",
        "--batch", "16", "--hidden", "8", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    return tmp_path, out / "checkpoint.bin"


def _csv_record(stdout):
    head, row = stdout.strip().splitlines()
    return dict(zip(head.split(","), map(float, row.split(","))))


def test_ood_eval_subcommand(idx_run):
    tmp_path, ckpt = idx_run
    res = run_cli(
        "ood-eval", "--checkpoint", str(ckpt),
        "--in-images", str(tmp_path / "tr-img.idx"), "--in-labels", str(tmp_path / "tr-lab.idx"),
        "--ood-images", str(tmp_path / "ood-img.idx"), "--ood-labels", str(tmp_path / "ood-lab.idx"),
    )
    assert res.returncode == 0, res.stderr
    record = _csv_record(res.stdout)
    assert {"in_test_error_pct", "in_ecdf_auc", "in_epistemic_mean", "in_aleatoric_mean",
            "ood_ecdf_auc", "ood_mean_entropy"} <= set(record)
    assert record["in_test_error_pct"] < 50.0
    # the ECDF-AUC is taken over [0, log C] for the checkpoint's 2 classes
    assert 0.0 <= record["in_ecdf_auc"] <= np.log(2) and 0.0 <= record["ood_ecdf_auc"] <= np.log(2)

    # OOD images of another size than the checkpoint's input are a data
    # error, and the removed --eval-samples flag a usage error
    for ood_images, extra, code, prefix in (("small-img.idx", [], 2, "data error:"),
                                            ("ood-img.idx", ["--eval-samples", "100"], 1,
                                             "error:")):
        res = run_cli("ood-eval", "--checkpoint", str(ckpt),
                      *(a for flag, name in (("--in-images", "tr-img.idx"),
                                             ("--in-labels", "tr-lab.idx"),
                                             ("--ood-images", ood_images),
                                             ("--ood-labels", "ood-lab.idx"))
                        for a in (flag, str(tmp_path / name))),
                      *extra)
        assert res.returncode == code, res.stderr
        assert res.stderr.startswith(prefix) and "Traceback" not in res.stderr


@pytest.mark.parametrize("cmd", ["train", "eval"])
def test_idx_files_under_the_regression_task_are_a_usage_error(idx_run, trained_checkpoint,
                                                               tmp_path, cmd):
    # IDX files are classification data: train without --task took the
    # default regression task, and eval the regression checkpoint's, and
    # both exited 2 in standardize; now the task is named before any file
    # is read, and train writes nothing
    tmp, _ = idx_run
    out = tmp_path / "o"
    extra = (["--epochs", "1", "--out", str(out)] if cmd == "train"
             else ["--checkpoint", str(trained_checkpoint)])
    res = run_cli(cmd, "--images", str(tmp / "tr-img.idx"), "--labels", str(tmp / "tr-lab.idx"),
                  *extra)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error:") and "'regression'" in res.stderr, res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_eval_reports_the_epistemic_and_aleatoric_parts(idx_run):
    # each a mean over points and classes of the closed-form decomposition;
    # the epistemic part is at most the total predictive variance
    tmp_path, ckpt = idx_run
    ev = run_cli("eval", "--checkpoint", str(ckpt), "--images", str(tmp_path / "tr-img.idx"),
                 "--labels", str(tmp_path / "tr-lab.idx"))
    assert ev.returncode == 0, ev.stderr
    record = _csv_record(ev.stdout)
    assert 0.0 <= record["epistemic_mean"] <= record["epistemic_mean"] + record["aleatoric_mean"]
    assert record["epistemic_mean"] + record["aleatoric_mean"] <= 0.25, record
