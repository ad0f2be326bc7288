import json
import subprocess
import sys

import numpy as np
import pytest

BEDL = [sys.executable, "-m", "bedl.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        BEDL + list(args), capture_output=True, text=True, timeout=600, **kw
    )


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


def test_unknown_config_key_is_usage_error(csv_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epohcs": 3}))
    res = run_cli("train", "--data", str(csv_file), "--config", str(cfg),
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 1
    assert "unknown config keys" in res.stderr


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
    pytest.param([], {"init": {"log_var_mean": -8}}, 0, id="init-dict"),
    pytest.param([], {"init": {"log_var_men": -8}}, 1, id="init-unknown-key"),
    pytest.param([], {"hyper": {"a0": -1.0}}, 1, id="hyper-a0-negative"),
    pytest.param(["eval", "--beta", "-1"], None, 1, id="eval-beta-negative"),
])
def test_bad_settings_exit_1_before_any_work(csv_file, trained_checkpoint, tmp_path,
                                            args, config, code):
    # every setting is checked when the config is built: a bad one is a
    # usage error before training or scoring starts, never a traceback
    out = tmp_path / "run"
    if args[:1] == ["eval"]:
        cmd = ["eval", "--data", str(csv_file), "--checkpoint", str(trained_checkpoint)] + args[1:]
    else:
        cmd = ["train", "--data", str(csv_file), "--epochs", "1", "--out", str(out)] + args
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


def test_usage_error_exit_code():
    res = run_cli("train", "--no-such-flag")
    assert res.returncode == 1


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,banana\n")
    res = run_cli("train", "--data", str(bad), "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "data error" in res.stderr


def test_numerical_failure_exit_code(csv_file, tmp_path):
    res = run_cli(
        "train", "--data", str(csv_file), "--lr", "1e30", "--epochs", "3",
        "--batch", "16", "--out", str(tmp_path / "o"),
    )
    assert res.returncode == 3
    assert "numerical failure" in res.stderr


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


def test_ood_eval_subcommand(tmp_path):
    # synthetic IDX pairs: train on bright-vs-dark images, evaluate noise OOD
    import gzip
    import struct

    def write_idx(path, magic, dims, payload):
        head = struct.pack(">I", magic) + b"".join(struct.pack(">I", d) for d in dims)
        path.write_bytes(head + payload)

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

    out = tmp_path / "run"
    res = run_cli(
        "train", "--images", str(tmp_path / "tr-img.idx"), "--labels", str(tmp_path / "tr-lab.idx"),
        "--task", "classification", "--n-classes", "2", "--epochs", "30",
        "--batch", "16", "--hidden", "8", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    res = run_cli(
        "ood-eval", "--checkpoint", str(out / "checkpoint.bin"),
        "--in-images", str(tmp_path / "tr-img.idx"), "--in-labels", str(tmp_path / "tr-lab.idx"),
        "--ood-images", str(tmp_path / "ood-img.idx"), "--ood-labels", str(tmp_path / "ood-lab.idx"),
        "--n-classes", "2",
    )
    assert res.returncode == 0, res.stderr
    head, row = res.stdout.strip().splitlines()
    record = dict(zip(head.split(","), map(float, row.split(","))))
    assert {"in_test_error_pct", "in_ecdf_auc", "ood_ecdf_auc", "ood_mean_entropy"} <= set(record)
    assert record["in_test_error_pct"] < 50.0
