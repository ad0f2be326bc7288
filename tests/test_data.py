import gzip
import struct

import numpy as np
import pytest

from bedl.data import (
    DataError,
    SplitPlan,
    load_csv,
    load_idx,
    make_splits,
    one_hot,
    standardize,
)

rng = np.random.default_rng(51)


# -- CSV ---------------------------------------------------------------------


def test_load_csv_with_and_without_header(tmp_path):
    body = "1.0,2.0,3.5\n4.0,5.0,6.5\n"
    plain = tmp_path / "plain.csv"
    plain.write_text(body)
    headed = tmp_path / "headed.csv"
    headed.write_text("a,b,target\n" + body)
    for path in (plain, headed):
        ds = load_csv(path)
        np.testing.assert_allclose(ds.features, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_allclose(ds.targets, [3.5, 6.5])


def test_load_csv_target_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,3\n4,5,6\n")
    ds = load_csv(p, target_column=0)
    np.testing.assert_allclose(ds.targets, [1.0, 4.0])
    np.testing.assert_allclose(ds.features, [[2.0, 3.0], [5.0, 6.0]])


def test_load_csv_bad_cell_reports_position(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"row 1, column 1.*oops"):
        load_csv(p)


def test_load_csv_ragged_and_empty(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(DataError, match="ragged"):
        load_csv(p)
    q = tmp_path / "e.csv"
    q.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(q)
    q.write_text("a,b,target\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(q)


def test_load_csv_class_labels_must_be_integers(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("0.5,0.0\n1.5,1.0\n2.5,2.0\n")
    np.testing.assert_array_equal(load_csv(p, task="classification").targets, [0, 1, 2])
    p.write_text("0.5,0.0\n1.5,1.7\n2.5,2.9\n")
    with pytest.raises(DataError, match="label 1.7 is not an integer"):
        load_csv(p, task="classification")


def test_load_csv_nonfinite_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,inf\n2,3\n")
    with pytest.raises(DataError, match="non-finite"):
        load_csv(p)


def test_load_csv_drops_constant_columns(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,7,2\n3,7,4\n5,7,6\n")
    with pytest.warns(UserWarning, match=r"constant feature columns \[1\]"):
        ds = load_csv(p)
    np.testing.assert_array_equal(ds.features, [[1.0], [3.0], [5.0]])
    np.testing.assert_array_equal(ds.targets, [2.0, 4.0, 6.0])
    assert ds.target_column == 2
    # constancy is tested exactly: the float std of 455 values of 7.77 is 2.7e-15
    p.write_text("".join(f"{i},7.77,{i % 5}\n" for i in range(455)))
    assert np.full(455, 7.77).std() > 0.0
    with pytest.warns(UserWarning, match=r"constant feature columns \[1\]"):
        assert load_csv(p).features.shape == (455, 1)


# -- IDX ---------------------------------------------------------------------


def _idx_bytes(magic, dims, payload):
    head = struct.pack(">I", magic) + b"".join(struct.pack(">I", d) for d in dims)
    return head + payload


def _write_pair(tmp_path, n=4, gz=False):
    pixels = rng.integers(0, 256, size=(n, 5, 5), dtype=np.uint8)
    labels = rng.integers(0, 3, size=n, dtype=np.uint8)
    img = _idx_bytes(0x00000803, (n, 5, 5), pixels.tobytes())
    lab = _idx_bytes(0x00000801, (n,), labels.tobytes())
    if gz:
        img, lab = gzip.compress(img), gzip.compress(lab)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    return ip, lp, pixels, labels


@pytest.mark.parametrize("gz", [False, True])
def test_load_idx_roundtrip(tmp_path, gz):
    ip, lp, pixels, labels = _write_pair(tmp_path, gz=gz)
    ds = load_idx(ip, lp)
    assert ds.features.shape == (4, 5, 5, 1)
    np.testing.assert_allclose(ds.features[..., 0], pixels / 255.0)
    np.testing.assert_array_equal(ds.targets, labels)
    assert ds.task == "classification"


def test_load_idx_bad_magic_and_truncation(tmp_path):
    ip, lp, _, _ = _write_pair(tmp_path)
    bad = tmp_path / "bad.idx"
    bad.write_bytes(_idx_bytes(0x12345678, (4, 5, 5), b"\x00" * 100))
    with pytest.raises(DataError, match="magic"):
        load_idx(bad, lp)
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(DataError, match="size mismatch"):
        load_idx(trunc, lp)


def test_load_idx_count_mismatch(tmp_path):
    ip, _, _, _ = _write_pair(tmp_path, n=4)
    lp = tmp_path / "short.idx"
    lp.write_bytes(_idx_bytes(0x00000801, (3,), bytes(3)))
    with pytest.raises(DataError, match="count mismatch"):
        load_idx(ip, lp)


# -- splits ------------------------------------------------------------------


def test_make_splits_partition_and_determinism():
    tr, te = make_splits(100, SplitPlan(3, seed=9))
    assert len(tr) == 90 and len(te) == 10
    assert sorted(np.concatenate([tr, te])) == list(range(100))
    tr2, te2 = make_splits(100, SplitPlan(3, seed=9))
    np.testing.assert_array_equal(tr, tr2)
    tr3, _ = make_splits(100, SplitPlan(4, seed=9))
    assert not np.array_equal(tr, tr3)


def test_make_splits_ceil_and_validation():
    tr, te = make_splits(15, SplitPlan(0))
    assert len(tr) == 14 and len(te) == 1  # ceil(0.9 * 15)
    with pytest.raises(DataError):
        make_splits(5, SplitPlan(0))


# -- standardization ---------------------------------------------------------


def test_standardize_uses_train_stats_only():
    x = rng.normal(5.0, 3.0, size=(50, 3))
    y = rng.normal(-2.0, 4.0, size=50)
    from bedl.data import Dataset

    ds = Dataset(x, y, task="regression")
    tr = np.arange(40)
    out, rec = standardize(ds, tr)
    np.testing.assert_allclose(out.features[tr].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.features[tr].std(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.targets[tr].mean(), 0.0, atol=1e-12)
    # test rows use the same transform, so they are generally not centered
    assert abs(out.features[40:].mean()) > 1e-6
    np.testing.assert_array_equal(out.targets, (y - y[tr].mean()) / y[tr].std())
    np.testing.assert_allclose(rec.target_std, y[tr].std(), rtol=1e-12)


def test_standardize_drops_zero_variance_columns():
    from bedl.data import Dataset

    x = rng.normal(size=(20, 3))
    x[:10, 1] = 2.0  # constant on the train half
    x[10:, 1] = 3.0
    ds = Dataset(x, rng.normal(size=20), task="regression")
    with pytest.warns(UserWarning, match="dropping 1 zero-variance train columns"):
        out, _ = standardize(ds, np.arange(10))
    mean, std = (stat(x[:10], axis=0)[[0, 2]] for stat in (np.mean, np.std))
    np.testing.assert_array_equal(out.features, (x[:, [0, 2]] - mean) / std)
    # a column of 7.77 on 455 train rows has a float std of 2.7e-15, not 0:
    # it is dropped all the same, so the 7.78 of a test row is not put at 1e12
    x = np.column_stack([rng.normal(size=456), np.full(456, 7.77)])
    x[455, 1] = 7.78
    ds = Dataset(x, rng.normal(size=456), task="regression")
    with pytest.warns(UserWarning, match="dropping 1 zero-variance train columns"):
        out, _ = standardize(ds, np.arange(455))
    assert out.features.shape == (456, 1) and np.abs(out.features).max() < 10.0


def test_standardize_constant_target_rejected():
    from bedl.data import Dataset

    for y in (np.ones(10), np.full(455, 7.77)):  # the float std of the second is 2.7e-15
        ds = Dataset(rng.normal(size=(len(y), 2)), y, task="regression")
        with pytest.raises(DataError, match="constant regression target"):
            standardize(ds, np.arange(len(y)))


def test_one_hot():
    out = one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])
    with pytest.raises(DataError):
        one_hot(np.array([3]), 3)
