import numpy as np
import pytest

from lastlayer.data import (
    SPLITS,
    Dataset,
    fit_standardizer,
    read_splits_csv,
    read_table_csv,
    split_train_val,
    write_splits_csv,
    write_table_csv,
)


def test_dataset_validates_shapes_and_values():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([[0.0]]))


def test_dataset_vector_targets_promoted():
    data = Dataset(np.zeros((3, 2)), np.array([1.0, 2.0, 3.0]))
    assert data.t.shape == (3, 1)
    assert data.n_x == 2 and data.n_y == 1 and data.m == 3


def test_standardizer_round_trip():
    rng = np.random.default_rng(0)
    values = rng.normal(3.0, 2.5, size=(50, 2))
    scaler = fit_standardizer(values)
    transformed = scaler.transform(values)
    np.testing.assert_allclose(transformed.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(transformed.std(axis=0), 1.0, rtol=1e-12)
    np.testing.assert_allclose(scaler.inverse(transformed), values, rtol=1e-12)


def test_standardizer_constant_column_safe():
    scaler = fit_standardizer(np.ones((5, 1)))
    assert scaler.scale[0] == 1.0
    np.testing.assert_array_equal(scaler.transform(np.ones((2, 1))), np.zeros((2, 1)))


def test_split_is_deterministic_and_disjoint():
    rng = np.random.default_rng(1)
    data = Dataset(rng.normal(size=(20, 1)), rng.normal(size=(20, 1)))
    a_fit, a_val = split_train_val(data, 0.25, seed=3)
    b_fit, b_val = split_train_val(data, 0.25, seed=3)
    np.testing.assert_array_equal(a_fit.x, b_fit.x)
    np.testing.assert_array_equal(a_val.x, b_val.x)
    assert a_val.m == 5 and a_fit.m == 15
    merged = np.sort(np.concatenate([a_fit.x, a_val.x]), axis=0)
    np.testing.assert_array_equal(merged, np.sort(data.x, axis=0))


def test_split_fraction_validation():
    data = Dataset(np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        split_train_val(data, 0.0, seed=0)


def test_splits_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    splits = {
        "train": Dataset(rng.normal(size=(6, 2)), rng.normal(size=(6, 2))),
        "test": Dataset(rng.normal(size=(3, 2)), rng.normal(size=(3, 2))),
    }
    path = tmp_path / "data.csv"
    write_splits_csv(path, splits)
    loaded = read_splits_csv(path)
    assert set(loaded) == {"train", "test"}
    for name in splits:
        np.testing.assert_array_equal(loaded[name].x, splits[name].x)
        np.testing.assert_array_equal(loaded[name].t, splits[name].t)


def test_read_splits_csv_returns_splits_in_splits_order(tmp_path):
    path = tmp_path / "data.csv"
    order = ("test", "val", "train", "test", "val", "train")
    path.write_text("x_0,t_0,split\n" + "".join(f"{i}.0,0.0,{s}\n" for i, s in enumerate(order)))
    loaded = read_splits_csv(path)
    assert tuple(loaded) == SPLITS
    for name in SPLITS:
        expected = [float(i) for i, s in enumerate(order) if s == name]
        np.testing.assert_array_equal(loaded[name].x[:, 0], expected)


def test_splits_csv_header_schema(tmp_path):
    splits = {"train": Dataset(np.zeros((1, 2)), np.zeros((1, 3)))}
    path = tmp_path / "data.csv"
    write_splits_csv(path, splits)
    header = path.read_text().splitlines()[0]
    assert header == "x_0,x_1,t_0,t_1,t_2,split"


def test_splits_csv_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    splits = {"train": Dataset(rng.normal(size=(5, 1)), rng.normal(size=(5, 1)))}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_splits_csv(p1, splits)
    write_splits_csv(p2, splits)
    assert p1.read_bytes() == p2.read_bytes()


def test_table_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[0.1, -2.0], [3.5e-17, 7.0]]
    write_table_csv(path, ["a", "b"], rows)
    header, loaded = read_table_csv(path)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(loaded, np.array(rows))
