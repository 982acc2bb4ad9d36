import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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

from oracles import write_table_csv_reference


def test_dataset_validates_shapes_and_values():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.nan]]), np.array([[0.0]]))


@pytest.mark.parametrize(
    "x, t",
    [(np.zeros((2, 1, 1)), np.zeros((2, 1))), (np.zeros((2, 1)), np.zeros((2, 1, 1)))],
    ids=["3-D inputs", "3-D targets"],
)
def test_dataset_rejects_arrays_of_more_than_two_dimensions(x, t):
    with pytest.raises(ValueError, match="2-D"):
        Dataset(x, t)


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
    table = np.array([[0.1, -2.0], [3.5e-17, 7.0]])
    write_table_csv(path, ["a", "b"], table)
    header, loaded = read_table_csv(path)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(loaded, table)


EDGE_FLOATS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.7e308, -1.7e308]


def _cells(finite):
    return st.one_of(
        st.sampled_from([v for v in EDGE_FLOATS if np.isfinite(v) or not finite]),
        st.integers(-(2**53), 2**53).map(float),  # whole numbers
        st.floats(allow_nan=not finite, allow_infinity=not finite, width=64),
    )


CELLS, FINITE_CELLS = _cells(finite=False), _cells(finite=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(with_split=st.booleans(), data=st.data())
def test_every_row_form_writes_the_bytes_of_the_reference_writer(with_split, data):
    # a float array through write_table_csv, and a dataset's rows ending in
    # their split name through write_splits_csv, must both match the writer
    # that sent every row through csv.writer; a Dataset holds finite values only
    shape = st.tuples(st.integers(0, 6), st.integers(2 if with_split else 1, 5))
    table = data.draw(arrays(np.float64, shape, elements=FINITE_CELLS if with_split else CELLS))
    header = [f"c{j}" for j in range(table.shape[1])]
    rows = table.tolist()
    if with_split:
        n_x = data.draw(st.integers(1, table.shape[1] - 1))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(table)), min_size=2, max_size=2)))
        pieces = dict(zip(SPLITS, np.split(table, cuts)))
        header = [f"x_{i}" for i in range(n_x)]
        header += [f"t_{j}" for j in range(table.shape[1] - n_x)] + ["split"]
        rows = [[*row, name] for name, piece in pieces.items() for row in piece.tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        expected_path, path = Path(tmp) / "reference.csv", Path(tmp) / "table.csv"
        write_table_csv_reference(expected_path, header, rows)
        if with_split:
            write_splits_csv(path, {k: Dataset(p[:, :n_x], p[:, n_x:]) for k, p in pieces.items()})
        else:
            write_table_csv(path, header, table)
        assert path.read_bytes() == expected_path.read_bytes()
        # and each file reads back to the values written, NaN as NaN, and
        # to shape (0, n) when the table has no rows
        if with_split:
            loaded = read_splits_csv(path)
            assert list(loaded) == [k for k, p in pieces.items() if len(p)]
            for name, got in loaded.items():
                np.testing.assert_array_equal(got.x, pieces[name][:, :n_x], strict=True)
                np.testing.assert_array_equal(got.t, pieces[name][:, n_x:], strict=True)
        else:
            got_header, got = read_table_csv(path)
            assert got_header == header
            np.testing.assert_array_equal(got, table, strict=True)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "table file is empty: .*bad.csv"),
        ("a,b\r\n", None),
        ("a,b\r\n1.0\r\n", "table line 2 has 1 cells, the header has 2"),
        ("a,b\r\n1.0,2.0,3.0\r\n", "table line 2 has 3 cells, the header has 2"),
        ("a,b\r\n1.0,2.0\r\n3.0,x\r\n", "table line 3 has 'x' in column b"),
        ("a,b\r\n1.0,2.0\r\n3.0\r\n4.0,5.0,6.0\r\n", "table line 3 has 1 cells"),
    ],
    ids=["empty", "header only", "short row", "long row", "non-float cell", "ragged"],
)
def test_read_table_csv_names_the_line_of_a_malformed_file(tmp_path, text, message):
    # the checks read_splits_csv makes, through the same reader; a header
    # alone is a table of no rows with the header's width
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    if message is None:
        header, rows = read_table_csv(path)
        assert header == ["a", "b"] and rows.shape == (0, 2)
    else:
        with pytest.raises(ValueError, match=message):
            read_table_csv(path)
