import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lastlayer.data import read_table_csv
from lastlayer.experiment import (
    ExperimentConfig,
    _write_predictions,
    config_from_dict,
    config_hash,
    toy_feature_demo,
)


@pytest.fixture(scope="module")
def toy_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    summary = toy_feature_demo(0, out)
    return out, summary


class TestToyBundle:
    def test_feature_file_has_exactly_two_feature_columns(self, toy_bundle):
        out, _ = toy_bundle
        header, rows = read_table_csv(out / "toy_features.csv")
        assert [c for c in header if c.startswith("phi_")] == ["phi_0", "phi_1"]
        assert int(rows[:, header.index("is_train")].sum()) == 3

    def test_cost_at_training_feature_rows_at_most_one(self, toy_bundle):
        out, _ = toy_bundle
        header, rows = read_table_csv(out / "toy_affine_grid.csv")
        # the three training feature rows are appended after the grid
        train_costs = rows[-3:, header.index("cost")]
        assert (train_costs <= 1.0 + 1e-9).all()

    def test_sweep_nlml_minimized_at_trained_alpha(self, toy_bundle):
        out, _ = toy_bundle
        header, rows = read_table_csv(out / "toy_alpha_sweep.csv")
        nlml = rows[:, header.index("nlml_train")]
        assert int(nlml.argmin()) == 0  # the grid starts at the trained alpha

    def test_alpha_ordering_and_band_files(self, toy_bundle):
        out, summary = toy_bundle
        assert summary["alpha_max"] >= summary["alpha_star"]
        for tag in ("alpha_star", "alpha_max", "alpha_large"):
            header, rows = read_table_csv(out / f"toy_predictions_{tag}.csv")
            assert header == ["x_0", "mean_0", "sd_y_0", "sd_t_0"]
            assert rows.shape[0] == 281

    def test_tuned_bands_are_wider_offrange(self, toy_bundle):
        out, _ = toy_bundle
        header, star = read_table_csv(out / "toy_predictions_alpha_star.csv")
        _, tuned = read_table_csv(out / "toy_predictions_alpha_max.csv")
        sd = header.index("sd_y_0")
        edge = slice(0, 20)  # far left of the query grid, outside training
        assert tuned[edge, sd].mean() > star[edge, sd].mean()


class TestConfig:
    def test_round_trip_from_dict(self):
        raw = {
            "methods": ["bll"],
            "seed": 9,
            "hidden": [4, 4],
            "train": {"max_epochs": 50, "patience": 10},
            "alpha_search": {"max_evals": 12},
        }
        config = config_from_dict(raw)
        assert config.methods == ("bll",)
        assert config.train.max_epochs == 50
        assert config.alpha_search.max_evals == 12

    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=())

    def test_readme_config_block_is_the_default_run(self):
        # a stale or retired key in README's example fails to load here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```json\n")[1:]
        assert len(blocks) == 1
        raw = json.loads(blocks[0].split("```")[0])
        assert config_from_dict(raw) == ExperimentConfig()

    def test_hash_ignores_out_dir_but_not_seed(self):
        a = ExperimentConfig(seed=1, out_dir="a")
        b = ExperimentConfig(seed=1, out_dir="b")
        c = ExperimentConfig(seed=2, out_dir="a")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_hash_follows_dataset_bytes_not_path(self, tmp_path):
        first, second = tmp_path / "a" / "data.csv", tmp_path / "b" / "data.csv"
        for path in (first, second):
            path.parent.mkdir()
            path.write_bytes(b"split,x_0,t_0\ntrain,0.5,1.0\n")
        one = config_hash(ExperimentConfig(dataset_path=str(first)))
        assert config_hash(ExperimentConfig(dataset_path=str(second))) == one
        second.write_bytes(b"split,x_0,t_0\ntrain,0.5,1.1\n")
        assert config_hash(ExperimentConfig(dataset_path=str(second))) != one

    def test_train_config_threads_seed(self):
        config = ExperimentConfig(seed=5)
        assert config.train_config().seed == 5

    def test_partial_train_block_keeps_the_run_defaults(self):
        # the README example names three keys; the rest keep the run's values
        raw = {"train": {"max_epochs": 20000, "patience": 1000, "lr": 0.002}}
        assert config_from_dict(raw).train == ExperimentConfig().train


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    data=st.data(),
    m=st.integers(1, 4),
    n_x=st.integers(1, 3),
    n_y=st.integers(1, 3),
)
def test_prediction_csv_round_trips_header_and_exact_doubles(data, m, n_x, n_y):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    variance = st.floats(min_value=0.0, allow_infinity=False)
    x = data.draw(arrays(float, (m, n_x), elements=finite))
    mean = data.draw(arrays(float, (m, n_y), elements=finite))
    var_y = data.draw(arrays(float, (m, n_y), elements=variance))
    var_t = data.draw(arrays(float, (m, n_y), elements=variance))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.csv"
        _write_predictions(path, x, mean, var_y, var_t)
        header, rows = read_table_csv(path)
    assert header == (
        [f"x_{i}" for i in range(n_x)]
        + [f"mean_{j}" for j in range(n_y)]
        + [f"sd_y_{j}" for j in range(n_y)]
        + [f"sd_t_{j}" for j in range(n_y)]
    )
    expected = np.array(
        [[*x[i], *mean[i], *np.sqrt(var_y[i]), *np.sqrt(var_t[i])] for i in range(m)]
    )
    assert rows.tobytes() == expected.tobytes()  # bit for bit, signed zeros included
