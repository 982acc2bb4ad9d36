import json
import math
import re
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
    run_experiment,
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

    def test_readme_quick_start_runs_as_written(self):
        # the library example keeps up with the API, and tuning alpha on its
        # validation set cannot lower that set's LPD
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```python\n")[1:]
        assert len(blocks) == 1
        names = {}
        exec(blocks[0].split("```")[0], names)
        lpd, val = names["lpd"], names["val"]
        trained, tuned = lpd(names["model"], val), lpd(names["tuned"], val)
        assert math.isfinite(trained) and tuned >= trained

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


def _small_run(out_dir, methods):
    config = config_from_dict(
        {
            "methods": methods,
            "seed": 3,
            "out_dir": str(out_dir),
            "hidden": [6],
            "train": {"max_epochs": 400, "patience": 200, "lr": 0.005},
            "alpha_search": {"max_evals": 20},
            "sweep_points": 5,
        }
    )
    run_experiment(config)
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def test_method_order_and_repeats_do_not_change_a_run(tmp_path):
    # every run takes bll, blr, vi in that order, so the order named is not
    # part of the config, nor of its hash
    in_order = _small_run(tmp_path / "in_order", ["bll", "vi"])
    assert {"metrics.json", "alpha_sweep_bll.csv", "components_vi.csv"} <= set(in_order)
    assert _small_run(tmp_path / "reversed", ["vi", "bll"]) == in_order
    assert config_from_dict({"methods": ["bll", "vi", "vi"]}).methods == ("bll", "vi")


def test_train_seed_equal_to_the_run_seed_does_not_change_the_hash():
    # the train block's seed is checked against the run seed, then not stored;
    # ec35d7e82b8d is the hash these configs had before the check existed
    named = config_from_dict({"seed": 3, "train": {"seed": 3}})
    assert named == config_from_dict({"seed": 3})
    assert config_hash(named) == "ec35d7e82b8d"


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


def test_a_run_prints_each_fit_and_where_its_time_went(tmp_path, capsys):
    # a budget too short for patience to stop any fit: every one runs out of epochs
    out = tmp_path / "out"
    config = config_from_dict(
        {
            "methods": ["bll", "blr", "vi"],
            "seed": 3,
            "hidden": [6],
            "train": {"max_epochs": 30, "patience": 29, "lr": 0.005},
            "alpha_search": {"max_evals": 10},
            "sweep_points": 3,
            "out_dir": str(out),
        }
    )
    _, code = run_experiment(config)
    assert code == 0
    fit = r"{} 30 epochs \(best \d+, stopped on max_epochs\)"
    times = r"; \d+\.\d\d s training, \d+\.\d\d s the rest"
    expected = [
        "bll: " + fit.format("bll") + times,
        "blr: " + fit.format("mse") + ", " + fit.format("blr") + times,
        "vi: " + fit.format("vi") + times,
    ]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(expected)
    for line, pattern in zip(lines, expected):
        assert re.fullmatch(pattern, line), line
    # the report goes to stdout only: out_dir holds the run's artifacts and nothing else
    lml = {
        f"{kind}_{m}_{tag}.csv"
        for m in ("bll", "blr")
        for kind in ("predictions", "curve")
        for tag in ("alpha_star", "alpha_max")
    }
    artifacts = lml | {"alpha_sweep_bll.csv", "alpha_sweep_blr.csv"}
    artifacts |= {"dataset.csv", "metrics.json", "predictions_vi.csv", "components_vi.csv"}
    assert {p.name for p in out.iterdir()} == artifacts
