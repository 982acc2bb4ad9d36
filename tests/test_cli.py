import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lastlayer import cli
from lastlayer.data import SPLITS, read_splits_csv, read_table_csv
from lastlayer.experiment import config_from_dict


def _small_config(tmp_path, **overrides):
    config = {
        "methods": ["bll"],
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "hidden": [6],
        "train": {"max_epochs": 400, "patience": 200, "lr": 0.005, "init_log_sigma_e": 0.0},
        "alpha_search": {"max_evals": 20},
        "sweep_points": 5,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


def test_generate_writes_deterministic_dataset(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["generate", "--seed", "4", "--out", str(out1)]) == 0
    assert cli.main(["generate", "--seed", "4", "--out", str(out2)]) == 0
    b1 = (out1 / "dataset.csv").read_bytes()
    assert b1 == (out2 / "dataset.csv").read_bytes()
    splits = read_splits_csv(out1 / "dataset.csv")
    assert {"train", "val", "test"} <= set(splits)


def test_generate_console_script(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "lastlayer.cli", "generate", "--out", str(tmp_path), "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "dataset.csv").exists()


def test_run_emits_metrics_and_predictions(tmp_path):
    config_path, config = _small_config(tmp_path)
    assert cli.main(["run", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["provenance"]["seed"] == 3
    assert "bll.alpha_star" in metrics
    assert metrics["bll.alpha_max"] >= metrics["bll.alpha_star"]
    for name in ["dataset.csv", "predictions_bll_alpha_star.csv", "alpha_sweep_bll.csv"]:
        assert (out / name).exists()
    header, rows = read_table_csv(out / "alpha_sweep_bll.csv")
    assert header[:2] == ["log_alpha", "nlml_train"]
    assert rows.shape[0] == config["sweep_points"]


def test_report_prints_table(tmp_path, capsys):
    config_path, config = _small_config(tmp_path)
    cli.main(["run", "--config", str(config_path)])
    assert cli.main(["report", "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr().out
    assert "bll_alpha_star" in captured and "test_lpd" in captured


def test_metrics_lpd_recomputable_from_prediction_files(tmp_path):
    config_path, config = _small_config(tmp_path)
    cli.main(["run", "--config", str(config_path)])
    out = tmp_path / "out"
    metrics = json.loads((out / "metrics.json").read_text())
    splits = read_splits_csv(out / "dataset.csv")
    header, pred = read_table_csv(out / "predictions_bll_alpha_max.csv")
    mean = pred[:, [header.index("mean_0"), header.index("mean_1")]]
    sd_t = pred[:, [header.index("sd_t_0"), header.index("sd_t_1")]]
    targets = np.concatenate([splits[k].t for k in ("train", "val", "test")])
    logp = -0.5 * (math.log(2 * math.pi) + 2 * np.log(sd_t) + (targets - mean) ** 2 / sd_t**2)
    per_point = logp.sum(axis=1)
    edges = np.cumsum([0, splits["train"].m, splits["val"].m, splits["test"].m])
    for i, name in enumerate(("train", "val", "test")):
        seg = slice(edges[i], edges[i + 1])
        recomputed = float(per_point[seg].mean())
        assert recomputed == pytest.approx(metrics[f"bll_alpha_max.{name}_lpd"], abs=1e-9)
        mse = float(np.mean((targets[seg] - mean[seg]) ** 2))
        assert mse == pytest.approx(metrics[f"bll_alpha_max.{name}_mse"], rel=1e-12)


def test_vi_lpd_recomputable_from_component_file(tmp_path):
    from scipy.special import logsumexp

    config_path, _ = _small_config(tmp_path, methods=["vi"])
    assert cli.main(["run", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    metrics = json.loads((out / "metrics.json").read_text())
    splits = read_splits_csv(out / "dataset.csv")
    header, comp = read_table_csv(out / "components_vi.csv")
    n_y = 2
    n_comp = (len(header) - 1) // n_y
    means = comp[:, 1:].reshape(comp.shape[0], n_comp, n_y).transpose(1, 0, 2)
    noise_var = np.array([metrics[f"vi.noise_var_{j}"] for j in range(n_y)])
    targets = np.concatenate([splits[k].t for k in ("train", "val", "test")])
    logp = -0.5 * (
        math.log(2 * math.pi) + np.log(noise_var) + (targets - means) ** 2 / noise_var
    )
    per_point = logsumexp(logp.sum(axis=2), axis=0) - math.log(n_comp)
    edges = np.cumsum([0, splits["train"].m, splits["val"].m, splits["test"].m])
    for i, name in enumerate(("train", "val", "test")):
        recomputed = float(per_point[edges[i] : edges[i + 1]].mean())
        assert recomputed == pytest.approx(metrics[f"vi.{name}_lpd"], abs=1e-9)


def test_bll_only_run_never_touches_baselines(tmp_path, monkeypatch):
    import lastlayer.experiment as experiment

    def boom(*args, **kwargs):
        raise AssertionError("baseline path invoked")

    monkeypatch.setattr(experiment, "train_mse", boom)
    monkeypatch.setattr(experiment, "blr_fit", boom)
    monkeypatch.setattr(experiment, "vi_train", boom)
    config_path, _ = _small_config(tmp_path)
    assert cli.main(["run", "--config", str(config_path)]) == 0


def test_partial_method_failure_gives_exit_two(tmp_path, monkeypatch):
    import lastlayer.experiment as experiment

    def boom(*args, **kwargs):
        raise RuntimeError("vi exploded")

    monkeypatch.setattr(experiment, "vi_train", boom)
    config_path, _ = _small_config(tmp_path, methods=["bll", "vi"])
    assert cli.main(["run", "--config", str(config_path)]) == 2
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert "vi exploded" in metrics["errors.vi"]
    assert "bll.alpha_star" in metrics  # the other method still ran


def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path)]) == 1


def test_unknown_method_is_config_error(tmp_path):
    config_path, _ = _small_config(tmp_path, methods=["bll", "dropout"])
    assert cli.main(["run", "--config", str(config_path)]) == 1


def test_missing_dataset_path_is_config_error(tmp_path):
    config_path, _ = _small_config(tmp_path, dataset_path=str(tmp_path / "absent.csv"))
    assert cli.main(["run", "--config", str(config_path)]) == 1


def _run_on_dataset_text(tmp_path, name, text, capsys):
    dataset = tmp_path / name
    dataset.write_text(text)
    config_path, _ = _small_config(
        tmp_path, dataset_path=str(dataset), out_dir=str(tmp_path / f"out_{name}")
    )
    code = cli.main(["run", "--config", str(config_path)])
    return code, capsys.readouterr().err


def test_empty_or_headerless_dataset_is_config_error(tmp_path, capsys):
    rows = "1.0,2.0,train\n"
    cases = {
        "empty.csv": "",
        "no_x.csv": "a_0,t_0,split\n" + rows,
        "no_t.csv": "x_0,b_0,split\n" + rows,
        "no_split.csv": "x_0,t_0,part\n" + rows,
        "t_first.csv": "t_0,x_0,split\n" + rows,
    }
    for name, text in cases.items():
        code, err = _run_on_dataset_text(tmp_path, name, text, capsys)
        assert code == 1, name
        assert err.startswith("error: "), name


def test_dataset_row_length_must_match_header(tmp_path, capsys):
    header = "x_0,t_0,split\n"
    good = "".join(f"{i / 10},{i / 5},{s}\n" for s in ("train", "val", "test") for i in range(6))
    for name, bad in (("long.csv", "1.0,2.0,9.0,train\n"), ("short.csv", "1.0,train\n")):
        code, err = _run_on_dataset_text(tmp_path, name, header + good + bad, capsys)
        assert code == 1, name
        assert err.startswith("error: dataset line 20 has"), name


def test_split_outside_train_val_test_is_config_error(tmp_path, capsys):
    header = "x_0,t_0,split\n"
    good = "".join(f"{i / 10},{i / 5},{s}\n" for s in ("train", "val", "test") for i in range(6))
    text = header + good + "1.0,2.0,extra\n"
    code, err = _run_on_dataset_text(tmp_path, "extra.csv", text, capsys)
    assert code == 1
    assert err.startswith("error: dataset line 20 has split 'extra'")


def test_non_numeric_dataset_cell_names_its_line_and_column(tmp_path, capsys):
    header = "x_0,x_1,t_0,split\n"
    good = "".join(
        f"{i / 10},{i / 7},{i / 5},{s}\n" for s in ("train", "val", "test") for i in range(6)
    )
    for name, bad, cell, column in (
        ("x.csv", "1.0,abc,2.0,train\n", "abc", "x_1"),
        ("t.csv", "1.0,0.5,,test\n", "", "t_0"),
    ):
        code, err = _run_on_dataset_text(tmp_path, name, header + good + bad, capsys)
        assert code == 1, name
        assert err.startswith(f"error: dataset line 20 has {cell!r} in column {column}"), err
        assert not (tmp_path / f"out_{name}").exists()


def test_sweep_points_below_two_is_config_error(tmp_path, capsys):
    for points in (0, 1):
        config_path, _ = _small_config(tmp_path, sweep_points=points)
        assert cli.main(["run", "--config", str(config_path)]) == 1, points
        assert capsys.readouterr().err.startswith("error: sweep_points must be at least 2")
    assert not (tmp_path / "out").exists()


def _extra_split_dataset(tmp_path):
    good = "".join(f"{i / 10},{i / 5},{s}\n" for s in ("train", "val", "test") for i in range(6))
    path = tmp_path / "extra.csv"
    path.write_text("x_0,t_0,split\n" + good + "1.0,2.0,extra\n")
    return {"dataset_path": str(path)}


@pytest.mark.parametrize(
    "overrides",
    [
        _extra_split_dataset,
        lambda tmp_path: {"dataset_path": str(tmp_path / "absent.csv")},
        lambda tmp_path: {"hidden": [0]},
        lambda tmp_path: {"seed": -1},
        lambda tmp_path: {"activation": "tanh"},
    ],
    ids=["extra_split", "missing_dataset", "zero_width_layer", "negative_seed", "activation"],
)
def test_config_error_writes_no_output_directory(tmp_path, capsys, overrides):
    config_path, _ = _small_config(tmp_path, **overrides(tmp_path))
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [{"dataset_path": 5}, {"out_dir": 5}, {"methods": "bll"}],
    ids=["dataset_path_int", "out_dir_int", "methods_str"],
)
def test_config_field_of_the_wrong_type_is_one_error_line(
    tmp_path, capsys, monkeypatch, overrides
):
    # no path is built from a number, and a string of methods is not split into letters
    monkeypatch.chdir(tmp_path)
    config_path, _ = _small_config(tmp_path, **overrides)
    assert cli.main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {next(iter(overrides))} must be "), err
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def _config_directory(tmp_path):
    (tmp_path / "config_dir").mkdir()
    return ["run", "--config", str(tmp_path / "config_dir"), "--out", str(tmp_path / "out")]


def _config_not_utf8(tmp_path):
    path, _ = _small_config(tmp_path)
    path.write_bytes(b"\xff" + path.read_bytes())
    return ["run", "--config", str(path)]


def _config_not_an_object(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1]")
    return ["run", "--config", str(path), "--out", str(tmp_path / "out")]


def _dataset_directory(tmp_path):
    (tmp_path / "dataset_dir").mkdir()
    path, _ = _small_config(tmp_path, dataset_path=str(tmp_path / "dataset_dir"))
    return ["run", "--config", str(path)]


def _metrics_directory(tmp_path):
    (tmp_path / "finished" / "metrics.json").mkdir(parents=True)
    return ["report", "--out", str(tmp_path / "finished")]


@pytest.mark.parametrize(
    "make_argv",
    [
        _config_directory,
        _config_not_utf8,
        _config_not_an_object,
        _dataset_directory,
        _metrics_directory,
    ],
    ids=["config_dir", "config_not_utf8", "config_not_object", "dataset_dir", "metrics_dir"],
)
def test_unreadable_input_is_one_error_line(tmp_path, make_argv):
    result = subprocess.run(
        [sys.executable, "-m", "lastlayer.cli", *make_argv(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "metrics, line",
    [
        ({"bll.alpha_star": 1.0}, "bll: alpha*=1 alpha_max=- sigma_e=()"),
        ({"bll.alpha_star": "big", "bll.alpha_max": 2.0}, "bll: alpha*=- alpha_max=2 sigma_e=()"),
        (
            {
                "bll.alpha_star": 1.0,
                "bll.alpha_max": 2,
                "bll.sigma_e_0": None,
                "bll.sigma_e_1": 0.2,
            },
            "bll: alpha*=1 alpha_max=2 sigma_e=(-, 0.200)",
        ),
    ],
    ids=["missing_alpha_max", "string_alpha_star", "null_sigma_e"],
)
def test_report_prints_a_dash_for_a_missing_or_non_numeric_hyperparameter(
    tmp_path, capsys, metrics, line
):
    (tmp_path / "metrics.json").write_text(json.dumps(metrics))
    assert cli.main(["report", "--out", str(tmp_path)]) == 0
    assert line in capsys.readouterr().out.splitlines()


def _train_block(**overrides):
    return {"max_epochs": 400, "patience": 200, "lr": 0.005, "init_log_sigma_e": 0.0, **overrides}


@pytest.mark.parametrize(
    "overrides",
    [
        {"seed": 1.5},
        {"seed": True},
        {"sweep_points": 31.5},
        {"hidden": [20.7]},
        {"train": _train_block(lr=-0.002)},
        {"train": _train_block(lr=0.0)},
        {"train": _train_block(lr=math.inf)},
        {"train": _train_block(patience=-3)},
        {"train": _train_block(max_epochs=0, patience=-1)},
        {"train": _train_block(max_epochs=400.5)},
        {"train": _train_block(patience=200.5)},
        {"train": _train_block(init_log_sigma_e=math.nan)},
    ],
    ids=[
        "fractional_seed",
        "boolean_seed",
        "fractional_sweep_points",
        "fractional_width",
        "negative_lr",
        "zero_lr",
        "infinite_lr",
        "negative_patience",
        "zero_max_epochs",
        "fractional_max_epochs",
        "fractional_patience",
        "nan_init_log_sigma_e",
    ],
)
def test_malformed_numeric_setting_is_config_error(tmp_path, capsys, overrides):
    # json writes NaN and Infinity literals, which json.loads reads back.
    config_path, _ = _small_config(tmp_path, **overrides)
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "alpha_search",
    [{"max_evals": 20.5}, {"span": math.nan}, {"tol": math.inf}],
    ids=["fractional_max_evals", "nan_span", "infinite_tol"],
)
def test_malformed_alpha_search_is_config_error(tmp_path, capsys, alpha_search):
    config_path, _ = _small_config(tmp_path, alpha_search=alpha_search)
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


# Rows in any order: dataset.csv must read train, val, test, and every
# per-row artifact must follow it row for row.
_SHUFFLE_SPLITS = ["train"] * 10 + ["val"] * 4 + ["test"] * 5


@settings(max_examples=5, deadline=None, derandomize=True)
@given(order=st.permutations(range(len(_SHUFFLE_SPLITS))))
def test_shuffled_dataset_rows_line_up_with_every_artifact(order):
    lines = [f"{i / 7 - 1.3!r},{math.sin(i):.6f},{_SHUFFLE_SPLITS[i]}\n" for i in order]
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        dataset = tmp_path / "shuffled.csv"
        dataset.write_text("x_0,t_0,split\n" + "".join(lines))
        config_path, _ = _small_config(
            tmp_path,
            methods=["bll", "blr", "vi"],
            dataset_path=str(dataset),
            hidden=[3],
            train={"max_epochs": 20, "patience": 10, "lr": 0.005, "init_log_sigma_e": 0.0},
            alpha_search={"max_evals": 10},
            sweep_points=3,
        )
        assert cli.main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        with open(out / "dataset.csv") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        assert [r[-1] for r in rows] == sorted(_SHUFFLE_SPLITS, key=SPLITS.index)
        dataset_x = np.array([float(r[0]) for r in rows])
        per_row = sorted(out.glob("predictions_*.csv")) + [out / "components_vi.csv"]
        assert len(per_row) == 6
        for path in per_row:
            header, table = read_table_csv(path)
            assert header[0] == "x_0"
            np.testing.assert_array_equal(table[:, 0], dataset_x, err_msg=path.name)
        for method in ("bll", "blr"):
            sweep_header = (out / f"alpha_sweep_{method}.csv").read_text().splitlines()[0]
            assert sweep_header == "log_alpha,nlml_train,lpd_train,lpd_val,lpd_test"


def test_missing_metrics_report_is_config_error(tmp_path):
    assert cli.main(["report", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("text", ["{not json", "[1]"])
def test_non_json_metrics_report_is_config_error(tmp_path, capsys, text):
    (tmp_path / "metrics.json").write_text(text)
    assert cli.main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: metrics file is not ")


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--config", "metrics.json"]])
def test_report_reads_only_out(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--out", str(tmp_path), *flag])
    assert exc.value.code == 2


def test_retired_train_setting_is_config_error(tmp_path):
    # Adam's constants are fixed; a config naming one is rejected, not ignored
    config_path, _ = _small_config(
        tmp_path, train={"max_epochs": 400, "patience": 200, "beta1": 0.8}
    )
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert not (tmp_path / "out").exists()


def test_train_seed_other_than_the_run_seed_is_config_error(tmp_path, capsys):
    # the run seed seeds training; a train block naming another is rejected, not ignored
    train = {"max_epochs": 400, "patience": 200, "seed": 7}
    config_path, _ = _small_config(tmp_path, train=train)
    assert cli.main(["run", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: train.seed differs from the run seed 3;"), err
    assert "use the top-level seed or --seed" in err
    assert not (tmp_path / "out").exists()
    # a train seed equal to the run seed (the default one included) is accepted
    assert config_from_dict({"seed": 7, "train": train}).train_config().seed == 7
    assert config_from_dict({"train": {"seed": 0}}).train_config().seed == 0
    # a train block that is not a mapping is still rejected before the seed is read
    with pytest.raises(TypeError):
        config_from_dict({"train": [7]})


def test_two_input_run_writes_every_input_and_no_curves(tmp_path):
    from lastlayer.data import Dataset, write_splits_csv

    rng = np.random.default_rng(12)
    splits = {}
    for name, m, half_width in (("train", 30, 1.0), ("val", 10, 1.5), ("test", 10, 2.0)):
        x = rng.uniform(-half_width, half_width, size=(m, 2))
        t = np.sin(x[:, :1]) + 0.5 * x[:, 1:] + 0.05 * rng.standard_normal((m, 1))
        splits[name] = Dataset(x, t)
    dataset = tmp_path / "two_inputs.csv"
    write_splits_csv(dataset, splits)
    config_path, _ = _small_config(
        tmp_path, methods=["bll", "blr", "vi"], dataset_path=str(dataset)
    )
    assert cli.main(["run", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [
            "alpha_sweep_bll.csv",
            "alpha_sweep_blr.csv",
            "components_vi.csv",
            "dataset.csv",
            "metrics.json",
            "predictions_bll_alpha_max.csv",
            "predictions_bll_alpha_star.csv",
            "predictions_blr_alpha_max.csv",
            "predictions_blr_alpha_star.csv",
            "predictions_vi.csv",
        ]
    )
    metrics = json.loads((out / "metrics.json").read_text())
    # both searches end at the top of their log-alpha span on this dataset
    assert metrics["bll.alpha_max_at_bound"] == 1.0
    assert metrics["blr.alpha_max_at_bound"] == 1.0
    everything = np.concatenate([splits[k].x for k in ("train", "val", "test")])
    for name in ("predictions_bll_alpha_star.csv", "predictions_vi.csv", "components_vi.csv"):
        header, rows = read_table_csv(out / name)
        assert header[:3] == ["x_0", "x_1", "mean_0" if name.startswith("pred") else "mean_0_c0"]
        np.testing.assert_array_equal(rows[:, :2], everything)

    # With 12 evaluations the golden-section bracket is still wide when the
    # search stops, so the chosen alpha sits below the top of the span even
    # though the validation LPD keeps rising up to it.
    config_path, _ = _small_config(
        tmp_path,
        methods=["bll", "blr"],
        out_dir=str(tmp_path / "out_12"),
        dataset_path=str(dataset),
        alpha_search={"max_evals": 12},
    )
    assert cli.main(["run", "--config", str(config_path)]) == 0
    metrics = json.loads((tmp_path / "out_12" / "metrics.json").read_text())
    for name in ("bll", "blr"):
        climb = math.log(metrics[f"{name}.alpha_max"] / metrics[f"{name}.alpha_star"])
        assert climb < 15.0 - 1e-3
        assert metrics[f"{name}.alpha_max_at_bound"] == 1.0
