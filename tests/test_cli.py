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


def test_sweep_points_below_two_is_config_error(tmp_path, capsys):
    for points in (0, 1):
        config_path, _ = _small_config(tmp_path, sweep_points=points)
        assert cli.main(["run", "--config", str(config_path)]) == 1, points
        assert capsys.readouterr().err.startswith("error: sweep_points must be at least 2")
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


def test_retired_train_setting_is_config_error(tmp_path):
    # Adam's constants are fixed; a config naming one is rejected, not ignored
    config_path, _ = _small_config(
        tmp_path, train={"max_epochs": 400, "patience": 200, "beta1": 0.8}
    )
    assert cli.main(["run", "--config", str(config_path)]) == 1
    assert not (tmp_path / "out").exists()


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
