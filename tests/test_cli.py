import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lastlayer import cli
from lastlayer.data import read_splits_csv, read_table_csv


def _small_config(tmp_path, **overrides):
    config = {
        "methods": ["bll"],
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "hidden": [6],
        "train": {"max_epochs": 400, "patience": 200, "lr": 0.005},
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


def test_missing_metrics_report_is_config_error(tmp_path):
    assert cli.main(["report", "--out", str(tmp_path)]) == 1


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
