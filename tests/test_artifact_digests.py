"""The sha256 of every artifact of four reference runs, pinned in ``artifact_digests.json``.

The runs are ``run_experiment`` on seeds 0-9 (every seed the ten-seed
report judges) at the default config,
``toy_feature_demo(0)``, the acceptance suite's criterion-8 config with
methods bll, blr and vi, and ``generate --seed 4``.  A change that claims
byte-identical artifacts leaves the file alone; a change that moves floats
rewrites it in the same commit and names every changed file.  The digests
belong to one numpy and BLAS build, so a mismatch prints both.

To rewrite the file after a deliberate float change, from the repository root:

    PYTHONPATH=src python tests/test_artifact_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from lastlayer import cli
from lastlayer.experiment import ExperimentConfig, config_from_dict, run_experiment, toy_feature_demo

DIGESTS = Path(__file__).with_name("artifact_digests.json")
# test_acceptance.py's criterion-8 config, with blr added
CRITERION_8 = {
    "methods": ["bll", "blr", "vi"],
    "seed": 11,
    "hidden": [6],
    "train": {"max_epochs": 300, "patience": 200, "lr": 0.005},
    "alpha_search": {"max_evals": 15},
    "sweep_points": 4,
}


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def compute_digests(root: Path) -> dict:
    """Run the four reference runs under ``root`` and digest what each writes."""
    runs = {}
    for seed in range(10):
        out = root / f"run_seed{seed}"
        run_experiment(ExperimentConfig(seed=seed, out_dir=str(out)))
        runs[out.name] = _digests(out)
    toy_feature_demo(0, root / "toy_seed0")
    runs["toy_seed0"] = _digests(root / "toy_seed0")
    run_experiment(config_from_dict({**CRITERION_8, "out_dir": str(root / "criterion8")}))
    runs["criterion8"] = _digests(root / "criterion8")
    assert cli.main(["generate", "--seed", "4", "--out", str(root / "generate_seed4")]) == 0
    runs["generate_seed4"] = _digests(root / "generate_seed4")
    return runs


def _blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}"


def _by_path(runs: dict) -> dict:
    return {f"{run}/{name}": sha for run, files in runs.items() for name, sha in files.items()}


def test_artifacts_match_their_pinned_digests(tmp_path):
    pinned = _by_path(json.loads(DIGESTS.read_text()))
    actual = _by_path(compute_digests(tmp_path))
    changed = sorted(p for p in pinned.keys() | actual.keys() if pinned.get(p) != actual.get(p))
    assert not changed, (
        f"artifact digests differ from {DIGESTS.name} on numpy {np.__version__}, "
        f"BLAS {_blas_build()}: {changed}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = compute_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
