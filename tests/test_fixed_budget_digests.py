"""The sha256 of each trainer's 100-epoch run at the benchmark's fixed-budget shape.

The shape is perfbench's ``train_fixed`` workload: a 1-20-20-20-2 network
on the benchmark dataset's train split (seed 0), the experiment's loop
settings with early stopping switched off (100 epochs, patience 99), so
every run stops on ``max_epochs``.  blr runs on the mse network, as the
experiment runs it.  Each digest covers what ``fit_loop`` returns: the
history (both curves, the best epoch and the stop reason) and the best
leaves.  The full-run digests in ``artifact_digests.json`` never see
mse's own history or a ``max_epochs`` stop; these do, in about a second.

A change that claims bit-identical training leaves ``DIGESTS`` alone.  To
print the digests of the current code, from the repository root:

    PYTHONPATH=src python tests/test_fixed_budget_digests.py
"""

import hashlib
import json
from dataclasses import replace
from unittest import mock

import numpy as np

from lastlayer import baselines, benchmarks, training, vi
from lastlayer.experiment import ExperimentConfig
from lastlayer.mlp import MlpSpec

SPEC = MlpSpec(input_dim=1, hidden=(20, 20, 20), output_dim=2)
EPOCHS = 100
DIGESTS = {
    "bll": "acec045668f2baeefa3affc90f3b7a19ade51eee8b129c6b42b5ca4f516fc047",
    "mse": "1b2542ed7acdd7d555c2ecad028d7a2520eee8cc4ad6a3846e9e275c647903a6",
    "blr": "286ee65a32184081f53981fc336e0b94e85ef4c03ca59ec24a85f44b57f93c00",
    "vi": "372779026171d82311ea4148b8c0518400d3d9b4a947b7665943b3ec82886688",
}


def _digest(best, history) -> str:
    h = hashlib.sha256()
    for curve in (history.train_objective, history.val_objective):
        h.update(np.asarray(curve, dtype=float).tobytes() + b"\0")
    h.update(json.dumps([history.best_epoch, history.stop_reason]).encode() + b"\0")
    for leaf in best:
        h.update(repr(np.shape(leaf)).encode() + np.ascontiguousarray(leaf).tobytes())
    return h.hexdigest()


def fixed_budget_digests() -> dict:
    """Run each trainer at the fixed budget and digest what its ``fit_loop`` returned."""
    train = benchmarks.sample_benchmark(benchmarks.default_benchmark(), 0)["train"]
    cfg = replace(ExperimentConfig(seed=0).train_config(), max_epochs=EPOCHS, patience=EPOCHS - 1)
    runs = []

    def recorded(fit_loop):
        def run(*args, **kwargs):
            best, history = fit_loop(*args, **kwargs)
            runs.append(_digest(best, history))
            return best, history

        return run

    with (
        mock.patch.object(training, "fit_loop", recorded(training.fit_loop)),
        mock.patch.object(baselines, "fit_loop", recorded(baselines.fit_loop)),
        mock.patch.object(vi, "fit_loop", recorded(vi.fit_loop)),
    ):
        training.train(SPEC, train, cfg)
        frozen, history = baselines.train_mse(SPEC, train, cfg)
        baselines.blr_fit(frozen, train, cfg)
        vi.vi_train(SPEC, train, cfg)
    assert history.stop_reason == "max_epochs" and len(history.train_objective) == EPOCHS
    return dict(zip(["bll", "mse", "blr", "vi"], runs, strict=True))


def test_each_trainer_keeps_its_fixed_budget_digest():
    assert fixed_budget_digests() == DIGESTS


if __name__ == "__main__":
    print(json.dumps(fixed_budget_digests(), indent=4))
