"""The perfbench tracer's view of the package.

``perfbench/tracing.py`` replaces module attributes by name
(``lastlayer.baselines:negative_lml``, ``lastlayer.training:fit_loop``, ...).
A source edit that drops one of those names, or changes how ``fit_loop`` is
called, breaks traced runs; these checks catch it without running perfbench.
"""

import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np

from lastlayer import baselines, training, vi
from lastlayer.data import Dataset
from lastlayer.mlp import MlpSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # instrument() looks up every "module:attr" binding it patches (an
    # AttributeError names a missing one) and restores them on exit.
    fit_loop = training.fit_loop
    with tracing.instrument(tracing.Tracer()):
        assert training.fit_loop is not fit_loop
    assert training.fit_loop is fit_loop


def test_fit_loop_takes_the_traced_call():
    params = inspect.signature(training.fit_loop).parameters
    assert list(params) == ["leaves", "loss_and_grads", "cfg", "monitor", "post_step"]
    assert params["monitor"].default is None
    assert params["post_step"].default is None


def test_spans_are_attributed_to_their_trainer():
    # Every epoch of every trainer is one objective span and one monitor
    # span under that trainer's label, and the marginal-likelihood monitors
    # (bll and blr) go through the public negative_lml.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(20, 1))
    data = Dataset(x, np.sin(2.0 * x) + 0.1 * rng.standard_normal((20, 1)))
    net = MlpSpec(1, (4,), 1)
    cfg = training.TrainConfig(max_epochs=5, patience=4)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        training.train(net, data, cfg)
        frozen, _ = baselines.train_mse(net, data, cfg)
        baselines.blr_fit(frozen, data, cfg)
        vi.vi_train(net, data, cfg)
    spans = Counter(span[0] for span in tracer.spans)
    for label in tracing.TRAINER_LABELS:
        assert tracer.counts[f"training.epochs.{label}"] == cfg.max_epochs, label
        assert spans[f"objective.{label}"] == cfg.max_epochs, label
        assert spans[f"monitor.{label}"] == cfg.max_epochs, label
    assert spans["bll.negative_lml"] == spans["monitor.bll"] + spans["monitor.blr"]


def test_traced_runs_see_every_adam_step():
    # fit_loop looks adam_step up in training's namespace, where the tracer
    # wraps it; each epoch below steps once, as none stops on patience.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(20, 1))
    data = Dataset(x, np.sin(2.0 * x) + 0.1 * rng.standard_normal((20, 1)))
    net = MlpSpec(1, (4,), 1)
    cfg = training.TrainConfig(max_epochs=5, patience=4)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        training.train(net, data, cfg)
        frozen, _ = baselines.train_mse(net, data, cfg)
        baselines.blr_fit(frozen, data, cfg)
        vi.vi_train(net, data, cfg)
    steps = sum(span[0] == "optim.adam_step" for span in tracer.spans)
    assert steps == len(tracing.TRAINER_LABELS) * cfg.max_epochs == 20
