"""The perfbench tracer's view of the package.

``perfbench/tracing.py`` replaces module attributes by name
(``lastlayer.baselines:negative_lml``, ``lastlayer.training:fit_loop``, ...).
A source edit that drops one of those names, or changes how ``fit_loop`` is
called, breaks traced runs; these checks catch it without running perfbench.
"""

import importlib.util
import inspect
from pathlib import Path

from lastlayer import training

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
