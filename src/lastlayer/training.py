"""Gradient training of the marginal-likelihood objective with early stopping.

``fit_nlml`` runs full-batch Adam over network weights and the log
hyperparameters and keeps the parameters of the best monitored epoch;
``train`` runs it on a whole standardized network and returns the fitted
posterior model.  The monitor is the same objective evaluated on held-out
data (a deterministic 20% shuffle split by default); without validation
data the training objective itself is monitored, which turns early
stopping into a plain convergence check.  ``fit_loop``, the loop every
trainer shares, judges the monitor once per block of epochs, on all of
the block's parameter snapshots at once.

Every trainer binds its objective once per fit (``bind_once``): on the
first epoch, its bind step checks the gradient layout, takes the weight,
bias and gradient views it reads into ``fit_loop``'s flat parameter and
gradient vectors, and computes what no epoch changes (the spectrum of
fixed features, priors, scalar coefficients, buffers).  The views stay
valid while Adam steps because ``fit_loop`` writes each step into those
same vectors and never replaces them, so each epoch does only its
arithmetic.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteLoss
from .bll import HYPER_CLAMP, BllHyper, BllModel, bind_network_head, bind_nlml, fit_posterior
from .bll import negative_lml  # noqa: F401 - perfbench's tracer patches training:negative_lml
from .data import Dataset, Standardizer, check_integers, check_numbers, fit_standardizer
from .data import split_train_val
from .mlp import MlpParams, MlpSpec, forward_weights, init_params
from .rng import make_rng

__all__ = ["TrainConfig", "TrainHistory", "bind_once", "fit_nlml", "train"]

# Adam's published constants.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# fit_loop judges early stopping once per block of at most this many epochs.
MONITOR_BLOCK = 64


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 20000
    patience: int = 200
    lr: float = 1e-3
    seed: int = 0
    val_fraction: float | None = 0.2
    init_log_sigma_e: float = 0.0

    def __post_init__(self):
        check_integers(max_epochs=self.max_epochs, patience=self.patience)
        check_numbers(lr=self.lr, init_log_sigma_e=self.init_log_sigma_e)
        if self.val_fraction is not None:
            check_numbers(val_fraction=self.val_fraction)
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.patience < 0:
            raise ValueError("patience must be nonnegative")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")
        if not math.isfinite(self.init_log_sigma_e):
            raise ValueError("init_log_sigma_e must be finite")
        if self.val_fraction is not None and not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1) when set")


@dataclass
class TrainHistory:
    """Per-epoch objective curves, the early-stopping winner and why the loop ended.

    ``stop_reason`` is ``"patience"`` when the monitor stopped improving and
    ``"max_epochs"`` when the epoch budget ran out; ``fit_loop`` sets it.
    """

    train_objective: list[float] = field(default_factory=list)
    val_objective: list[float] | None = None
    best_epoch: int = 0
    stop_reason: str | None = None


def flat_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one reshaped to each of ``shapes`` in order.

    The views cut the last axis, so a stack of flat vectors (a block of
    epochs' parameters) gives views that keep its leading axes.
    """
    lead = flat.shape[:-1]
    views, lo = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., lo : lo + size].reshape((*lead, *shape)))
        lo += size
    return views


def adam_step(t: int, m, v, params: np.ndarray, grads: np.ndarray, lr: float):
    """Adam's step ``t`` (from 1) with bias correction: fresh (m, v, params) arrays.

    The inputs are left alone, so a snapshot of past parameters stays valid.
    """
    if params.shape != grads.shape:
        raise ValueError("gradient shape mismatch")
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    m = BETA1 * m + (1.0 - BETA1) * grads
    v = BETA2 * v + (1.0 - BETA2) * grads * grads
    return m, v, params - lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def bind_once(bind):
    """A ``fit_loop`` objective that binds itself on its first call.

    ``bind(leaves, grads)`` checks that layout and returns ``epoch()``,
    which computes the value at the leaves' current values and writes its
    gradient into ``grads``.  The objective reuses that binding for as long
    as it is handed the same two lists, as ``fit_loop`` hands them every
    epoch, and binds again when handed others.
    """
    bound = bound_leaves = bound_grads = None

    def loss_and_grads(leaves, grads):
        nonlocal bound, bound_leaves, bound_grads
        if leaves is not bound_leaves or grads is not bound_grads:
            bound, bound_leaves, bound_grads = bind(leaves, grads), leaves, grads
        return bound()

    return loss_and_grads


def fit_loop(leaves, loss_and_grads, cfg: TrainConfig, monitor=None, post_step=None):
    """Generic early-stopped Adam loop shared by every trainer in the package.

    The parameters live in one flat vector that Adam updates as a single
    array, and their gradient in a second one of the same layout.  The
    leaves and the gradients handed to the callables are reshaped views
    into those two vectors, built once: every step refreshes the leaves in
    place, and the objective overwrites every gradient entry in place.
    Every epoch hands the objective the same two lists of views, so an
    objective may bind to them once (``bind_once``).
    Adam's moments are two more flat arrays, and its step number is the
    epoch plus one.

    Early stopping is judged in blocks of up to ``MONITOR_BLOCK`` epochs.
    Each epoch copies the parameters into the next row of a snapshot
    buffer, then runs its objective.  Before the epoch's Adam step, the
    pending rows are judged (one monitor call, then the best and patience
    rules in epoch order) when the buffer is full, the budget ends, or the
    epoch could stop on patience; a failing objective has the rows before
    it judged first.  So the loop runs exactly the objectives and steps,
    and keeps exactly the history, that judging every epoch alone would,
    but a non-finite monitor value is raised only when its block is judged.

    Args:
        leaves: list of parameter arrays (not modified).
        loss_and_grads: (leaves, grads) -> value at the current leaves; it
            writes the gradient with respect to ``leaves[i]`` into
            ``grads[i]``, which has that leaf's shape.
        cfg: loop hyperparameters.
        monitor: optional callable giving the early-stopping criterion of
            a block of epochs: it takes the leaves with a leading block
            axis, one row per epoch, and returns one value per row.  It
            defaults to the training objective.
        post_step: optional projection applied in place to the leaves after
            each step.

    Returns:
        (best_leaves, history).

    Raises:
        NonFiniteLoss: naming the first epoch whose objective or monitor is
            NaN or infinite, with the best epoch judged before it and its
            monitor value.
    """
    flat = np.concatenate(leaves, axis=None, dtype=float)
    grad = np.full_like(flat, np.nan)  # an entry the objective skips poisons the step
    shapes = [np.shape(a) for a in leaves]
    leaves, grads = flat_views(flat, shapes), flat_views(grad, shapes)
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    snaps = np.empty((min(MONITOR_BLOCK, cfg.max_epochs), flat.size))
    history = TrainHistory(val_objective=None if monitor is None else [])
    history.stop_reason = "max_epochs"
    best_value, best_flat = np.inf, flat.copy()
    values = []  # objective values of the epochs whose snapshots await judgement

    def failure(epoch, detail):
        best = "no epoch judged before it"
        if best_value < np.inf:
            best = f"best so far: epoch {history.best_epoch}, monitor value {best_value!r}"
        return NonFiniteLoss(f"epoch {epoch}: {detail} ({best})")

    def judge():
        """Judge the pending epochs in order; True when one stops on patience."""
        nonlocal best_value
        crits = values
        if monitor is not None and values:
            crits = np.asarray(monitor(flat_views(snaps[: len(values)], shapes))).tolist()
        for row, (value, crit) in enumerate(zip(values, crits, strict=True)):
            epoch = len(history.train_objective)
            if not math.isfinite(crit):
                raise failure(epoch, f"monitor evaluated to {crit}")
            history.train_objective.append(value)
            if monitor is not None:
                history.val_objective.append(crit)
            if crit < best_value:
                best_value = crit
                history.best_epoch = epoch
                best_flat[...] = snaps[row]
            elif epoch - history.best_epoch > cfg.patience:
                history.stop_reason = "patience"
                return True
        values.clear()
        return False

    for epoch in range(cfg.max_epochs):
        snaps[len(values)] = flat
        try:
            value = loss_and_grads(leaves, grads)
            if not math.isfinite(value):
                raise NonFiniteLoss(f"objective evaluated to {value}")
        except NonFiniteLoss as err:
            judge()
            raise failure(epoch, err) from err
        values.append(value)
        due = len(values) == len(snaps) or epoch == cfg.max_epochs - 1
        if (due or epoch > history.best_epoch + cfg.patience) and judge():
            break
        m, v, stepped = adam_step(epoch + 1, m, v, flat, grad, cfg.lr)
        flat[...] = stepped
        if post_step is not None:
            post_step(leaves)
    return flat_views(best_flat, shapes), history


def standardized_splits(
    train_data: Dataset, cfg: TrainConfig
) -> tuple[Standardizer, Standardizer, Dataset, Dataset | None]:
    """Scalers fitted on all training rows, then the standardized fit and monitor sets.

    The monitor set is a deterministic ``cfg.val_fraction`` split of the
    training rows (none when that is unset or there are fewer than five rows).
    """
    x_scaler = fit_standardizer(train_data.x)
    t_scaler = fit_standardizer(train_data.t)
    if cfg.val_fraction is not None and train_data.m >= 5:
        fit_part, val_part = split_train_val(train_data, cfg.val_fraction, cfg.seed)
    else:
        fit_part, val_part = train_data, None

    def standardize(data):
        return Dataset(x_scaler.transform(data.x), t_scaler.transform(data.t))

    val_std = standardize(val_part) if val_part is not None else None
    return x_scaler, t_scaler, standardize(fit_part), val_std


def clamp_hyper_tail(leaves) -> None:
    """Projection keeping the two trailing hyperparameter leaves in a safe box, in place.

    ``np.maximum`` then ``np.minimum`` is exactly ``np.clip``, NaN included,
    without its slower dispatch.
    """
    for a in leaves[-2:]:
        np.maximum(a, -HYPER_CLAMP, out=a)
        np.minimum(a, HYPER_CLAMP, out=a)


def fit_nlml(
    weights0, fit_data: Dataset, val_data: Dataset | None, cfg: TrainConfig
) -> tuple[MlpParams, BllHyper, TrainHistory]:
    """Early-stopped Adam on the marginal-likelihood objective.

    Fits the network ``weights0`` (the whole network for bll, the output
    layer alone on frozen features for blr) together with log alpha and
    the per-output log sigma_e, monitoring the same objective on
    ``val_data`` when it is given.

    The objective is ``bll.bind_nlml`` bound once per fit.  The monitor is
    a head bound once per fit (``bll.bind_network_head``), run on a whole
    block of epochs' leaf views at once with no ``MlpParams`` or
    ``BllHyper`` built: each value is the one the public ``negative_lml``
    gives that epoch's parameters on ``val_data``, to the bit for bll and
    to rounding for blr, whose two heads read the log-determinant off a
    spectrum taken once per fit (``bll.spectral_logdet``) and factor nothing.

    Returns:
        The parameters and hyperparameters of the best monitored epoch,
        and the training history.
    """
    n_w = len(weights0)
    leaves = [
        *weights0,
        np.asarray(0.0),
        np.full(fit_data.n_y, cfg.init_log_sigma_e, dtype=float),
    ]
    loss_and_grads = bind_once(lambda vals, grads: bind_nlml(vals, grads, fit_data.x, fit_data.t))

    monitor = None
    if val_data is not None:
        held, _ = bind_network_head(weights0, val_data.x, val_data.t)

        def monitor(vals):
            acts = forward_weights(vals[:n_w], val_data.x)
            return held(acts[-2], acts[-1], *vals[n_w - 1 :])

    best, history = fit_loop(
        leaves, loss_and_grads, cfg, monitor=monitor, post_step=clamp_hyper_tail
    )
    return MlpParams(tuple(best[:n_w])), BllHyper(float(best[n_w]), best[n_w + 1]), history


def train(
    spec: MlpSpec, train_data: Dataset, cfg: TrainConfig
) -> tuple[BllModel, TrainHistory]:
    """Train a Bayesian-last-layer network by marginal-likelihood descent.

    Args:
        spec: network architecture (its widths must match the data's).
        train_data: training samples in original units.
        cfg: loop configuration; when ``cfg.val_fraction`` is set, a
            deterministic shuffle split of the training data provides the
            early-stopping monitor.

    Returns:
        The fitted model (best monitored epoch) and the training history.
    """
    train_data.check_widths(spec.input_dim, spec.output_dim)
    x_scaler, t_scaler, fit_std, val_std = standardized_splits(train_data, cfg)
    params0 = init_params(spec, make_rng(cfg.seed))
    params, hyper, history = fit_nlml(params0.weights, fit_std, val_std, cfg)
    model = fit_posterior(params, hyper, fit_std, x_scaler=x_scaler, t_scaler=t_scaler)
    return model, history
