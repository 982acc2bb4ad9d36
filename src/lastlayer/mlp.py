"""Feed-forward network: evaluation, reverse sweep and feature extraction.

Hidden layers compute ``tanh([a, 1] @ W)``; the bias lives in the last row
of each weight matrix.  The output layer is always linear, so the
activations of the last hidden layer act as a learned feature map and the
final weight matrix is a linear regression on those features.

A training objective binds its network once per fit: ``bind_forward`` and
``bind_backward`` take each weight's body and bias views, and each
gradient destination's, when they are called, and check the destinations
then.  The reverse sweep writes each layer's gradient into the array the
caller supplied, so a training objective hands it views into the one flat
gradient that ``training.fit_loop`` allocates and Adam reads.  The views
stay valid for the whole fit because ``fit_loop`` never replaces its flat
parameter and gradient vectors, only writes into them, so each epoch reads
the weights Adam just stepped to.  ``forward_weights`` is the forward bind
step called once, so the monitors and the predict path run the same pass.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MlpSpec",
    "MlpParams",
    "init_params",
    "forward_batch",
    "forward_weights",
    "bind_forward",
    "bind_backward",
    "affine_rows",
    "features",
]


@dataclass(frozen=True)
class MlpSpec:
    """Network shape: input width, hidden widths, output width."""

    input_dim: int
    hidden: tuple[int, ...]
    output_dim: int
    # tanh is the only activation; the field stays because the acceptance
    # tests build ``MlpParams(weights, spec.activation)``.
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if len(self.hidden) < 1:
            raise ValueError("at least one hidden layer is required")
        if min(self.hidden) < 1 or self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("all layer widths must be >= 1")
        if self.activation != "tanh":
            raise ValueError(f"unknown activation {self.activation!r}; tanh is the only one")

    def layer_shapes(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden, self.output_dim]
        return [(dims[i] + 1, dims[i + 1]) for i in range(len(dims) - 1)]


@dataclass(frozen=True)
class MlpParams:
    """Weight matrices, one per layer, each including its bias row."""

    weights: tuple[np.ndarray, ...]
    # Nothing reads this field; it stays, fixed to tanh, because the
    # acceptance tests pass ``spec.activation`` when they build params.
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation != "tanh":
            raise ValueError(f"unknown activation {self.activation!r}; tanh is the only one")

    @property
    def n_x(self) -> int:
        return self.weights[0].shape[0] - 1  # the first layer's rows: inputs, then bias

    @property
    def n_y(self) -> int:
        return self.weights[-1].shape[1]

    @property
    def wbar(self) -> np.ndarray:
        """Output-layer weights (the regression on the learned features)."""
        return self.weights[-1]

    def replace_wbar(self, wbar: np.ndarray) -> "MlpParams":
        if wbar.shape != self.weights[-1].shape:
            raise ValueError("output layer shape mismatch")
        return MlpParams((*self.weights[:-1], wbar))


def init_params(spec: MlpSpec, rng: np.random.Generator) -> MlpParams:
    """Glorot-normal weights, scale sqrt(2 / (fan_in + fan_out)); zero biases."""
    weights = []
    for rows, cols in spec.layer_shapes():
        fan_in = rows - 1
        scale = np.sqrt(2.0 / (fan_in + cols))
        w = np.zeros((rows, cols))
        w[:-1] = scale * rng.standard_normal((fan_in, cols))
        weights.append(w)
    return MlpParams(tuple(weights))


def forward_weights(weights, x: np.ndarray) -> list[np.ndarray]:
    """Evaluate the network on rows of ``x``, keeping every layer's output.

    ``weights`` is a sequence of weight matrices, one per layer, so the
    trainers call it on their leaf views with no ``MlpParams`` built.
    Returns [x, h_1, ..., h_L, y]: the inputs, each hidden activation and
    the linear outputs, as ``bind_backward``'s sweep expects them.

    The matrices may carry leading block axes, one weight set per block
    entry (the early-stopping monitors pass a block of epochs' weights);
    each activation then has those axes too, and each block entry's
    activations are the ones a call on that weight set alone returns.
    """
    return bind_forward(weights)(np.asarray(x, dtype=float))


def bind_forward(weights):
    """``forward_weights`` with each weight's body and bias views taken once.

    Returns ``forward(x)``, which evaluates the network at the values the
    matrices hold when it is called, on float rows ``x``.  Each layer's bias
    add and tanh run in place on its fresh matmul output, whose shape
    already carries every block axis.
    """
    *hidden, (out_body, out_bias) = [(w[..., :-1, :], w[..., -1:, :]) for w in weights]

    def forward(x):
        acts = [x]
        for body, bias in hidden:
            z = acts[-1] @ body
            z += bias
            acts.append(np.tanh(z, out=z))
        y = acts[-1] @ out_body
        y += out_bias
        acts.append(y)
        return acts

    return forward


def bind_backward(weights, out):
    """The reverse sweep through a network evaluated by ``forward_weights``, bound once.

    The weight and destination arrays are checked and sliced here; the
    sweep reads the values the weights hold when it is called.

    Args:
        weights: one matrix per layer, bias in the last row.
        out: one array per layer, each the shape of its weight matrix; the
            gradient with respect to layer k overwrites ``out[k]``.

    Returns:
        ``backward(acts, d_out, d_last_hidden)``, where ``acts`` are the
        forward activations [x, h_1, ..., h_L, y], ``d_out`` the gradient of
        the objective with respect to the outputs y (left unchanged), and
        ``d_last_hidden`` an extra gradient with respect to h_L from a head
        that reads the features directly, or None.

    Raises:
        ValueError: when ``out`` does not hold one array of each weight's shape.
    """
    n_layers = len(weights)
    if len(out) != n_layers:
        raise ValueError(f"{len(out)} gradient destinations for {n_layers} layers")
    for k, (w, gk) in enumerate(zip(weights, out)):
        if gk.shape != w.shape:
            raise ValueError(
                f"layer {k} gradient destination has shape {gk.shape}, its weights {w.shape}"
            )
    # From the output layer down: the destination's body and bias row, and
    # the transposed weight body that carries the gradient to the layer below.
    last = n_layers - 1
    layers = [(k, out[k][:-1], out[k][-1], weights[k][:-1].T) for k in range(last, -1, -1)]

    def backward(acts, d_out, d_last_hidden):
        g = d_out
        for k, body, bias, w_body_t in layers:
            h = acts[k]
            # [h.T @ g; column sums of g], written straight into the caller's array.
            np.matmul(h.T, g, out=body)
            np.add.reduce(g, 0, out=bias)
            if k == 0:
                break
            g = g @ w_body_t
            if k == last and d_last_hidden is not None:
                g += d_last_hidden
            slope = h * h
            g *= np.subtract(1.0, slope, out=slope)

    return backward


def forward_batch(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the network on rows of ``x``.

    Returns the outputs (m, n_y) and the linear features (m, n_phi_tilde),
    i.e. the last hidden activations that feed the linear output layer.
    """
    acts = forward_weights(params.weights, x)
    return acts[-1], acts[-2]


def affine_rows(a: np.ndarray) -> np.ndarray:
    """Rows ``[a_i, 1]``, or one row ``[a, 1]`` for a 1-D ``a``.

    The only place the bias column of an affine feature matrix is written.
    """
    out = np.empty((*a.shape[:-1], a.shape[-1] + 1))
    out[..., :-1] = a
    out[..., -1] = 1.0
    return out


def features(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Affine feature matrix: one row [phi_tilde(x_i), 1] per sample."""
    return affine_rows(forward_batch(params, x)[1])
