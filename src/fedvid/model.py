"""Box-prediction network: a from-scratch feed-forward model with a feedback input.

Ten ReLU hidden layers with inverted dropout, the previous tick's decided box
concatenated onto the last hidden activation, and a sigmoid output of length
five (four box coordinates plus an inside-image probability). Gradients are
hand-derived; training uses mini-batch Adam. The parameter set round-trips
through a little-endian binary format (magic "FMDF") that is also the wire
encoding for federated exchange.

The row rule: numpy 2.4 with OpenBLAS 0.3.31 (scipy-openblas, Haswell kernels)
gives a row of a matmul the same bits at any row count from 2 to 5,000, as
measured, but other bits alone; another build need not. `mean_loss` and
`experiment.predict_run` regroup rows by it, and never leave one row alone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Annotated

import numpy as np

from .records import Rule, check

if TYPE_CHECKING:
    from .labeling import TrainingArrays

FMDF_MAGIC = b"FMDF"
FMDF_VERSION = 1
FEEDBACK_DIM = 4   # the previous tick's box
OUTPUT_DIM = 5     # four box coordinates and the inside probability
EVAL_ROWS = 256    # the row bound of every eval forward: `mean_loss`, `experiment.predict_run`


class DecodeError(ValueError):
    """Malformed parameter blob; message names the failing byte offset."""


@dataclass(frozen=True)
class ModelConfig:
    input_dim: Annotated[int, Rule("at least", 1)] = 11
    hidden_width: Annotated[int, Rule("at least", 1)] = 64
    hidden_layers: Annotated[int, Rule("at least", 1)] = 10
    dropout: Annotated[float, Rule("at least", 0.0), Rule("below", 1.0)] = 0.3
    mu: Annotated[float, Rule("at least", 0.0), Rule("below", math.inf)] = 1.0
    __post_init__ = check

    def widths(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of every affine layer, feedback concat included."""
        dims = [self.input_dim] + [self.hidden_width] * self.hidden_layers
        shapes = [(dims[i], dims[i + 1]) for i in range(self.hidden_layers)]
        shapes.append((self.hidden_width + FEEDBACK_DIM, OUTPUT_DIM))
        return shapes


def _layout(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of a flat parameter vector in FMDF order: every weight block
    W0..WL (fan_in, fan_out), then every bias b0..bL (fan_out,)."""
    views, off = [], 0
    for shape in [*shapes, *((fan_out,) for _, fan_out in shapes)]:
        views.append(flat[off:off + math.prod(shape)].reshape(shape))
        off += views[-1].size
    if off != flat.size:
        raise ValueError(f"{flat.size} parameters do not fill layers {list(shapes)}")
    return views


@dataclass
class ModelParams:
    """Every parameter in one contiguous float64 vector. `weights[i]` and
    `biases[i]` are views into it; a gradient has the same layout and unpacks
    as `(weights, biases)`."""

    flat: np.ndarray                      # FMDF order: W0..WL, then b0..bL
    shapes: tuple[tuple[int, int], ...]   # (fan_in, fan_out) per layer
    dropout: float
    mu: float
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.shapes = tuple(map(tuple, self.shapes))
        blocks = _layout(self.flat, self.shapes)
        self.weights, self.biases = blocks[:len(self.shapes)], blocks[len(self.shapes):]

    def __iter__(self):
        return iter((self.weights, self.biases))

    def copy(self) -> "ModelParams":
        return replace(self, flat=self.flat.copy())

    def param_count(self) -> int:
        return self.flat.size

    def hidden_layer_count(self) -> int:
        return len(self.shapes) - 1


def init_model(cfg: ModelConfig, rng) -> ModelParams:
    """He-style fan-in scaled uniform initialization; biases start at zero."""
    shapes = cfg.widths()
    params = ModelParams(np.zeros(sum((fi + 1) * fo for fi, fo in shapes)), shapes,
                         dropout=cfg.dropout, mu=cfg.mu)
    for w, (fan_in, fan_out) in zip(params.weights, shapes):
        limit = np.sqrt(6.0 / fan_in)
        w[...] = rng.uniform(-limit, limit, (fan_in, fan_out))
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))   # exp(-x) or exp(x), whichever is at most 1
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _rows(buf: np.ndarray, batch: int, widths) -> list[np.ndarray]:
    """(batch, w) views of the start of a flat buffer, one per width: scratch
    that each layer in turn overwrites."""
    return [buf[:batch * w].reshape(batch, w) for w in widths]


class Workspace:
    """Buffers that the forward and backward pass of one batch size write into
    with `out=`, so that a training step or an evaluation allocates no
    per-layer arrays. Each call overwrites the previous call's.

    A forward returns its workspace as the batch's cache: input `x`, `zs`,
    `hidden`, the dropout `masks` it applied (None per undropped layer), `h_cat`
    and output `y`. The backward reads them and writes `grad`. The last hidden
    activation is written straight into `h_cat`, beside the feedback. With
    `keep_layers=False` the hidden layers alternate between two buffers: enough
    for an eval-mode forward, which then returns no cache. The dropout and
    backward buffers are made on first use, and so is `grad` unless one is
    given, which lets workspaces of several batch sizes share one.
    """

    def __init__(self, params: ModelParams, batch: int, keep_layers: bool = True,
                 grad: ModelParams | None = None):
        if grad is not None:
            self.grad = grad
        self.batch, self.keep_layers = batch, keep_layers
        self.size, self.shapes = params.flat.size, params.shapes
        self.dropout, self.mu = params.dropout, params.mu
        self.widths = [fan_out for _, fan_out in params.shapes[:-1]]
        self.h_cat = np.empty((batch, params.shapes[-1][0]))
        self.z_out = np.empty((batch, params.shapes[-1][1]))
        if keep_layers:
            self.zs = [np.empty((batch, w)) for w in self.widths]
            hidden = [np.empty((batch, w)) for w in self.widths[:-1]]
        else:   # each layer's ReLU overwrites its z; layers alternate between two buffers
            pair = [_rows(np.empty(batch * max(self.widths)), batch, self.widths) for _ in range(2)]
            self.zs = [pair[i % 2][i] for i in range(len(self.widths))]
            hidden = self.zs[:-1]
        self.hidden = [*hidden, self.h_cat[:, :self.widths[-1]]]

    @cached_property
    def mask_buffers(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """One flat buffer for every hidden layer's dropout mask, layer after
        layer, and its per-layer views."""
        flat = np.empty(self.batch * sum(self.widths))
        parts = np.split(flat, np.cumsum([self.batch * w for w in self.widths[:-1]]))
        return flat, [part.reshape(self.batch, w) for part, w in zip(parts, self.widths)]

    @cached_property
    def grad(self) -> ModelParams:
        return ModelParams(np.empty(self.size), self.shapes, dropout=self.dropout, mu=self.mu)

    @cached_property
    def back(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, list]:
        """dz and (1 - y) at the output, dh of `h_cat`, then dh and dz per hidden layer."""
        out, scratch = (np.empty(self.z_out.shape) for _ in range(2))
        dh, dz = (_rows(np.empty(self.batch * max(self.widths)), self.batch, self.widths)
                  for _ in range(2))
        return out, scratch, np.empty(self.h_cat.shape), dh, dz


def workspace_for(workspaces: dict[int, Workspace], params: ModelParams, batch: int,
                  keep_layers: bool = True, grad: ModelParams | None = None) -> Workspace:
    """`workspaces[batch]`, made and kept there on first use, with `grad`."""
    ws = workspaces.get(batch)
    if ws is None:
        ws = workspaces[batch] = Workspace(params, batch, keep_layers, grad)
    return ws


def dropout_masks(rng, dropout: float, out: np.ndarray) -> np.ndarray:
    """Inverted-dropout masks for every hidden layer of one batch, from one draw.

    One `rng.random` fills the flat buffer `out` with the uniforms that one
    draw per layer would give, layer after layer; two in-place ops turn each
    into 0 or 1 / (1 - dropout).
    """
    rng.random(out=out)
    np.greater_equal(out, dropout, out=out)
    out /= 1.0 - dropout
    return out


def hidden_stack(params: ModelParams, x: np.ndarray, ws: Workspace | None = None,
                 rng=None) -> Workspace:
    """The feedback-free ReLU hidden layers over the rows `x`, with inverted
    dropout when given `rng`: checks `x`, writes the last activation into
    `ws.h_cat` before the feedback columns and returns `ws` (made if None)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite model input")
    if x.shape[1] != (width := params.shapes[0][0]):
        raise ValueError(f"the model takes {width} input features, the data has {x.shape[1]}")
    if ws is None:
        ws = Workspace(params, x.shape[0])
    masks = [None] * len(ws.zs)
    if rng is not None and params.dropout > 0.0:
        flat, masks = ws.mask_buffers
        dropout_masks(rng, params.dropout, flat)
    h = x
    for layer, (z, out, mask) in enumerate(zip(ws.zs, ws.hidden, masks)):
        np.matmul(h, params.weights[layer], out=z)
        z += params.biases[layer]
        h = np.maximum(z, 0.0, out=out)
        if mask is not None:
            h *= mask
    ws.x, ws.masks = x, masks
    return ws


def output_layer(params: ModelParams, h_cat: np.ndarray, fb, out: np.ndarray | None = None):
    """sigmoid(h_cat @ W + b) of rows `h_cat` that start with the last hidden
    activation, once `fb` fills the rest; the affine part goes into `out`."""
    h_cat[:, params.shapes[-2][1]:] = fb
    z = np.matmul(h_cat, params.weights[-1], out=out)
    z += params.biases[-1]
    return _sigmoid(z)


def forward_batch(params: ModelParams, x: np.ndarray, fb: np.ndarray,
                  training: bool = False, rng=None, ws: Workspace | None = None):
    """Batched forward pass: `hidden_stack`, then `output_layer` with the feedback.
    x: (B, input_dim), fb: (B, FEEDBACK_DIM). Returns (outputs (B, OUTPUT_DIM), cache).
    Inverted dropout is applied to every hidden activation when training; the
    concatenated feedback is never dropped. The cache is the workspace, or
    without one a workspace the call makes; see `Workspace`.
    """
    fb = np.atleast_2d(np.asarray(fb, dtype=np.float64))
    if not np.all(np.isfinite(fb)):
        raise ValueError("non-finite model input")
    if training and rng is None:
        raise ValueError("training forward requires an rng for dropout")
    ws = hidden_stack(params, x, ws, rng if training else None)
    if fb.shape[0] != ws.x.shape[0]:
        raise ValueError(f"{ws.x.shape[0]} input rows but {fb.shape[0]} feedback rows")
    y = output_layer(params, ws.h_cat, fb, ws.z_out)
    if not ws.keep_layers:
        return y, None
    ws.y = y
    return y, ws


def loss_bbx(pred, target, mu: float) -> float:
    """Quarter mean-square error on the box plus mu-weighted inside error."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    box = 0.25 * np.sum((t[:4] - p[:4]) ** 2)
    return float(box + mu * (t[4] - p[4]) ** 2)


def _loss_grad_batch(y: np.ndarray, targets: np.ndarray, mu: float):
    """Mean loss over the batch and dLoss/dy (same shape as y)."""
    diff = y - targets
    per_example = 0.25 * np.sum(diff[:, :4] ** 2, axis=1) + mu * diff[:, 4] ** 2
    grad = np.empty_like(y)
    grad[:, :4] = 0.5 * diff[:, :4]
    grad[:, 4] = 2.0 * mu * diff[:, 4]
    grad /= y.shape[0]
    return float(per_example.mean()), grad


def backward_batch(params: ModelParams, cache: Workspace, dy: np.ndarray) -> ModelParams:
    """Gradients of the (already batch-averaged) loss w.r.t. every weight and bias,
    in one vector laid out like `params`; unpacks as `(grads_w, grads_b)`.
    `cache` is the workspace that the batch's forward returned, and the vector
    is its `grad`, overwritten by the next call.

    The feedback block is treated as a constant input: no gradient flows into
    the previous timestep.
    """
    grads_w, grads_b = cache.grad
    dz, one_minus_y, dh_cat, dhs, dzs = cache.back
    y = cache.y
    np.multiply(dy, y, out=dz)
    dz *= np.subtract(1.0, y, out=one_minus_y)
    np.matmul(cache.h_cat.T, dz, out=grads_w[-1])
    np.add.reduce(dz, axis=0, out=grads_b[-1])
    dh = np.matmul(dz, params.weights[-1].T, out=dh_cat)[:, :params.shapes[-2][1]]

    acts = [cache.x, *cache.hidden]
    for layer in range(params.hidden_layer_count() - 1, -1, -1):
        mask = cache.masks[layer]
        if mask is not None:
            dh *= mask
        dz = np.greater(cache.zs[layer], 0.0, out=dzs[layer])
        np.multiply(dh, dz, out=dz)
        np.matmul(acts[layer].T, dz, out=grads_w[layer])
        np.add.reduce(dz, axis=0, out=grads_b[layer])
        if layer > 0:
            dh = np.matmul(dz, params.weights[layer].T, out=dhs[layer - 1])
    return cache.grad


@dataclass(frozen=True)
class OptConfig:
    lr: Annotated[float, Rule("at least", 0.0)] = 1e-3
    beta1: Annotated[float, Rule("at least", 0.0), Rule("below", 1.0)] = 0.9
    beta2: Annotated[float, Rule("at least", 0.0), Rule("below", 1.0)] = 0.999
    eps: Annotated[float, Rule("above", 0.0)] = 1e-8
    batch_size: Annotated[int, Rule("at least", 1)] = 32
    __post_init__ = check


class Adam:
    """Adam optimizer with state held across steps (and across federated rounds):
    the two moments and one scratch vector. A step after the first allocates
    nothing: once both moments are updated, the gradient is the second scratch."""

    def __init__(self, cfg: OptConfig):
        self.cfg = cfg
        self.t = 0
        self.m = self.v = None

    def step(self, params: ModelParams, grad: ModelParams) -> None:
        """Update `params` in place; `grad` holds scratch values afterwards."""
        if self.m is None:
            self.m, self.v, self._s = (np.zeros_like(params.flat) for _ in range(3))
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        g, m, v, s = grad.flat, self.m, self.v, self._s
        v *= c.beta2
        v += np.multiply(np.multiply(g, 1.0 - c.beta2, out=s), g, out=s)
        m *= c.beta1
        m += np.multiply(g, 1.0 - c.beta1, out=s)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), with g as scratch
        np.multiply(np.divide(m, bc1, out=s), c.lr, out=s)
        np.add(np.sqrt(np.divide(v, bc2, out=g), out=g), c.eps, out=g)
        params.flat -= np.divide(s, g, out=s)


class Trainer:
    """Bundles parameters, optimizer state, the shuffling/dropout stream and
    one workspace per batch size (the full batch and the last, partial one).
    The workspaces share one gradient vector, which `Adam.step` consumes.

    Reused verbatim by centralized training and by a federated client, which
    is what makes single-client federated averaging reproduce centralized
    training bit for bit.
    """

    def __init__(self, params: ModelParams, opt_cfg: OptConfig, seed: int):
        self.params = params
        self.opt = Adam(opt_cfg)
        self.rng = np.random.default_rng(seed)
        self.workspaces: dict[int, Workspace] = {}
        self.grad = replace(params, flat=np.empty_like(params.flat))

    def run_epochs(self, dataset: TrainingArrays, epochs: int) -> list[float]:
        """Epochs of shuffled mini-batch Adam, each batch in the workspace kept for
        its size; updates `params` in place, returns each epoch's mean batch loss."""
        X, FB, Y = dataset.X, dataset.FB, dataset.Y
        params, bs, n = self.params, self.opt.cfg.batch_size, X.shape[0]
        if n == 0:
            raise ValueError("empty training dataset")
        epoch_losses = []
        for _ in range(epochs):
            order, losses, weights = self.rng.permutation(n), [], []
            for start in range(0, n, bs):
                idx = order[start:start + bs]
                ws = workspace_for(self.workspaces, params, idx.size, grad=self.grad)
                y, ws = forward_batch(params, X[idx], FB[idx], training=True, rng=self.rng, ws=ws)
                loss, dy = _loss_grad_batch(y, Y[idx], params.mu)
                if not np.isfinite(loss):
                    raise RuntimeError(
                        f"training diverged: non-finite loss at batch starting {start}")
                self.opt.step(params, backward_batch(params, ws, dy))
                losses.append(loss)
                weights.append(idx.size)
            epoch_losses.append(float(np.average(losses, weights=weights)))
        return epoch_losses


def mean_loss(params: ModelParams, dataset: TrainingArrays) -> float:
    """Eval-mode mean loss over a dataset (no dropout, no updates).

    The n rows go forward in ceil(n / EVAL_ROWS) near-equal chunks (one,
    empty, when n is 0), each through a workspace made with
    `keep_layers=False`, and their outputs fill one (n, 5) array; the loss is
    taken once over that array, so it sums in the same order as one batch
    and, by the row rule (module docstring), has one batch's bits. No chunk
    holds a single row unless n is 1: more than 256 rows give chunks of 128
    to 256."""
    n = dataset.X.shape[0]
    chunks = max(1, -(-n // EVAL_ROWS))
    y = np.empty((n, OUTPUT_DIM))
    workspaces: dict[int, Workspace] = {}   # the chunks have at most two sizes
    for i in range(chunks):
        rows = slice(i * n // chunks, (i + 1) * n // chunks)
        ws = workspace_for(workspaces, params, rows.stop - rows.start, keep_layers=False)
        y[rows], _ = forward_batch(params, dataset.X[rows], dataset.FB[rows], ws=ws)
    loss, _ = _loss_grad_batch(y, dataset.Y, params.mu)
    return loss


# --- binary parameter format -------------------------------------------------

def params_to_bytes(params: ModelParams) -> bytes:
    """Serialize: magic, version, layer count, per-layer weight blocks, biases,
    then mu and dropout. All integers u32, floats little-endian float64."""
    parts = [FMDF_MAGIC, struct.pack("<II", FMDF_VERSION, len(params.shapes))]
    for block in _layout(params.flat, params.shapes):
        parts += struct.pack(f"<{block.ndim}I", *block.shape), block.astype("<f8", copy=False)
    parts.append(struct.pack("<dd", params.mu, params.dropout))
    return b"".join(parts)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = memoryview(buf)
        self.off = 0

    def take(self, n: int, what: str) -> memoryview:   # a view of the blob, not a copy
        if self.off + n > len(self.buf):
            raise DecodeError(f"truncated blob: needed {n} bytes for {what} at offset {self.off}")
        chunk = self.buf[self.off:self.off + n]
        self.off += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def f64s(self, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(8 * count, what), dtype="<f8")


def params_from_bytes(buf: bytes) -> ModelParams:
    r = _Reader(buf)
    magic = bytes(r.take(4, "magic"))
    if magic != FMDF_MAGIC:
        raise DecodeError(f"bad magic {magic!r} at offset 0")
    version = r.u32("version")
    if version != FMDF_VERSION:
        raise DecodeError(f"unsupported format version {version} at offset 4")
    n_layers = r.u32("layer count")
    if n_layers == 0 or n_layers > 4096:
        raise DecodeError(f"implausible layer count {n_layers} at offset 8")
    shapes, chunks = [], []
    for i in range(n_layers):
        at = r.off
        rows = r.u32(f"layer {i} rows")
        cols = r.u32(f"layer {i} cols")
        if rows == 0 or cols == 0:
            raise DecodeError(f"zero-sized layer {i} at offset {at}")
        shapes.append((rows, cols))
        chunks.append(r.f64s(rows * cols, f"layer {i} weights"))
    for i, (_, cols) in enumerate(shapes):
        if r.u32(f"bias {i} length") != cols:
            raise DecodeError(f"bias {i} length does not match layer width at offset {r.off - 4}")
        chunks.append(r.f64s(cols, f"bias {i}"))
    mu, dropout = struct.unpack("<dd", r.take(16, "config block"))
    try:
        ModelConfig(dropout=dropout, mu=mu)   # the config block meets the model's rules
    except ValueError as exc:
        raise DecodeError(f"{exc} in the config block at offset {r.off - 16}") from None
    if r.off != len(buf):
        raise DecodeError(f"trailing bytes at offset {r.off}")
    return ModelParams(np.concatenate(chunks, dtype=np.float64), shapes, dropout=dropout, mu=mu)


def save_model(params: ModelParams, path) -> None:
    with open(path, "wb") as f:
        f.write(params_to_bytes(params))


def load_model(path) -> ModelParams:
    """The parameters in an FMDF file; a DecodeError names the file."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return params_from_bytes(blob)
    except DecodeError as exc:
        raise DecodeError(f"{path}: {exc}") from None
