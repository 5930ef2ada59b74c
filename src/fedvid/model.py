"""Box-prediction network: a from-scratch feed-forward model with a feedback input.

Ten ReLU hidden layers with inverted dropout, the previous tick's decided box
concatenated onto the last hidden activation, and a sigmoid output of length
five (four box coordinates plus an inside-image probability). Gradients are
hand-derived; training uses mini-batch Adam. The parameter set round-trips
through a little-endian binary format (magic "FMDF") that is also the wire
encoding for federated exchange.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .labeling import TrainingArrays

FMDF_MAGIC = b"FMDF"
FMDF_VERSION = 1


class ConfigError(ValueError):
    """Invalid model configuration (e.g. zero-width layer)."""


class DecodeError(ValueError):
    """Malformed parameter blob; message names the failing byte offset."""


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int = 11
    hidden_width: int = 64
    hidden_layers: int = 10
    feedback_dim: int = 4
    output_dim: int = 5
    dropout: float = 0.3
    mu: float = 1.0

    def widths(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) of every affine layer, feedback concat included."""
        dims = [self.input_dim] + [self.hidden_width] * self.hidden_layers
        shapes = [(dims[i], dims[i + 1]) for i in range(self.hidden_layers)]
        shapes.append((self.hidden_width + self.feedback_dim, self.output_dim))
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
    if any(fi <= 0 or fo <= 0 for fi, fo in shapes):
        raise ConfigError(f"zero-width layer in {shapes}")
    params = ModelParams(np.zeros(sum((fi + 1) * fo for fi, fo in shapes)), shapes,
                         dropout=cfg.dropout, mu=cfg.mu)
    for w, (fan_in, fan_out) in zip(params.weights, shapes):
        limit = np.sqrt(6.0 / fan_in)
        w[...] = rng.uniform(-limit, limit, (fan_in, fan_out))
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def forward_batch(params: ModelParams, x: np.ndarray, fb: np.ndarray,
                  training: bool = False, rng=None):
    """Batched forward pass.

    x: (B, input_dim), fb: (B, feedback_dim). Returns (outputs (B, 5), cache).
    Inverted dropout is applied to every hidden activation when training; the
    concatenated feedback is never dropped.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    fb = np.atleast_2d(np.asarray(fb, dtype=np.float64))
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(fb)):
        raise ValueError("non-finite model input")
    if training and rng is None:
        raise ValueError("training forward requires an rng for dropout")

    n_hidden = params.hidden_layer_count()
    keep = 1.0 - params.dropout
    h = x
    zs, acts, masks = [], [x], []
    for layer in range(n_hidden):
        z = h @ params.weights[layer] + params.biases[layer]
        a = np.maximum(z, 0.0)
        if training and params.dropout > 0.0:
            mask = (rng.random(a.shape) >= params.dropout) / keep
        else:
            mask = None
        h = a * mask if mask is not None else a
        zs.append(z)
        masks.append(mask)
        acts.append(h)
    h_cat = np.concatenate([h, fb], axis=1)
    z_out = h_cat @ params.weights[-1] + params.biases[-1]
    y = _sigmoid(z_out)
    cache = {"zs": zs, "acts": acts, "masks": masks, "h_cat": h_cat, "y": y}
    return y, cache


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


def backward_batch(params: ModelParams, cache, dy: np.ndarray) -> ModelParams:
    """Gradients of the (already batch-averaged) loss w.r.t. every weight and bias,
    in one vector laid out like `params`; unpacks as `(grads_w, grads_b)`.

    The feedback block is treated as a constant input: no gradient flows into
    the previous timestep.
    """
    grad = replace(params, flat=np.empty_like(params.flat))
    grads_w, grads_b = grad
    y = cache["y"]
    dz = dy * y * (1.0 - y)
    np.matmul(cache["h_cat"].T, dz, out=grads_w[-1])
    np.sum(dz, axis=0, out=grads_b[-1])
    hidden_width = params.shapes[-2][1]
    dh = (dz @ params.weights[-1].T)[:, :hidden_width]

    for layer in range(params.hidden_layer_count() - 1, -1, -1):
        mask = cache["masks"][layer]
        if mask is not None:
            dh = dh * mask
        dz = dh * (cache["zs"][layer] > 0.0)
        np.matmul(cache["acts"][layer].T, dz, out=grads_w[layer])
        np.sum(dz, axis=0, out=grads_b[layer])
        if layer > 0:
            dh = dz @ params.weights[layer].T
    return grad


@dataclass(frozen=True)
class OptConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 32


class Adam:
    """Adam optimizer with state held across steps (and across federated rounds)."""

    def __init__(self, cfg: OptConfig):
        self.cfg = cfg
        self.t = 0
        self.m = self.v = None

    def step(self, params: ModelParams, grad: ModelParams) -> None:
        if self.m is None:   # moments, and two scratch vectors so that a step allocates nothing
            self.m, self.v, self._s, self._d = (np.zeros_like(params.flat) for _ in range(4))
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        g, m, v, s, d = grad.flat, self.m, self.v, self._s, self._d
        m *= c.beta1
        m += np.multiply(g, 1.0 - c.beta1, out=s)
        v *= c.beta2
        v += np.multiply(np.multiply(g, 1.0 - c.beta2, out=s), g, out=s)
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(np.divide(m, bc1, out=s), c.lr, out=s)
        np.add(np.sqrt(np.divide(v, bc2, out=d), out=d), c.eps, out=d)
        params.flat -= np.divide(s, d, out=s)


def train_epoch(params: ModelParams, dataset: TrainingArrays, opt: Adam,
                rng) -> tuple[ModelParams, float]:
    """One pass of seeded, shuffled mini-batch Adam over a dataset.

    Mutates `params` in place and returns it with the mean batch loss.
    Aborts on a non-finite loss.
    """
    X, FB, Y = dataset.X, dataset.FB, dataset.Y
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty training dataset")

    order = rng.permutation(n)
    losses = []
    weights = []
    bs = opt.cfg.batch_size
    for start in range(0, n, bs):
        idx = order[start:start + bs]
        y, cache = forward_batch(params, X[idx], FB[idx], training=True, rng=rng)
        loss, dy = _loss_grad_batch(y, Y[idx], params.mu)
        if not np.isfinite(loss):
            raise RuntimeError(
                f"training diverged: non-finite loss at batch starting {start}"
            )
        opt.step(params, backward_batch(params, cache, dy))
        losses.append(loss)
        weights.append(len(idx))
    epoch_loss = float(np.average(losses, weights=weights))
    return params, epoch_loss


class Trainer:
    """Bundles parameters, optimizer state, and the shuffling/dropout stream.

    Reused verbatim by centralized training and by a federated client, which
    is what makes single-client federated averaging reproduce centralized
    training bit for bit.
    """

    def __init__(self, params: ModelParams, opt_cfg: OptConfig, seed: int):
        self.params = params
        self.opt = Adam(opt_cfg)
        self.rng = np.random.default_rng(seed)

    def run_epochs(self, dataset: TrainingArrays, epochs: int) -> list[float]:
        losses = []
        for _ in range(epochs):
            _, loss = train_epoch(self.params, dataset, self.opt, self.rng)
            losses.append(loss)
        return losses


def mean_loss(params: ModelParams, dataset: TrainingArrays) -> float:
    """Eval-mode mean loss over a dataset (no dropout, no updates)."""
    y, _ = forward_batch(params, dataset.X, dataset.FB, training=False)
    loss, _ = _loss_grad_batch(y, dataset.Y, params.mu)
    return loss


# --- binary parameter format -------------------------------------------------

def params_to_bytes(params: ModelParams) -> bytes:
    """Serialize: magic, version, layer count, per-layer weight blocks, biases,
    then mu and dropout. All integers u32, floats little-endian float64."""
    out = bytearray()
    out += FMDF_MAGIC
    out += struct.pack("<II", FMDF_VERSION, len(params.shapes))
    for block in _layout(params.flat, params.shapes):
        out += struct.pack(f"<{block.ndim}I", *block.shape)
        out += block.astype("<f8", copy=False).tobytes()
    out += struct.pack("<dd", params.mu, params.dropout)
    return bytes(out)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
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
    magic = r.take(4, "magic")
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
    if r.off != len(buf):
        raise DecodeError(f"trailing bytes at offset {r.off}")
    return ModelParams(np.concatenate(chunks, dtype=np.float64), shapes, dropout=dropout, mu=mu)


def save_model(params: ModelParams, path) -> None:
    with open(path, "wb") as f:
        f.write(params_to_bytes(params))


def load_model(path) -> ModelParams:
    with open(path, "rb") as f:
        return params_from_bytes(f.read())
