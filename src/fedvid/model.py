"""Box-prediction network: a from-scratch feed-forward model with a feedback input.

Ten ReLU hidden layers with inverted dropout, the previous tick's decided box
concatenated onto the last hidden activation, and a sigmoid output of length
five (four box coordinates plus an inside-image probability). Gradients are
hand-derived; training uses mini-batch Adam. The parameter set round-trips
through a little-endian binary format (magic "FMDF") that is also the wire
encoding for federated exchange.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
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


@dataclass
class ModelParams:
    weights: list[np.ndarray]   # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]    # per layer, shape (fan_out,)
    dropout: float
    mu: float

    def copy(self) -> "ModelParams":
        return ModelParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            dropout=self.dropout,
            mu=self.mu,
        )

    def param_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def hidden_layer_count(self) -> int:
        return len(self.weights) - 1


def init_model(cfg: ModelConfig, rng) -> ModelParams:
    """He-style fan-in scaled uniform initialization; biases start at zero."""
    shapes = cfg.widths()
    if any(fi <= 0 or fo <= 0 for fi, fo in shapes):
        raise ConfigError(f"zero-width layer in {shapes}")
    weights = []
    biases = []
    for fan_in, fan_out in shapes:
        limit = np.sqrt(6.0 / fan_in)
        weights.append(np.asarray(rng.uniform(-limit, limit, (fan_in, fan_out)), dtype=np.float64))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights=weights, biases=biases, dropout=cfg.dropout, mu=cfg.mu)


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


def backward_batch(params: ModelParams, cache, dy: np.ndarray):
    """Gradients of the (already batch-averaged) loss w.r.t. every weight and bias.

    The feedback block is treated as a constant input: no gradient flows into
    the previous timestep.
    """
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    y = cache["y"]
    dz = dy * y * (1.0 - y)
    grads_w[-1] = cache["h_cat"].T @ dz
    grads_b[-1] = dz.sum(axis=0)
    hidden_width = params.weights[-2].shape[1]
    dh = (dz @ params.weights[-1].T)[:, :hidden_width]

    for layer in range(params.hidden_layer_count() - 1, -1, -1):
        mask = cache["masks"][layer]
        if mask is not None:
            dh = dh * mask
        dz = dh * (cache["zs"][layer] > 0.0)
        grads_w[layer] = cache["acts"][layer].T @ dz
        grads_b[layer] = dz.sum(axis=0)
        if layer > 0:
            dh = dz @ params.weights[layer].T
    return grads_w, grads_b


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
        self.m_w = self.v_w = self.m_b = self.v_b = None

    def _ensure_state(self, params: ModelParams):
        if self.m_w is None:
            self.m_w = [np.zeros_like(w) for w in params.weights]
            self.v_w = [np.zeros_like(w) for w in params.weights]
            self.m_b = [np.zeros_like(b) for b in params.biases]
            self.v_b = [np.zeros_like(b) for b in params.biases]

    def step(self, params: ModelParams, grads_w, grads_b) -> None:
        self._ensure_state(params)
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for i in range(len(params.weights)):
            for p, g, m, v in (
                (params.weights[i], grads_w[i], self.m_w[i], self.v_w[i]),
                (params.biases[i], grads_b[i], self.m_b[i], self.v_b[i]),
            ):
                m *= c.beta1
                m += (1.0 - c.beta1) * g
                v *= c.beta2
                v += (1.0 - c.beta2) * g * g
                p -= c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)


def train_epoch(params: ModelParams, dataset: TrainingArrays, opt,
                rng) -> tuple[ModelParams, float]:
    """One pass of seeded, shuffled mini-batch Adam over a dataset.

    Mutates `params` in place and returns it with the mean batch loss.
    Aborts on a non-finite loss.
    """
    X, FB, Y = dataset.X, dataset.FB, dataset.Y
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty training dataset")
    if isinstance(opt, OptConfig):
        opt = Adam(opt)

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
        gw, gb = backward_batch(params, cache, dy)
        opt.step(params, gw, gb)
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
    out += struct.pack("<I", FMDF_VERSION)
    out += struct.pack("<I", len(params.weights))
    for w in params.weights:
        rows, cols = w.shape
        out += struct.pack("<II", rows, cols)
        out += np.ascontiguousarray(w, dtype="<f8").tobytes()
    for b in params.biases:
        out += struct.pack("<I", b.size)
        out += np.ascontiguousarray(b, dtype="<f8").tobytes()
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
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)


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
    weights = []
    for i in range(n_layers):
        at = r.off
        rows = r.u32(f"layer {i} rows")
        cols = r.u32(f"layer {i} cols")
        if rows == 0 or cols == 0:
            raise DecodeError(f"zero-sized layer {i} at offset {at}")
        weights.append(r.f64s(rows * cols, f"layer {i} weights").reshape(rows, cols))
    biases = [r.f64s(r.u32(f"bias {i} length"), f"bias {i}") for i in range(n_layers)]
    mu, dropout = struct.unpack("<dd", r.take(16, "config block"))
    if r.off != len(buf):
        raise DecodeError(f"trailing bytes at offset {r.off}")
    for w, b in zip(weights, biases):
        if w.shape[1] != b.size:
            raise DecodeError("bias length does not match layer width")
    return ModelParams(weights=weights, biases=biases, dropout=dropout, mu=mu)


def save_model(params: ModelParams, path) -> None:
    with open(path, "wb") as f:
        f.write(params_to_bytes(params))


def load_model(path) -> ModelParams:
    with open(path, "rb") as f:
        return params_from_bytes(f.read())
