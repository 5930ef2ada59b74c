import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvid import labeling, model as mdl
from fedvid.plates import fnv1a64

NARROW = mdl.ModelConfig(input_dim=11, hidden_width=8, hidden_layers=10)


def _equal_params(a: mdl.ModelParams, b: mdl.ModelParams) -> bool:
    return (
        all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
        and a.mu == b.mu and a.dropout == b.dropout
    )


def _toy_dataset(n=50, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 11))
    FB = rng.random((n, 4))
    Y = np.column_stack([
        0.2 + 0.5 * X[:, 0], 0.2 + 0.5 * X[:, 1],
        0.4 + 0.5 * X[:, 0], 0.4 + 0.5 * X[:, 1],
        (X[:, 2] > 0.5).astype(float),
    ])
    return labeling.TrainingArrays(X=X, FB=FB, Y=Y)


# --- init ---------------------------------------------------------------------

def test_init_deterministic():
    cfg = mdl.ModelConfig()
    a = mdl.init_model(cfg, np.random.default_rng(3))
    b = mdl.init_model(cfg, np.random.default_rng(3))
    assert _equal_params(a, b)


def test_init_param_count_closed_form():
    cfg = mdl.ModelConfig()
    params = mdl.init_model(cfg, np.random.default_rng(0))
    w, h, fb, out = 11, 64, 4, 5
    expected = (w * h + h) + 9 * (h * h + h) + ((h + fb) * out + out)
    assert params.param_count() == expected


def test_init_zero_variance_stub():
    class StubRng:
        def uniform(self, low, high, size):
            return np.full(size, 0.0125)

    params = mdl.init_model(mdl.ModelConfig(), StubRng())
    for w in params.weights:
        assert np.all(w == w.flat[0])


def test_init_rejects_zero_width():
    with pytest.raises(ValueError, match="^hidden_width 0 is not at least 1$"):
        mdl.init_model(mdl.ModelConfig(hidden_width=0), np.random.default_rng(0))


# --- forward ------------------------------------------------------------------

def _predict(params, x, fb):
    """Eval-mode output row for one example."""
    y, _ = mdl.forward_batch(params, x[None, :], fb[None, :])
    return y[0]


def test_forward_eval_deterministic():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(1))
    x = np.random.default_rng(2).random(11)
    fb = np.zeros(4)
    a = _predict(params, x, fb)
    b = _predict(params, x, fb)
    assert np.array_equal(a, b)


def test_forward_outputs_in_open_unit_interval():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(4))
    rng = np.random.default_rng(5)
    for _ in range(20):
        out = _predict(params, rng.random(11) * 10 - 5, rng.random(4))
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_forward_rejects_nonfinite():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(4))
    x = np.full(11, np.nan)
    with pytest.raises(ValueError):
        _predict(params, x, np.zeros(4))


def test_forward_names_both_input_widths():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(4))
    with pytest.raises(ValueError, match="^the model takes 11 input features, the data has 7$"):
        mdl.forward_batch(params, np.zeros((3, 7)), np.zeros((3, 4)))


def test_forward_requires_rng_when_training():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(4))
    with pytest.raises(ValueError):
        mdl.forward_batch(params, np.zeros((1, 11)), np.zeros((1, 4)), training=True)


def test_inverted_dropout_identity_per_layer_monte_carlo():
    # the inverted-dropout identity is per-layer unbiasedness: the Monte Carlo
    # mean of a dropped activation equals the eval-mode activation
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(6))
    x = np.random.default_rng(7).random(11)
    fb = np.random.default_rng(8).random(4)
    _, ws = mdl.forward_batch(params, x[None, :], fb[None, :], training=False)
    act = ws.hidden[0][0]
    rng = np.random.default_rng(9)
    n = 10_000
    masks = (rng.random((n, act.size)) >= params.dropout) / (1.0 - params.dropout)
    mc = (masks * act).mean(axis=0)
    rel = np.abs(mc - act) / np.maximum(np.abs(act), 1e-9)
    assert np.max(rel) <= 0.02


def test_dropout_monte_carlo_tracks_eval_through_network():
    # through the deep ReLU/sigmoid stack the MC mean is only approximately
    # the eval forward (Jensen bias compounds); it must still stay close
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(6))
    x = np.random.default_rng(7).random(11)
    fb = np.random.default_rng(8).random(4)
    n = 10_000
    X = np.tile(x, (n, 1))
    FB = np.tile(fb, (n, 1))
    y_train, _ = mdl.forward_batch(params, X, FB, training=True, rng=np.random.default_rng(9))
    mc = y_train.mean(axis=0)
    y_eval, _ = mdl.forward_batch(params, x[None, :], fb[None, :], training=False)
    assert np.all(np.abs(mc - y_eval[0]) <= 0.2)


def test_feedback_changes_output():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(10))
    x = np.random.default_rng(11).random(11)
    a = _predict(params, x, np.zeros(4))
    b = _predict(params, x, np.ones(4))
    assert not np.array_equal(a, b)


# --- loss ---------------------------------------------------------------------

def test_loss_zero_iff_exact():
    target = np.array([0.1, 0.2, 0.3, 0.4, 1.0])
    assert mdl.loss_bbx(target, target, mu=1.0) == 0.0
    off = target + np.array([0.01, 0, 0, 0, 0])
    assert mdl.loss_bbx(off, target, mu=1.0) > 0.0


def test_loss_box_offset_example():
    target = np.array([0.1, 0.2, 0.3, 0.4, 1.0])
    pred = target + np.array([0.1, 0.1, 0.1, 0.1, 0.0])
    assert mdl.loss_bbx(pred, target, mu=1.0) == pytest.approx(0.01)


def test_loss_inside_weight_example():
    target = np.array([0.1, 0.2, 0.3, 0.4, 1.0])
    pred = np.array([0.1, 0.2, 0.3, 0.4, 0.0])
    assert mdl.loss_bbx(pred, target, mu=2.0) == pytest.approx(2.0)


# --- gradients ------------------------------------------------------------------

def _numeric_gradients(params, x, fb, target, eps=1e-5):
    def loss():
        y, _ = mdl.forward_batch(params, x, fb, training=False)
        return mdl.loss_bbx(y[0], target, params.mu)

    num_w, num_b = [], []
    for arr_list, out in ((params.weights, num_w), (params.biases, num_b)):
        for arr in arr_list:
            g = np.zeros_like(arr)
            flat = arr.ravel()
            gflat = g.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                lp = loss()
                flat[k] = orig - eps
                lm = loss()
                flat[k] = orig
                gflat[k] = (lp - lm) / (2 * eps)
            out.append(g)
    return num_w, num_b


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_gradients_match_finite_differences_every_parameter():
    # full-depth network at narrow width so every parameter is affordable
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        params = mdl.init_model(NARROW, rng)
        x = rng.random((1, 11))
        fb = rng.random((1, 4))
        target = rng.random(5)
        y, cache = mdl.forward_batch(params, x, fb, training=False)
        _, dy = mdl._loss_grad_batch(y, target[None, :], params.mu)
        gw, gb = mdl.backward_batch(params, cache, dy)
        nw, nb = _numeric_gradients(params, x, fb, target)
        assert _max_rel_err(gw, nw) < 1e-4
        assert _max_rel_err(gb, nb) < 1e-4


def test_no_gradient_flows_into_feedback_weights_only():
    # gradient w.r.t. the feedback slice of the output weights exists, but
    # nothing propagates into the previous timestep (no fb gradient output)
    rng = np.random.default_rng(0)
    params = mdl.init_model(NARROW, rng)
    x, fb = rng.random((1, 11)), rng.random((1, 4))
    y, cache = mdl.forward_batch(params, x, fb, training=False)
    _, dy = mdl._loss_grad_batch(y, rng.random((1, 5)), params.mu)
    gw, gb = mdl.backward_batch(params, cache, dy)
    assert gw[-1].shape == params.weights[-1].shape


# --- training -----------------------------------------------------------------

def test_train_converges_on_separable_toy_set():
    data = _toy_dataset()
    cfg = mdl.ModelConfig(dropout=0.0)
    trainer = mdl.Trainer(mdl.init_model(cfg, np.random.default_rng(1)), mdl.OptConfig(), seed=2)
    losses = trainer.run_epochs(data, 200)
    assert losses[-1] <= 0.1 * losses[0]


def test_zero_learning_rate_leaves_params():
    data = _toy_dataset()
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(1))
    before = params.copy()
    trainer = mdl.Trainer(params, mdl.OptConfig(lr=0.0), seed=3)
    trainer.run_epochs(data, 2)
    assert _equal_params(trainer.params, before)


def test_single_step_descends_for_small_lr():
    rng = np.random.default_rng(12)
    X = rng.random((1, 11)); FB = rng.random((1, 4)); Y = rng.random((1, 5))
    data = labeling.TrainingArrays(X=X, FB=FB, Y=Y)
    cfg = mdl.ModelConfig(dropout=0.0)
    params = mdl.init_model(cfg, np.random.default_rng(13))
    before = mdl.mean_loss(params, data)
    mdl.Trainer(params, mdl.OptConfig(lr=1e-5), seed=14).run_epochs(data, 1)
    after = mdl.mean_loss(params, data)
    assert after <= before + 1e-12


def test_train_epoch_bit_reproducible():
    data = _toy_dataset()
    results = []
    for _ in range(2):
        trainer = mdl.Trainer(mdl.init_model(mdl.ModelConfig(), np.random.default_rng(1)),
                              mdl.OptConfig(), seed=4)
        trainer.run_epochs(data, 3)
        results.append(trainer.params)
    assert _equal_params(results[0], results[1])


def test_train_epoch_rejects_empty_dataset():
    empty = labeling.TrainingArrays(X=np.zeros((0, 11)), FB=np.zeros((0, 4)), Y=np.zeros((0, 5)))
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(1))
    with pytest.raises(ValueError, match="^empty training dataset$"):
        mdl.Trainer(params, mdl.OptConfig(), seed=0).run_epochs(empty, 1)


def test_train_aborts_on_nonfinite_loss():
    data = _toy_dataset(n=8)
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(1))
    params.weights[0][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            RuntimeError, match="non-finite loss at batch starting 0$"):
        mdl.Trainer(params, mdl.OptConfig(), seed=0).run_epochs(data, 1)


# --- workspaces ---------------------------------------------------------------------

def _reference_forward(params, x, fb, training=False, rng=None):
    """The forward pass with a fresh array per layer and one dropout draw per
    layer: the arithmetic that a workspace must reproduce bit for bit."""
    h, zs, acts, masks = x, [], [x], []
    for layer in range(params.hidden_layer_count()):
        z = h @ params.weights[layer] + params.biases[layer]
        a = np.maximum(z, 0.0)
        mask = None
        if training and params.dropout > 0.0:
            mask = (rng.random(a.shape) >= params.dropout) / (1.0 - params.dropout)
        h = a * mask if mask is not None else a
        zs.append(z)
        acts.append(h)
        masks.append(mask)
    h_cat = np.concatenate([h, fb], axis=1)
    y = mdl._sigmoid(h_cat @ params.weights[-1] + params.biases[-1])
    return y, {"zs": zs, "acts": acts, "masks": masks, "h_cat": h_cat, "y": y}


def _reference_backward(params, cache, dy):
    grads_w = [np.empty_like(w) for w in params.weights]
    grads_b = [np.empty_like(b) for b in params.biases]
    y = cache["y"]
    dz = dy * y * (1.0 - y)
    grads_w[-1], grads_b[-1] = cache["h_cat"].T @ dz, np.sum(dz, axis=0)
    dh = (dz @ params.weights[-1].T)[:, :params.shapes[-2][1]]
    for layer in range(params.hidden_layer_count() - 1, -1, -1):
        if cache["masks"][layer] is not None:
            dh = dh * cache["masks"][layer]
        dz = dh * (cache["zs"][layer] > 0.0)
        grads_w[layer], grads_b[layer] = cache["acts"][layer].T @ dz, np.sum(dz, axis=0)
        if layer > 0:
            dh = dz @ params.weights[layer].T
    return np.concatenate([g.ravel() for g in (*grads_w, *grads_b)])


_WS_PARAMS = {p: mdl.init_model(mdl.ModelConfig(dropout=p), np.random.default_rng(30))
              for p in (0.0, 0.3)}
_WORKSPACES = {p: {} for p in _WS_PARAMS}   # shared by every example, as a Trainer's are


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(1, 70), dropout=st.sampled_from(sorted(_WS_PARAMS)),
       training=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_workspace_outputs_and_gradients_are_byte_identical(batch, dropout, training, seed):
    params = _WS_PARAMS[dropout]
    ws = mdl.workspace_for(_WORKSPACES[dropout], params, batch)
    data = np.random.default_rng(seed)
    x, fb, target = data.random((batch, 11)), data.random((batch, 4)), data.random((batch, 5))

    runs = []
    for kind in ("workspace", "none", "reference"):
        rng = np.random.default_rng(seed) if training else None
        if kind == "reference":
            y, cache = _reference_forward(params, x, fb, training, rng)
            grad = _reference_backward(params, cache, mdl._loss_grad_batch(y, target, params.mu)[1])
        else:
            use = ws if kind == "workspace" else None
            y, cache = mdl.forward_batch(params, x, fb, training=training, rng=rng, ws=use)
            dy = mdl._loss_grad_batch(y, target, params.mu)[1]
            grad = mdl.backward_batch(params, cache, dy).flat
        runs.append((y.tobytes(), grad.tobytes()))
    assert runs[0] == runs[1] == runs[2]


def _reference_epoch(params, dataset, opt, rng):
    """One epoch as the `Trainer` runs it, through the reference passes: a
    permutation, then forward, backward and an Adam step per batch."""
    n, bs = dataset.X.shape[0], opt.cfg.batch_size
    order, losses, weights = rng.permutation(n), [], []
    for start in range(0, n, bs):
        idx = order[start:start + bs]
        y, cache = _reference_forward(params, dataset.X[idx], dataset.FB[idx], True, rng)
        loss, dy = mdl._loss_grad_batch(y, dataset.Y[idx], params.mu)
        grad = _reference_backward(params, cache, dy)
        opt.step(params, mdl.ModelParams(grad, params.shapes, params.dropout, params.mu))
        losses.append(loss)
        weights.append(idx.size)
    return float(np.average(losses, weights=weights))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 70), dropout=st.sampled_from(sorted(_WS_PARAMS)),
       seed=st.integers(0, 2**32 - 1))
def test_run_epochs_matches_a_reference_epoch(n, dropout, seed):
    # n need not be a multiple of the batch size: the last batch is partial
    data = np.random.default_rng(seed)
    dataset = labeling.TrainingArrays(X=data.random((n, 11)), FB=data.random((n, 4)),
                                      Y=data.random((n, 5)))
    trainer = mdl.Trainer(_WS_PARAMS[dropout].copy(), mdl.OptConfig(), seed=seed)
    losses = trainer.run_epochs(dataset, 2)
    assert set(trainer.workspaces) == {min(n, 32), n % 32 or 32}

    params, opt = _WS_PARAMS[dropout].copy(), mdl.Adam(mdl.OptConfig())
    rng = np.random.default_rng(seed)
    reference = [_reference_epoch(params, dataset, opt, rng) for _ in range(2)]
    assert losses == reference
    assert trainer.params.flat.tobytes() == params.flat.tobytes()


def test_adam_holds_three_vectors_and_a_step_allocates_nothing_after_the_first():
    # the gradient's own vector is the second scratch, so a step consumes it;
    # the bits are those of the textbook expression, moment by moment
    import tracemalloc

    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(34))
    cfg, data = mdl.OptConfig(), np.random.default_rng(35)
    opt, expected = mdl.Adam(cfg), params.flat.copy()
    m = v = np.zeros_like(expected)
    for t in (1, 2):
        g = data.standard_normal(expected.size)
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        expected -= (m / (1.0 - cfg.beta1 ** t) * cfg.lr
                     / (np.sqrt(v / (1.0 - cfg.beta2 ** t)) + cfg.eps))
        grad = mdl.ModelParams(g, params.shapes, params.dropout, params.mu)
        tracemalloc.start()
        try:
            opt.step(params, grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.flat.tobytes() == expected.tobytes()
    assert peak < params.flat.nbytes // 100, f"the second step allocated {peak} B"
    vectors = [a for a in vars(opt).values() if isinstance(a, np.ndarray)]
    assert len(vectors) == 3 and all(a.size == params.flat.size for a in vectors)


def test_trainer_workspaces_share_one_gradient_vector():
    trainer = mdl.Trainer(mdl.init_model(mdl.ModelConfig(), np.random.default_rng(36)),
                          mdl.OptConfig(batch_size=32), seed=37)
    trainer.run_epochs(_toy_dataset(n=40), 1)   # a full batch of 32, then a tail of 8
    full, tail = trainer.workspaces.values()
    assert full.batch != tail.batch and full.grad is tail.grad


def test_mean_loss_peak_memory_stays_below_eight_row_buffers():
    # an evaluation keeps two alternating hidden buffers, not one per layer
    import tracemalloc

    n = 1208
    data = _toy_dataset(n=n, seed=31)
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(32))
    mdl.mean_loss(params, data)
    tracemalloc.start()
    try:
        mdl.mean_loss(params, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 64 * 8, f"peak {peak / (n * 64 * 8):.1f} row buffers"


def test_a_row_has_the_same_bits_in_every_batch_from_two_rows_up():
    # the row rule of the module docstring, which mean_loss and
    # experiment.predict_run rely on; one row alone is allowed other bits
    rng = np.random.default_rng(12)
    X, FB = rng.uniform(-2.0, 2.0, (300, 11)), rng.random((300, 4))
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(13))
    whole, _ = mdl.forward_batch(params, X, FB)
    for n in range(2, 301):
        for rows in (slice(0, n), slice(300 - n, 300)):
            y, _ = mdl.forward_batch(params, X[rows], FB[rows])
            assert y.tobytes() == whole[rows].tobytes(), (
                f"rows {rows.start}:{rows.stop} have other bits in a batch of {n} than "
                "in one of 300: this BLAS breaks the row rule (fedvid.model's docstring), "
                "so mean_loss and predict_run no longer give one batch's bits")


@pytest.mark.parametrize("n", [1, 2, 3, 1023, 1024, 1025, 2047, 2049, 5000])
def test_chunked_mean_loss_equals_one_batch_bit_for_bit(n, monkeypatch):
    # one batch's bits, as measured with numpy 2.4 and OpenBLAS 0.3.31
    # (scipy-openblas, Haswell kernels); another BLAS may compute a chunk's
    # rows otherwise. A one-row chunk's outputs differ in their last bits,
    # which the mean can hide, so the chunks' outputs are compared as well
    rng = np.random.default_rng(n)
    data = labeling.TrainingArrays(X=rng.random((n, 11)), FB=rng.random((n, 4)),
                                   Y=rng.random((n, 5)))
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(33))
    ws = mdl.Workspace(params, n, keep_layers=False)
    y, _ = mdl.forward_batch(params, data.X, data.FB, ws=ws)
    reference, _ = mdl._loss_grad_batch(y, data.Y, params.mu)

    chunks, forward = [], mdl.forward_batch

    def recording_forward(*args, **kwargs):
        out, cache = forward(*args, **kwargs)
        chunks.append(out.copy())
        return out, cache

    monkeypatch.setattr(mdl, "forward_batch", recording_forward)
    assert mdl.mean_loss(params, data) == reference
    assert len(chunks) == -(-n // mdl.EVAL_ROWS)
    assert n == 1 or min(len(c) for c in chunks) > 1
    assert np.concatenate(chunks).tobytes() == y.tobytes()


def test_mean_loss_memory_does_not_grow_with_the_rows():
    # one batch of 20,000 rows would take 20,000 x 1,608 B = 32 MB of workspace
    import tracemalloc

    data = _toy_dataset(n=20_000, seed=34)
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(35))
    tracemalloc.start()
    try:
        mdl.mean_loss(params, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_dropout_drawn_once_per_training_batch(monkeypatch):
    calls = []
    draw = mdl.dropout_masks

    def counting(rng, dropout, out):
        calls.append(out.size)
        return draw(rng, dropout, out)

    monkeypatch.setattr(mdl, "dropout_masks", counting)
    data = _toy_dataset(n=70)   # batches of 32, 32 and 6
    trainer = mdl.Trainer(mdl.init_model(mdl.ModelConfig(), np.random.default_rng(1)),
                          mdl.OptConfig(), seed=2)
    trainer.run_epochs(data, 2)
    assert calls == [32 * 64 * 10, 32 * 64 * 10, 6 * 64 * 10] * 2

    calls.clear()
    mdl.mean_loss(trainer.params, data)
    mdl.forward_batch(trainer.params, data.X, data.FB, training=False)
    still = mdl.Trainer(mdl.init_model(mdl.ModelConfig(dropout=0.0), np.random.default_rng(1)),
                        mdl.OptConfig(), seed=2)
    still.run_epochs(data, 2)
    assert calls == []


# --- binary format --------------------------------------------------------------

def test_codec_roundtrip_bitwise():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(20))
    back = mdl.params_from_bytes(mdl.params_to_bytes(params))
    assert _equal_params(params, back)


def test_codec_bad_magic():
    params = mdl.init_model(NARROW, np.random.default_rng(21))
    blob = bytearray(mdl.params_to_bytes(params))
    blob[:4] = b"XXXX"
    with pytest.raises(mdl.DecodeError, match="bad magic"):
        mdl.params_from_bytes(bytes(blob))


def test_codec_truncation_names_offset():
    params = mdl.init_model(NARROW, np.random.default_rng(22))
    blob = mdl.params_to_bytes(params)
    cut = len(blob) // 2
    with pytest.raises(mdl.DecodeError, match="offset"):
        mdl.params_from_bytes(blob[:cut])


def test_codec_trailing_garbage_rejected():
    params = mdl.init_model(NARROW, np.random.default_rng(23))
    with pytest.raises(mdl.DecodeError, match="trailing"):
        mdl.params_from_bytes(mdl.params_to_bytes(params) + b"\x00")


def test_codec_version_check():
    params = mdl.init_model(NARROW, np.random.default_rng(24))
    blob = bytearray(mdl.params_to_bytes(params))
    blob[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(mdl.DecodeError, match="version"):
        mdl.params_from_bytes(bytes(blob))


def test_save_load_file(tmp_path):
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(25))
    path = tmp_path / "model.fmdf"
    mdl.save_model(params, path)
    assert path.read_bytes()[:4] == b"FMDF"
    assert _equal_params(mdl.load_model(path), params)


# --- flat parameter vector ------------------------------------------------------

def test_init_bytes_pinned():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(7))
    assert fnv1a64(mdl.params_to_bytes(params)) == 0x5CA1D6EED5D2216C


def test_short_training_run_bytes_pinned():
    trainer = mdl.Trainer(mdl.init_model(mdl.ModelConfig(), np.random.default_rng(1)),
                          mdl.OptConfig(), seed=4)
    trainer.run_epochs(_toy_dataset(), 3)
    assert fnv1a64(mdl.params_to_bytes(trainer.params)) == 0xB412C9D12AF8CCCC


def test_layer_views_write_through_to_flat():
    params = mdl.init_model(NARROW, np.random.default_rng(27))
    params.weights[2][1, 3] = 7.5
    params.biases[4][5] = -2.25
    w_before = sum(w.size for w in params.weights[:2])
    b_before = sum(w.size for w in params.weights) + sum(b.size for b in params.biases[:4])
    assert params.flat[w_before + 1 * NARROW.hidden_width + 3] == 7.5
    assert params.flat[b_before + 5] == -2.25


def test_copy_and_decode_own_one_contiguous_buffer():
    params = mdl.init_model(NARROW, np.random.default_rng(28))
    for other in (params.copy(), mdl.params_from_bytes(mdl.params_to_bytes(params))):
        assert other.flat.flags.owndata and other.flat.flags.c_contiguous
        assert other.flat.dtype == np.float64
        assert not np.shares_memory(other.flat, params.flat)
        assert all(v.base is other.flat for v in (*other.weights, *other.biases))
        assert _equal_params(other, params)


_NARROW_BLOB = mdl.params_to_bytes(mdl.init_model(NARROW, np.random.default_rng(29)))


@st.composite
def _damaged_blobs(draw):
    blob = bytearray(_NARROW_BLOB)
    kind = draw(st.sampled_from(("truncate", "flip", "append")))
    if kind == "truncate":
        return bytes(blob[:draw(st.integers(0, len(blob) - 1))])
    if kind == "append":
        return bytes(blob) + draw(st.binary(min_size=1, max_size=64))
    # headers sit in the first bytes and between weight blocks; favour them
    where = st.one_of(st.integers(0, 40), st.integers(0, len(blob) - 1))
    for _ in range(draw(st.integers(1, 4))):
        blob[draw(where)] ^= draw(st.integers(1, 255))
    return bytes(blob)


@settings(max_examples=300, deadline=None)
@given(_damaged_blobs())
def test_decoder_rejects_or_round_trips_damaged_blobs(blob):
    try:
        params = mdl.params_from_bytes(blob)
    except mdl.DecodeError:
        return
    assert mdl.params_to_bytes(params) == blob
    assert 0.0 <= params.dropout < 1.0 and 0.0 <= params.mu < math.inf


@pytest.mark.parametrize("mu, dropout, refused", [
    (1.0, 1.0, "dropout 1.0 is not below 1.0"), (1.0, -0.1, "dropout -0.1 is not at least 0.0"),
    (1.0, math.nan, "dropout nan is not at least 0.0"), (-2.0, 0.3, "mu -2.0 is not at least 0.0"),
    (math.inf, 0.3, "mu inf is not below inf"), (math.nan, 0.3, "mu nan is not at least 0.0"),
    (0.0, 0.0, None), (1e300, math.nextafter(1.0, 0.0), None),
])
def test_decoder_holds_the_config_block_to_the_model_config_rules(mu, dropout, refused):
    blob = _NARROW_BLOB[:-16] + struct.pack("<dd", mu, dropout)
    if refused is None:
        params = mdl.params_from_bytes(blob)
        assert (params.mu, params.dropout) == (mu, dropout)
        return
    with pytest.raises(mdl.DecodeError, match=(f"^{re.escape(refused)} in the config block "
                                               f"at offset {len(blob) - 16}$")):
        mdl.params_from_bytes(blob)
