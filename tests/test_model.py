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
    with pytest.raises(mdl.ConfigError):
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
    _, cache = mdl.forward_batch(params, x[None, :], fb[None, :], training=False)
    act = cache["acts"][1][0]
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
    mdl.train_epoch(params, data, mdl.Adam(mdl.OptConfig(lr=1e-5)), np.random.default_rng(14))
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
    with pytest.raises(ValueError):
        mdl.train_epoch(params, empty, mdl.Adam(mdl.OptConfig()), np.random.default_rng(0))


def test_train_aborts_on_nonfinite_loss():
    data = _toy_dataset(n=8)
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(1))
    params.weights[0][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises((RuntimeError, ValueError)):
        mdl.train_epoch(params, data, mdl.Adam(mdl.OptConfig()), np.random.default_rng(0))


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
