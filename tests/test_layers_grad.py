import numpy as np
import pytest

from taclearn.model import layers
from taclearn.model.backend import ConvNetBackend, LinearHead
from taclearn.prng import Prng


def _rel_err(a, b):
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))


def _numerical_grad(f, x, h=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = x[ix]
        x[ix] = orig + h
        fp = f()
        x[ix] = orig - h
        fm = f()
        x[ix] = orig
        grad[ix] = (fp - fm) / (2 * h)
        it.iternext()
    return grad


def _naive_conv(x, w, b, stride, pad):
    # independent oracle: direct nested-loop convolution
    n, c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for ni in range(n):
        for co in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = xp[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, co, i, j] = np.sum(patch * w[co]) + b[co]
    return out


def test_conv_matches_naive_oracle():
    rng = Prng(0)
    x = rng.uniform(-1, 1, size=(2, 3, 7, 9))
    w = rng.uniform(-0.5, 0.5, size=(4, 3, 3, 3))
    b = rng.uniform(-0.5, 0.5, size=(4,))
    out, _ = layers.conv_forward(x, w, b, stride=2, pad=1)
    expected = _naive_conv(x, w, b, stride=2, pad=1)
    assert out.shape == expected.shape == (2, 4, 4, 5)
    assert np.abs(out - expected).max() < 1e-12


@pytest.mark.parametrize("stride, kernel", [(2, 3), (1, 5)])
def test_batch_folded_conv_matches_naive_oracle(stride, kernel):
    rng = Prng(20 + kernel)
    x = rng.uniform(-1, 1, size=(3, 2, 9, 11))
    w = rng.uniform(-0.5, 0.5, size=(4, 2, kernel, kernel))
    b = rng.uniform(-0.5, 0.5, size=(4,))
    out, _ = layers.conv_forward(x, w, b, stride=stride, pad=kernel // 2)
    expected = _naive_conv(x, w, b, stride=stride, pad=kernel // 2)
    assert out.shape == expected.shape
    assert np.abs(out - expected).max() < 1e-12


def test_conv_takes_the_channel_major_view_a_block_returns():
    rng = Prng(22)
    x = rng.uniform(-1, 1, size=(3, 2, 9, 11))
    w1 = rng.uniform(-0.5, 0.5, size=(4, 2, 3, 3))
    w2 = rng.uniform(-0.5, 0.5, size=(5, 4, 3, 3))
    b1, b2 = np.zeros(4), rng.uniform(-0.5, 0.5, size=(5,))
    h, _ = layers.conv_forward(x, w1, b1, stride=2, pad=1)
    assert not h.flags.c_contiguous
    out, cache = layers.conv_forward(h, w2, b2, stride=2, pad=1)
    dense, dense_cache = layers.conv_forward(np.ascontiguousarray(h), w2, b2, stride=2, pad=1)
    assert np.array_equal(out, dense)
    assert np.abs(out - _naive_conv(h, w2, b2, stride=2, pad=1)).max() < 1e-12
    proj = rng.uniform(-1, 1, size=out.shape)
    for got, want in zip(layers.conv_backward(proj, cache),
                         layers.conv_backward(proj, dense_cache)):
        assert np.array_equal(got, want)


def test_conv_gathers_a_broadcast_plane_once_with_the_bytes_of_its_copy():
    # one plane behind every input channel (stride 0) is padded and gathered
    # once, then replicated: the bytes of an np.repeat copy, forward and back
    rng = Prng(25)
    planes = rng.uniform(-1, 1, size=(3, 9, 13))
    w = rng.uniform(-0.5, 0.5, size=(4, 3, 3, 3))
    b = rng.uniform(-0.5, 0.5, size=(4,))
    broadcast = np.broadcast_to(planes[:, None], (3, 3, 9, 13))
    assert broadcast.strides[1] == 0
    out, cache = layers.conv_forward(broadcast, w, b, stride=2, pad=1)
    copy_out, copy_cache = layers.conv_forward(np.repeat(planes[:, None], 3, axis=1), w, b,
                                               stride=2, pad=1)
    assert np.array_equal(out, copy_out)
    assert np.array_equal(cache[1], copy_cache[1])
    proj = rng.uniform(-1, 1, size=out.shape)
    for got, want in zip(layers.conv_backward(proj, cache),
                         layers.conv_backward(proj, copy_cache)):
        assert np.array_equal(got, want)


def test_forward_without_a_cache_gives_the_cached_pass_bytes():
    # the forward-only pass keeps no cache and computes what the cached pass
    # computes, block by block and end to end, in either dtype
    backend = ConvNetBackend(seed=5)
    rng = Prng(26)
    for dtype in (np.float32, np.float64):
        x = rng.uniform(-1, 1, size=(3, 3, 12, 40)).astype(dtype)
        w, b = backend.weights[0], backend.biases[0]
        out, cache = layers.conv_forward(x, w, b, keep_cache=False)
        cached_out, cached = layers.conv_forward(x, w, b)
        assert cache is None and cached is not None
        assert out.dtype == dtype and out.tobytes() == cached_out.tobytes()
        for planes in x:
            emb, cache = backend.forward(planes, keep_cache=False)
            cached_emb, cached = backend.forward(planes)
            assert cache is None and cached is not None
            assert emb.dtype == dtype and emb.tobytes() == cached_emb.tobytes()


def test_conv_backward_without_input_grad_keeps_weight_grads():
    rng = Prng(23)
    x = rng.uniform(-1, 1, size=(3, 3, 8, 10))
    w = rng.uniform(-0.5, 0.5, size=(4, 3, 3, 3))
    out, cache = layers.conv_forward(x, w, np.zeros(4), stride=2, pad=1)
    proj = rng.uniform(-1, 1, size=out.shape)
    _, dw, db = layers.conv_backward(proj, cache)
    dx, dw_only, db_only = layers.conv_backward(proj, cache, input_grad=False)
    assert dx is None
    assert np.array_equal(dw, dw_only) and np.array_equal(db, db_only)


def test_batched_embedding_equals_single_image_embeddings():
    backend = ConvNetBackend(seed=3)
    x = Prng(24).uniform(-1, 1, size=(4, 3, 12, 40))
    batched = backend.embed_batch(x)
    for i in range(len(x)):
        assert np.abs(batched[i] - backend.embed_batch(x[i : i + 1])[0]).max() <= 1e-12


def test_conv_gradients_match_finite_differences():
    rng = Prng(1)
    x = rng.uniform(-1, 1, size=(2, 3, 6, 7))
    w = rng.uniform(-0.5, 0.5, size=(4, 3, 3, 3))
    b = rng.uniform(-0.5, 0.5, size=(4,))
    proj = rng.uniform(-1, 1, size=(2, 4, 3, 4))

    def f():
        out, _ = layers.conv_forward(x, w, b, stride=2, pad=1)
        return float(np.sum(out * proj))

    out, cache = layers.conv_forward(x, w, b, stride=2, pad=1)
    dx, dw, db = layers.conv_backward(proj, cache)
    assert _rel_err(dx, _numerical_grad(f, x)) <= 1e-4
    assert _rel_err(dw, _numerical_grad(f, w)) <= 1e-4
    assert _rel_err(db, _numerical_grad(f, b)) <= 1e-4


def test_gap_gradient():
    rng = Prng(2)
    x = rng.uniform(-1, 1, size=(3, 5, 4, 6))
    proj = rng.uniform(-1, 1, size=(3, 5))

    def f():
        out, _ = layers.gap_forward(x)
        return float(np.sum(out * proj))

    _, shape = layers.gap_forward(x)
    dx = layers.gap_backward(proj, shape)
    assert _rel_err(dx, _numerical_grad(f, x)) <= 1e-4


def test_linear_gradients():
    rng = Prng(3)
    emb = rng.uniform(-1, 1, size=(5, 8))
    w = rng.uniform(-1, 1, size=(8, 3))
    b = rng.uniform(-1, 1, size=(3,))
    proj = rng.uniform(-1, 1, size=(5, 3))

    def f():
        return float(np.sum(layers.linear_forward(emb, w, b) * proj))

    demb, dw, db = layers.linear_backward(proj, emb, w)
    assert _rel_err(demb, _numerical_grad(f, emb)) <= 1e-4
    assert _rel_err(dw, _numerical_grad(f, w)) <= 1e-4
    assert _rel_err(db, _numerical_grad(f, b)) <= 1e-4


def test_relu_gradient_away_from_kink():
    rng = Prng(4)
    x = rng.uniform(-1, 1, size=(4, 6))
    x[np.abs(x) < 0.05] += 0.1  # keep finite differences away from the kink
    proj = rng.uniform(-1, 1, size=(4, 6))

    def relu_in_place():  # the encoder's ReLU, whose output is backward's mask
        out = x.copy()
        np.maximum(out, 0.0, out=out)
        return out

    def f():
        return float(np.sum(relu_in_place() * proj))

    dx = layers.relu_backward(proj, relu_in_place())
    assert _rel_err(dx, _numerical_grad(f, x)) <= 1e-4


def test_softmax_cross_entropy_gradient():
    rng = Prng(5)
    logits = rng.uniform(-2, 2, size=(6, 3))
    labels = np.array([0, 1, 2, 0, 1, 2])

    def f():
        loss, _ = layers.softmax_cross_entropy(logits, labels)
        return loss

    _, dlogits = layers.softmax_cross_entropy(logits, labels)
    assert _rel_err(dlogits, _numerical_grad(f, logits)) <= 1e-4


def test_binary_cross_entropy_gradient():
    rng = Prng(6)
    logits = rng.uniform(-2, 2, size=(5, 6))
    targets = (rng.uniform(0, 1, size=(5, 6)) > 0.5).astype(float)

    def f():
        loss, _ = layers.binary_cross_entropy_logits(logits, targets)
        return loss

    _, dlogits = layers.binary_cross_entropy_logits(logits, targets)
    assert _rel_err(dlogits, _numerical_grad(f, logits)) <= 1e-4


def _micro_backend():
    return ConvNetBackend(in_channels=3, widths=(4, 8), seed=12)


def _check_softmax_network(backend, seed):
    # every parameter of a micro conv net + classify head vs central differences
    rng = Prng(seed)
    head = LinearHead(rng.uniform(-0.5, 0.5, size=(8, 3)), rng.uniform(-0.5, 0.5, size=(3,)))
    x = rng.uniform(-1, 1, size=(2, 3, 8, 10))
    labels = np.array([0, 2])

    def loss_value():
        emb = backend.embed_batch(x)
        loss, _ = layers.softmax_cross_entropy(
            layers.linear_forward(emb, head.weights, head.bias), labels
        )
        return loss

    emb, cache = backend.forward(x)
    logits = layers.linear_forward(emb, head.weights, head.bias)
    _, dlogits = layers.softmax_cross_entropy(logits, labels)
    demb, dw_head, db_head = layers.linear_backward(dlogits, emb, head.weights)
    analytic = backend.backward(demb, cache) + [dw_head, db_head]

    for p, g in zip(backend.params() + [head.weights, head.bias], analytic):
        assert _rel_err(g, _numerical_grad(loss_value, p)) <= 1e-4


def test_full_network_softmax_gradients():
    _check_softmax_network(_micro_backend(), seed=7)


def test_full_network_softmax_gradients_kernel5_stride1():
    _check_softmax_network(ConvNetBackend(in_channels=3, widths=(4, 8), kernel=5, stride=1,
                                          seed=13), seed=9)


def test_full_network_bce_gradients():
    rng = Prng(8)
    backend = _micro_backend()
    w = rng.uniform(-0.5, 0.5, size=(8, 6))
    b = rng.uniform(-0.5, 0.5, size=(6,))
    x = rng.uniform(-1, 1, size=(2, 3, 8, 10))
    targets = (rng.uniform(0, 1, size=(2, 6)) > 0.5).astype(float)

    def loss_value():
        emb = backend.embed_batch(x)
        loss, _ = layers.binary_cross_entropy_logits(
            layers.linear_forward(emb, w, b), targets
        )
        return loss

    emb, cache = backend.forward(x)
    _, dlogits = layers.binary_cross_entropy_logits(layers.linear_forward(emb, w, b), targets)
    demb, dw, db = layers.linear_backward(dlogits, emb, w)
    analytic = backend.backward(demb, cache) + [dw, db]

    for p, g in zip(backend.params() + [w, b], analytic):
        assert _rel_err(g, _numerical_grad(loss_value, p)) <= 1e-4
