import numpy as np
import pytest

from taclearn.augment import resize_to_width
from taclearn.errors import RuntimeFailure, ValidationError
from taclearn.fabric import CONSTITUENTS, from_indicator
from taclearn.model import (
    Checkpoint,
    ConvNetBackend,
    LinearHead,
    TrainConfig,
    composition_probs,
    embed_images,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_composition,
    train_supervised,
)
from taclearn.model import layers
from taclearn.prng import Prng
from taclearn.tactile_image import TactileImage, prepare_for_model

from conftest import synth_images


def _normalized_image(h=12, w=40, seed=0):
    data = np.clip(Prng(seed).uniform(-1, 1, size=(h, w)), -1, 1)
    return TactileImage(data=data, normalized=True)


def _normalized_stack(*images):
    return TactileImage(data=np.stack([img.data for img in images]), normalized=True)


def _prepared_image(h=12, w=40, seed=0):
    return prepare_for_model(_normalized_image(h, w, seed))


def test_zero_head_gives_zero_logits():
    head = LinearHead.zeros(8, 4)
    emb = Prng(1).uniform(-1, 1, size=(3, 8))
    assert np.array_equal(head.logits(emb), np.zeros((3, 4)))


def test_softmax_normalizes():
    logits = Prng(2).uniform(-5, 5, size=(10, 7))
    probs = layers.softmax(logits)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9


def test_linear_head_hand_computed_case():
    head = LinearHead(np.array([[1.0, -1.0], [0.0, 2.0]]), np.array([0.5, -0.5]))
    emb = np.array([2.0, 3.0])
    logits = head.logits(emb)[0]
    assert np.allclose(logits, [2.5, 3.5])


def test_linear_head_dimension_mismatch():
    head = LinearHead.zeros(8, 3)
    with pytest.raises(ValidationError, match="does not match"):
        head.logits(np.zeros(9))
    with pytest.raises(ValidationError, match="shapes disagree"):
        LinearHead(np.zeros((4, 3)), np.zeros(2))


def test_embed_deterministic_and_size_agnostic():
    backend = ConvNetBackend(seed=3)
    a = _prepared_image(12, 40, seed=5)
    assert np.array_equal(backend.embed_batch(a[None])[0], backend.embed_batch(a[None])[0])
    wide = _prepared_image(19, 100, seed=6)
    tall = _prepared_image(60, 12, seed=7)
    assert backend.embed_batch(wide[None])[0].shape == (backend.embed_dim,)
    assert backend.embed_batch(tall[None])[0].shape == (backend.embed_dim,)


def test_embed_rejects_below_minimum():
    backend = ConvNetBackend(seed=3)
    small = _prepared_image(4, 40)
    with pytest.raises(ValidationError, match="minimum"):
        backend.embed_batch(small[None])


def test_embed_constant_zero_image_finite():
    backend = ConvNetBackend(seed=3)
    img = TactileImage(data=np.zeros((12, 20)), normalized=True)
    emb = backend.embed_batch(prepare_for_model(img)[None])[0]
    assert np.isfinite(emb).all()


def test_planes_feed_every_input_channel():
    # (N, H, W) planes give the bytes of their explicit copy to the encoder's
    # three input channels: embeddings and every parameter gradient
    backend = ConvNetBackend(seed=4)
    planes = Prng(15).uniform(-1, 1, size=(3, 12, 20))
    emb, cache = backend.forward(planes)
    emb3, cache3 = backend.forward(np.repeat(planes[:, None], backend.in_channels, axis=1))
    assert np.array_equal(emb, emb3)
    demb = Prng(16).uniform(-1, 1, size=emb.shape)
    for g, g3 in zip(backend.backward(demb, cache), backend.backward(demb, cache3)):
        assert np.array_equal(g, g3)
    with pytest.raises(ValidationError, match="planes"):
        backend.forward(np.zeros((3, 2, 12, 20)))


def test_embed_images_equals_the_training_forward_chunk_by_chunk():
    # 150 planes at 19x40 embed as chunks of 64, 64 and 22 through the
    # forward-only pass, with the bytes of the training forward pass, which
    # computes in float32
    backend = ConvNetBackend(seed=6)
    planes = Prng(27).uniform(-1, 1, size=(150, 19, 40)).astype(np.float32)
    expected = np.concatenate([backend.forward(planes[s : s + 64])[0] for s in (0, 64, 128)])
    embeddings = embed_images(backend, TactileImage(planes, normalized=True))
    assert np.array_equal(embeddings, expected)


def test_embed_images_embeds_a_wide_stack_chunk_by_chunk():
    # 40 planes at 16x300 embed as chunks of 2**17 // 4800 = 27 and 13 planes,
    # with the bytes of the float32 training forward pass on those chunks; in
    # float64, one pass over the whole stack agrees with those chunks to
    # rounding only, because OpenBLAS's last bits depend on a GEMM's column count
    backend = ConvNetBackend(seed=6)
    planes = Prng(28).uniform(-1, 1, size=(40, 16, 300))
    embeddings = embed_images(backend, TactileImage(planes, normalized=True))
    single = planes.astype(np.float32)
    expected = np.concatenate([backend.forward(single[:27])[0], backend.forward(single[27:])[0]])
    assert np.array_equal(embeddings, expected)
    chunked = np.concatenate([backend.forward(planes[:27])[0], backend.forward(planes[27:])[0]])
    assert np.abs(chunked - backend.forward(planes)[0]).max() <= 1e-12


def test_float32_input_runs_in_float32_with_float64_gradients():
    # the float32 compute of training and embedding: float32 activations and
    # GEMMs, float64 gradients for the float64 parameters, both within float32
    # rounding of the float64 pass, which a float64 input still takes
    backend = ConvNetBackend(seed=6)
    planes = Prng(41).uniform(-1, 1, size=(5, 12, 40))
    emb64, cache64 = backend.forward(planes)
    emb32, cache32 = backend.forward(planes.astype(np.float32))
    assert (emb64.dtype, emb32.dtype) == (np.float64, np.float32)
    assert np.abs(emb32 - emb64).max() <= 1e-5 * np.abs(emb64).max()
    demb = Prng(42).uniform(-1, 1, size=emb64.shape)
    for exact, mixed in zip(backend.backward(demb, cache64), backend.backward(demb, cache32)):
        assert mixed.dtype == np.float64 and mixed.shape == exact.shape
        assert np.abs(mixed - exact).max() <= 1e-5 * np.abs(exact).max()
    assert all(p.dtype == np.float64 for p in backend.params())


def test_embed_images_resizes_chunk_by_chunk(monkeypatch):
    # each chunk is resized on its own, to the bytes of embedding the
    # pre-resized stack, and no TactileImage is built for a chunk
    backend = ConvNetBackend(seed=7)
    stack = TactileImage(Prng(29).uniform(-1, 1, size=(40, 16, 120)), normalized=True)
    expected = embed_images(backend, resize_to_width(stack, 300))
    built = []
    post_init = TactileImage.__post_init__
    monkeypatch.setattr(TactileImage, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    backend.input_width = 300
    assert np.array_equal(embed_images(backend, stack), expected)
    assert built == []


@pytest.mark.parametrize("shape, input_width, chunks", [
    ((150, 12, 64), None, [64, 64, 22]),  # the 64 cap
    ((40, 16, 300), None, [27, 13]),
    ((40, 16, 120), 300, [27, 13]),  # sized by the width the encoder gets
    ((70, 16, 300), 64, [64, 6]),
    ((2, 12, 12000), None, [1, 1]),  # one plane above 2**17 pixels
])
def test_embed_images_chunks_by_input_pixels(monkeypatch, shape, input_width, chunks):
    seen = []
    embed_batch = ConvNetBackend.embed_batch
    monkeypatch.setattr(ConvNetBackend, "embed_batch",
                        lambda self, x: seen.append(x.shape) or embed_batch(self, x))
    planes = Prng(30).uniform(-1, 1, size=shape)
    embed_images(ConvNetBackend(seed=8, input_width=input_width),
                 TactileImage(planes, normalized=True))
    assert [n for n, _, _ in seen] == chunks
    assert all(n <= 64 and (n == 1 or n * h * w <= 2**17) for n, h, w in seen)
    assert {w for _, _, w in seen} == {input_width or shape[2]}


@pytest.mark.parametrize("input_width", [0, -3, 2.5, True, "64", np.float64(64)],
                         ids=["0", "-3", "2.5", "True", "str", "float64"])
def test_backend_refuses_a_bad_input_width(tmp_path, input_width):
    # save_checkpoint would write a width load_checkpoint refuses
    with pytest.raises(ValidationError, match="input_width must be an integer >= 1"):
        ConvNetBackend(widths=(4,), seed=1, input_width=input_width)
    backend = ConvNetBackend(widths=(4,), seed=1, input_width=np.int64(16))
    with pytest.raises(ValidationError, match="input_width must be an integer >= 1"):
        backend.input_width = input_width
    assert backend.input_width == 16 and type(backend.input_width) is int
    save_checkpoint(tmp_path / "w.tacm", Checkpoint(backend=backend))
    assert load_checkpoint(tmp_path / "w.tacm").backend.input_width == 16


def test_model_accepts_jitter_beyond_unit_range():
    # noise suites push values past [-1, 1]; nothing may re-clamp or reject
    from taclearn.augment import jitter

    backend = ConvNetBackend(seed=3)
    img = TactileImage(data=np.clip(Prng(13).uniform(-1, 1, size=(12, 24)), -1, 1),
                       normalized=True)
    noisy = jitter(img, 0.5, Prng(14))
    assert noisy.data.max() > 1.0 or noisy.data.min() < -1.0
    prepped = prepare_for_model(noisy)
    assert float(np.abs(prepped).max()) == float(np.abs(noisy.data).max())
    emb = backend.embed_batch(prepped[None])[0]
    assert np.isfinite(emb).all()


def test_missing_checkpoint_is_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="not found"):
        load_checkpoint(tmp_path / "absent.tacm")


def test_sgd_decoupled_weight_decay_factor():
    # zero gradients: every parameter must shrink by exactly (1 - lr*wd) per step
    rng = Prng(4)
    params = [rng.uniform(-1, 1, size=(5, 3)), rng.uniform(-1, 1, size=(7,))]
    before = [p.copy() for p in params]
    vels = [np.zeros_like(p) for p in params]
    zero_grads = [np.zeros_like(p) for p in params]
    lr, wd = 0.1, 0.01
    sgd_step(params, zero_grads, vels, lr, momentum=0.9, weight_decay=wd)
    sgd_step(params, zero_grads, vels, lr, momentum=0.9, weight_decay=wd)
    for p, b in zip(params, before):
        assert np.allclose(p, b * (1 - lr * wd) ** 2, rtol=0, atol=1e-15)
        assert np.linalg.norm(p) < np.linalg.norm(b)


def test_batch_loss_permutation_invariant():
    rng = Prng(5)
    logits = rng.uniform(-2, 2, size=(9, 4))
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0])
    loss, _ = layers.softmax_cross_entropy(logits, labels)
    perm = np.array(Prng(6).permutation(9))
    loss_p, _ = layers.softmax_cross_entropy(logits[perm], labels[perm])
    assert abs(loss - loss_p) <= 1e-12


def test_training_reduces_loss_and_fits(tiny_dataset):
    cfg = TrainConfig(epochs=40, lr=0.02, batch_size=8, lr_schedule="cosine", seed=0)
    images, labels = tiny_dataset
    backend, head, history = train_supervised(images, labels, cfg)
    assert history[-1].loss < history[0].loss
    from taclearn.model import Classifier

    clf = Classifier(backend, head, tuple(sorted(set(labels))))
    assert clf.accuracy(images, labels) >= 0.9


def test_training_lr_zero_is_identity(tiny_dataset):
    cfg = TrainConfig(epochs=3, lr=0.0, batch_size=8, lr_schedule="constant", seed=1)
    backend_before = ConvNetBackend(seed=1)
    flat_before = backend_before.get_flat().copy()
    backend, head, history = train_supervised(*tiny_dataset, cfg, backend=backend_before)
    assert np.array_equal(backend.get_flat(), flat_before)
    assert np.array_equal(head.weights, np.zeros_like(head.weights))
    losses = [round(h.loss, 12) for h in history]
    assert len(set(losses)) == 1


def test_training_deterministic_given_seed(tiny_dataset):
    cfg = TrainConfig(epochs=4, lr=0.01, batch_size=8, lr_schedule="cosine", seed=9)
    b1, h1, hist1 = train_supervised(*tiny_dataset, cfg)
    b2, h2, hist2 = train_supervised(*tiny_dataset, cfg)
    assert np.array_equal(b1.get_flat(), b2.get_flat())
    assert np.array_equal(h1.weights, h2.weights)
    assert [h.loss for h in hist1] == [h.loss for h in hist2]


def test_training_rejects_single_class(tiny_dataset):
    images, _ = tiny_dataset
    cfg = TrainConfig(epochs=1, lr_schedule="constant")
    with pytest.raises(ValidationError, match="2 classes"):
        train_supervised(images, [0] * len(images), cfg)


def test_training_diverged_loss_reports_position(tiny_dataset):
    cfg = TrainConfig(epochs=6, lr=1e155, weight_decay=1e-4, batch_size=8,
                      lr_schedule="constant", seed=2)
    with np.errstate(all="ignore"), pytest.raises(RuntimeFailure, match="epoch"):
        train_supervised(*tiny_dataset, cfg)


def test_freeze_backend_flag(tiny_dataset):
    backend = ConvNetBackend(seed=7)
    flat_before = backend.get_flat().copy()
    cfg = TrainConfig(epochs=3, lr=0.05, batch_size=8, lr_schedule="constant",
                      seed=7, freeze_backend=True)
    backend_out, head, _ = train_supervised(*tiny_dataset, cfg, backend=backend)
    assert backend_out is backend
    assert np.array_equal(backend.get_flat(), flat_before)
    assert not np.array_equal(head.weights, np.zeros_like(head.weights))


def test_frozen_backend_trains_on_forward_only_passes(tiny_dataset, monkeypatch):
    # no backward reads a frozen backend's cache, so training runs the
    # forward-only pass; the head's bytes are those the cached pass gives
    forward, keeps = ConvNetBackend.forward, []

    def spy(self, x, keep_cache=True):
        keeps.append(keep_cache)
        return forward(self, x, keep_cache)

    cfg = TrainConfig(epochs=3, lr=0.05, batch_size=8, lr_schedule="cosine",
                      seed=7, freeze_backend=True)
    monkeypatch.setattr(ConvNetBackend, "forward", spy)
    _, head, history = train_supervised(*tiny_dataset, cfg, backend=ConvNetBackend(seed=7))
    assert len(keeps) == 9 and all(keep is False for keep in keeps)
    monkeypatch.setattr(ConvNetBackend, "forward", lambda self, x, keep_cache=True: forward(self, x))
    _, cached_head, cached_history = train_supervised(*tiny_dataset, cfg,
                                                      backend=ConvNetBackend(seed=7))
    assert head.weights.tobytes() == cached_head.weights.tobytes()
    assert head.bias.tobytes() == cached_head.bias.tobytes()
    assert history == cached_history


def test_train_step_memory_stays_within_its_live_set():
    # One forward + backward at 8x19x400 keeps at most every block's cache (its
    # columns, and its ReLU output, which is the backward mask) plus one
    # block's backward buffers (column gradient and padded input gradient):
    # ReLU runs in place and backward drops each block's cache once used.
    # A backward that held every cache until it returned peaked 25.9 MB.
    import tracemalloc

    backend = ConvNetBackend(seed=1)
    x = Prng(2).uniform(-1, 1, size=(8, 19, 400))
    demb = Prng(3).uniform(-1, 1, size=(8, backend.embed_dim))
    n, c_in, h, w = 8, backend.in_channels, 19, 400
    caches, buffers = 0, 0
    for c_out in backend.widths:
        out_h, out_w = (h - 1) // 2 + 1, (w - 1) // 2 + 1
        cols = c_in * 9 * n * out_h * out_w * 8
        caches += cols + c_out * n * out_h * out_w * 8
        buffers = max(buffers, cols + c_in * n * (h + 2) * (w + 2) * 8)
        c_in, h, w = c_out, out_h, out_w
    backend.backward(demb, backend.forward(x)[1])  # first-call allocations
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        backend.backward(demb, backend.forward(x)[1])
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert caches + buffers == 23_858_176  # 16.8 MB of caches, 7.1 MB at block 1
    assert peak <= caches + buffers


def test_plateau_schedule_halves_lr(tiny_dataset):
    cfg = TrainConfig(epochs=8, lr=0.01, batch_size=8, lr_schedule="plateau",
                      seed=3, val_fraction=0.2, plateau_patience=2)
    _, _, history = train_supervised(*tiny_dataset, cfg)
    assert all(h.val_acc is not None for h in history)
    assert min(h.lr for h in history) <= 0.01


def test_plateau_lr_sequence_replays_from_val_acc(tiny_dataset):
    from taclearn.model.train import PLATEAU_FACTOR

    cfg = TrainConfig(epochs=12, lr=0.01, batch_size=8, lr_schedule="plateau",
                      seed=3, val_fraction=0.2, plateau_patience=2)
    _, _, history = train_supervised(*tiny_dataset, cfg)
    # each row shows the lr its epoch trained with; a cut shows from the next row
    expected, lr, best, stale = [], cfg.lr, -np.inf, 0
    for row in history:
        expected.append(lr)
        if row.val_acc > best:
            best, stale = row.val_acc, 0
        else:
            stale += 1
            if stale >= cfg.plateau_patience:
                lr *= PLATEAU_FACTOR
                stale = 0
    assert [row.lr for row in history] == expected
    assert len(set(expected)) >= 2


def test_composition_probs_contracts(random_backend):
    head = LinearHead.zeros(random_backend.embed_dim, 6)
    images = _normalized_stack(_normalized_image(12, 40, seed=8),
                               _normalized_image(12, 40, seed=10))
    probs = composition_probs(random_backend, head, images)
    assert probs.shape == (2, 6)
    assert np.allclose(probs, 0.5)
    assert ((probs > 0) & (probs < 1)).all()
    with pytest.raises(ValidationError, match="6 heads"):
        composition_probs(random_backend, LinearHead.zeros(random_backend.embed_dim, 5), images)


def test_composition_threshold_rule(random_backend):
    d = random_backend.embed_dim
    img = _normalized_image(12, 40, seed=9)
    emb = random_backend.embed_batch(prepare_for_model(img)[None])[0]
    # craft heads with fixed logits via bias, zero weights
    biases = [3.0, 1.0, -2.0, -4.0, 0.2, -0.1]
    head = LinearHead(np.zeros((d, 6)), np.array(biases))
    picked = from_indicator(composition_probs(random_backend, head, _normalized_stack(img))[0])
    assert picked == frozenset({CONSTITUENTS[0], CONSTITUENTS[1], CONSTITUENTS[4]})


def test_train_composition_learns_constituents():
    images, labels, _ = synth_images(num_classes=3, per_class=8, channels=10,
                                     length=32, seed=21)
    mapping = {
        0: frozenset({"Cotton", "Wool"}),
        1: frozenset({"Linen"}),
        2: frozenset({"Polyester", "Elastane", "Viscose"}),
    }
    truths = [mapping[l] for l in labels]
    cfg = TrainConfig(epochs=60, lr=0.05, batch_size=8, lr_schedule="cosine", seed=5)
    backend, head, history = train_composition(images, truths, cfg)
    assert history[-1].loss < history[0].loss
    probs = composition_probs(backend, head, images)
    correct = sum(from_indicator(p) == truth for p, truth in zip(probs, truths))
    assert correct / len(truths) >= 0.8


def test_train_composition_rejects_plateau_schedule():
    images, _, _ = synth_images(num_classes=2, per_class=2, channels=10, length=32, seed=3)
    truths = [frozenset({"Linen"})] * len(images)
    # plateau needs a validation split, which composition training never carves
    with pytest.raises(ValidationError, match="cosine or constant"):
        train_composition(images, truths, TrainConfig(epochs=2, lr_schedule="plateau"))


def test_checkpoint_round_trip(tmp_path, random_backend):
    head = LinearHead(Prng(10).uniform(-1, 1, size=(random_backend.embed_dim, 4)),
                      Prng(11).uniform(-1, 1, size=(4,)))
    ckpt = Checkpoint(backend=random_backend, heads={"classify": head},
                      meta={"classes": "a;b;c;d"})
    path = tmp_path / "model.tacm"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.meta == ckpt.meta
    assert set(loaded.heads) == {"classify"}
    img = _prepared_image(12, 40, seed=12)
    a = random_backend.embed_batch(img[None])[0]
    b = loaded.backend.embed_batch(img[None])[0]
    # float32 storage quantizes parameters
    assert np.abs(a - b).max() <= 1e-4 * max(1.0, np.abs(a).max())
    assert np.abs(loaded.heads["classify"].weights - head.weights).max() <= 1e-6


def test_input_width_survives_save_load_and_clone(tmp_path):
    backend = ConvNetBackend(seed=3, input_width=24)
    assert backend.clone().input_width == 24
    path = tmp_path / "model.tacm"
    save_checkpoint(path, Checkpoint(backend=backend, meta={"task": "embed"}))
    # written after the other meta lines, read back onto the backend
    assert b"meta task embed\nmeta input_width 24\n" in path.read_bytes()
    loaded = load_checkpoint(path)
    assert loaded.backend.input_width == 24 and loaded.meta == {"task": "embed"}
    # no width, no line
    save_checkpoint(path, Checkpoint(backend=ConvNetBackend(seed=3)))
    assert b"input_width" not in path.read_bytes()
    assert load_checkpoint(path).backend.input_width is None
    # the width has one source, so the meta may not hold a second
    with pytest.raises(ValidationError, match="input_width"):
        save_checkpoint(tmp_path / "two.tacm",
                        Checkpoint(backend=backend, meta={"input_width": "24"}))
    assert not (tmp_path / "two.tacm").exists()


def test_float32_checkpoint_keeps_predictions(tmp_path, pretrained_backend):
    from taclearn.evaluate import ridge_classifier
    from taclearn.model import Classifier

    train_images, train_labels, bounds = synth_images(num_classes=5, per_class=20, seed=31)
    test_images, _, _ = synth_images(num_classes=5, per_class=40, seed=31,
                                     start_index=20, bounds=bounds)
    clf = ridge_classifier(pretrained_backend, train_images, train_labels)
    path = tmp_path / "model.tacm"
    save_checkpoint(path, Checkpoint(backend=clf.backend, heads={"classify": clf.head}))
    loaded = load_checkpoint(path)
    stored = Classifier(loaded.backend, loaded.heads["classify"], clf.classes)
    # parameters are stored as float32; a float64 model's predictions must survive
    assert stored.predict(test_images) == clf.predict(test_images)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.tacm"
    p.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValidationError, match="not a taclearn checkpoint"):
        load_checkpoint(p)


def _saved_checkpoint(tmp_path, backend):
    head = LinearHead(np.ones((backend.embed_dim, 2)), np.zeros(2))
    path = tmp_path / "model.tacm"
    save_checkpoint(path, Checkpoint(backend=backend, heads={"classify": head},
                                     meta={"classes": "a;b"}))
    return path


def _header_len(raw):
    return int.from_bytes(raw[8:12], "little")


def _edit_header(raw, old, new):
    """`raw` with `old` replaced by `new` in the header, header length kept consistent."""
    end = 12 + _header_len(raw)
    header = raw[12:end].replace(old, new)
    return raw[:8] + len(header).to_bytes(4, "little") + header + raw[end:]


def _set_payload(raw, index, value):
    """`raw` with float32 parameter `index` of its payload set to `value`."""
    payload = np.frombuffer(raw, dtype="<f4", offset=16 + _header_len(raw)).copy()
    payload[index] = value
    return raw[: 16 + _header_len(raw)] + payload.tobytes()


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: raw[:-3], "payload bytes"),
    (lambda raw: raw + b"\x00" * 4, "payload bytes"),
    (lambda raw: raw[: 12 + _header_len(raw) // 2], "runs past the end"),
    (lambda raw: raw[:14], "runs past the end"),
    (lambda raw: raw[:12] + b"\xff\xfe" + raw[14:], "not UTF-8"),
    (lambda raw: raw[:8] + (2**31).to_bytes(4, "little") + raw[12:], "runs past the end"),
    (lambda raw: raw.replace(b"head classify 128", b"head classify x28"), "bad header line"),
    (lambda raw: raw.replace(b"meta classes a;b", b"meta classesXa;b"), "bad header line"),
    (lambda raw: _edit_header(raw, b"kernel=3", b"kernel=0"), "bad backend descriptor"),
    (lambda raw: _edit_header(raw, b"in=3", b"in=0"), "bad backend descriptor"),
    (lambda raw: _edit_header(raw, b"stride=2", b"stride=0"), "bad backend descriptor"),
    (lambda raw: _edit_header(raw, b"widths=16,", b"widths=-16,"), "bad backend descriptor"),
    (lambda raw: _edit_header(raw, b",128", b",128000000000"), "describes"),
    (lambda raw: _edit_header(raw, b"widths=16,32,64,128", b"widths=16,32,64"), "describes"),
    (lambda raw: _set_payload(raw, 0, np.nan), "must be finite"),
    (lambda raw: _set_payload(raw, -1, -np.inf), "must be finite"),
    (lambda raw: _edit_header(raw, b"meta classes a;b", b"meta classes a;b\nmeta input_width 0"),
     "input_width must be a positive integer"),
], ids=["truncated-payload", "trailing-bytes", "truncated-header", "header-len-only",
        "bad-header-bytes", "oversized-header-len", "bad-head-line", "bad-meta-line",
        "zero-kernel", "zero-in", "zero-stride", "negative-width", "huge-width",
        "missing-block", "nan-backend-weight", "inf-head-bias", "zero-input-width"])
def test_malformed_checkpoint_is_validation_error(tmp_path, random_backend, corrupt, message):
    path = _saved_checkpoint(tmp_path, random_backend)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValidationError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, 1e300])
def test_save_rejects_parameters_not_finite_in_float32(tmp_path, value):
    # 1e300 is finite in float64 but overflows float32 to inf
    backend = ConvNetBackend(seed=1)
    backend.weights[0][0, 0, 0, 0] = value
    path = tmp_path / "model.tacm"
    with pytest.raises(ValidationError, match="must be finite"):
        save_checkpoint(path, Checkpoint(backend=backend))
    assert not path.exists()


def test_augmented_epoch_augments_each_minibatch_as_one_array(tiny_dataset, monkeypatch):
    # N = 24 images at batch size 5: ceil(24/5) = 5 augment calls, each on
    # one indexed sub-stack; no TactileImage is built per image
    from taclearn.augment import AugmentConfig
    from taclearn.model import train

    images, labels = tiny_dataset
    targets = train._class_indices(labels, sorted(set(labels)))
    calls, built = [], []
    augment = train.random_augment
    monkeypatch.setattr(train, "random_augment",
                        lambda batch, cfg, rng, width: calls.append(len(batch))
                        or augment(batch, cfg, rng, width))
    post_init = TactileImage.__post_init__
    monkeypatch.setattr(TactileImage, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    aug = AugmentConfig(flip_prob=0.5, resize_factor_range=(0.8, 1.25), crop_len_range=(16, 32),
                        jitter_level=0.1, seed=3)
    backend = ConvNetBackend(seed=0, input_width=32)
    head = LinearHead.zeros(backend.embed_dim, len(set(labels)))
    cfg = TrainConfig(epochs=1, batch_size=5, lr_schedule="constant")
    train._train_loop(images, targets, cfg, aug, backend, head, layers.softmax_cross_entropy)
    assert calls == [5, 5, 5, 5, 4]
    assert [len(stack) for stack in built] == calls
