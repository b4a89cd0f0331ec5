import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taclearn.continual import (
    RlsState,
    class_budget,
    cl_rows_to_csv,
    cl_sweep,
    exemplar_buffer,
    fine_tune,
    herding_order,
    ridge_solve,
    rls_update,
)
from taclearn.errors import RuntimeFailure, ValidationError
from taclearn.evaluate import ridge_classifier
from taclearn.model import Classifier, ConvNetBackend, TrainConfig, embed_images
from taclearn.prng import Prng
from taclearn.tactile_image import TactileImage

from conftest import synth_images


def _random_embeddings(rng, n, d):
    return rng.uniform(-1, 1, size=(n, d))


def _dense_ridge_oracle(embeddings, labels, classes, lam):
    # independent dense normal-equations solve
    x = np.asarray(embeddings)
    y = np.zeros((x.shape[0], len(classes)))
    for i, l in enumerate(labels):
        y[i, classes.index(l)] = 1.0
    return np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ y)


def test_empty_batch_is_identity():
    state = RlsState(dim=4)
    updated = rls_update(state, np.empty((0, 4)), [])
    assert np.array_equal(updated.A, state.A)
    assert updated.c == {}


def test_single_sample_outer_product():
    state = RlsState(dim=3)
    e = np.array([0.5, -1.0, 2.0])
    updated = rls_update(state, e[None], [0])
    assert np.array_equal(updated.A, np.outer(e, e))
    assert np.array_equal(updated.c[0], e)
    # input state untouched
    assert np.array_equal(state.A, np.zeros((3, 3)))


def test_split_batches_equal_combined_bitwise():
    rng = Prng(0)
    e = _random_embeddings(rng, 12, 5)
    labels = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    state = RlsState(dim=5)
    split = rls_update(rls_update(state, e[:7], labels[:7]), e[7:], labels[7:])
    combined = rls_update(state, e, labels)
    assert np.array_equal(split.A, combined.A)
    for k in combined.c:
        assert np.array_equal(split.c[k], combined.c[k])
    assert split.c.keys() == combined.c.keys()


def test_update_validates_inputs():
    state = RlsState(dim=4)
    with pytest.raises(ValidationError, match="expected embeddings"):
        rls_update(state, np.zeros((2, 3)), [0, 1])
    with pytest.raises(ValidationError, match="non-finite"):
        rls_update(state, np.full((1, 4), np.nan), [0])


def test_accumulator_stays_symmetric_psd():
    rng = Prng(17)
    state = RlsState(dim=6)
    for _ in range(5):
        n = 1 + rng.randint(20)
        emb = _random_embeddings(rng, n, 6)
        state = rls_update(state, emb, [rng.randint(3) for _ in range(n)])
    assert np.array_equal(state.A, state.A.T)
    assert np.linalg.eigvalsh(state.A).min() >= -1e-9


def test_ridge_solve_hand_case():
    # one class-0 sample with psi = e1 in 2-D, lambda = 1:
    # A = e1 e1^T, so (A + I) = diag(2, 1) and W[:,0] = e1 / 2.
    state = RlsState(dim=2, ridge_lambda=1.0)
    state = rls_update(state, np.array([[1.0, 0.0]]), [0])
    head = ridge_solve(state)
    assert np.allclose(head.weights[:, 0], [0.5, 0.0])
    assert np.array_equal(head.bias, np.zeros(1))


def test_ridge_solution_satisfies_normal_equations():
    rng = Prng(1)
    e = _random_embeddings(rng, 40, 8)
    labels = [i % 3 for i in range(40)]
    state = rls_update(RlsState(dim=8, ridge_lambda=0.5), e, labels)
    head = ridge_solve(state)
    m = state.A + 0.5 * np.eye(8)
    c = np.stack([state.c[y] for y in state.classes], axis=1)
    residual = np.linalg.norm(m @ head.weights - c)
    assert residual <= 1e-8 * np.linalg.norm(c)


def test_streamed_ridge_matches_dense_oracle():
    rng = Prng(2)
    for trial in range(10):
        d = 3 + rng.randint(13)
        n = 20 + rng.randint(60)
        k = 2 + rng.randint(3)
        e = _random_embeddings(rng, n, d)
        labels = [rng.randint(k) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        lam = 0.1 + rng.random()
        state = RlsState(dim=d, ridge_lambda=lam)
        # stream in uneven chunks
        pos = 0
        while pos < n:
            step = 1 + rng.randint(9)
            state = rls_update(state, e[pos : pos + step], labels[pos : pos + step])
            pos += step
        head = ridge_solve(state)
        classes = list(state.classes)
        oracle = _dense_ridge_oracle(e, labels, classes, lam)
        rel = np.linalg.norm(head.weights - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6


def test_duplicated_dataset_with_doubled_lambda_matches():
    rng = Prng(3)
    e = _random_embeddings(rng, 30, 6)
    labels = [i % 2 for i in range(30)]
    head_single = ridge_solve(rls_update(RlsState(dim=6, ridge_lambda=1.0), e, labels))
    head_double = ridge_solve(rls_update(RlsState(dim=6, ridge_lambda=2.0),
                                         np.vstack([e, e]), labels + labels))
    assert np.allclose(head_single.weights, head_double.weights, atol=1e-12)


def test_ridge_singular_system_reports_condition():
    state = RlsState(dim=3, ridge_lambda=1e-12)
    state = rls_update(state, np.array([[1.0, 0.0, 0.0]]), [0])
    state.A[0, 0] = -1.0  # force an indefinite accumulator
    with pytest.raises(RuntimeFailure, match="condition estimate"):
        ridge_solve(state)


def test_ridge_requires_a_class():
    with pytest.raises(ValidationError, match="at least one"):
        ridge_solve(RlsState(dim=4))


def test_herding_first_pick_nearest_mean():
    rng = Prng(4)
    embs = _random_embeddings(rng, 10, 2)
    mu = embs.mean(axis=0)
    order = herding_order(embs, len(embs))
    nearest = int(np.argmin(np.linalg.norm(embs - mu, axis=1)))
    assert order[0] == nearest


def test_herding_matches_exhaustive_per_step_oracle():
    rng = Prng(5)
    embs = _random_embeddings(rng, 10, 2)
    order = herding_order(embs, len(embs))
    # brute force: recompute each greedy step with explicit loops
    mu = embs.mean(axis=0)
    total = np.zeros(2)
    remaining = list(range(10))
    for step, picked in enumerate(order, start=1):
        best_idx, best_dist = None, np.inf
        for i in remaining:
            dist = float(np.linalg.norm(mu - (total + embs[i]) / step))
            if dist < best_dist:
                best_idx, best_dist = i, dist
        assert picked == best_idx
        total += embs[best_idx]
        remaining.remove(best_idx)


def _herding_order_reference(embeddings):
    # The np.delete implementation herding_order replaced, kept verbatim as the
    # oracle: the matvec version must reproduce its picks exactly.
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n = embeddings.shape[0]
    mu = embeddings.mean(axis=0)
    order: list[int] = []
    total = np.zeros(embeddings.shape[1])
    remaining = np.arange(n)
    for m in range(1, n + 1):
        candidate_means = (total[None, :] + embeddings[remaining]) / m
        dist = np.linalg.norm(mu[None, :] - candidate_means, axis=1)
        pick = int(np.argmin(dist))
        chosen = int(remaining[pick])
        order.append(chosen)
        total += embeddings[chosen]
        remaining = np.delete(remaining, pick)
    return order


def _embedding_arrays(elements, max_rows=24, max_dim=6):
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_dim))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


@settings(max_examples=300, deadline=None)
@given(_embedding_arrays(st.integers(-3, 3).map(float)))
def test_herding_matches_reference_on_small_integers(embs):
    # few distinct values: exact ties and duplicate rows are common
    assert herding_order(embs, len(embs)) == _herding_order_reference(embs)


@settings(max_examples=300, deadline=None)
@given(_embedding_arrays(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)))
@example(np.array([[1.86561181e-160], [0.0]]))  # squares underflow to subnormals
def test_herding_matches_reference_on_floats(embs):
    assert herding_order(embs, len(embs)) == _herding_order_reference(embs)


@settings(max_examples=50, deadline=None)
@given(_embedding_arrays(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                         max_rows=1, max_dim=8))
def test_herding_single_row(embs):
    assert herding_order(embs, len(embs)) == _herding_order_reference(embs) == [0]


@settings(max_examples=100, deadline=None)
@given(_embedding_arrays(st.integers(-3, 3).map(float)))
def test_herding_to_a_count_is_a_prefix_of_the_full_order(embs):
    # the sweep herds each class only as deep as its largest budget
    full = _herding_order_reference(embs)
    for count in range(1, len(embs) + 3):
        assert herding_order(embs, count) == full[:count]


def test_herding_matches_reference_on_embedding_scale_data():
    rng = np.random.default_rng(3)
    embs = np.abs(rng.normal(size=(300, 128)))
    embs[7] = embs[3]
    assert herding_order(embs, len(embs)) == _herding_order_reference(embs)


@settings(max_examples=100, deadline=None)
@given(_embedding_arrays(st.floats(-1e306, 1e306, allow_nan=False, allow_infinity=False)))
def test_herding_matches_reference_when_scores_overflow(embs):
    # both formulas overflow here; herding falls back to re-scoring every row
    with np.errstate(over="ignore", invalid="ignore"):
        assert herding_order(embs, len(embs)) == _herding_order_reference(embs)


# The step-by-step buffer update that exemplar_buffer replaced, kept as the
# oracle for it: a dict of each class's kept indices, cut again at every step.
def select_exemplars(capacity: int, per_class: dict, images, labels,
                     backend: ConvNetBackend) -> dict:
    """Herd a new class's samples into the buffer and rebalance budgets.

    Existing classes are truncated to the new equal per-class budget, keeping
    their earliest-selected exemplars (the herding priority prefix).
    """
    labels = list(labels)
    if len(images) != len(labels):
        raise ValidationError("images and labels length mismatch")
    embeddings = embed_images(backend, images)
    per_class = dict(per_class)
    for label in sorted(set(labels)):
        if label in per_class:
            raise ValidationError(f"class {label!r} already has stored exemplars")
        idx = np.array([i for i, l in enumerate(labels) if l == label])
        per_class[label] = idx[herding_order(embeddings[idx], len(idx))]
    budget = capacity // len(per_class)
    if budget < 1:
        raise ValidationError(f"capacity {capacity} leaves no budget for {len(per_class)} classes")
    return {k: v[:budget] for k, v in per_class.items()}


def _image_batch(n, label, seed):
    data = Prng(seed).uniform(-1, 1, size=(n, 10, 24))
    return TactileImage(data=data, normalized=True), [label] * n


def _herded(images, backend):
    embeddings = embed_images(backend, images)
    return np.array(herding_order(embeddings, len(embeddings)))


def test_select_exemplars_keeps_all_when_budget_allows(random_backend):
    images, labels = _image_batch(6, "mat_a", seed=6)
    idx, buffer_labels = exemplar_buffer(20, {"mat_a": _herded(images, random_backend)})
    assert sorted(idx) == list(range(6))
    assert buffer_labels == ["mat_a"] * 6
    per_class = select_exemplars(20, {}, images, labels, random_backend)
    assert np.array_equal(per_class["mat_a"], idx)


def test_select_exemplars_rebalances_and_truncates(random_backend):
    herded = {}
    images_a, _ = _image_batch(10, "a", seed=7)
    herded["a"] = _herded(images_a, random_backend)
    idx, labels = exemplar_buffer(8, herded)
    assert labels == ["a"] * 8
    kept_a = idx.copy()

    images_b, _ = _image_batch(10, "b", seed=8)
    herded["b"] = _herded(images_b, random_backend)
    idx, labels = exemplar_buffer(8, herded)
    # equal budgets, classes in sorted order
    assert labels == ["a"] * 4 + ["b"] * 4
    # truncation keeps the earliest-selected prefix
    assert np.array_equal(idx[:4], kept_a[:4])
    assert np.array_equal(idx[4:], herded["b"][:4])


def test_select_exemplars_budget_error(random_backend):
    herded = {}
    for label, seed in [("a", 9), ("b", 10), ("c", 11)]:
        images, _ = _image_batch(3, label, seed)
        herded[label] = _herded(images, random_backend)
    assert len(exemplar_buffer(2, {k: herded[k] for k in "ab"})[0]) == 2
    with pytest.raises(ValidationError, match="capacity 2 leaves no budget for 3 classes"):
        exemplar_buffer(2, herded)
    with pytest.raises(ValidationError, match="capacity 0 leaves no budget for 1 classes"):
        class_budget(0, 1)
    assert class_budget(7, 3) == 2


def test_select_exemplars_rejects_repeat_class(random_backend):
    images, labels = _image_batch(4, "a", seed=12)
    per_class = select_exemplars(10, {}, images, labels, random_backend)
    with pytest.raises(ValidationError, match="already"):
        select_exemplars(10, per_class, images, labels, random_backend)


def _small_cl_problem(backend, num_classes=3, per_class=6, seed=31):
    """(train stack, its (label, indices) batches, test stack, test labels)."""
    images, labels, bounds = synth_images(
        num_classes=num_classes, per_class=per_class, channels=10, length=32, seed=seed
    )
    batches = [(c, np.flatnonzero([l == c for l in labels])) for c in sorted(set(labels))]
    test_images, test_labels, _ = synth_images(
        num_classes=num_classes, per_class=3, channels=10, length=32, seed=seed,
        start_index=per_class, bounds=bounds,
    )
    return images, batches, test_images, test_labels


def _two_class_ridge(backend, images, batches):
    """The ridge classifier and its state on the first two batches, plus
    their indices and labels."""
    (label_a, idx_a), (label_b, idx_b) = batches[0], batches[1]
    idx = np.concatenate([idx_a, idx_b])
    labels = [label_a] * len(idx_a) + [label_b] * len(idx_b)
    state = rls_update(RlsState(dim=backend.embed_dim), embed_images(backend, images[idx]),
                       labels)
    return Classifier(backend, ridge_solve(state), state.classes), state, idx, labels


def test_fine_tune_zero_epochs_is_identity(random_backend):
    images, batches, _, _ = _small_cl_problem(random_backend)
    clf, _, _, _ = _two_class_ridge(random_backend, images, batches)
    label, idx = batches[0]
    buffer_idx, buffer_labels = exemplar_buffer(10, {label: idx})
    cfg = TrainConfig(epochs=0, lr_schedule="cosine")
    tuned = fine_tune(clf, images[buffer_idx], buffer_labels, cfg)
    assert tuned is not clf
    assert np.array_equal(tuned.head.weights, clf.head.weights)
    assert np.array_equal(tuned.backend.get_flat(), clf.backend.get_flat())


def test_fine_tune_leaves_ridge_state_untouched(random_backend):
    images, batches, _, _ = _small_cl_problem(random_backend)
    clf, state, idx, labels = _two_class_ridge(random_backend, images, batches)
    a_before = state.A.copy()
    c_before = {k: v.copy() for k, v in state.c.items()}
    per_class = select_exemplars(8, {}, images[idx], labels, random_backend)
    buffer_idx, buffer_labels = exemplar_buffer(8, per_class)
    backend_flat_before = random_backend.get_flat().copy()
    cfg = TrainConfig(epochs=3, lr=0.01, batch_size=4, lr_schedule="cosine", seed=1)
    fine_tune(clf, images[idx][buffer_idx], buffer_labels, cfg)
    assert np.array_equal(state.A, a_before)
    for k in c_before:
        assert np.array_equal(state.c[k], c_before[k])
    # the frozen backend itself is cloned, not trained
    assert np.array_equal(random_backend.get_flat(), backend_flat_before)


def test_fine_tune_validations(random_backend):
    clf = Classifier(random_backend, ridge_solve(
        rls_update(RlsState(dim=random_backend.embed_dim),
                   np.ones((2, random_backend.embed_dim)), [0, 1])
    ), (0, 1))
    images, labels = _image_batch(3, 0, seed=13)
    for epochs in (0, 1):
        with pytest.raises(ValidationError, match="non-empty"):
            fine_tune(clf, np.empty((0, 10, 24)), [],
                      TrainConfig(epochs=epochs, lr_schedule="cosine"))
    with pytest.raises(ValidationError, match="cosine"):
        fine_tune(clf, images, labels, TrainConfig(epochs=1, lr_schedule="constant"))


def test_shared_pass_embeds_a_contiguous_class_from_a_view_of_the_stack(random_backend,
                                                                        monkeypatch):
    # a class that is one ascending run of the train stack reaches embed_images
    # as a view of the stack, not as a copy; any other class as its planes
    import taclearn.continual as continual

    images, batches, _, _ = _small_cl_problem(random_backend)
    images = images.with_data(images.data.astype(np.float32))
    batches[2] = (batches[2][0], batches[2][1][::-1])
    seen = []

    def spy(backend, stack):
        seen.append(stack)
        return embed_images(backend, stack)

    monkeypatch.setattr(continual, "embed_images", spy)
    cl_sweep(images, batches, random_backend, [6])
    assert [np.shares_memory(s.data, images.data) for s in seen] == [True, True, False]
    for stack, (_, idx) in zip(seen, batches):
        assert np.array_equal(stack.data, images.data[idx])


def test_cl_run_single_step_equals_batch_baseline(random_backend):
    images, batches, test_images, test_labels = _small_cl_problem(random_backend,
                                                                 num_classes=2)
    (label, idx), (label2, idx2) = batches
    all_labels = [label] * len(idx) + [label2] * len(idx2)
    [(ridge, _, rows)] = cl_sweep(
        images, [(label, idx), (label2, idx2)], random_backend, [12],
        test_images=test_images, test_labels=test_labels,
    )
    # the one-shot statistics embed each class on its own, as the sweep does:
    # a float32 embedding's last bits depend on the chunk it is computed in
    embeddings = np.concatenate([embed_images(random_backend, images[i]) for i in (idx, idx2)])
    state = rls_update(RlsState(dim=random_backend.embed_dim), embeddings, all_labels)
    assert np.allclose(ridge.head.weights, ridge_solve(state).weights, atol=1e-9)
    assert ridge.classes == state.classes
    assert rows[-1][3] <= 12


def test_cl_run_single_batch_reduces_to_frozen_classification(random_backend):
    images, labels = _image_batch(6, "solo", seed=29)
    [(ridge, _, rows)] = cl_sweep(images, [("solo", np.arange(6))], random_backend, [4])
    direct = ridge_classifier(random_backend, images, labels)
    assert [row[0] for row in rows] == [1]
    assert ridge.classes == direct.classes == ("solo",)
    assert np.allclose(ridge.head.weights, direct.head.weights, atol=1e-12)
    assert rows[0][3] == 4  # buffer truncated to capacity


def test_cl_run_order_invariant_head(random_backend):
    images, batches, _, _ = _small_cl_problem(random_backend, num_classes=3)
    [(ridge_fwd, _, _)] = cl_sweep(images, batches, random_backend, [9])
    [(ridge_rev, _, _)] = cl_sweep(images, batches[::-1], random_backend, [9])
    w1 = ridge_fwd.head.weights
    w2 = ridge_rev.head.weights
    assert np.linalg.norm(w1 - w2) <= 1e-6 * max(1.0, np.linalg.norm(w1))


def test_cl_run_rejects_repeated_class(random_backend):
    images, batches, _, _ = _small_cl_problem(random_backend, num_classes=2)
    label, idx = batches[0]
    with pytest.raises(ValidationError, match="twice"):
        cl_sweep(images, [(label, idx), (label, idx)], random_backend, [8])


def test_cl_rows_csv_shape(random_backend):
    images, batches, test_images, test_labels = _small_cl_problem(random_backend,
                                                                 num_classes=2)
    [(_, _, rows)] = cl_sweep(images, batches, random_backend, [8],
                              test_images=test_images, test_labels=test_labels)
    csv = cl_rows_to_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "t,acc_ridge,acc_fine_tuned,buffer_size"
    assert len(lines) == 3


@pytest.mark.parametrize("warm_start", [False, True])
def test_cl_sweep_matches_independent_runs_bitwise(random_backend, warm_start):
    images, batches, test_images, test_labels = _small_cl_problem(random_backend,
                                                                 num_classes=3)
    ft_cfg = TrainConfig(epochs=2, lr=0.01, batch_size=4, lr_schedule="cosine", seed=3)
    kwargs = dict(fine_tune_cfg=ft_cfg, test_images=test_images, test_labels=test_labels,
                  warm_start=warm_start)
    capacities = [4, 9]  # smaller first: a buffer leaking forward would show
    swept = list(cl_sweep(images, batches, random_backend, capacities, **kwargs))
    assert len(swept) == len(capacities)
    for cap, (ridge, tuned, rows) in zip(capacities, swept):
        [(alone_ridge, alone_tuned, alone_rows)] = cl_sweep(images, batches, random_backend,
                                                            [cap], **kwargs)
        assert rows == alone_rows
        assert [t for t, *_ in rows] == list(range(1, len(batches) + 1))
        assert max(size for *_, size in rows) <= cap
        assert np.array_equal(ridge.head.weights, alone_ridge.head.weights)
        assert np.array_equal(tuned.backend.get_flat(), alone_tuned.backend.get_flat())
        assert np.array_equal(tuned.head.weights, alone_tuned.head.weights)
    # the two capacities really did fine-tune on different buffers
    assert not np.array_equal(swept[0][1].backend.get_flat(), swept[1][1].backend.get_flat())


def test_cl_warm_start_carries_the_tuned_backend(random_backend):
    images, batches, _, _ = _small_cl_problem(random_backend, num_classes=3)
    ft_cfg = TrainConfig(epochs=2, lr=0.01, batch_size=4, lr_schedule="cosine", seed=3)
    frozen = random_backend.get_flat()
    cold, warm = {}, {}
    for steps in (2, 3):  # a sweep's final models are its last step's
        [cold[steps]] = cl_sweep(images, batches[:steps], random_backend, [9],
                                 fine_tune_cfg=ft_cfg)
        [warm[steps]] = cl_sweep(images, batches[:steps], random_backend, [9],
                                 fine_tune_cfg=ft_cfg, warm_start=True)
        # warm start never touches the ridge floor
        assert np.array_equal(cold[steps][0].head.weights, warm[steps][0].head.weights)
    # step 2 starts from the frozen backend either way; step 3 differs
    assert np.array_equal(cold[2][1].backend.get_flat(), warm[2][1].backend.get_flat())
    assert not np.array_equal(cold[3][1].backend.get_flat(), warm[3][1].backend.get_flat())
    assert np.array_equal(random_backend.get_flat(), frozen)


@pytest.mark.parametrize("warm_start", [False, True])
def test_fine_tuned_models_keep_the_input_width(random_backend, warm_start):
    backend = random_backend.clone()
    backend.input_width = 24
    images, batches, _, _ = _small_cl_problem(backend, num_classes=3)
    ft_cfg = TrainConfig(epochs=1, lr=0.01, batch_size=4, lr_schedule="cosine", seed=3)
    for steps in (1, 2, 3):  # step 1 keeps an unchanged copy of the ridge model
        [(ridge, tuned, _)] = cl_sweep(images, batches[:steps], backend, [9],
                                       fine_tune_cfg=ft_cfg, warm_start=warm_start)
        assert ridge.backend.input_width == tuned.backend.input_width == 24


def test_cl_sweep_validates_every_capacity_before_any_work(random_backend, monkeypatch):
    import taclearn.continual as continual

    images, batches, _, _ = _small_cl_problem(random_backend, num_classes=3)
    monkeypatch.setattr(continual, "embed_images", lambda *a, **k: pytest.fail("embedded"))
    with pytest.raises(ValidationError, match="capacity 2 leaves no budget for 3 classes"):
        cl_sweep(images, batches, random_backend, [9, 2])
    with pytest.raises(ValidationError, match="capacity 0"):
        cl_sweep(images, batches, random_backend, [0])
    with pytest.raises(ValidationError, match="capacity 9 is listed more than once"):
        cl_sweep(images, batches, random_backend, [9, 12, 9])
    with pytest.raises(ValidationError, match="at least one batch and one capacity"):
        cl_sweep(images, batches, random_backend, [])
    with pytest.raises(ValidationError, match="at least one batch and one capacity"):
        cl_sweep(images, [], random_backend, [9])


@pytest.mark.parametrize("warm_start", [False, True])
def test_cl_sweep_keeps_only_the_models_it_needs(random_backend, monkeypatch, warm_start):
    # each capacity keeps its current tuned model (and, warm, the previous
    # one); keeping every step's models held about ten per capacity here
    import gc
    import weakref

    import taclearn.continual as continual

    alive = weakref.WeakSet()
    clone, fine_tune_ = ConvNetBackend.clone, continual.fine_tune

    def tracked_clone(self):
        other = clone(self)
        alive.add(other)
        return other

    counts = []

    def counted_fine_tune(*args, **kwargs):
        gc.collect()
        counts.append(len(alive))
        return fine_tune_(*args, **kwargs)

    monkeypatch.setattr(ConvNetBackend, "clone", tracked_clone)
    monkeypatch.setattr(continual, "fine_tune", counted_fine_tune)
    images, batches, _, _ = _small_cl_problem(random_backend, num_classes=6, per_class=4)
    ft_cfg = TrainConfig(epochs=1, lr=0.01, batch_size=4, lr_schedule="cosine", seed=3)
    rows = [rows for _, _, rows in cl_sweep(images, batches, random_backend, [12, 18],
                                            fine_tune_cfg=ft_cfg, warm_start=warm_start)]
    assert len(rows) == 2 and len(counts) == 2 * 5
    assert max(counts) <= 3


def test_rebalanced_buffer_equals_stepwise_selection(random_backend):
    herded, per_class = {}, {}
    for label, seed in [("c", 14), ("a", 15), ("b", 16)]:  # arrival order is not sorted
        images, labels = _image_batch(5, label, seed)
        per_class = select_exemplars(7, per_class, images, labels, random_backend)
        herded[label] = _herded(images, random_backend)
        idx, buffer_labels = exemplar_buffer(7, herded)
        assert np.array_equal(idx, np.concatenate([per_class[k] for k in sorted(per_class)]))
        assert buffer_labels == [k for k in sorted(per_class) for _ in per_class[k]]
        assert len({len(v) for v in per_class.values()}) == 1
