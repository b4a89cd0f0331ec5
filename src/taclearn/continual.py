"""Class-incremental continual learning with streaming ridge statistics.

Each new material batch updates two sufficient statistics computed with a
frozen embedding backend: the Gram accumulator A (sum of outer products of
all embeddings seen) and one cross-moment vector per class (sum of that
class's embeddings, which is exactly the one-hot-target cross moment). The
ridge head solved from (A + lambda*I) is therefore identical, up to float
rounding, for any presentation order or batching of the same data: the
statistics are plain sums. That head is the robust floor.

On top of it, the bounded exemplar buffer is each class's herding order
(greedily keeping the samples whose embedding mean best matches the class
mean) cut to an equal share of the capacity, and a copy of the model is
fine-tuned on it after every step. Fine-tuning never touches the statistics,
the frozen backend or the ridge head, so the floor survives any adaptation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import AugmentConfig
from .errors import RuntimeFailure, ValidationError
from .model import Classifier, ConvNetBackend, LinearHead, TrainConfig, embed_images
from .model.train import train_supervised


@dataclass
class RlsState:
    """Streaming sufficient statistics for the recursive ridge classifier."""

    dim: int
    ridge_lambda: float = 1.0
    A: np.ndarray = None
    c: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"embedding dim must be >= 1, got {self.dim}")
        if not 0 < self.ridge_lambda < math.inf:
            raise ValidationError(
                f"ridge_lambda must be finite and positive, got {self.ridge_lambda}")
        if self.A is None:
            self.A = np.zeros((self.dim, self.dim))
        if self.A.shape != (self.dim, self.dim):
            raise ValidationError(f"A must be {self.dim}x{self.dim}, got {self.A.shape}")

    @property
    def classes(self) -> tuple:
        return tuple(sorted(self.c))

    def copy(self) -> "RlsState":
        return replace(self, A=self.A.copy(), c={k: v.copy() for k, v in self.c.items()})


def rls_update(state: RlsState, embeddings: np.ndarray, labels) -> RlsState:
    """Fold a batch of (embedding, label) pairs into fresh statistics."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = list(labels)
    if embeddings.ndim == 1:
        embeddings = embeddings[None]
    if len(labels) == 0 and embeddings.size == 0:
        return state.copy()
    if embeddings.shape != (len(labels), state.dim):
        raise ValidationError(
            f"expected embeddings ({len(labels)}, {state.dim}), got {embeddings.shape}"
        )
    if not np.isfinite(embeddings).all():
        raise ValidationError("non-finite embedding in batch")
    new = state.copy()
    # Accumulate one sample at a time so that any batching of the same
    # sample sequence produces bit-identical statistics.
    for emb, label in zip(embeddings, labels):
        new.A += np.outer(emb, emb)
        if label not in new.c:
            new.c[label] = np.zeros(state.dim)
        new.c[label] += emb
    return new


def ridge_solve(state: RlsState) -> LinearHead:
    """Solve (A + lambda*I) W = C for the one-hot ridge head.

    Column order is sorted class id; bias is zero (the statistics carry no
    intercept term).
    """
    if not state.c:
        raise ValidationError("ridge_solve needs at least one observed class")
    classes = state.classes
    m = state.A + state.ridge_lambda * np.eye(state.dim)
    targets = np.stack([state.c[y] for y in classes], axis=1)
    try:
        lower = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        cond = float(np.linalg.cond(m))
        raise RuntimeFailure(
            f"A + lambda*I numerically singular (condition estimate {cond:.3e}); "
            f"increase ridge_lambda"
        ) from None
    # L L^T W = C; numpy has no triangular solver, so its general one does both halves
    weights = np.linalg.solve(lower.T, np.linalg.solve(lower, targets))
    if not np.isfinite(weights).all():
        raise RuntimeFailure("ridge solution is non-finite")
    return LinearHead(weights, np.zeros(len(classes)))


def class_budget(capacity: int, n_classes: int) -> int:
    """Equal per-class share of `capacity`; every class must get at least one."""
    if capacity // n_classes < 1:
        raise ValidationError(f"capacity {capacity} leaves no budget for {n_classes} classes")
    return capacity // n_classes


def exemplar_buffer(capacity: int, herded: dict) -> tuple[np.ndarray, list]:
    """Each class's herding-ordered indices cut to the budget, class by class
    in sorted order: the buffer as (indices into the training stack, labels).

    Cutting keeps the earliest-selected prefix, and budgets only shrink as
    classes arrive, so cutting a herded list gives the same buffer as
    cutting the previous step's buffer. A budget never exceeds `capacity`,
    so lists herded only `capacity` deep cut the same.
    """
    budget = class_budget(capacity, len(herded))
    kept = {label: herded[label][:budget] for label in sorted(herded)}
    return np.concatenate(list(kept.values())), [k for k, idx in kept.items() for _ in idx]


def herding_order(embeddings: np.ndarray, count: int) -> list[int]:
    """The first min(count, n) picks of greedy herding: at each step add the
    sample whose inclusion brings the running mean closest to the class mean.
    Ties break to the lowest index. A pick depends only on the earlier ones,
    so any count gives a prefix of the full order.

    Step m picks the row e minimising ||mu - (total + e)/m||. With
    r = m*mu - total that is the row minimising ||e||^2 - 2 e.r, so one
    matvec scores every row. The untaken rows scoring within `band` of the
    minimum are re-scored with the distance formula, and the first minimiser
    among them is the pick. `band` is at least twice the worst-case rounding
    gap between the two formulas (a length-d dot product errs by at most
    d*eps/2 times its sum of absolute products, plus d half subnormals where
    products underflow), so the picks equal those of the distance formula
    applied to every untaken row. Should a score or the band overflow, every
    untaken row is re-scored.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    n, d = embeddings.shape
    mu = embeddings.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", embeddings, embeddings)
    col_max = np.abs(embeddings).max(axis=0, initial=0.0)
    rounding = 4.0 * (d + 8) * np.finfo(np.float64).eps
    underflow = 16.0 * (d + 8) * np.finfo(np.float64).smallest_subnormal
    order: list[int] = []
    total = np.zeros(d)
    taken = np.zeros(n, dtype=bool)
    for m in range(1, min(count, n) + 1):
        score = sq_norms - 2.0 * (embeddings @ (m * mu - total))
        score[taken] = np.inf
        band = (rounding * float(np.sum((m * np.abs(mu) + np.abs(total) + col_max) ** 2))
                + underflow * m * m)
        cutoff = score.min() + band
        near = np.flatnonzero(score <= cutoff if np.isfinite(cutoff) else ~taken)
        candidate_means = (total[None, :] + embeddings[near]) / m
        dist = np.linalg.norm(mu[None, :] - candidate_means, axis=1)
        chosen = int(near[np.argmin(dist)])
        order.append(chosen)
        total += embeddings[chosen]
        taken[chosen] = True
    return order


def fine_tune(ridge_clf: Classifier, images, labels, cfg: TrainConfig,
              aug_cfg: AugmentConfig | None = None) -> Classifier:
    """Adapt a copy of the ridge model on the buffer's stack `images` and
    their `labels`; the input is untouched.

    Requires the cosine schedule. Zero epochs returns an identical copy.
    """
    if len(labels) == 0:
        raise ValidationError("fine_tune needs a non-empty buffer")
    if cfg.lr_schedule != "cosine":
        raise ValidationError(f"fine_tune requires the cosine schedule, got {cfg.lr_schedule}")
    clone = ridge_clf.clone()
    if cfg.epochs == 0:
        return clone
    train_supervised(images, labels, cfg, aug_cfg, backend=clone.backend, head=clone.head,
                     classes=clone.classes)
    return clone


@dataclass
class _SharedStep:
    """The capacity-independent part of one continual step."""

    ridge: Classifier
    herded: dict  # label -> that class's indices in herding order, classes seen so far
    test: tuple | None  # (indices, labels) of the test items of the classes seen so far
    acc_ridge: float | None


def cl_sweep(images, batches, backend: ConvNetBackend, capacities, ridge_lambda: float = 1.0,
             fine_tune_cfg: TrainConfig | None = None, aug_cfg: AugmentConfig | None = None,
             test_images=None, test_labels=None, warm_start: bool = False):
    """Run the incremental protocol once per buffer capacity.

    `images` is the training stack and `batches` a sequence of (label,
    indices into `images`) pairs, one new material each. Training at step t
    sees only that batch and the buffer; earlier batches are gone by
    construction.

    The ridge statistics and heads, each class's herding order up to the
    largest capacity (no budget reaches past it) and the ridge-floor
    accuracies do not depend on the capacity. They are computed here, once,
    before this returns, together with every validation; the test set is
    embedded once by the frozen backend for all ridge scores. The returned
    iterator then yields (ridge, fine_tuned, rows) per capacity, in order,
    doing only the capacity-dependent work: cutting the herded lists to the
    budget, fine-tuning and scoring the fine-tuned model. Only the last
    step's two models are kept; its fine-tuned model is a copy of its ridge
    model when that step did not fine-tune. Each row is (t, acc of ridge
    floor, acc of fine-tuned model, buffer size), with accuracies over the
    test items belonging to classes seen so far (or None when no test set is
    supplied).
    """
    batches = [(label, np.asarray(idx, dtype=np.int64)) for label, idx in batches]
    capacities = list(capacities)
    if not batches or not capacities:
        raise ValidationError("cl_sweep needs at least one batch and one capacity")
    n_classes = len({label for label, _ in batches})
    for i, capacity in enumerate(capacities):
        class_budget(capacity, n_classes)
        if capacity in capacities[:i]:
            raise ValidationError(f"capacity {capacity} is listed more than once")
    steps = _shared_pass(images, batches, backend, ridge_lambda, test_images, test_labels,
                         max(capacities))
    return (_capacity_pass(steps, images, test_images, capacity, fine_tune_cfg, aug_cfg,
                           warm_start)
            for capacity in capacities)


def _shared_pass(images, batches, backend, ridge_lambda, test_images, test_labels, depth):
    state = RlsState(dim=backend.embed_dim, ridge_lambda=ridge_lambda)
    test_emb = None
    if test_images is not None:
        test_emb = embed_images(backend, test_images)
    herded: dict = {}
    steps: list[_SharedStep] = []
    for label, idx in batches:
        if label in herded:
            raise ValidationError(f"class {label!r} appears twice in the sequence")
        # a class that is one ascending run of the stack is embedded from a
        # view of it, not from a copy
        run = len(idx) and np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx)))
        embeddings = embed_images(backend, images[idx[0] : idx[-1] + 1] if run else images[idx])
        state = rls_update(state, embeddings, [label] * len(idx))
        herded[label] = idx[herding_order(embeddings, depth)]
        ridge_clf = Classifier(backend, ridge_solve(state), state.classes)
        test = acc_ridge = None
        if test_emb is not None:
            eval_idx = [i for i, l in enumerate(test_labels) if l in herded]
            if eval_idx:
                test = (eval_idx, [test_labels[i] for i in eval_idx])
                acc_ridge = ridge_clf.accuracy(None, test[1], embeddings=test_emb[eval_idx])
        steps.append(_SharedStep(ridge_clf, dict(herded), test, acc_ridge))
    return steps


def _capacity_pass(steps, images, test_images, capacity, fine_tune_cfg, aug_cfg, warm_start):
    rows: list[tuple] = []
    tuned: Classifier | None = None  # None while the ridge model stands unchanged
    for t, step in enumerate(steps, start=1):
        buffer_idx, buffer_labels = exemplar_buffer(capacity, step.herded)
        if fine_tune_cfg is not None and fine_tune_cfg.epochs > 0 and t >= 2:
            # with a single class there is nothing to discriminate yet
            start = step.ridge
            if warm_start and tuned is not None:
                start = replace(step.ridge, backend=tuned.backend)
            tuned = None  # only `start` may still need the previous model
            tuned = fine_tune(start, images[buffer_idx], buffer_labels, fine_tune_cfg, aug_cfg)
            try:  # the frozen backend embedded these images: only divergence remains
                acc_tuned = None if step.test is None else tuned.accuracy(
                    test_images[step.test[0]], step.test[1])
            except ValidationError as exc:
                raise RuntimeFailure(f"fine-tuning diverged at step {t}: {exc}") from None
        else:
            # the unchanged ridge model scores exactly as it does
            tuned, acc_tuned = None, step.acc_ridge
        rows.append((t, step.acc_ridge, acc_tuned, len(buffer_idx)))
    return step.ridge, step.ridge.clone() if tuned is None else tuned, rows
