"""Supervised training of the embedding backend and a linear head.

Classification (softmax cross-entropy) and fabric composition (one sigmoid
cross-entropy logit per constituent) run the same loop and differ only in
the loss on the head.

SGD with momentum and decoupled weight decay: each step first scales every
parameter by (1 - lr * weight_decay), then applies the momentum-averaged
gradient. Three learning-rate schedules: constant, cosine annealing, and
plateau (halve when validation accuracy stalls; a 10% stratified validation
split is carved from the training data only for this schedule, so only
classification accepts it).

Training is deterministic for a fixed config: weight init, shuffling and
augmentation all draw from the portable generator seeded by the configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import fabric
from ..augment import AugmentConfig, _resample_axis, random_augment
from ..errors import RuntimeFailure, ValidationError
from ..prng import Prng
from ..tactile_image import prepare_for_model
from . import layers
from .backend import ConvNetBackend, LinearHead, to_float32

SCHEDULES = ("plateau", "cosine", "constant")
PLATEAU_FACTOR = 0.5  # the plateau schedule's lr cut


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 16
    lr_schedule: str = "plateau"
    seed: int = 0
    val_fraction: float = 0.1
    plateau_patience: int = 10
    freeze_backend: bool = False

    def __post_init__(self):
        if self.epochs < 0:
            raise ValidationError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.lr < math.inf:
            raise ValidationError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValidationError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_schedule not in SCHEDULES:
            raise ValidationError(f"lr_schedule must be one of {SCHEDULES}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValidationError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if self.plateau_patience < 1:
            raise ValidationError(f"plateau_patience must be >= 1, got {self.plateau_patience}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    val_acc: float | None
    lr: float


def sgd_step(params, grads, velocities, lr, momentum, weight_decay):
    """One decoupled-weight-decay SGD step, in place."""
    for p, g, v in zip(params, grads, velocities):
        v *= momentum
        v += g
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        p -= lr * v


def _cosine_lr(base, epoch, total):
    return base * 0.5 * (1.0 + math.cos(math.pi * epoch / max(1, total)))


def prepare_batch(images, input_width: int | None = None) -> np.ndarray:
    """The (N, H, W) planes of a normalized stack, resized to `input_width`
    (None keeps their width)."""
    planes = prepare_for_model(images)
    return planes if input_width is None else _resample_axis(planes, input_width)


def embed_images(backend: ConvNetBackend, images, width: int | None = None) -> np.ndarray:
    """Embeddings of a normalized stack, resized to `width` (None keeps its
    width) and then to the backend's input width chunk by chunk, just before
    each chunk's forward-only float32 pass. A chunk holds at most 64 planes
    and 2**17 pixels at the backend's width (the README gives the
    measurements); each block's buffers live only while that block runs. A
    non-finite embedding, from weights or inputs beyond float32, is refused."""
    planes = prepare_for_model(images)
    width = planes.shape[-1] if width is None else width
    final = width if backend.input_width is None else backend.input_width
    chunk = max(1, min(64, 2**17 // (planes.shape[-2] * final)))
    out = np.empty((len(planes), backend.embed_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(planes), chunk):
            x = _resample_axis(_resample_axis(planes[start : start + chunk], width), final)
            out[start : start + chunk] = backend.embed_batch(x.astype(np.float32, copy=False))
    if not np.isfinite(out).all():
        raise ValidationError("embeddings are not finite: the weights or the inputs "
                              "overflow float32")
    return out


@dataclass
class Classifier:
    """Backend + head + class order; the evaluation-facing predictor."""

    backend: ConvNetBackend
    head: LinearHead
    classes: tuple

    def predict(self, images, embeddings: np.ndarray | None = None) -> list:
        """Predicted classes of a stack; pass `embeddings` (this backend's
        embeddings of `images`) to skip the forward pass."""
        if embeddings is None:
            embeddings = embed_images(self.backend, images)
        idx = np.argmax(self.head.logits(embeddings), axis=1)
        return [self.classes[i] for i in idx]

    def accuracy(self, images, labels, embeddings: np.ndarray | None = None) -> float:
        predicted = self.predict(images, embeddings)
        return float(np.mean([p == t for p, t in zip(predicted, labels)]))

    def clone(self) -> "Classifier":
        return Classifier(self.backend.clone(), self.head.clone(), self.classes)


def _class_indices(labels, classes):
    index = {c: i for i, c in enumerate(classes)}
    return np.array([index[l] for l in labels], dtype=np.int64)


def _stratified_val_split(labels_idx, n_classes, val_fraction, rng):
    val = []
    for c in range(n_classes):
        members = np.flatnonzero(labels_idx == c).tolist()
        rng.shuffle(members)
        n_val = int(round(val_fraction * len(members)))
        n_val = min(n_val, len(members) - 1)  # keep at least one training sample
        val.extend(members[:n_val])
    val_set = set(val)
    train = [i for i in range(len(labels_idx)) if i not in val_set]
    return train, sorted(val)


def _train_loop(images, targets, cfg, aug_cfg, backend, head, loss, val_eval=None):
    """Minibatch SGD of `head` on the backend's embeddings of the stack
    `images`, resized to its input width, for cfg.epochs.

    `loss(logits, targets) -> (value, dlogits)`. The backend is updated too
    unless cfg.freeze_backend. Returns the per-epoch history; each row's lr
    is the one that epoch's steps used.
    """
    params = [head.weights, head.bias]
    if not cfg.freeze_backend:
        params = backend.params() + params
    velocities = [np.zeros_like(p) for p in params]
    lr, best_val, stale = cfg.lr, -np.inf, 0
    history: list[EpochStats] = []
    n = len(images)
    # the normalization check; random_augment resizes augmented minibatches
    planes = prepare_batch(images, backend.input_width if aug_cfg is None else None)
    shuffle_root = Prng(cfg.seed).spawn(1)
    for epoch in range(cfg.epochs):
        if cfg.lr_schedule == "cosine":
            lr = _cosine_lr(cfg.lr, epoch, cfg.epochs)
        order = shuffle_root.spawn(epoch).permutation(n)
        aug_rng = Prng(aug_cfg.seed).spawn(epoch) if aug_cfg is not None else None
        total_loss = 0.0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            if aug_cfg is None:
                x = planes[idx]
            else:
                x = random_augment(images[idx], aug_cfg, aug_rng, backend.input_width)
            # the encoder computes in float32, as in `embed_images`; parameters,
            # velocities and the SGD step stay float64. A frozen backend takes
            # no gradient, so it runs the forward-only pass. A diverging step
            # overflows here; the loss and parameter checks report it, not numpy
            with np.errstate(over="ignore", invalid="ignore"):
                emb, cache = backend.forward(x.astype(np.float32, copy=False),
                                             keep_cache=not cfg.freeze_backend)
                value, dlogits = loss(layers.linear_forward(emb, head.weights, head.bias),
                                      targets[idx])
                if not np.isfinite(value):
                    raise RuntimeFailure(f"non-finite loss at epoch {epoch} batch {bi}")
                demb, dw, db = layers.linear_backward(dlogits, emb, head.weights)
                grads = [dw, db]
                if not cfg.freeze_backend:
                    grads = backend.backward(demb, cache) + grads
                sgd_step(params, grads, velocities, lr, cfg.momentum, cfg.weight_decay)
            total_loss += value * len(idx)
        if any(to_float32(p) is None for p in params):
            raise RuntimeFailure(f"parameters not finite in float32 after epoch {epoch}")
        try:  # the validation images passed every check, so only divergence remains
            val_acc = val_eval() if val_eval is not None else None
        except ValidationError as exc:
            raise RuntimeFailure(f"diverged at epoch {epoch}: {exc}") from None
        history.append(EpochStats(epoch, total_loss / n, val_acc, lr))
        if cfg.lr_schedule == "plateau" and val_acc is not None:
            if val_acc > best_val:
                best_val, stale = val_acc, 0
            else:
                stale += 1
                if stale >= cfg.plateau_patience:
                    lr *= PLATEAU_FACTOR
                    stale = 0
    return history


def train_supervised(images, labels, cfg: TrainConfig, aug_cfg: AugmentConfig | None = None,
                     backend: ConvNetBackend | None = None,
                     head: LinearHead | None = None, classes=None):
    """Train a classifier on a normalized stack and its parallel labels.

    Returns (backend, head, history); column c of the head corresponds to
    classes[c] with classes sorted. Pass a backend (and optionally a matching
    head and class order) to fine-tune an existing model in place; otherwise
    fresh parameters are initialized from cfg.seed. Images reach the encoder,
    augmented or not, resized to the backend's input width.
    """
    labels = list(labels)
    if len(labels) != len(images):
        raise ValidationError(f"{len(labels)} labels for {len(images)} images")
    if classes is None:
        classes = tuple(sorted(set(labels)))
    else:
        classes = tuple(classes)
        stray = set(labels) - set(classes)
        if stray:
            raise ValidationError(f"labels {sorted(stray)!r} missing from class order")
    if len(classes) < 2:
        raise ValidationError(f"need at least 2 classes, got {classes}")
    y = _class_indices(labels, classes)

    if backend is None:
        backend = ConvNetBackend(seed=cfg.seed)
    if head is None:
        head = LinearHead.zeros(backend.embed_dim, len(classes))
    elif head.in_dim != backend.embed_dim or head.out_dim != len(classes):
        raise ValidationError(
            f"head is {head.in_dim}x{head.out_dim}, expected "
            f"{backend.embed_dim}x{len(classes)}"
        )

    val_eval = None
    if cfg.lr_schedule == "plateau" and cfg.val_fraction > 0:
        split_rng = Prng(cfg.seed).spawn(2)
        train_idx, val_idx = _stratified_val_split(y, len(classes), cfg.val_fraction, split_rng)
        val_images, val_y = images[val_idx] if val_idx else None, y[val_idx]

        def val_eval():
            if val_images is None:  # no class is large enough to give one up
                return float("nan")
            emb = embed_images(backend, val_images)
            pred = np.argmax(head.logits(emb), axis=1)
            return float(np.mean(pred == val_y))

        images, y = images[train_idx], y[train_idx]
    for c in range(len(classes)):
        if not np.any(y == c):
            raise ValidationError(f"class {classes[c]!r} has no training samples")

    history = _train_loop(images, y, cfg, aug_cfg, backend, head,
                          layers.softmax_cross_entropy, val_eval)
    return backend, head, history


def train_composition(images, constituents, cfg: TrainConfig,
                      aug_cfg: AugmentConfig | None = None,
                      backend: ConvNetBackend | None = None):
    """Train the composition head: one independent sigmoid logit per constituent.

    `constituents` holds one constituent set per image of the stack. Returns
    (backend, head, history); column c of the head scores
    fabric.CONSTITUENTS[c].
    """
    if cfg.lr_schedule == "plateau":
        raise ValidationError(
            "composition training has no validation split for the plateau schedule; "
            "set [train] schedule to cosine or constant"
        )
    constituents = list(constituents)
    if len(constituents) != len(images):
        raise ValidationError(f"{len(constituents)} constituent sets for {len(images)} images")
    targets = np.stack([fabric.indicator(cons) for cons in constituents])
    if backend is None:
        backend = ConvNetBackend(seed=cfg.seed)
    head = LinearHead.zeros(backend.embed_dim, len(fabric.CONSTITUENTS))
    history = _train_loop(images, targets, cfg, aug_cfg, backend, head,
                          layers.binary_cross_entropy_logits)
    return backend, head, history


def composition_probs(backend: ConvNetBackend, head: LinearHead, images) -> np.ndarray:
    """(N, 6) independent constituent probabilities, one row per image of the stack."""
    n = len(fabric.CONSTITUENTS)
    if head.out_dim != n:
        raise ValidationError(
            f"composition head has {head.out_dim} columns; expected {n} heads, "
            "one column per constituent"
        )
    return layers.sigmoid(head.logits(embed_images(backend, images)))

