"""Evaluation harness: cross-validation, robustness sweeps and scoring.

K-fold cross-validation fits a ridge head per fold on one embedding per image.
Sweeps perturb only the test stack, once per level (center crops and seeded
jitter as a whole, resampling chunk by chunk inside `embed_images`), and
re-measure accuracy; at the neutral point of every sweep (full length, factor
1, level 0) the perturbation is the identity, so the measured value equals the
plain test accuracy exactly. No smoothing is applied to curves.

Reports serialize to a fixed four-column CSV (section,a,b,c) through
`sensor_io.csv_text`, so every value in a report reads back exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fabric
from .augment import crop_temporal, jitter, temporal_width
from .continual import RlsState, ridge_solve, rls_update
from .errors import ValidationError
from .model import Classifier, ConvNetBackend, LinearHead, composition_probs, embed_images
from .prng import Prng
from .sensor_io import csv_text


@dataclass
class EvalReport:
    task_id: str
    fold_accuracies: list = field(default_factory=list)
    curves: dict = field(default_factory=dict)
    constituent_counts: dict = field(default_factory=dict)  # name -> (fp, fn)
    composition_mean: float | None = None

    def __post_init__(self):
        for acc in self.fold_accuracies:
            if not 0.0 <= acc <= 1.0:
                raise ValidationError(f"accuracy {acc} outside [0, 1]")

    @property
    def mean(self) -> float | None:
        if not self.fold_accuracies:
            return None
        return float(np.mean(self.fold_accuracies))

    @property
    def std(self) -> float | None:
        if not self.fold_accuracies:
            return None
        return float(np.std(self.fold_accuracies))

    def to_csv(self) -> str:
        rows = [("task", "id", self.task_id, None)]
        rows += [("fold", i, float(acc), None) for i, acc in enumerate(self.fold_accuracies)]
        for name in sorted(self.curves):
            rows += [("curve", name, float(x), float(y)) for x, y in self.curves[name]]
        for name in sorted(self.constituent_counts):
            fp, fn = self.constituent_counts[name]
            rows.append(("constituent", name, int(fp), int(fn)))
        if self.composition_mean is not None:
            rows.append(("composition", "mean", float(self.composition_mean), None))
        return csv_text(rows)

    def summary_text(self) -> str:
        lines = [f"task: {self.task_id}"]
        if self.fold_accuracies:
            lines.append(
                f"accuracy: {100 * self.mean:.2f}% +/- {100 * self.std:.2f}% "
                f"over {len(self.fold_accuracies)} fold(s)"
            )
        for name in sorted(self.curves):
            pts = "  ".join(f"{x:g}:{100 * y:.2f}%" for x, y in self.curves[name])
            lines.append(f"{name} sweep: {pts}")
        if self.constituent_counts:
            lines.append("constituent  FP  FN")
            for name in fabric.CONSTITUENTS:
                if name in self.constituent_counts:
                    fp, fn = self.constituent_counts[name]
                    lines.append(f"{name:<11} {fp:>3} {fn:>3}")
        if self.composition_mean is not None:
            lines.append(f"composition score: {100 * self.composition_mean:.2f}%")
        return "\n".join(lines) + "\n"


def stratified_folds(labels, k: int, seed: int = 0) -> list[int]:
    """Deterministic stratified fold assignment; returns a fold id per sample."""
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    labels = list(labels)
    assignment = [-1] * len(labels)
    root = Prng(seed)
    for rank, cls in enumerate(sorted(set(labels))):
        members = [i for i, l in enumerate(labels) if l == cls]
        if len(members) < k:
            raise ValidationError(
                f"class {cls!r} has {len(members)} samples, fewer than k={k}"
            )
        root.spawn(rank).shuffle(members)
        for pos, i in enumerate(members):
            assignment[i] = pos % k
    return assignment


def kfold_eval(embeddings: np.ndarray, labels, k: int, ridge_lambda: float = 1.0,
               seed: int = 0, task_id: str = "kfold") -> EvalReport:
    """Stratified k-fold cross-validation of a ridge head on `embeddings`, one
    row per image: each fold's head is solved from the other folds' rows."""
    labels = list(labels)
    assignment = np.array(stratified_folds(labels, k, seed))
    fold_accs = []
    for fold in range(k):
        train_idx = np.flatnonzero(assignment != fold)
        test_idx = np.flatnonzero(assignment == fold)
        state = RlsState(dim=embeddings.shape[1], ridge_lambda=ridge_lambda)
        state = rls_update(state, embeddings[train_idx], [labels[i] for i in train_idx])
        clf = Classifier(None, ridge_solve(state), state.classes)  # scores embeddings only
        fold_accs.append(clf.accuracy(None, [labels[i] for i in test_idx], embeddings[test_idx]))
    return EvalReport(task_id=task_id, fold_accuracies=fold_accs)


def length_sweep(classifier: Classifier, images, labels, lengths) -> list[tuple[float, float]]:
    """Accuracy after center-cropping the test stack to each temporal length."""
    curve = []
    for length in lengths:
        if not 1 <= length <= images.width:
            raise ValidationError(f"length {length} invalid for width {images.width}")
        cropped = crop_temporal(images, (images.width - length) // 2, length)
        curve.append((float(length), classifier.accuracy(cropped, labels)))
    return curve


def speed_sweep(classifier: Classifier, images, labels, factors) -> list[tuple[float, float]]:
    """Accuracy under simulated motion-speed changes: speed factor f
    sub-samples the temporal axis by 1/f (faster motion means fewer readings
    over the same surface). `embed_images` resizes the stack chunk by chunk,
    so no whole resized stack exists. Every factor, and the width it gives
    (at most `augment.MAX_TEMPORAL_WIDTH`), is checked before the first
    embedding."""
    backend, curve, widths = classifier.backend, [], []
    for factor in factors:
        if not 0 < factor < math.inf:
            raise ValidationError(f"speed factor must be finite and positive, got {factor}")
        widths.append(temporal_width(images.width, 1.0 / factor))
    for factor, width in zip(factors, widths):
        embeddings = embed_images(backend, images, width)
        curve.append((float(factor), classifier.accuracy(images, labels, embeddings)))
    return curve


def noise_sweep(classifier: Classifier, images, labels, levels,
                seed: int = 0) -> list[tuple[float, float]]:
    """Accuracy under additive uniform sensor noise at each level; one draw
    over the stack gives each image the draws the images before it leave."""
    curve = []
    for li, level in enumerate(levels):
        noisy = jitter(images, level, Prng(seed).spawn(li))
        curve.append((float(level), classifier.accuracy(noisy, labels)))
    return curve


def ridge_classifier(backend: ConvNetBackend, images, labels,
                     ridge_lambda: float = 1.0) -> Classifier:
    """Frozen-embedding ridge classifier fitted in one shot: the streaming
    statistics of every image, solved once."""
    state = RlsState(dim=backend.embed_dim, ridge_lambda=ridge_lambda)
    state = rls_update(state, embed_images(backend, images), labels)
    return Classifier(backend, ridge_solve(state), state.classes)


def composition_score(predicted, truth) -> float:
    """1 minus one sixth per false-positive or false-negative constituent."""
    predicted = fabric.validate_constituents(predicted)
    truth = fabric.validate_constituents(truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    return 1.0 - (fp + fn) / len(fabric.CONSTITUENTS)


def composition_eval(backend: ConvNetBackend, head: LinearHead, images, truths,
                     threshold: float = 0.5, task_id: str = "composition") -> EvalReport:
    """Score the composition head's predictions over a stack and the
    parallel true constituent sets."""
    if not math.isfinite(threshold):
        raise ValidationError(f"composition threshold must be finite, got {threshold}")
    truths = list(truths)
    if len(truths) != len(images):
        raise ValidationError(f"{len(truths)} constituent sets for {len(images)} images")
    probs = composition_probs(backend, head, images)
    counts = {name: [0, 0] for name in fabric.CONSTITUENTS}
    scores = []
    for truth, p in zip(truths, probs):
        predicted = fabric.from_indicator(p, threshold)
        truth = fabric.validate_constituents(truth)
        scores.append(composition_score(predicted, truth))
        for name in predicted - truth:
            counts[name][0] += 1
        for name in truth - predicted:
            counts[name][1] += 1
    return EvalReport(
        task_id=task_id,
        constituent_counts={k: (v[0], v[1]) for k, v in counts.items()},
        composition_mean=float(np.mean(scores)),
    )
