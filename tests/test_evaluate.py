import itertools

import numpy as np
import pytest

from taclearn.augment import crop_temporal, jitter, resize_temporal
from taclearn.errors import ValidationError
from taclearn import evaluate
from taclearn.evaluate import (
    EvalReport,
    composition_eval,
    composition_score,
    curve_to_csv,
    kfold_eval,
    length_sweep,
    noise_sweep,
    ridge_classifier,
    speed_sweep,
    stratified_folds,
)
from taclearn.fabric import CONSTITUENTS, UnknownConstituentError
from taclearn.model import Classifier, LinearHead, embed_images
from taclearn.prng import Prng
from taclearn.tactile_image import TactileImage

from conftest import synth_images


def test_composition_score_felt_examples():
    felt = {"Viscose", "Wool"}
    assert composition_score(felt, felt) == 1.0
    assert composition_score({"Viscose"}, felt) == pytest.approx(5 / 6)
    complement = set(CONSTITUENTS) - felt
    assert composition_score(complement, felt) == 0.0


def test_composition_score_exhaustive_hamming():
    # all 2^6 x 2^6 subset pairs: score must equal 1 - hamming/6
    for pred_bits in range(64):
        predicted = {CONSTITUENTS[i] for i in range(6) if pred_bits >> i & 1}
        for truth_bits in range(64):
            truth = {CONSTITUENTS[i] for i in range(6) if truth_bits >> i & 1}
            hamming = bin(pred_bits ^ truth_bits).count("1")
            assert composition_score(predicted, truth) == pytest.approx(1 - hamming / 6)


def test_composition_score_symmetric_in_fp_fn():
    a = {"Linen", "Cotton"}
    b = {"Linen", "Wool"}
    assert composition_score(a, b) == composition_score(b, a)


def test_composition_score_rejects_unknown():
    with pytest.raises(UnknownConstituentError, match="Nylon"):
        composition_score({"Nylon"}, {"Wool"})


def test_stratified_folds_sizes_and_determinism():
    labels = [c for c in range(5) for _ in range(50)]
    assignment = stratified_folds(labels, k=5, seed=3)
    for cls in range(5):
        members = [assignment[i] for i, l in enumerate(labels) if l == cls]
        assert sorted(np.bincount(members, minlength=5)) == [10] * 5
    assert assignment == stratified_folds(labels, k=5, seed=3)
    assert assignment != stratified_folds(labels, k=5, seed=4)


def test_stratified_folds_small_class_errors():
    with pytest.raises(ValidationError, match="fewer than k"):
        stratified_folds([0, 0, 1], k=2, seed=0)


def test_kfold_perfect_trainer_scores_one():
    images, labels, _ = synth_images(num_classes=2, per_class=10, channels=10,
                                     length=32, seed=40)
    truth = {plane.tobytes(): label for plane, label in zip(images.data, labels)}

    def trainer(train_images, train_labels):
        return lambda stack: [truth[plane.tobytes()] for plane in stack.data]

    report = kfold_eval(images, labels, k=5, trainer=trainer, seed=1)
    assert report.fold_accuracies == [1.0] * 5
    assert report.mean == 1.0
    assert report.std == 0.0


def test_kfold_with_ridge_trainer(random_backend):
    images, labels, _ = synth_images(num_classes=3, per_class=10, channels=10,
                                     length=32, seed=41)

    def trainer(train_images, train_labels):
        clf = ridge_classifier(random_backend, train_images, train_labels)
        return clf.predict

    report = kfold_eval(images, labels, k=5, trainer=trainer, seed=2)
    assert len(report.fold_accuracies) == 5
    assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)
    again = kfold_eval(images, labels, k=5, trainer=trainer, seed=2)
    assert report.fold_accuracies == again.fold_accuracies


@pytest.fixture(scope="module")
def fitted(random_backend):
    train_images, train_labels, bounds = synth_images(
        num_classes=3, per_class=12, channels=10, length=48, seed=42
    )
    test_images, test_labels, _ = synth_images(
        num_classes=3, per_class=5, channels=10, length=48, seed=42,
        start_index=12, bounds=bounds,
    )
    backend = random_backend.clone()
    backend.input_width = 48
    clf = ridge_classifier(backend, train_images, train_labels)
    return clf, train_images, train_labels, test_images, test_labels


def test_sweeps_neutral_points_equal_plain_accuracy(fitted):
    clf, _, _, test_images, test_labels = fitted
    plain = clf.accuracy(test_images, test_labels)
    (length_point,) = length_sweep(clf, test_images, test_labels, [48])
    (speed_point,) = speed_sweep(clf, test_images, test_labels, [1.0])
    (noise_point,) = noise_sweep(clf, test_images, test_labels, [0.0])
    assert length_point == (48.0, plain)
    assert speed_point == (1.0, plain)
    assert noise_point == (0.0, plain)


def test_sweep_grids(fitted):
    clf, _, _, test_images, test_labels = fitted
    lengths = length_sweep(clf, test_images, test_labels, [8, 16, 32, 48])
    assert [x for x, _ in lengths] == [8.0, 16.0, 32.0, 48.0]
    speeds = speed_sweep(clf, test_images, test_labels, [0.5, 1.0, 2.0, 4.0])
    assert [x for x, _ in speeds] == [0.5, 1.0, 2.0, 4.0]
    noises = noise_sweep(clf, test_images, test_labels, [0.0, 0.1, 0.5])
    assert [x for x, _ in noises] == [0.0, 0.1, 0.5]
    for _, acc in itertools.chain(lengths, speeds, noises):
        assert 0.0 <= acc <= 1.0


def test_noise_sweep_seeded(fitted):
    clf, _, _, test_images, test_labels = fitted
    a = noise_sweep(clf, test_images, test_labels, [0.3], seed=7)
    b = noise_sweep(clf, test_images, test_labels, [0.3], seed=7)
    assert a == b


def test_length_sweep_validates(fitted):
    clf, _, _, test_images, test_labels = fitted
    with pytest.raises(ValidationError):
        length_sweep(clf, test_images, test_labels, [1000])


# The per-image sweeps the stacked ones replaced, kept verbatim as the
# oracle: over a list of the stack's planes they must perturb every image to
# the same bytes, level by level, and give the same curve.
def _length_sweep_one(classifier, images, labels, lengths):
    curve = []
    for length in lengths:
        cropped = []
        for img in images:
            if not 1 <= length <= img.width:
                raise ValidationError(f"length {length} invalid for width {img.width}")
            start = (img.width - length) // 2
            cropped.append(crop_temporal(img, start, length))
        curve.append((float(length), classifier.accuracy(cropped, labels)))
    return curve


def _speed_sweep_one(classifier, images, labels, factors):
    curve = []
    for factor in factors:
        if factor <= 0:
            raise ValidationError(f"speed factor must be positive, got {factor}")
        resized = [resize_temporal(img, 1.0 / factor) for img in images]
        curve.append((float(factor), classifier.accuracy(resized, labels)))
    return curve


def _noise_sweep_one(classifier, images, labels, levels, seed=0):
    curve = []
    for li, level in enumerate(levels):
        rng = Prng(seed).spawn(li)
        noisy = [jitter(img, level, rng) for img in images]
        curve.append((float(level), classifier.accuracy(noisy, labels)))
    return curve


class _Recorder:
    """Scores with `classifier`, keeping the planes of every perturbed set: the
    set it scores or, when handed embeddings (the speed sweep embeds the
    resized stack chunk by chunk, through `record_chunk`), the chunks joined."""

    def __init__(self, classifier):
        self.classifier, self.backend = classifier, classifier.backend
        self.planes, self.chunks = [], []

    def record_chunk(self, backend, images):
        self.chunks.append(images.data)
        return embed_images(backend, images)

    def accuracy(self, images, labels, embeddings=None):
        if not isinstance(images, TactileImage):  # the oracle's list of images
            images = TactileImage(data=np.stack([img.data for img in images]), normalized=True)
        if embeddings is None:
            self.planes.append(images.data)
        else:
            self.planes.append(np.concatenate(self.chunks))
            self.chunks = []
        return self.classifier.accuracy(images, labels, embeddings)


@pytest.mark.parametrize("sweep, oracle, levels, kwargs, input_width", [
    (length_sweep, _length_sweep_one, [8, 17, 48], {}, 48),
    # at width 1000 a chunk holds 13 of the 15 planes: every level embeds two
    (speed_sweep, _speed_sweep_one, [0.5, 1.0, 1.7, 3.0], {}, 1000),
    (noise_sweep, _noise_sweep_one, [0.0, 0.1, 0.5], {"seed": 5}, 48),
], ids=["length", "speed", "noise"])
def test_stacked_sweeps_match_per_image_oracle(monkeypatch, fitted, sweep, oracle, levels,
                                               kwargs, input_width):
    clf, _, _, test_images, test_labels = fitted
    backend = clf.backend.clone()
    backend.input_width = input_width
    clf = Classifier(backend, clf.head, clf.classes)
    stacked, per_image = _Recorder(clf), _Recorder(clf)
    monkeypatch.setattr(evaluate, "embed_images", stacked.record_chunk)
    planes = [test_images[i] for i in range(len(test_images))]
    curve = sweep(stacked, test_images, test_labels, levels, **kwargs)
    monkeypatch.undo()
    assert curve == oracle(per_image, planes, test_labels, levels, **kwargs)
    assert len(stacked.planes) == len(per_image.planes) == len(levels)
    for a, b in zip(stacked.planes, per_image.planes):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_speed_sweep_embeds_the_chunks_of_the_whole_resized_stack(monkeypatch, fitted):
    # each chunk is one embed_images call, cut where embed_images would cut the
    # whole resized stack, so every embedding keeps its bytes
    clf, _, _, test_images, test_labels = fitted
    backend = clf.backend.clone()
    backend.input_width = 1000
    clf = Classifier(backend, clf.head, clf.classes)
    calls, embeddings = [], []
    real_accuracy = Classifier.accuracy

    def record_chunk(backend_, images):
        calls.append(len(images))
        return embed_images(backend_, images)

    def record_embeddings(self, images, labels, emb=None):
        embeddings.append(emb)
        return real_accuracy(self, images, labels, emb)

    monkeypatch.setattr(evaluate, "embed_images", record_chunk)
    monkeypatch.setattr(Classifier, "accuracy", record_embeddings)
    speed_sweep(clf, test_images, test_labels, [0.5, 2.0])
    monkeypatch.undo()
    assert calls == [13, 2, 13, 2]
    for factor, emb in zip([0.5, 2.0], embeddings):
        whole = embed_images(backend, resize_temporal(test_images, 1.0 / factor))
        assert emb.tobytes() == whole.tobytes()


def test_baseline_matches_normal_equations_oracle(fitted):
    clf, train_images, train_labels, test_images, test_labels = fitted
    acc = clf.accuracy(test_images, test_labels)
    # independent closed-form oracle on the same embeddings
    train_emb = embed_images(clf.backend, train_images)
    classes = sorted(set(train_labels))
    onehot = np.zeros((len(train_labels), len(classes)))
    for i, l in enumerate(train_labels):
        onehot[i, classes.index(l)] = 1.0
    w = np.linalg.solve(
        train_emb.T @ train_emb + np.eye(train_emb.shape[1]), train_emb.T @ onehot
    )
    test_emb = embed_images(clf.backend, test_images)
    predicted = [classes[i] for i in np.argmax(test_emb @ w, axis=1)]
    oracle_acc = float(np.mean([p == t for p, t in zip(predicted, test_labels)]))
    assert abs(acc - oracle_acc) <= 1e-9

    assert list(clf.classes) == classes
    assert np.linalg.norm(clf.head.weights - w) <= 1e-9 * max(1.0, np.linalg.norm(w))


def test_baseline_memorization_bound(fitted):
    clf, train_images, train_labels, test_images, test_labels = fitted
    in_sample = clf.accuracy(train_images, train_labels)
    held_out = clf.accuracy(test_images, test_labels)
    assert in_sample >= held_out


def test_composition_eval_counts(random_backend):
    images, labels, _ = synth_images(num_classes=2, per_class=4, channels=10,
                                     length=32, seed=44)
    d = random_backend.embed_dim
    # a head with fixed logits: always predict {Linen} (first constituent)
    biases = [5.0, -5.0, -5.0, -5.0, -5.0, -5.0]
    head = LinearHead(np.zeros((d, 6)), np.array(biases))
    truths = [frozenset({"Linen"}) if l == 0 else frozenset({"Wool"}) for l in labels]
    report = composition_eval(random_backend, head, images, truths)
    # class-1 items: Linen is a false positive and Wool a false negative
    assert report.constituent_counts["Linen"] == (4, 0)
    assert report.constituent_counts["Wool"] == (0, 4)
    assert report.composition_mean == pytest.approx((4 * 1.0 + 4 * (4 / 6)) / 8)
    text = report.summary_text()
    assert "FP" in text and "Wool" in text


def _read_report(text):
    # the report reader no command needs, kept as the oracle of lossless CSV reports
    report = EvalReport(task_id="")
    for line in text.splitlines():
        section, a, b, c = line.split(",", 3)
        if section == "task":
            report.task_id = b
        elif section == "fold":
            report.fold_accuracies.append(float(b))
        elif section == "curve":
            report.curves.setdefault(a, []).append((float(b), float(c)))
        elif section == "constituent":
            report.constituent_counts[a] = (int(b), int(c))
        else:
            assert (section, a) == ("composition", "mean")
            report.composition_mean = float(b)
    return report


def test_report_csv_round_trip():
    report = EvalReport(
        task_id="demo",
        fold_accuracies=[0.5, 0.625, 1.0],
        curves={"length": [(8.0, 0.25), (16.0, 0.75)], "noise": [(0.0, 1.0)]},
        constituent_counts={"Linen": (2, 3)},
        composition_mean=0.8125,
    )
    text = report.to_csv()
    loaded = _read_report(text)
    assert loaded.task_id == report.task_id
    assert loaded.fold_accuracies == report.fold_accuracies
    assert loaded.curves == report.curves
    assert loaded.constituent_counts == report.constituent_counts
    assert loaded.composition_mean == report.composition_mean
    assert loaded.to_csv() == text


def test_curve_csv_format():
    csv = curve_to_csv([(0.5, 0.75), (1.0, 0.875)])
    assert csv.splitlines()[0] == "x,y"
    assert csv.splitlines()[1] == "0.5,0.75"
