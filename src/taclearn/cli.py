"""Command-line entry point.

    taclearn ingest --config FILE --out DIR [--seed N]
    taclearn train  --config FILE --out DIR [--seed N] [--no-augment]
    taclearn cl     --config FILE --out DIR [--seed N] [--no-augment] [--sweep]
    taclearn eval MODE --config FILE --checkpoint FILE --out DIR [--seed N]

Each command reads only the dataset splits it uses: ``train`` the train
split, ``cl`` and ``eval kfold`` both, the other eval modes the test split,
plus the train split when the normalization bounds (synthetic mode, or a
manifest without norm_lo/norm_hi) come from it. ``ingest`` validates a
whole dataset, parsing each stream file once, so a bad file in a split a
command does not read surfaces there.

Images reach the encoder resized to its backend's input width. ``train``,
``cl`` and ``eval kfold`` take ``[transform] input_width`` (else the images'
width), even over a loaded checkpoint's; the other eval modes keep the width
the checkpoint recorded, and without one the images keep their own.

Exit codes: 0 success, 1 validation error (bad config, files, parameters),
2 runtime failure (running out of memory is one). Validation runs before
anything is written, and ``--out`` is checked before any work: a file at it
or at one of its ancestors exits 1. Every command computes every output
before it creates ``--out`` (``ingest`` writes its stream files after), so a
failed run leaves ``--out`` and its missing parents as it found them; an
entry of ``--out`` in the way of an output exits 1 before any write. Every
output is a deterministic
function of (config, seed), so reruns produce identical bytes: importing
taclearn pins BLAS to one thread, because the thread count can change the
last bits of GEMM results and with them a training history. A thread
variable set in the environment (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``) overrides the pin, and outputs
are then reproducible at that count only.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .augment import MAX_TEMPORAL_WIDTH, AugmentConfig
from .config import load_config
from .continual import cl_sweep
from .errors import RuntimeFailure, ValidationError
from .evaluate import (EvalReport, composition_eval, kfold_eval, length_sweep, noise_sweep,
                       speed_sweep)
from .model import (Checkpoint, Classifier, ConvNetBackend, TrainConfig, checkpoint_bytes,
                    embed_images, load_checkpoint, train_composition, train_supervised)
from .prng import Prng
from .sensor_io import (MAX_SAMPLES_PER_CLASS, MAX_SYNTHETIC_CHANNELS, MAX_SYNTHETIC_CLASSES,
                        Manifest, ManifestEntry, SensorStream, SyntheticTextureConfig, csv_text,
                        generate_synthetic, load_manifest, load_manifest_streams,
                        synthetic_sensor_spec, write_manifest, write_stream)
from .tactile_image import TactileImage, calibrate, compute_bounds, image_plane, normalize


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taclearn",
                                     description="Tactile representation learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint (.tacm)")

    p_ingest = sub.add_parser("ingest", help="validate streams and build a dataset manifest")
    common(p_ingest)

    p_train = sub.add_parser("train", help="train a classifier or composition model")
    common(p_train)
    p_train.add_argument("--no-augment", action="store_true", help="disable augmentation")

    p_cl = sub.add_parser("cl", help="run the continual-learning protocol")
    common(p_cl)
    p_cl.add_argument("--no-augment", action="store_true", help="disable augmentation")
    p_cl.add_argument("--sweep", action="store_true",
                      help="run every capacity in [cl] sweep_capacities")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("mode", choices=["kfold", "length", "speed", "noise", "composition"])
    common(p_eval, checkpoint=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "ingest": cmd_ingest,
        "train": cmd_train,
        "cl": cmd_cl,
        "eval": cmd_eval,
    }
    try:
        config = load_config(args.config)
        run_seed = _run_seed(config, args)
        found = _existing_ancestor(Path(args.out))
        if not found.is_dir():
            raise ValidationError(f"--out {args.out}: {found} is not a directory")
        return commands[args.command](args, config, run_seed)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeFailure as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes that can exist but not on this machine
        detail = f": {exc}" if str(exc) else ""
        print(f"runtime failure: out of memory{detail}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"unexpected failure: {exc!r}", file=sys.stderr)
        return 2


def _run_seed(config, args) -> int:
    seed = config.get_int("run", "seed", 0) if args.seed is None else args.seed
    Prng(seed)  # every command refuses a seed outside [0, 2**64), ingest included
    return seed


def _sub_seed(run_seed: int, key: int) -> int:
    return Prng(run_seed).spawn(key).next_u64()


def _existing_ancestor(path: Path) -> Path:
    """`path` itself if it exists, else its nearest ancestor that does."""
    return next(p for p in (path, *path.parents) if p.exists())


@dataclass
class _Bundle:
    """Loaded dataset: each split one normalized (N, H, W) stack plus its
    parallel labels and constituent sets.

    A split the command did not ask for, or an empty one, has images None.
    """

    train_images: TactileImage | None
    train_labels: list
    train_cons: list
    test_images: TactileImage | None
    test_labels: list
    test_cons: list
    input_width: int
    bounds: tuple[float, float]
    manifest: object  # the sensor_io.Manifest read in manifest mode, else None


def _synthetic_config(config):
    lo, hi = SyntheticTextureConfig.base_frequency_range
    return SyntheticTextureConfig(
        num_classes=config.get_int("dataset", "num_classes", maximum=MAX_SYNTHETIC_CLASSES),
        channels=config.get_int("dataset", "channels", 12, maximum=MAX_SYNTHETIC_CHANNELS),
        stream_length=config.get_int("dataset", "stream_length", 64,
                                     maximum=MAX_TEMPORAL_WIDTH),
        base_frequency_range=(config.get_float("dataset", "base_freq_lo", lo),
                              config.get_float("dataset", "base_freq_hi", hi)),
        noise_floor=config.get_float("dataset", "noise_floor", SyntheticTextureConfig.noise_floor),
        seed=config.get_int("dataset", "seed", SyntheticTextureConfig.seed),
    )


def _constituent_map(config):
    """Label -> constituent set; an empty list reads as None (no set), as
    `load_manifest` reads the empty field `ingest` writes for it."""
    return {label: frozenset(n for n in names.split(";") if n) or None
            for label, names in config.section_items("composition").items()}


def _synthetic_classes(config):
    """The synthetic sensor's spec and, per split, its sample count and a
    generator of its classes' (name, label, constituents, readings),
    generated one class at a time and only when asked for; a split without
    samples yields none. The test split starts at index train_per_class."""
    synth = _synthetic_config(config)
    train_n = config.get_int("dataset", "train_per_class", 40, minimum=0,
                             maximum=MAX_SAMPLES_PER_CLASS)
    test_n = config.get_int("dataset", "test_per_class", 10, minimum=0,
                            maximum=MAX_SAMPLES_PER_CLASS)
    cons_map = _constituent_map(config)

    def classes(n, start):
        indices = range(start, start + n)
        for c in range(synth.num_classes if n > 0 else 0):
            yield f"class {c}", str(c), cons_map.get(str(c)), generate_synthetic(synth, c, indices)

    return synthetic_sensor_spec(synth), {
        "train": (train_n * synth.num_classes, classes(train_n, 0)),
        "test": (test_n * synth.num_classes, classes(test_n, train_n))}


def _read_splits(config, splits, window):
    """`_load_bundle`'s normalized stacks with their labels and constituent
    sets, bounds, image shape and manifest.

    Each mode supplies, per split, a sample count and groups (name, label,
    constituents, readings): one per class in synthetic mode, one per stream
    in manifest mode. One loop copies each group's images straight into its
    split's preallocated float32 stack, each value rounded once from its
    float64 normalization. A manifest's bounds are known before the loop
    (given, or folded from the parsed train streams), so each stream, whose
    CSV readings need not be float32-exact, is normalized in float64 as it
    is stored. Synthetic readings are float32-exact, so the loop stores a
    class raw while it folds the train split's min and max, and each stack
    is normalized in place once the loop ends. The parsed streams are locals
    here, so they are gone once the stacks are returned.
    """
    mode = config.get_str("dataset", "mode")
    if mode == "synthetic":
        manifest, bounds = None, None
        spec, sources = _synthetic_classes(config)
    elif mode == "manifest":
        man_path = config.get_str("dataset", "manifest")
        manifest = load_manifest(man_path)
        spec, bounds = manifest.spec, manifest.norm_bounds
        read = tuple(dict.fromkeys(("train", *splits))) if bounds is None else splits
        # parse the streams of `read` once each, in manifest order
        wanted = replace(manifest, entries=[e for e in manifest.entries if e.split in read])
        streams = load_manifest_streams(man_path, wanted)[1]
        sources = {split: (len(manifest.split(split)),
                           [(e.path, e.label, e.constituents, s.readings[None])
                            for e, s in zip(wanted.entries, streams) if e.split == split])
                   for split in ("train", "test")}
    else:
        raise ValidationError(f"[dataset] mode must be synthetic or manifest, got {mode!r}")
    if not sources["train"][0]:
        raise ValidationError("dataset has no training samples")
    if manifest is not None and bounds is None:
        bounds = compute_bounds(readings for *_, readings in sources["train"][1])

    lo, hi, shape, stacks = np.inf, -np.inf, None, {}
    for split in dict.fromkeys(("train", *splits)):
        size, groups = sources[split]
        stack, labels, cons = None, [], []
        for name, label, constituents, readings in groups:
            if split == "train" and bounds is None:
                lo, hi = min(lo, float(readings.min())), max(hi, float(readings.max()))
            planes = image_plane(readings, spec, *window)
            shape = shape or planes.shape[1:]
            if planes.shape[1:] != shape:
                raise ValidationError(
                    f"{name}: image is {planes.shape[1]}x{planes.shape[2]}, the dataset's first "
                    f"is {shape[0]}x{shape[1]}; every image must have one shape (set "
                    f"[transform] window_start and window_end to cut every stream to one window)")
            if split in splits:
                if stack is None:
                    stack = np.empty((size, *shape), np.float32)
                    stacks[split] = stack, labels, cons
                if manifest is not None:
                    planes = calibrate(planes.astype(np.float64), *bounds)
                stack[len(labels) : len(labels) + len(planes)] = planes
                labels += [label] * len(planes)
                cons += [constituents] * len(planes)
    # the folded pair refuses degenerate data with compute_bounds' own error
    bounds = bounds or compute_bounds([np.array((lo, hi))])
    return ({split: (normalize(stack, *bounds, source=spec) if manifest is None
                     else TactileImage(stack, spec, normalized=True), labels, cons)
             for split, (stack, labels, cons) in stacks.items()},
            bounds, shape, manifest)


def _load_bundle(config, splits=("train", "test")) -> _Bundle:
    """Images of `splits`, read by `_read_splits`. The train split is also
    read when the normalization bounds (synthetic mode, or a manifest without
    norm_lo/norm_hi) come from it; read only for them, it yields no images.
    Every image read must have one shape, whose width is the input width
    unless ``[transform] input_width`` sets it."""
    input_width = config.get_int("transform", "input_width", None, minimum=1,
                                 maximum=MAX_TEMPORAL_WIDTH)
    window = (config.get_int("transform", "window_start", None),
              config.get_int("transform", "window_end", None),
              config.get_int("transform", "frame_index", 0))
    stacks, bounds, shape, manifest = _read_splits(config, splits, window)
    train, test = (stacks.get(split, (None, [], [])) for split in ("train", "test"))
    # The streams are gone; then freeing one 10 MB block raises glibc's
    # adaptive mmap threshold to 10 MB, so malloc keeps up to 20 MB of freed heap.
    # Every conv block call allocates its padded input and columns afresh:
    # training's caches, freed block by block during backward, and embedding's
    # buffers, freed as each block returns. Block 1's float32 columns alone
    # (0.44 MB at batch 16, 12x64) exceed the 128 KB default threshold, so
    # without the block they would fault in afresh on every call. Minor faults
    # with and without it, with peak RSS within 1.3 MB: train on 100 19x400
    # streams 11k and 71k, eval speed on 100 such streams 10k and 56k,
    # cl --sweep on 10 classes x 600 images 13k either way. End to end it is
    # worth 20-40 % of embedding throughput at 19x400: perfbench's
    # wide-manifest-train embedded 1859-1991 images/s with it and 1100-1600
    # without (one 15 s run at each of three seeds, 2 CPUs); wall time and
    # peak RSS did not separate. Other allocators just make it.
    np.empty(10 << 20, dtype=np.uint8)
    return _Bundle(*train, *test, input_width or (shape and shape[1]), bounds, manifest)


def _augment_config(config, args, input_width, run_seed):
    if getattr(args, "no_augment", False):
        return None
    if not config.get_bool("augment", "enabled", True):
        return None
    if "augment" not in config.sections:
        return None
    return AugmentConfig(
        flip_prob=config.get_float("augment", "flip_prob", 0.5),
        resize_factor_range=(
            config.get_float("augment", "resize_min", 0.7),
            config.get_float("augment", "resize_max", 1.4),
        ),
        crop_len_range=(
            config.get_int("augment", "crop_min", max(1, input_width // 4)),
            config.get_int("augment", "crop_max", input_width),
        ),
        jitter_level=config.get_float("augment", "jitter_level", 0.1),
        seed=config.get_int("augment", "seed", _sub_seed(run_seed, 1)),
    )


def _sgd_config(config, section, prefix, epochs, seed, **fixed):
    """A TrainConfig whose SGD settings come from `section`'s keys named
    `prefix` + field; an absent key takes `epochs`, `seed` or TrainConfig's
    own default, and `fixed` sets the other fields."""
    def read(name, get=config.get_float):
        return get(section, prefix + name, getattr(TrainConfig, name))

    return TrainConfig(epochs=config.get_int(section, prefix + "epochs", epochs, minimum=0),
                       lr=read("lr"), momentum=read("momentum"),
                       weight_decay=read("weight_decay"),
                       batch_size=read("batch_size", config.get_int),
                       seed=config.get_int(section, prefix + "seed", seed), **fixed)


def _train_config(config, run_seed, task):
    def read(key, get, name=None):
        return get("train", key, getattr(TrainConfig, name or key))

    return _sgd_config(config, "train", "", 50 if task == "composition" else 100, run_seed,
                       lr_schedule=read("schedule", config.get_str, "lr_schedule"),
                       val_fraction=read("val_fraction", config.get_float),
                       plateau_patience=read("plateau_patience", config.get_int),
                       freeze_backend=read("freeze_backend", config.get_bool))


def _write_out(out, config, run_seed, files, more=()) -> Path:
    """Create --out (no other code does) and write config.used.txt and `files`
    (name -> text or bytes) into it, after checking that no entry of --out is
    in the way of these names or of `more`, the files the caller writes next."""
    out = Path(out)
    files = {"config.used.txt": config.resolved_text(run_seed), **files}
    for path in (out / name for name in (*files, *more)):
        found = _existing_ancestor(path)
        if not (path.is_file() if found == path else found.is_dir()):
            raise ValidationError(f"--out {out}: cannot write {path}: {found} is in the way")
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out / name).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return out


def _model_bytes(backend, task, head, classes=None) -> bytes:
    """A checkpoint holding one head, named after its task, and the run meta."""
    meta = {"task": task}
    if classes is not None:
        meta["classes"] = ";".join(classes)
    return checkpoint_bytes(Checkpoint(backend=backend, heads={task: head}, meta=meta))


def _backend(checkpoint, seed, input_width):
    """The backend stored at `checkpoint`, else a fresh one drawn from
    `seed`, set to `input_width`."""
    if checkpoint is None:
        backend = ConvNetBackend(seed=seed)
    else:
        backend = load_checkpoint(checkpoint).backend
    backend.input_width = input_width
    return backend


def cmd_ingest(args, config, run_seed) -> int:
    mode = config.get_str("dataset", "mode")
    streams = {}  # path in --out -> readings, of each stream file to write

    if mode == "synthetic":
        spec, classes = _synthetic_classes(config)
        groups = {split: list(gen) for split, (_, gen) in classes.items()}
        bounds = compute_bounds(readings for *_, readings in groups["train"])
        entries = []
        per_class_counter: dict[str, int] = {}
        for split in ("train", "test"):
            for _, label, constituents, readings in groups[split]:
                for r in readings:
                    idx = per_class_counter.get(label, 0)
                    per_class_counter[label] = idx + 1
                    rel = f"streams/c{label}_s{idx:04d}.csv"
                    streams[rel] = r
                    entries.append(ManifestEntry(rel, label, split, constituents))
    else:
        # manifest mode: parse every stream once, validate every image build, fill
        # in bounds, re-emit with each sample path relative to --out, where the new
        # manifest lives
        bundle = _load_bundle(config)
        spec, bounds = bundle.manifest.spec, bundle.bounds
        source = Path(config.get_str("dataset", "manifest")).parent
        entries = [replace(e, path=os.path.relpath(source / e.path, args.out))
                   for e in bundle.manifest.entries]
    # the stream files are written here, not held: their text can be many MB
    out = _write_out(args.out, config, run_seed, {}, ["manifest.txt", *streams])
    if streams:
        (out / "streams").mkdir(exist_ok=True)
    for rel, r in streams.items():
        write_stream(out / rel, SensorStream(spec=spec, readings=r), fmt="csv")
    write_manifest(out / "manifest.txt", Manifest(spec=spec, entries=entries, norm_bounds=bounds))
    print(f"manifest samples={len(entries)} bounds=({bounds[0]!r},{bounds[1]!r}) "
          f"path={out / 'manifest.txt'}")
    return 0


def cmd_train(args, config, run_seed) -> int:
    task = config.get_str("train", "task", "classify")
    if task not in ("classify", "composition"):
        raise ValidationError(f"[train] task must be classify or composition, got {task!r}")
    bundle = _load_bundle(config, ("train",))
    train_cfg = _train_config(config, run_seed, task)
    aug_cfg = _augment_config(config, args, bundle.input_width, run_seed)
    backend = _backend(config.get_str("train", "pretrained", None), train_cfg.seed,
                       bundle.input_width)

    if task == "classify":
        targets = bundle.train_labels
        classes = tuple(sorted(set(targets)))
        trainer = train_supervised
    else:
        missing = [i for i, c in enumerate(bundle.train_cons) if c is None]
        if missing:
            raise ValidationError(
                f"composition training needs constituent sets; sample {missing[0]} has none"
            )
        targets = bundle.train_cons
        classes = None
        trainer = train_composition

    backend, head, history = trainer(bundle.train_images, targets, train_cfg, aug_cfg,
                                     backend=backend)
    out = _write_out(args.out, config, run_seed, {
        "history.csv": csv_text([(h.epoch, h.loss, h.val_acc, h.lr) for h in history],
                                "epoch,loss,val_acc,lr"),
        "model.tacm": _model_bytes(backend, task, head, classes)})

    for row in history:
        val = "" if row.val_acc is None else f" val_acc={row.val_acc!r}"
        print(f"epoch={row.epoch} loss={row.loss!r}{val} lr={row.lr!r}")
    final = f" final_loss={history[-1].loss!r}" if history else ""
    print(f"checkpoint={out / 'model.tacm'}{final}")
    return 0


def cmd_cl(args, config, run_seed) -> int:
    bundle = _load_bundle(config)

    backend = _backend(config.get_str("cl", "backend_checkpoint", None),
                       _sub_seed(run_seed, 2), bundle.input_width)

    capacity = config.get_int("cl", "capacity", 40)
    capacities = [capacity]
    if args.sweep:
        capacities = config.get_int_list("cl", "sweep_capacities")
    ridge_lambda = config.get_float("cl", "ridge_lambda", 1.0)
    ft_cfg = _sgd_config(config, "cl", "ft_", 10, run_seed, lr_schedule="cosine")
    aug_cfg = None
    if config.get_bool("cl", "ft_augment", True):
        aug_cfg = _augment_config(config, args, bundle.input_width, run_seed)
    warm_start = config.get_bool("cl", "warm_start", False)

    labels = np.array(bundle.train_labels)
    batches = [(label, np.flatnonzero(labels == label)) for label in sorted(set(labels))]

    # the capacity-independent pass and every validation run before any output
    runs = cl_sweep(
        bundle.train_images, batches, backend, capacities, ridge_lambda=ridge_lambda,
        fine_tune_cfg=ft_cfg, aug_cfg=aug_cfg, test_images=bundle.test_images,
        test_labels=bundle.test_labels or None, warm_start=warm_start,
    )
    suffixes = [f"_cap{cap}" if len(capacities) > 1 else "" for cap in capacities]
    files = {}
    for cap, suffix, (ridge, fine_tuned, rows) in zip(capacities, suffixes, runs):
        files[f"cl_steps{suffix}.csv"] = csv_text(rows, "t,acc_ridge,acc_fine_tuned,buffer_size")
        for t, acc_r, acc_f, size in rows:
            acc_r_s = "" if acc_r is None else f" acc_ridge={acc_r!r}"
            acc_f_s = "" if acc_f is None else f" acc_ft={acc_f!r}"
            print(f"capacity={cap} t={t}{acc_r_s}{acc_f_s} buffer={size}")
        files[f"final_fine_tuned{suffix}.tacm"] = _model_bytes(
            fine_tuned.backend, "classify", fine_tuned.head, fine_tuned.classes)
        del fine_tuned  # held as bytes: the next capacity's pass runs without it
    # every capacity returns the last step's one ridge model
    ridge = _model_bytes(ridge.backend, "classify", ridge.head, ridge.classes)
    files.update((f"final_ridge{suffix}.tacm", ridge) for suffix in suffixes)
    _write_out(args.out, config, run_seed, files)
    return 0


def _classifier_from_checkpoint(ckpt):
    if "classify" not in ckpt.heads:
        raise ValidationError("checkpoint has no classification head")
    classes = tuple(ckpt.meta.get("classes", "").split(";"))
    head = ckpt.heads["classify"]
    if len(classes) != head.out_dim:
        raise ValidationError(
            f"checkpoint lists {len(classes)} classes for a {head.out_dim}-way head"
        )
    return Classifier(ckpt.backend, head, classes)


def cmd_eval(args, config, run_seed) -> int:
    mode = args.mode
    bundle = _load_bundle(config, ("train", "test") if mode == "kfold" else ("test",))
    ckpt = load_checkpoint(args.checkpoint)

    if mode != "kfold" and bundle.test_images is None:
        raise ValidationError("dataset has no test split to evaluate")

    curve = None
    if mode == "kfold":
        k = config.get_int("eval", "k", 5)
        lam = config.get_float("eval", "ridge_lambda", 1.0)
        ckpt.backend.input_width = bundle.input_width
        embeddings = np.concatenate([embed_images(ckpt.backend, images)
                                     for images in (bundle.train_images, bundle.test_images)
                                     if images is not None])
        report = kfold_eval(embeddings, bundle.train_labels + bundle.test_labels, k, lam,
                            run_seed, f"kfold-k{k}")
    elif mode == "composition":
        head = ckpt.heads.get("composition")
        if head is None:
            raise ValidationError("checkpoint has no composition head")
        if None in bundle.test_cons:
            raise ValidationError("test sample without constituent truth")
        threshold = config.get_float("eval", "threshold", 0.5)
        report = composition_eval(ckpt.backend, head, bundle.test_images, bundle.test_cons,
                                  threshold)
    else:
        clf = _classifier_from_checkpoint(ckpt)
        images, labels = bundle.test_images, bundle.test_labels
        if mode == "length":
            w = images.width
            lengths = config.get_int_list("eval", "lengths",
                                          sorted({max(1, w // d) for d in (8, 4, 2, 1)}))
            curve = length_sweep(clf, images, labels, lengths)
        elif mode == "speed":
            factors = config.get_float_list("eval", "speeds", [0.5, 1.0, 2.0, 4.0])
            curve = speed_sweep(clf, images, labels, factors)
        else:
            levels = config.get_float_list("eval", "noise_levels", [0.0, 0.1, 0.2, 0.3, 0.5])
            curve = noise_sweep(clf, images, labels, levels, seed=run_seed)
        report = EvalReport(task_id=mode, curves={mode: curve})

    curves = {} if curve is None else {f"{mode}_curve.csv": csv_text(curve, "x,y")}
    _write_out(args.out, config, run_seed,
               {**curves, "report.csv": report.to_csv(), "summary.txt": report.summary_text()})
    print(report.summary_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
