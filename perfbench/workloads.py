"""The benchmark's workloads: generated inputs, CLI commands and output checks.

Each workload writes its configs from the seed it is given (dataset seed and
run seed alike), so taclearn sees only generated config and data files. All
paths are relative to the checkout root, the working directory of every
command, which keeps output bytes independent of where the checkout lives.

Sizes are fixed per workload, never tuned from within a run: ``full`` is
what the benchmark measures, ``tiny`` is for the benchmark's own smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "synth-aug-train":
        "12x64 synthetic train+eval noise with all four augmentations: per-image "
        "augment and TactileImage work is a large share, so augment changes show here",
    "wide-manifest-train":
        "19x400 ingested CSV manifest, train with augmentation off + eval speed: "
        "conv GEMMs dominate and augment is bypassed; CSV parsing shows in setup_s",
    "cl-sweep":
        "cl --sweep over three capacities, 10 classes x 600, random-init backend: herding "
        "and forward-only embedding dominate; only here can capacities share work",
}

SIZES = {
    "synth-aug-train": {
        "full": dict(train_per_class=80, test_per_class=60, epochs=14, acc_floor=0.6),
        "tiny": dict(train_per_class=6, test_per_class=4, epochs=2, acc_floor=0.0),
    },
    "wide-manifest-train": {
        "full": dict(train_per_class=20, test_per_class=20, epochs=12, acc_floor=0.6),
        "tiny": dict(train_per_class=3, test_per_class=2, epochs=1, acc_floor=0.0),
    },
    "cl-sweep": {
        "full": dict(train_per_class=600, test_per_class=40, capacities="20,50,100",
                     acc_floor=0.3),
        "tiny": dict(train_per_class=6, test_per_class=2, capacities="10,20", acc_floor=0.0),
    },
}

_SYNTH_DATASET = """\
[run]
seed = {seed}

[dataset]
mode = synthetic
num_classes = {classes}
channels = {channels}
stream_length = {length}
noise_floor = 0.05
seed = {seed}
train_per_class = {train_per_class}
test_per_class = {test_per_class}
"""

_SYNTH_AUG_TRAIN = _SYNTH_DATASET + """
[transform]
input_width = 64

[augment]
enabled = true
flip_prob = 0.5
resize_min = 0.9
resize_max = 1.1
crop_min = 32
crop_max = 64
jitter_level = 0.2

[train]
task = classify
epochs = {epochs}
lr = 0.05
momentum = 0.9
weight_decay = 0.0001
batch_size = 16
schedule = cosine

[eval]
noise_levels = 0,0.1,0.2,0.3,0.5
"""

# lr 0.01 / batch 16 leaves the 19x400 model at chance after a few epochs;
# lr 0.03 / batch 8 learns it.
_WIDE_TRAIN = """\
[run]
seed = {seed}

[dataset]
mode = manifest
manifest = {manifest}

[transform]
input_width = 400

[augment]
enabled = false

[train]
task = classify
epochs = {epochs}
lr = 0.03
momentum = 0.9
weight_decay = 0.0001
batch_size = 8
schedule = cosine

[eval]
speeds = 0.5,1,2,4
"""

_CL_SWEEP = _SYNTH_DATASET + """
[transform]
input_width = 64

[cl]
capacity = 20
ridge_lambda = 1.0
ft_epochs = 1
ft_lr = 0.001
ft_augment = false
sweep_capacities = {capacities}
"""


@dataclass
class Plan:
    """One workload at one seed: commands to run once, per iteration, and checks."""

    prep: list[list[str]]
    commands: Callable[[Path], list[list[str]]]  # output dir -> CLI argv per command
    check: Callable[[Path], tuple[dict, list[str]]]  # output dir -> (accuracies, problems)


def _curve_value(path: Path, x: float) -> float:
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        a, b = line.split(",")
        if float(a) == x:
            return float(b)
    raise ValueError(f"{path}: no point at x={x}")


def _floor_problems(accuracies: dict, floor: float) -> list[str]:
    return [f"{k}={v!r} below floor {floor}" for k, v in accuracies.items() if not v >= floor]


def _checked(read: Callable[[Path], dict], floor: float):
    def check(out: Path):
        try:
            accuracies = read(out)
        except (OSError, ValueError) as exc:
            return {}, [f"unreadable output: {exc}"]
        return accuracies, _floor_problems(accuracies, floor)
    return check


def plan(name: str, work: Path, seed: int, size: str = "full") -> Plan:
    """Write the workload's configs under `work` and return its plan."""
    s = SIZES[name][size]
    work.mkdir(parents=True, exist_ok=True)
    if name == "synth-aug-train":
        cfg = work / "synth.cfg"
        cfg.write_text(_SYNTH_AUG_TRAIN.format(seed=seed, classes=5, channels=12, length=64, **s),
                       encoding="utf-8")

        def commands(out):
            return [["train", "--config", str(cfg), "--out", str(out / "train")],
                    ["eval", "noise", "--config", str(cfg),
                     "--checkpoint", str(out / "train" / "model.tacm"), "--out", str(out / "eval")]]

        read = lambda out: {"test_acc": _curve_value(out / "eval" / "noise_curve.csv", 0.0)}
        return Plan([], commands, _checked(read, s["acc_floor"]))

    if name == "wide-manifest-train":
        gen = work / "dataset.cfg"
        gen.write_text(_SYNTH_DATASET.format(seed=seed, classes=5, channels=19, length=400, **s),
                       encoding="utf-8")
        data = work / "data"
        cfg = work / "wide.cfg"
        cfg.write_text(_WIDE_TRAIN.format(seed=seed, manifest=data / "manifest.txt", **s),
                       encoding="utf-8")

        def commands(out):
            return [["train", "--config", str(cfg), "--out", str(out / "train")],
                    ["eval", "speed", "--config", str(cfg),
                     "--checkpoint", str(out / "train" / "model.tacm"), "--out", str(out / "eval")]]

        read = lambda out: {"test_acc": _curve_value(out / "eval" / "speed_curve.csv", 1.0)}
        prep = [["ingest", "--config", str(gen), "--out", str(data)]]
        return Plan(prep, commands, _checked(read, s["acc_floor"]))

    if name == "cl-sweep":
        cfg = work / "cl.cfg"
        cfg.write_text(_CL_SWEEP.format(seed=seed, classes=10, channels=12, length=64, **s),
                       encoding="utf-8")
        largest = max(int(c) for c in s["capacities"].split(","))

        def commands(out):
            return [["cl", "--sweep", "--config", str(cfg), "--out", str(out / "cl")]]

        def read(out):
            last = (out / "cl" / f"cl_steps_cap{largest}.csv").read_text(
                encoding="utf-8").splitlines()[-1]
            _, ridge, tuned, _ = last.split(",")
            return {"test_acc": float(tuned), "ridge_acc": float(ridge)}

        return Plan([], commands, _checked(read, s["acc_floor"]))

    raise KeyError(f"unknown workload {name!r}")
