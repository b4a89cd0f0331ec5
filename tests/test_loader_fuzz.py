"""Every loader fails typed: a truncated or mutated checkpoint, stream (CSV
and binary), manifest or config file either loads or raises a
ValidationError, and the CLI exits 0 or 1 on it, 1 whenever the loader
rejects it, writing no output when it fails."""

import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taclearn.cli import main
from taclearn.config import load_config
from taclearn.errors import ValidationError
from taclearn.model import Checkpoint, ConvNetBackend, LinearHead, load_checkpoint, save_checkpoint
from taclearn.prng import Prng
from taclearn.sensor_io import (Manifest, ManifestEntry, SensorSpec, SensorStream,
                                load_manifest_streams, load_stream, write_manifest, write_stream)

SPEC = SensorSpec("s", channels=8, sample_rate_hz=50.0)

# the file each target mutates, and the loader that reads it
TARGETS = {
    "checkpoint": ("model.tacm", load_checkpoint),
    "csv": ("c0_s01.csv", lambda path: load_stream(path, SPEC)),
    "binary": ("c0_s00.bin", lambda path: load_stream(path, SPEC)),
    "manifest": ("manifest.txt", load_manifest_streams),  # the manifest, then its streams
    "config": ("exp.cfg", load_config),
}

CONFIG = """[dataset]
mode = manifest
manifest = {manifest}

[eval]
noise_levels = 0,0.2
"""


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """2 classes x 3 streams of 8x16 readings (one binary), a manifest with
    bounds, and a small classifier checkpoint that evaluates them."""
    root = tmp_path_factory.mktemp("fuzz-template")
    entries = []
    for c in range(2):
        for i in range(3):
            fmt = "binary" if (c, i) == (0, 0) else "csv"
            rel = f"c{c}_s{i:02d}." + ("bin" if fmt == "binary" else "csv")
            readings = 0.5 * c + np.asarray(Prng(10 * c + i).uniform(-1, 1, size=(16, 8)))
            write_stream(root / rel, SensorStream(spec=SPEC, readings=readings), fmt=fmt)
            entries.append(ManifestEntry(rel, str(c), "train" if i < 2 else "test"))
    write_manifest(root / "manifest.txt",
                   Manifest(spec=SPEC, entries=entries, norm_bounds=(-2.0, 2.0)))
    head = LinearHead(Prng(3).uniform(-1, 1, size=(8, 2)), np.zeros(2))
    save_checkpoint(root / "model.tacm", Checkpoint(
        backend=ConvNetBackend(widths=(4, 8), seed=1, input_width=16), heads={"classify": head},
        meta={"task": "classify", "classes": "0;1"}))
    return root


@settings(max_examples=300, deadline=None)
@given(target=st.sampled_from(sorted(TARGETS)), truncate=st.booleans(),
       at=st.floats(0.0, 1.0, exclude_max=True), byte=st.integers(0, 255))
@example(target="binary", truncate=True, at=0.5, byte=0)
@example(target="checkpoint", truncate=False, at=0.0, byte=0)
def test_mutated_input_fails_typed(template, tmp_path_factory, target, truncate, at, byte):
    work = tmp_path_factory.mktemp("case")
    try:
        shutil.copytree(template, work, dirs_exist_ok=True)
        cfg = work / "exp.cfg"
        cfg.write_text(CONFIG.format(manifest=work / "manifest.txt"), encoding="utf-8")
        name, loader = TARGETS[target]
        path = work / name
        raw = path.read_bytes()
        pos = int(at * len(raw))
        path.write_bytes(raw[:pos] if truncate else raw[:pos] + bytes([byte]) + raw[pos + 1:])

        try:
            loader(path)
        except ValidationError:
            rejected = True
        else:
            rejected = False
        command = ["ingest"]
        if target == "checkpoint":
            command = ["eval", "noise", "--checkpoint", str(work / "model.tacm")]
        out = work / "out"
        code = main([*command, "--config", str(cfg), "--out", str(out)])
        assert code == 1 if rejected else code in (0, 1)
        assert code == 0 or not out.exists()
    finally:
        shutil.rmtree(work)
