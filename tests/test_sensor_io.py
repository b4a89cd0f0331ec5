import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taclearn.errors import ValidationError
from taclearn.sensor_io import (
    CAMERA_FRAMES,
    DimensionMismatchError,
    MalformedStreamError,
    Manifest,
    ManifestEntry,
    NonFiniteValueError,
    SensorSpec,
    SensorStream,
    SyntheticTextureConfig,
    generate_synthetic,
    load_manifest,
    load_manifest_streams,
    load_stream,
    _CSV_HEADER_PREFIX,
    _GENERATE_VALUES,
    _parse_csv_header,
    _read_lines,
    synthetic_sensor_spec,
    write_manifest,
    write_stream,
)

ROBOSKIN = SensorSpec("roboskin", channels=60, sample_rate_hz=50.0, value_range=(0.0, 255.0))


def _write_csv(path, rows, channels=60, rate=50.0):
    lines = [f"# taclearn-stream v1; channels={channels}; rate_hz={rate}"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_csv_roboskin_shape(tmp_path):
    rows = [[float(r * 60 + c) for c in range(60)] for r in range(75)]
    p = tmp_path / "s.csv"
    _write_csv(p, rows)
    stream = load_stream(p, ROBOSKIN)
    assert stream.readings.shape == (75, 60)
    assert stream.readings[3, 7] == 3 * 60 + 7


def test_load_empty_file_errors(tmp_path):
    p = tmp_path / "empty.csv"
    _write_csv(p, [])
    with pytest.raises(MalformedStreamError, match="no readings"):
        load_stream(p, ROBOSKIN)


def test_load_short_row_names_index(tmp_path):
    rows = [[1.0] * 60, [2.0] * 60, [3.0] * 59]
    p = tmp_path / "bad.csv"
    _write_csv(p, rows)
    with pytest.raises(DimensionMismatchError, match="row 2"):
        load_stream(p, ROBOSKIN)


def test_load_non_finite_names_index(tmp_path):
    rows = [[1.0] * 60, ["nan"] + [2.0] * 59]
    p = tmp_path / "nan.csv"
    _write_csv(p, rows)
    with pytest.raises(NonFiniteValueError, match="reading 1"):
        load_stream(p, ROBOSKIN)


def test_load_missing_file_errors(tmp_path):
    with pytest.raises(ValidationError, match="not_there"):
        load_stream(tmp_path / "not_there.csv", ROBOSKIN)


def test_header_channel_mismatch(tmp_path):
    p = tmp_path / "s.csv"
    _write_csv(p, [[0.0] * 19], channels=19)
    with pytest.raises(DimensionMismatchError):
        load_stream(p, ROBOSKIN)


def test_stream_invariants():
    with pytest.raises(DimensionMismatchError):
        SensorStream(spec=ROBOSKIN, readings=np.zeros((5, 59)))
    with pytest.raises(NonFiniteValueError, match="reading 2"):
        SensorStream(
            spec=ROBOSKIN,
            readings=np.vstack([np.zeros((2, 60)), np.full((1, 60), np.inf)]),
        )


def test_sensor_spec_validation():
    with pytest.raises(ValidationError):
        SensorSpec("x", channels=0, sample_rate_hz=1.0)
    with pytest.raises(ValidationError):
        SensorSpec("x", channels=4, sample_rate_hz=1.0, value_range=(1.0, 1.0))
    with pytest.raises(ValidationError):
        SensorSpec("x", channels=10, sample_rate_hz=1.0, kind=CAMERA_FRAMES, frame_h=2, frame_w=3)
    cam = SensorSpec("c", channels=6, sample_rate_hz=1.0, kind=CAMERA_FRAMES, frame_h=2, frame_w=3)
    assert cam.frame_h * cam.frame_w == cam.channels


CFG = SyntheticTextureConfig(num_classes=5, channels=12, stream_length=64, seed=123)


def _synthetic_stream(cfg, class_id, index=0):
    """Sample `index` of class `class_id` as a stream."""
    readings = generate_synthetic(cfg, class_id, [index])[0]
    return SensorStream(spec=synthetic_sensor_spec(cfg), readings=readings)


def test_synthetic_deterministic():
    a = generate_synthetic(CFG, 2, [7])
    b = generate_synthetic(CFG, 2, [7])
    assert np.array_equal(a, b)
    c = generate_synthetic(CFG, 2, [8])
    assert not np.array_equal(a, c)


def test_synthetic_shape_and_range():
    readings = generate_synthetic(CFG, 4, range(3))
    assert readings.shape == (3, CFG.stream_length, CFG.channels)
    lo, hi = synthetic_sensor_spec(CFG).value_range
    assert readings.min() >= lo and readings.max() <= hi


def test_synthetic_class_out_of_range():
    with pytest.raises(ValidationError, match="class_id 7"):
        generate_synthetic(CFG, 7, [0])


def test_synthetic_config_validation():
    with pytest.raises(ValidationError):
        SyntheticTextureConfig(num_classes=1, channels=4, stream_length=64)
    with pytest.raises(ValidationError):
        SyntheticTextureConfig(num_classes=2, channels=4, stream_length=8)
    with pytest.raises(ValidationError):
        SyntheticTextureConfig(
            num_classes=2, channels=4, stream_length=64, base_frequency_range=(0.1, 0.6)
        )
    for noise_floor in (math.nan, math.inf, -0.1):
        with pytest.raises(ValidationError, match="noise_floor must be finite and >= 0"):
            SyntheticTextureConfig(num_classes=2, channels=4, stream_length=64,
                                   noise_floor=noise_floor)


# sha256 of every class's readings at indices start..start+per_class-1,
# concatenated in class order as float64, recorded from the per-stream
# generator before it was vectorized; any change to the generator's output
# bytes changes them.
GENERATOR_DIGESTS = [
    (dict(num_classes=5, channels=12, stream_length=64, seed=123), 7, 0,
     "46b35dc70dd70855426832243cb608eddfd27e7a883f7578bca3a8e59b0093c4"),
    (dict(num_classes=3, channels=19, stream_length=400, seed=7), 4, 5,
     "49f7e370948d2f166cbca45cae541fd7a3bf33cb47587859549f5eeb291b3d4c"),
    (dict(num_classes=4, channels=60, stream_length=75, noise_floor=0.0, seed=11), 3, 0,
     "e654b86400d3cfe07d8b50bb90bf312c67c1f783e0f217f22a4e03d585b89a0c"),
]


@pytest.mark.parametrize("kwargs, per_class, start, digest", GENERATOR_DIGESTS)
def test_generator_bytes_pinned(kwargs, per_class, start, digest):
    cfg = SyntheticTextureConfig(**kwargs)
    indices = range(start, start + per_class)
    block = np.concatenate([generate_synthetic(cfg, c, indices)
                            for c in range(cfg.num_classes)]).astype("<f8")
    assert block.shape == (cfg.num_classes * per_class, cfg.stream_length, cfg.channels)
    assert hashlib.sha256(block.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("noise_floor", [0.05, 0.0])
def test_single_stream_equals_its_dataset_row(noise_floor):
    # a sample's bytes do not depend on which other indices share its pass
    cfg = SyntheticTextureConfig(num_classes=3, channels=5, stream_length=40,
                                 noise_floor=noise_floor, seed=21)
    for c in range(3):
        block = generate_synthetic(cfg, c, range(2, 6))
        for i in range(4):
            alone = generate_synthetic(cfg, c, [2 + i])
            assert alone.tobytes() == block[i : i + 1].tobytes()
        assert generate_synthetic(cfg, c, [5, 2]).tobytes() == block[[3, 0]].tobytes()
    assert generate_synthetic(cfg, 1, []).shape == (0, 40, 5)
    # a class larger than one generation block crosses a block edge
    assert 300 > _GENERATE_VALUES // (40 * 5)
    big = generate_synthetic(cfg, 2, range(300))
    for i in range(300):
        assert generate_synthetic(cfg, 2, [i]).tobytes() == big[i : i + 1].tobytes()


def _power_spectrum(readings):
    # independent oracle: mean channel periodogram of one stream's readings
    spec = np.abs(np.fft.rfft(readings, axis=0)) ** 2
    return spec.mean(axis=1)


def test_spectral_1nn_separates_noiseless_classes():
    # Brute-force 1-nearest-neighbor on power spectra, leave-one-out.
    cfg = SyntheticTextureConfig(
        num_classes=2, channels=12, stream_length=64, noise_floor=0.0, seed=9
    )
    readings = np.concatenate([generate_synthetic(cfg, c, range(50)) for c in range(2)])
    feats = np.array([_power_spectrum(r) for r in readings])
    labels = np.repeat([0, 1], 50)
    dists = np.linalg.norm(feats[:, None, :] - feats[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    predicted = labels[np.argmin(dists, axis=1)]
    assert np.mean(predicted == labels) == 1.0


def test_csv_round_trip_exact(tmp_path):
    stream = _synthetic_stream(CFG, 1, index=3)
    p = tmp_path / "rt.csv"
    write_stream(p, stream, fmt="csv")
    loaded = load_stream(p, stream.spec)
    assert np.array_equal(loaded.readings, stream.readings)


def test_binary_round_trip_bit_exact(tmp_path):
    stream = _synthetic_stream(CFG, 0)
    p = tmp_path / "rt.bin"
    write_stream(p, stream, fmt="binary")
    loaded = load_stream(p, stream.spec)
    assert np.array_equal(loaded.readings, stream.readings)


def test_binary_truncated_errors(tmp_path):
    stream = _synthetic_stream(CFG, 0)
    p = tmp_path / "rt.bin"
    write_stream(p, stream, fmt="binary")
    p.write_bytes(p.read_bytes()[:-3])
    with pytest.raises(MalformedStreamError):
        load_stream(p, stream.spec)
    write_stream(p, stream, fmt="binary")
    raw = p.read_bytes()
    p.write_bytes(raw[:4] + b"IMG1" + raw[8:])
    with pytest.raises(MalformedStreamError, match="bad magic or version"):
        load_stream(p, stream.spec)


def test_manifest_round_trip(tmp_path):
    spec = SensorSpec("synthetic", channels=12, sample_rate_hz=100.0, value_range=(-1.8, 1.8))
    entries = [
        ManifestEntry("streams/a.csv", "0", "train", frozenset({"Cotton", "Wool"})),
        ManifestEntry("streams/b.csv", "1", "test", None),
    ]
    manifest = Manifest(spec=spec, entries=entries, norm_bounds=(-1.7, 1.7))
    p = tmp_path / "manifest.txt"
    write_manifest(p, manifest)
    loaded = load_manifest(p)
    assert loaded.spec == spec
    assert loaded.entries == entries
    assert loaded.norm_bounds == (-1.7, 1.7)
    assert [e.path for e in loaded.split("train")] == ["streams/a.csv"]


def test_manifest_streams_load(tmp_path):
    cfg = SyntheticTextureConfig(num_classes=2, channels=4, stream_length=32, seed=1)
    (tmp_path / "streams").mkdir()
    entries = []
    for c in range(2):
        s = _synthetic_stream(cfg, c)
        rel = f"streams/c{c}.csv"
        write_stream(tmp_path / rel, s, fmt="csv")
        entries.append(ManifestEntry(rel, str(c), "train", None))
    manifest = Manifest(spec=s.spec, entries=entries)
    mpath = tmp_path / "manifest.txt"
    write_manifest(mpath, manifest)
    loaded, streams = load_manifest_streams(mpath)
    assert loaded.entries == entries
    # one stream per entry, in entry order
    for entry, stream in zip(entries, streams, strict=True):
        expected = generate_synthetic(cfg, int(entry.label), [0])[0]
        assert np.array_equal(stream.readings, expected)


def test_binary_non_finite_names_file_and_index(tmp_path):
    p = tmp_path / "nan.bin"
    values = [0.5, 0.25, float("nan"), 1.0]
    p.write_bytes(struct.pack("<4sIII", b"TACL", 1, 2, 2) + struct.pack("<4f", *values))
    spec = SensorSpec("s", channels=2, sample_rate_hz=1.0)
    with pytest.raises(NonFiniteValueError, match=f"^{p}: non-finite value in reading 1$"):
        load_stream(p, spec)


def _load_csv_reference(path, spec):
    # The per-row loader the vectorised _load_csv replaced, kept verbatim as the
    # oracle: the new loader must return the same bits and raise the same
    # exception class and message, first bad row first.
    lines = _read_lines(path)
    if not lines or not lines[0].startswith(_CSV_HEADER_PREFIX):
        raise MalformedStreamError(f"{path}: missing stream header line")
    header_channels = _parse_csv_header(path, lines[0])
    if header_channels != spec.channels:
        raise DimensionMismatchError(
            f"{path}: header says {header_channels} channels, spec says {spec.channels}"
        )
    rows = []
    for i, line in enumerate(lines[1:]):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != spec.channels:
            raise DimensionMismatchError(
                f"{path}: row {i} has {len(parts)} values, expected {spec.channels}"
            )
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise MalformedStreamError(f"{path}: row {i} has a non-numeric value") from None
        if not all(math.isfinite(v) for v in row):
            raise NonFiniteValueError(f"{path}: non-finite value in reading {i}")
        rows.append(row)
    if not rows:
        raise MalformedStreamError(f"{path}: no readings")
    return SensorStream(spec=spec, readings=np.array(rows))


def _outcome(load, path, spec):
    try:
        readings = load(path, spec).readings
    except ValidationError as exc:
        return type(exc), str(exc)
    return readings.shape, readings.tobytes()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda c: arrays(np.float64, st.tuples(st.integers(1, 12), st.just(c)), elements=_FINITE)))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, readings):
    spec = SensorSpec("s", channels=readings.shape[1], sample_rate_hz=10.0)
    p = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_stream(p, SensorStream(spec=spec, readings=readings))
    loaded = load_stream(p, spec).readings
    assert loaded.tobytes() == readings.tobytes()
    assert _outcome(_load_csv_reference, p, spec) == (readings.shape, readings.tobytes())


# float() accepts the first group as written; the loader must too.
_ODD_NUMBERS = st.sampled_from(["1_000", "\u0661\u0662\u0663", " 2.5 ", "\t-0.0", "+.5",
                                "1E+5", "\uff11\uff12", "1e-400", "\xa07"])
_NON_NUMERIC = st.sampled_from(["abc", "", " ", "1.5.2", "0x10", "1e", "nan(1)", "\u22121",
                                "1__0", "True"])
_NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e500", "-Infinity", "NaN"])
_NUMBER = st.one_of(_FINITE.map(repr), _ODD_NUMBERS)


def _line(channels):
    """One data line: mostly well formed, else one fault or blank."""
    good = st.lists(_NUMBER, min_size=channels, max_size=channels)

    def with_token(token):
        return st.tuples(good, st.integers(0, channels - 1), token).map(
            lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])

    rows = st.one_of(
        good, good, good,
        st.lists(_NUMBER, min_size=0, max_size=channels - 1),  # short
        st.lists(_NUMBER, min_size=channels + 1, max_size=channels + 3),  # long
        with_token(_NON_NUMERIC),
        with_token(_NON_FINITE),
    ).map(",".join)
    return st.one_of(rows, st.sampled_from(["", "   ", "\t"]))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda c: st.tuples(st.just(c), st.lists(_line(c), min_size=0, max_size=8))))
@example((2, ["1,2", "", "x,2", "nan,1"]))  # blank line counted; non-numeric wins
@example((2, ["inf,1", "1"]))  # a non-finite row before a short row
@example((3, ["1,2,3", "4,5", "", "6,7,8,9"]))  # short, then long
@example((1, ["", "  "]))  # blank lines only
def test_csv_loader_matches_per_row_oracle(tmp_path_factory, case):
    channels, lines = case
    spec = SensorSpec("s", channels=channels, sample_rate_hz=10.0)
    p = tmp_path_factory.getbasetemp() / "mutated.csv"
    header = f"{_CSV_HEADER_PREFIX} channels={channels}; rate_hz=10.0"
    p.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    assert _outcome(load_stream, p, spec) == _outcome(_load_csv_reference, p, spec)
