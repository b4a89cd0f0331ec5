"""Sensor stream ingestion, serialization and synthetic generation.

File formats
------------
Stream CSV: a header line ``# taclearn-stream v1; channels=<n>; rate_hz=<r>``
followed by one comma-separated row per reading; blank lines are skipped.
Values parse with Python ``float()`` semantics and are written with its
shortest round-tripping repr, so a CSV round-trip is exact. `csv_text` is
the one CSV writer: stream files and every CSV output (training histories,
CL steps, curves, reports) render through it, so each reads back exactly.

Stream binary: magic ``TACL``, then little-endian u32 version, u32 channels,
u32 length, then length*channels little-endian float32 values. Streams whose
values are float32-representable (everything produced by the synthetic
generator) round-trip bit-exactly; other data is quantized to float32.

Manifest: plain-text key=value lines describing the sensor, optional
normalization bounds computed from the training split, and one
``sample=<relpath>|<label>|<split>|<constituents>`` line per sample
(constituents are semicolon-separated and may be empty). Value units and
per-channel semantics are deliberately carried here as metadata rather than
interpreted by the loader.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .prng import Prng, random_rows

VECTOR_STREAM = "vector_stream"
CAMERA_FRAMES = "camera_frames"

_CSV_HEADER_PREFIX = "# taclearn-stream v1;"
_BINARY_MAGIC = b"TACL"
_BINARY_VERSION = 1
_MANIFEST_HEADER = "# taclearn-manifest v1"


class MalformedStreamError(ValidationError):
    """File does not follow the stream format."""


class DimensionMismatchError(ValidationError):
    """A reading's length disagrees with the sensor's channel count."""


class NonFiniteValueError(ValidationError):
    """A reading contains NaN or infinity; sensor faults must surface."""


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one sensor's output geometry."""

    sensor_id: str
    channels: int
    sample_rate_hz: float
    kind: str = VECTOR_STREAM
    value_range: tuple[float, float] = (-1.0, 1.0)
    frame_h: int = 0
    frame_w: int = 0

    def __post_init__(self):
        if self.channels < 1:
            raise ValidationError(f"channels must be >= 1, got {self.channels}")
        if not self.sample_rate_hz > 0:
            raise ValidationError(
                f"sample_rate_hz must be positive, got {self.sample_rate_hz}"
            )
        lo, hi = self.value_range
        if not lo < hi:
            raise ValidationError(f"value_range must satisfy min < max, got {self.value_range}")
        if self.kind not in (VECTOR_STREAM, CAMERA_FRAMES):
            raise ValidationError(f"unknown sensor kind {self.kind!r}")
        if self.kind == CAMERA_FRAMES:
            if self.frame_h < 1 or self.frame_w < 1:
                raise ValidationError("camera sensors need frame_h and frame_w >= 1")
            if self.channels != self.frame_h * self.frame_w:
                raise ValidationError(
                    f"camera channels must equal frame_h*frame_w = "
                    f"{self.frame_h * self.frame_w}, got {self.channels}"
                )


@dataclass(frozen=True)
class SensorStream:
    """Time-ordered readings from one contact episode; immutable once built."""

    spec: SensorSpec
    readings: np.ndarray  # (T, channels) float64

    def __post_init__(self):
        readings = np.asarray(self.readings, dtype=np.float64)
        object.__setattr__(self, "readings", readings)
        if readings.ndim != 2:
            raise MalformedStreamError(
                f"readings must be 2-D (T, channels), got shape {readings.shape}"
            )
        if readings.shape[0] < 1:
            raise MalformedStreamError("no readings")
        if readings.shape[1] != self.spec.channels:
            raise DimensionMismatchError(
                f"readings have {readings.shape[1]} channels, spec says {self.spec.channels}"
            )
        bad = np.flatnonzero(~np.isfinite(readings).all(axis=1))
        if bad.size:
            raise NonFiniteValueError(f"non-finite value in reading {bad[0]}")
        readings.setflags(write=False)


# The largest synthetic dataset a config may ask for, checked where the config
# is read. With the stream length at most augment.MAX_TEMPORAL_WIDTH, a split's
# float32 stack stays below 2**61 bytes, so every size is one an array can have.
MAX_SYNTHETIC_CLASSES = 2**16
MAX_SYNTHETIC_CHANNELS = 2**10
MAX_SAMPLES_PER_CLASS = 2**16
MAX_NOISE_LEVEL = 2.0**127  # signal + noise, and its images, stay finite in float32


@dataclass(frozen=True)
class SyntheticTextureConfig:
    """Knobs for the self-contained synthetic texture generator."""

    num_classes: int
    channels: int
    stream_length: int
    base_frequency_range: tuple[float, float] = (0.05, 0.45)
    noise_floor: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValidationError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.channels < 1:
            raise ValidationError(f"channels must be >= 1, got {self.channels}")
        if self.stream_length < 16:
            raise ValidationError(f"stream_length must be >= 16, got {self.stream_length}")
        lo, hi = self.base_frequency_range
        if not (0.0 < lo < hi < 0.5):
            raise ValidationError(
                f"base_frequency_range must lie within (0, 0.5), got {self.base_frequency_range}"
            )
        if not 0 <= self.noise_floor <= MAX_NOISE_LEVEL:
            raise ValidationError(
                f"noise_floor must be finite and >= 0, at most 2**127, got {self.noise_floor}")


# Base amplitudes of the fundamental and its two harmonics; each class scales
# them per channel by a fixed signature in [0.5, 1.5].
_HARMONIC_AMPLITUDES = (1.0, 0.5, 0.25)
_SIGNATURE_SPAN = (0.5, 1.5)
_GENERATE_VALUES = 2**15  # readings per generation block; a 12x64 stream holds 768


def synthetic_sensor_spec(config: SyntheticTextureConfig) -> SensorSpec:
    peak = sum(_HARMONIC_AMPLITUDES) * _SIGNATURE_SPAN[1] + config.noise_floor
    return SensorSpec(
        sensor_id="synthetic",
        channels=config.channels,
        sample_rate_hz=100.0,
        kind=VECTOR_STREAM,
        value_range=(-peak, peak),
    )


def _class_signature(config: SyntheticTextureConfig, class_id: int) -> np.ndarray:
    """Per-class harmonic amplitude profile, fixed across samples.

    Shape (3, channels). This spatial texture survives temporal resampling,
    unlike the base frequency, so classes stay identifiable when the sensor
    moves at a different speed.
    """
    rng = Prng(config.seed).spawn(1, class_id)
    return rng.uniform(*_SIGNATURE_SPAN, size=(len(_HARMONIC_AMPLITUDES), config.channels))


def generate_synthetic(config: SyntheticTextureConfig, class_id: int, indices) -> np.ndarray:
    """Class `class_id`'s readings at sample `indices`, one (n, stream_length,
    channels) array, generated in vectorized blocks of about
    `_GENERATE_VALUES` readings so that the temporaries stay block-sized.

    Each class has a distinct base frequency inside the configured range and
    a fixed per-channel harmonic amplitude signature. Sample i draws from the
    generator spawned at (2, class_id, i): first one phase per (channel,
    harmonic), then, when the noise floor is positive, one uniform noise value
    per (reading, channel). No value depends on which other indices share a
    block, so a sample's bytes are a function of (config, class_id, i) alone.
    Values are rounded to float32 so both stream file formats round-trip
    exactly.
    """
    if not 0 <= class_id < config.num_classes:
        raise ValidationError(
            f"class_id {class_id} out of range for {config.num_classes} classes"
        )
    indices = list(indices)
    if min(indices, default=0) < 0:
        raise ValidationError(f"index must be non-negative, got {min(indices)}")
    c, t_len = config.channels, config.stream_length
    k_len = len(_HARMONIC_AMPLITUDES)
    signature = _class_signature(config, class_id)
    root = Prng(config.seed)
    noise = config.noise_floor > 0
    lo, hi = config.base_frequency_range
    base = lo + (class_id + 0.5) * (hi - lo) / config.num_classes
    t = np.arange(t_len, dtype=np.float64)
    out = np.empty((len(indices), t_len, c))
    step = max(1, _GENERATE_VALUES // (t_len * c))
    for start in range(0, len(indices), step):
        block = indices[start : start + step]
        n = len(block)
        rngs = [root.spawn(2, class_id, i) for i in block]
        draws = random_rows(rngs, c * k_len + (t_len * c if noise else 0))
        phases = 2.0 * math.pi * draws[:, : c * k_len].reshape(n, c, k_len)
        # the order k = 1, 2, 3 of the sums fixes their rounding, and so the bytes
        readings = np.zeros((n, t_len, c))
        wave = np.empty_like(readings)
        for k, amp in enumerate(_HARMONIC_AMPLITUDES, start=1):
            np.add((2.0 * math.pi * base * k * t)[:, None], phases[:, None, :, k - 1], out=wave)
            np.sin(wave, out=wave)
            wave *= amp * signature[k - 1]
            readings += wave
        if noise:  # Prng.uniform's lo + (hi - lo) * u, rounding included
            lo_n, hi_n = -config.noise_floor, config.noise_floor
            np.multiply(draws[:, c * k_len:].reshape(n, t_len, c), hi_n - lo_n, out=wave)
            wave += lo_n
            readings += wave
        out[start : start + n] = readings.astype(np.float32)
    return out


def load_stream(path, spec: SensorSpec) -> SensorStream:
    """Read a stream file (CSV or binary, sniffed by magic) against a spec."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"stream file not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _BINARY_MAGIC:
        return _load_binary(path, spec)
    return _load_csv(path, spec)


def _read_lines(path: Path) -> list[str]:
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _load_csv(path: Path, spec: SensorSpec) -> SensorStream:
    lines = _read_lines(path)
    if not lines or not lines[0].startswith(_CSV_HEADER_PREFIX):
        raise MalformedStreamError(f"{path}: missing stream header line")
    header_channels = _parse_csv_header(path, lines[0])
    if header_channels != spec.channels:
        raise DimensionMismatchError(
            f"{path}: header says {header_channels} channels, spec says {spec.channels}"
        )
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise MalformedStreamError(f"{path}: no readings")
    # One parse for the whole stream: numpy's str -> float64 conversion accepts
    # and rejects exactly the strings float() does, so the bits match the
    # per-row parse, which runs only to name the first bad row.
    try:
        if any(row.count(",") != spec.channels - 1 for row in rows):
            raise ValueError("row width")
        values = np.array(",".join(rows).split(","), dtype=np.float64)
        return SensorStream(spec=spec, readings=values.reshape(len(rows), spec.channels))
    except (ValueError, NonFiniteValueError):
        _raise_first_bad_row(path, lines[1:], spec.channels)
        raise


def _raise_first_bad_row(path: Path, lines: list[str], channels: int) -> None:
    """Raise the error of the first bad row; row i is ``lines[i]``, blanks included."""
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != channels:
            raise DimensionMismatchError(
                f"{path}: row {i} has {len(parts)} values, expected {channels}"
            )
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise MalformedStreamError(f"{path}: row {i} has a non-numeric value") from None
        if not all(math.isfinite(v) for v in row):
            raise NonFiniteValueError(f"{path}: non-finite value in reading {i}")


def _parse_csv_header(path: Path, line: str) -> int:
    try:
        fields = dict(
            part.strip().split("=", 1)
            for part in line[len(_CSV_HEADER_PREFIX):].split(";")
            if part.strip()
        )
        return int(fields["channels"])
    except (ValueError, KeyError):
        raise MalformedStreamError(f"{path}: unparseable stream header {line!r}") from None


def _load_binary(path: Path, spec: SensorSpec) -> SensorStream:
    raw = path.read_bytes()
    if len(raw) < 16:
        raise MalformedStreamError(f"{path}: truncated binary stream")
    magic, version, n, t = struct.unpack("<4sIII", raw[:16])
    if magic != _BINARY_MAGIC or version != _BINARY_VERSION:
        raise MalformedStreamError(f"{path}: bad magic or version")
    if n != spec.channels:
        raise DimensionMismatchError(
            f"{path}: file has {n} channels, spec says {spec.channels}"
        )
    expected = 16 + 4 * n * t
    if len(raw) != expected:
        raise MalformedStreamError(
            f"{path}: expected {expected} bytes for {t}x{n} readings, got {len(raw)}"
        )
    if t < 1:
        raise MalformedStreamError(f"{path}: no readings")
    with np.errstate(invalid="ignore"):  # a signalling NaN is refused below
        values = np.frombuffer(raw, dtype="<f4", offset=16).astype(np.float64)
    try:
        return SensorStream(spec=spec, readings=values.reshape(t, n))
    except NonFiniteValueError as exc:
        raise NonFiniteValueError(f"{path}: {exc}") from None


def csv_text(rows, header=None) -> str:
    """One comma-separated line per row, below `header` if given. None is an
    empty field, a float (numpy's included) its shortest round-trip repr, and
    any other value its str, so every value reads back exactly."""
    lines = [] if header is None else [header]
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v))
                              if isinstance(v, (float, np.floating)) else str(v) for v in row))
    return "".join(line + "\n" for line in lines)


def write_stream(path, stream: SensorStream, fmt: str = "csv") -> None:
    path = Path(path)
    if fmt == "csv":
        header = (f"{_CSV_HEADER_PREFIX} channels={stream.spec.channels}; "
                  f"rate_hz={float(stream.spec.sample_rate_hz)!r}")
        path.write_text(csv_text(stream.readings, header), encoding="utf-8")
    elif fmt == "binary":
        t, n = stream.readings.shape
        payload = stream.readings.astype("<f4").tobytes()
        path.write_bytes(struct.pack("<4sIII", _BINARY_MAGIC, _BINARY_VERSION, n, t) + payload)
    else:
        raise ValidationError(f"unknown stream format {fmt!r}")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str = "train"
    constituents: frozenset[str] | None = None

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValidationError(f"split must be train or test, got {self.split!r}")
        if "|" in self.path or any(c in self.label for c in "|;"):
            raise ValidationError("manifest fields may not contain '|' or ';'")


@dataclass
class Manifest:
    spec: SensorSpec
    entries: list[ManifestEntry] = field(default_factory=list)
    norm_bounds: tuple[float, float] | None = None

    def split(self, which: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == which]


def write_manifest(path, manifest: Manifest) -> None:
    spec = manifest.spec
    lines = [
        _MANIFEST_HEADER,
        f"sensor_id={spec.sensor_id}",
        f"channels={spec.channels}",
        f"rate_hz={float(spec.sample_rate_hz)!r}",
        f"kind={spec.kind}",
        f"value_min={float(spec.value_range[0])!r}",
        f"value_max={float(spec.value_range[1])!r}",
    ]
    if spec.kind == CAMERA_FRAMES:
        lines.append(f"frame_h={spec.frame_h}")
        lines.append(f"frame_w={spec.frame_w}")
    if manifest.norm_bounds is not None:
        lines.append(f"norm_lo={float(manifest.norm_bounds[0])!r}")
        lines.append(f"norm_hi={float(manifest.norm_bounds[1])!r}")
    for e in manifest.entries:
        cons = ";".join(sorted(e.constituents)) if e.constituents else ""
        lines.append(f"sample={e.path}|{e.label}|{e.split}|{cons}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_manifest(path) -> Manifest:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"manifest not found: {path}")
    lines = _read_lines(path)
    if not lines or lines[0].strip() != _MANIFEST_HEADER:
        raise ValidationError(f"{path}: not a taclearn manifest")
    fields: dict[str, str] = {}
    entries: list[ManifestEntry] = []
    for i, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{i}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        if key == "sample":
            parts = value.split("|")
            if len(parts) != 4:
                raise ValidationError(
                    f"{path}:{i}: sample line needs path|label|split|constituents"
                )
            cons = frozenset(c for c in parts[3].split(";") if c) or None
            entries.append(
                ManifestEntry(path=parts[0], label=parts[1], split=parts[2], constituents=cons)
            )
        else:
            fields[key] = value
    try:
        spec = SensorSpec(
            sensor_id=fields["sensor_id"],
            channels=int(fields["channels"]),
            sample_rate_hz=float(fields["rate_hz"]),
            kind=fields.get("kind", VECTOR_STREAM),
            value_range=(float(fields["value_min"]), float(fields["value_max"])),
            frame_h=int(fields.get("frame_h", 0)),
            frame_w=int(fields.get("frame_w", 0)),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: manifest missing field {exc}") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: manifest has a malformed number ({exc})") from None
    bounds = None
    if "norm_lo" in fields or "norm_hi" in fields:
        try:
            bounds = (float(fields["norm_lo"]), float(fields["norm_hi"]))
        except KeyError as exc:
            raise ValidationError(f"{path}: manifest has only one of norm_lo/norm_hi ({exc})")
        except ValueError as exc:
            raise ValidationError(f"{path}: manifest has a malformed number ({exc})") from None
    return Manifest(spec=spec, entries=entries, norm_bounds=bounds)


def load_manifest_streams(manifest_path, manifest: Manifest | None = None):
    """Load every sample in a manifest, resolving paths relative to it.

    Returns (manifest, streams), one stream per entry in entry order; the
    entries hold the labels and constituent sets.
    """
    manifest_path = Path(manifest_path)
    if manifest is None:
        manifest = load_manifest(manifest_path)
    base = manifest_path.parent
    return manifest, [load_stream(base / e.path, manifest.spec) for e in manifest.entries]
