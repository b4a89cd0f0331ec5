"""Unified tactile-image construction.

Vector-stream sensors become 2-D images by stacking consecutive readings as
columns (channel axis x time axis); camera sensors pass their frames through
natively. An image is one (H, W) plane, normalized to [-1, 1] with
dataset-level calibration bounds before it reaches the model. A dataset
split is one float32 stack (N, H, W) of such planes, all of one shape, held
in a single `TactileImage`; each of its values is rounded once from its
float64 normalization.

Multi-modal sensors keep whatever channel order the manifest delivered; the
loader does not reorder modalities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .sensor_io import CAMERA_FRAMES, SensorSpec


class WindowError(ValidationError):
    """Requested reading window falls outside the stream."""


class NotNormalizedError(ValidationError):
    """Image must be normalized before this step."""


@dataclass(frozen=True)
class TactileImage:
    """Tactile input: `data` is one (H, W) plane or a stack (N, H, W) of them,
    float32 if given float32 (a dataset split's stack), else float64; the
    per-image ops take either, and `len` and indexing act on the first axis.

    `normalized` records that the entries were calibrated into [-1, 1].
    Later additive noise (the test-time jitter suites) may push values
    slightly outside that range without invalidating the calibration, so
    downstream consumers trust the flag rather than re-checking bounds.
    """

    data: np.ndarray
    source: SensorSpec | None = None
    normalized: bool = False

    def __post_init__(self):
        data = np.asarray(self.data)
        data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        object.__setattr__(self, "data", data)
        if data.ndim not in (2, 3):
            raise ValidationError(f"image must be an (H, W) plane or stack, got {data.shape}")
        if min(data.shape) < 1:
            raise ValidationError(f"image must be at least 1x1, got {data.shape}")
        if not np.isfinite([data.min(), data.max()]).all():  # they meet NaN and infinities
            raise ValidationError("image contains non-finite values")
        data.setflags(write=False)

    @property
    def width(self) -> int:
        return self.data.shape[-1]

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index) -> "TactileImage":
        return self.with_data(self.data[index])

    def with_data(self, data: np.ndarray) -> "TactileImage":
        return replace(self, data=data)


def image_plane(readings: np.ndarray, spec: SensorSpec, j: int | None = None,
                k: int | None = None, frame_index: int = 0) -> np.ndarray:
    """The image of a stream's (T, channels) readings, or of a stack (N, T,
    channels) of them, as a view acting on the last two axes: for a vector
    sensor readings j..k (inclusive; default the whole stream) as columns,
    for a camera sensor frame `frame_index` in its native shape."""
    t = readings.shape[-2]
    if spec.kind == CAMERA_FRAMES:
        if not 0 <= frame_index < t:
            raise WindowError(f"frame index {frame_index} invalid for stream of length {t}")
        frame = readings[..., frame_index, :]
        return frame.reshape(*frame.shape[:-1], spec.frame_h, spec.frame_w)
    j, k = 0 if j is None else j, t - 1 if k is None else k
    if not 0 <= j <= k < t:
        raise WindowError(f"window [{j}, {k}] invalid for stream of length {t}")
    return readings[..., j : k + 1, :].swapaxes(-1, -2)


def normalize(planes, lo: float, hi: float, source: SensorSpec | None = None) -> TactileImage:
    """The normalized image of `planes` (one plane or a stack), mapped in
    place by `calibrate`, so a split's stack needs no second copy. The map
    computes in float64: float32 planes go through float64 chunks of 2**16
    values, each value rounded once; any other input is mapped as float64."""
    if not lo < hi:
        raise ValidationError(f"normalization bounds need lo < hi, got ({lo}, {hi})")
    planes = np.asarray(planes)
    planes = np.ascontiguousarray(planes, np.float32 if planes.dtype == np.float32 else np.float64)
    if planes.size and not np.isfinite([planes.min(), planes.max()]).all():  # clamping hides inf
        raise ValidationError("image contains non-finite values")
    flat = planes.reshape(-1)
    for start in range(0, flat.size, 2**16):
        part = flat[start : start + 2**16]
        part[...] = calibrate(part.astype(np.float64, copy=False), lo, hi)  # float64: in place
    return TactileImage(data=planes, source=source, normalized=True)


def calibrate(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """`values`, a float64 array, mapped in place by the affine map [lo, hi]
    -> [-1, 1] (lo < hi), values beyond either end clamped to it."""
    if lo != -1.0 or hi != 1.0:
        # at (-1, 1) the map is the identity; evaluating it would only add
        # rounding, which would break normalize's idempotence
        values -= lo
        values *= 2.0 / (hi - lo)
        values -= 1.0
    return np.clip(values, -1.0, 1.0, out=values)


def prepare_for_model(image: TactileImage) -> np.ndarray:
    """The planes of a normalized image or stack, as the encoder takes them."""
    if not image.normalized:
        raise NotNormalizedError("image must be normalized to [-1, 1] before model preparation")
    return image.data


def compute_bounds(arrays) -> tuple[float, float]:
    """Dataset-level calibration bounds: the min and max over every training
    reading, each array one stream's readings or a stack of them."""
    arrays = list(arrays)
    if not arrays:
        raise ValidationError("cannot compute bounds from an empty dataset")
    lo = min(float(a.min()) for a in arrays)
    hi = max(float(a.max()) for a in arrays)
    if not lo < hi:
        raise ValidationError(f"degenerate data: min == max == {lo}")
    return lo, hi
