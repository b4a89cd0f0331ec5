"""Unified tactile-image construction.

Vector-stream sensors become 2-D images by stacking consecutive readings as
columns (channel axis x time axis); camera sensors pass their frames through
natively. An image is one (H, W) plane, normalized to [-1, 1] with
dataset-level calibration bounds before it reaches the model.

Multi-modal sensors keep whatever channel order the manifest delivered; the
loader does not reorder modalities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .sensor_io import CAMERA_FRAMES, VECTOR_STREAM, SensorSpec, SensorStream


class WindowError(ValidationError):
    """Requested reading window falls outside the stream."""


class WrongSensorKindError(ValidationError):
    """Operation applied to an incompatible sensor kind."""


class NotNormalizedError(ValidationError):
    """Image must be normalized before this step."""


@dataclass(frozen=True)
class TactileImage:
    """2-D tactile input; `data` is one (H, W) plane.

    `normalized` records that the entries were calibrated into [-1, 1].
    Later additive noise (the test-time jitter suites) may push values
    slightly outside that range without invalidating the calibration, so
    downstream consumers trust the flag rather than re-checking bounds.
    """

    data: np.ndarray
    source: SensorSpec | None = None
    normalized: bool = False

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise ValidationError(f"image must be 2-D, got {data.shape}")
        if self.height < 1 or self.width < 1:
            raise ValidationError(f"image must be at least 1x1, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValidationError("image contains non-finite values")
        data.setflags(write=False)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    def with_data(self, data: np.ndarray, **changes) -> "TactileImage":
        return replace(self, data=data, **changes)


def build_tactile_image(stream: SensorStream, j: int | None = None, k: int | None = None) -> TactileImage:
    """Stack readings j..k (inclusive) as columns; defaults to the full stream."""
    if stream.spec.kind != VECTOR_STREAM:
        raise WrongSensorKindError(
            f"build_tactile_image needs a vector stream, got {stream.spec.kind}"
        )
    t = stream.length
    if j is None:
        j = 0
    if k is None:
        k = t - 1
    if not (0 <= j <= k < t):
        raise WindowError(f"window [{j}, {k}] invalid for stream of length {t}")
    data = stream.readings[j : k + 1].T.copy()
    return TactileImage(data=data, source=stream.spec)


def camera_frame_image(stream: SensorStream, index: int = 0) -> TactileImage:
    """One camera reading reshaped to its native frame."""
    spec = stream.spec
    if spec.kind != CAMERA_FRAMES:
        raise WrongSensorKindError(f"camera_frame_image needs camera frames, got {spec.kind}")
    if not 0 <= index < stream.length:
        raise WindowError(f"frame index {index} invalid for stream of length {stream.length}")
    data = stream.readings[index].reshape(spec.frame_h, spec.frame_w)
    return TactileImage(data=data, source=spec)


def normalize(image: TactileImage, lo: float, hi: float) -> TactileImage:
    """Affine map [lo, hi] -> [-1, 1]; out-of-range values clamp to the ends."""
    if not lo < hi:
        raise ValidationError(f"normalization bounds need lo < hi, got ({lo}, {hi})")
    if lo == -1.0 and hi == 1.0:
        # The map is the identity; evaluating the affine form would only add
        # rounding, which would break normalize's idempotence.
        data = np.clip(image.data, -1.0, 1.0)
    else:
        scale = 2.0 / (hi - lo)
        data = np.clip((image.data - lo) * scale - 1.0, -1.0, 1.0)
    return image.with_data(data, normalized=True)


def prepare_for_model(image: TactileImage) -> np.ndarray:
    """The (H, W) plane of a normalized image, as the encoder takes it."""
    if not image.normalized:
        raise NotNormalizedError("image must be normalized to [-1, 1] before model preparation")
    return image.data


def compute_bounds(streams) -> tuple[float, float]:
    """Dataset-level calibration bounds (min/max over all training readings)."""
    streams = list(streams)
    if not streams:
        raise ValidationError("cannot compute bounds from an empty dataset")
    lo = min(float(s.readings.min()) for s in streams)
    hi = max(float(s.readings.max()) for s in streams)
    if not lo < hi:
        raise ValidationError(f"degenerate data: min == max == {lo}")
    return lo, hi

