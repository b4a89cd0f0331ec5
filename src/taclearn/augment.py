"""Tactile-image augmentations.

Four families, each a physically meaningful perturbation of the collection
process: temporal flipping (motion direction reversed), temporal resizing
(motion speed), temporal cropping (motion duration) and jitter (sensor noise
and drift).

The per-image ops are pure: they never mutate their input and consume
randomness only from an explicitly passed generator. Every op computes in
its input's dtype and returns it, as the conv layers do: on a float32 stack
(a dataset split) the interpolation fractions and the jitter noise are
rounded to float32 first. Jitter may push values outside [-1, 1] by up to
its level; nothing re-clamps, because the noise-robustness suites measure
exactly that excursion.

`random_augment` augments a whole training minibatch: one normalized stack
(B, H, W) in and one array (B, H, W_out) of its dtype out. Its result, and
the generator state it leaves, are those of augmenting the planes one after
another with the per-image ops,
each image drawing in this order: flip (one uniform draw), resize (one
factor draw), crop (one length and one start draw), jitter (one uniform
draw per entry of the cropped image, row-major, when the level is
positive), then a final resize to the width it is given. Camera
frames have no privileged time axis: they resize both axes by the drawn
factor (rows, then columns), crop a window as tall as it is wide where the
height allows (one extra start draw for the rows, after the column start)
and are resized back to the native frame height and that width.

The batch is computed in one vectorized pass. A short scalar loop makes
each image's few draws in order and raises, for the first offending image,
the error the per-image ops would raise. The generator is a counter
(splitmix64), so an image's jitter block needs no draws in the loop: the
loop records the state the block starts from and skips past it, and every
block is then mixed at once from those counters (`prng.uniform_at`), bit
for bit the values the scalar draws give. Flip, resize and crop compose into
one gather per axis, and the final resize is a second: each output entry is
the per-image ops' `a*(1-f) + b*f` on the same operands, and where those ops
copy instead of interpolating (unchanged length, or a crop already at the
output width) the entry is the copied value, which keeps a -0.0 that the
interpolation formula would turn into +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .prng import Prng, uniform_at
from .sensor_io import CAMERA_FRAMES, MAX_NOISE_LEVEL
from .tactile_image import TactileImage


# The widest temporal axis a resize may produce: 2**16 readings, about 100
# times the widest sensor template (27x599). One 12-row plane at this width
# takes 3 MB in float32, and its block-1 columns about 28 MB.
MAX_TEMPORAL_WIDTH = 2**16
JITTER_CHUNK = 2**16  # `jitter` holds float64 noise for this many entries at a time
MAX_JITTER_LEVEL = MAX_NOISE_LEVEL  # image + noise, and its resampling, stay finite


@dataclass(frozen=True)
class AugmentConfig:
    flip_prob: float = 0.5
    resize_factor_range: tuple[float, float] = (1.0, 1.0)
    crop_len_range: tuple[int, int] = (1, 2**31)
    jitter_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValidationError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        lo, hi = self.resize_factor_range
        if not (0.0 < lo <= hi < math.inf):
            raise ValidationError(
                f"resize factors must be finite with 0 < min <= max, "
                f"got {self.resize_factor_range}"
            )
        clo, chi = self.crop_len_range
        if not (1 <= clo <= chi):
            raise ValidationError(
                f"crop lengths must satisfy 1 <= min <= max, got {self.crop_len_range}"
            )
        if not 0 <= self.jitter_level <= MAX_JITTER_LEVEL:
            raise ValidationError(
                f"jitter_level must be finite and in [0, 2**127], got {self.jitter_level}")


def flip_temporal(image: TactileImage) -> TactileImage:
    """Mirror the temporal axis (reverses the direction of motion)."""
    return image.with_data(image.data[..., ::-1].copy())


def _resample_axis(data: np.ndarray, new_len: int) -> np.ndarray:
    # Linear interpolation along the last axis with endpoints pinned: output
    # position i samples input position i*(W-1)/(W'-1), so ramps stay ramps;
    # W'=W returns `data` itself.
    if new_len < 1:
        raise ValidationError(f"target width must be >= 1, got {new_len}")
    old_len = data.shape[-1]
    if new_len == old_len:
        return data
    (left,), (right,), (frac,) = _resample_maps(np.array([old_len]), np.array([new_len]),
                                                np.arange(new_len)[None])
    frac = frac.astype(data.dtype)
    # a[..., l] * (1 - f) + a[..., r] * f in place, with two temporaries
    out = data[..., left]
    out *= 1.0 - frac
    far = data[..., right]
    far *= frac
    out += far
    return out


def temporal_width(width: int, factor: float) -> int:
    """The width `resize_temporal` gives an image `width` readings wide; at
    most MAX_TEMPORAL_WIDTH."""
    if not 0 < factor < math.inf:
        raise ValidationError(f"resize factor must be finite and positive, got {factor}")
    new_w = int(np.floor(width * factor + 0.5))
    if new_w < 1:
        raise ValidationError(f"resize factor {factor} collapses width {width} to zero")
    _check_width(new_w, width, factor)
    return new_w


def _check_width(new_w, width, factor):
    if new_w > MAX_TEMPORAL_WIDTH:
        raise ValidationError(
            f"resize factor {factor} stretches width {width} to {new_w} readings, "
            f"above the maximum of {MAX_TEMPORAL_WIDTH}")


def resize_temporal(image: TactileImage, factor: float) -> TactileImage:
    """Rescale the temporal axis by `factor` with linear interpolation."""
    return resize_to_width(image, temporal_width(image.width, factor))


def resize_to_width(image: TactileImage, width: int) -> TactileImage:
    resized = _resample_axis(image.data, width)
    return image if resized is image.data else image.with_data(resized)


def crop_temporal(image: TactileImage, start: int, length: int) -> TactileImage:
    """Keep columns [start, start+length)."""
    if length < 1:
        raise ValidationError(f"crop length must be >= 1, got {length}")
    if start < 0 or start + length > image.width:
        raise ValidationError(
            f"crop [{start}, {start + length}) out of range for width {image.width}"
        )
    return image.with_data(image.data[..., start : start + length].copy())


def jitter(image: TactileImage, level: float, rng: Prng) -> TactileImage:
    """Add i.i.d. uniform noise on [-level, +level] to every entry. The noise
    is drawn JITTER_CHUNK entries at a time; consecutive draws of the counter
    generator give the values and end state of one ``rng.uniform`` call."""
    if not 0 <= level <= MAX_JITTER_LEVEL:
        raise ValidationError(f"jitter level must be finite and in [0, 2**127], got {level}")
    if level == 0:
        return image
    data = image.data.reshape(-1)
    out = np.empty_like(data)
    for part in (slice(s, s + JITTER_CHUNK) for s in range(0, data.size, JITTER_CHUNK)):
        noise = rng.uniform(-level, level, size=len(data[part]))
        np.add(data[part], noise.astype(data.dtype), out=out[part])
    return image.with_data(out.reshape(image.data.shape))


def _resample_maps(old_len, new_len, positions):
    """`_resample_axis`'s (left, right, frac) for output `positions` (B, K)
    of per-image resamples from old_len[b] to new_len[b] entries."""
    old, new = old_len[:, None], new_len[:, None]
    pos = np.where(new == 1, (old - 1) / 2.0, positions * ((old - 1) / np.maximum(new - 1, 1)))
    left = np.minimum(pos.astype(np.int64), old - 1)
    right = np.minimum(left + 1, old - 1)
    return left, right, pos - left


def _gather(data, left, right, frac, copy):
    """Per-image linear interpolation along axis 1 of (B, N, M) data, giving
    (B, K, M); images whose `copy` flag is set take the `left` rows unchanged."""
    rows = data.reshape(-1, data.shape[2])
    base = (np.arange(len(data)) * data.shape[1])[:, None]
    a = rows[base + left]
    if copy.all():
        return a
    b = rows[base + right]
    frac = frac[:, :, None].astype(data.dtype)
    return np.where(copy[:, None, None], a, a * (1.0 - frac) + b * frac)


def random_augment(images: TactileImage, cfg: AugmentConfig, rng: Prng,
                   width: int | None = None) -> np.ndarray:
    """Randomized flip / resize / crop / jitter of a minibatch stack, then
    resize to `width` (None keeps the input width); see the module docstring
    for the draw order."""
    is_camera = images.source is not None and images.source.kind == CAMERA_FRAMES
    n, out_h, in_w = images.data.shape
    out_w = in_w if width is None else width

    # Scalar pass: each image's draws in order; jitter blocks are skipped.
    lo, hi = cfg.crop_len_range
    draws, noise_states = [], []
    for _ in range(n):
        flip = rng.random() < cfg.flip_prob
        factor = rng.uniform(*cfg.resize_factor_range)
        new_w = int(math.floor(in_w * factor + 0.5))
        if is_camera:
            new_h = max(1, int(math.floor(out_h * factor + 0.5)))
            new_w = max(1, new_w)
        elif new_w < 1:
            raise ValidationError(f"resize factor {factor} collapses width {in_w} to zero")
        else:
            new_h = out_h
        _check_width(new_w, in_w, factor)
        if new_w < lo:
            raise ValidationError(
                f"image width {new_w} after resize is below minimum crop length {lo}"
            )
        length = lo + rng.randint(min(hi, new_w) - lo + 1)
        start = rng.randint(new_w - length + 1)
        rows, row_start = new_h, 0
        if is_camera:
            rows = min(length, new_h)
            row_start = rng.randint(new_h - rows + 1)
        noise_states.append(rng.skip(rows * length) if cfg.jitter_level > 0 else 0)
        draws.append((flip, new_h, new_w, length, start, rows, row_start))
    flip, new_h, new_w, length, start, rows, row_start = np.array(draws, np.int64).T
    width, height = np.full(n, in_w), np.full(n, out_h)

    # Images are held transposed, (B, columns, rows), so each gather picks
    # whole rows of memory; camera frames transpose around their row passes.
    data = images.data.transpose(0, 2, 1)

    # Flip, resize and crop as one gather per axis (rows only for camera frames).
    if is_camera:
        r = row_start[:, None] + np.minimum(np.arange(rows.max()), rows[:, None] - 1)
        data = _gather(data.transpose(0, 2, 1), *_resample_maps(height, new_h, r),
                       new_h == height).transpose(0, 2, 1)
    c = start[:, None] + np.minimum(np.arange(length.max()), length[:, None] - 1)
    left, right, frac = _resample_maps(width, new_w, c)
    last = np.where(flip, width - 1, 0)[:, None]
    sign = np.where(flip, -1, 1)[:, None]
    data = _gather(data, last + sign * left, last + sign * right, frac, new_w == width)

    if cfg.jitter_level > 0:
        c = np.arange(data.shape[1])[None, :, None]
        r = np.arange(data.shape[2])[None, None, :]
        step = (r * length[:, None, None] + c + 1).astype(np.uint64)
        u = uniform_at(np.array(noise_states, np.uint64)[:, None, None], step)
        level_lo, level_hi = -cfg.jitter_level, cfg.jitter_level
        data = data + (level_lo + (level_hi - level_lo) * u).astype(data.dtype)

    if is_camera:
        r = np.broadcast_to(np.arange(out_h), (n, out_h))
        data = _gather(data.transpose(0, 2, 1), *_resample_maps(rows, height, r),
                       rows == out_h).transpose(0, 2, 1)
    c = np.broadcast_to(np.arange(out_w), (n, out_w))
    data = _gather(data, *_resample_maps(length, np.full(n, out_w), c),
                   length == out_w)
    return np.ascontiguousarray(data.transpose(0, 2, 1))
