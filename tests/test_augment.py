import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taclearn.augment import (
    MAX_TEMPORAL_WIDTH,
    AugmentConfig,
    _resample_axis,
    crop_temporal,
    flip_temporal,
    jitter,
    random_augment,
    resize_temporal,
    resize_to_width,
    temporal_width,
)
from taclearn.errors import ValidationError
from taclearn.prng import Prng
from taclearn.sensor_io import CAMERA_FRAMES, SensorSpec
from taclearn.tactile_image import TactileImage


def _image(h=19, w=400, seed=0, normalized=True):
    data = Prng(seed).uniform(-1, 1, size=(h, w))
    return TactileImage(data=data, normalized=normalized)


def _stack(img):
    """A one-image minibatch, as random_augment takes it."""
    return TactileImage(data=img.data[None], source=img.source, normalized=img.normalized)


def test_flip_is_involution_and_preserves_shape():
    img = _image()
    flipped = flip_temporal(img)
    assert flipped.data.shape == (19, 400)
    assert np.array_equal(flipped.data[:, 0], img.data[:, -1])
    assert np.array_equal(flip_temporal(flipped).data, img.data)


def test_resize_identity_and_halving():
    img = _image()
    assert np.array_equal(resize_temporal(img, 1.0).data, img.data)
    assert resize_temporal(img, 0.5).data.shape == (19, 200)
    assert resize_temporal(img, 2.0).data.shape == (19, 800)


def test_resize_linear_ramp_oracle():
    # closed form: linear interpolation of a ramp is the ramp itself
    w = 40
    ramp = np.tile(np.arange(w, dtype=float) * 0.3 - 2.0, (4, 1))
    img = TactileImage(data=ramp)
    out = resize_temporal(img, 2.0)
    w2 = out.data.shape[1]
    positions = np.arange(w2) * ((w - 1) / (w2 - 1))
    expected = np.tile(positions * 0.3 - 2.0, (4, 1))
    assert np.abs(out.data - expected).max() < 1e-6


def test_resize_errors():
    img = _image(h=2, w=4)
    with pytest.raises(ValidationError):
        resize_temporal(img, 0.0)
    with pytest.raises(ValidationError):
        resize_temporal(img, -1.0)
    with pytest.raises(ValidationError):
        resize_temporal(img, 0.05)


@pytest.mark.parametrize("old_len, new_len", [(1, 5), (7, 1), (1, 1), (9, 9), (64, 48),
                                              (48, 64), (400, 800), (599, 400)])
def test_resample_axis_matches_the_one_expression_form(old_len, new_len):
    # the in-place form must give the bytes of a[..., l] * (1 - f) + a[..., r] * f,
    # on a stack and on a transposed view alike, computed in the input's dtype
    data = Prng(old_len * 1000 + new_len).uniform(-1, 1, size=(3, 5, old_len))
    for dtype in (np.float64, np.float32):
        for a in (data.astype(dtype), data.astype(dtype).swapaxes(0, 1)):
            pos = (np.array([(old_len - 1) / 2.0]) if new_len == 1
                   else np.arange(new_len) * ((old_len - 1) / (new_len - 1)))
            left = np.minimum(pos.astype(np.int64), old_len - 1)
            right = np.minimum(left + 1, old_len - 1)
            frac = (pos - left).astype(dtype)
            expected = a[..., left] * (1.0 - frac) + a[..., right] * frac
            out = _resample_axis(a, new_len)
            assert out.dtype == dtype
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
            assert (out is a) == (new_len == old_len)


def test_crop_identity_and_short_sample_window():
    img = _image()
    assert np.array_equal(crop_temporal(img, 0, 400).data, img.data)
    short = crop_temporal(img, 100, 30)
    assert short.data.shape == (19, 30)
    assert np.array_equal(short.data, img.data[:, 100:130])


def test_crop_out_of_range():
    img = _image()
    with pytest.raises(ValidationError):
        crop_temporal(img, 395, 10)
    with pytest.raises(ValidationError):
        crop_temporal(img, -1, 5)
    with pytest.raises(ValidationError):
        crop_temporal(img, 0, 0)


def test_jitter_identity_bound_and_reproducibility():
    img = _image(h=6, w=50)
    assert np.array_equal(jitter(img, 0.0, Prng(1)).data, img.data)
    noisy = jitter(img, 0.5, Prng(2))
    assert np.abs(noisy.data - img.data).max() <= 0.5
    again = jitter(img, 0.5, Prng(2))
    assert np.array_equal(noisy.data, again.data)
    # a float32 image takes the noise rounded to float32, and stays float32
    img32 = img.with_data(img.data.astype(np.float32))
    noisy32 = jitter(img32, 0.5, Prng(2)).data
    assert noisy32.dtype == np.float32
    assert noisy32.tobytes() == (img32.data + (noisy.data - img.data).astype(np.float32)).tobytes()
    with pytest.raises(ValidationError):
        jitter(img, -0.1, Prng(3))


def test_random_augment_neutral_config_is_identity():
    img = _image(h=8, w=32)
    cfg = AugmentConfig(
        flip_prob=0.0,
        resize_factor_range=(1.0, 1.0),
        crop_len_range=(32, 32),
        jitter_level=0.0,
    )
    out = random_augment(_stack(img), cfg, Prng(0))[0]
    assert np.array_equal(out, img.data)


def test_random_augment_shape_contract_and_finiteness():
    img = _image(h=8, w=64)
    rng = Prng(5)
    cfg = AugmentConfig(
        flip_prob=0.5,
        resize_factor_range=(0.5, 2.0),
        crop_len_range=(16, 64),
        jitter_level=0.2,
    )
    for _ in range(50):
        out = random_augment(_stack(img), cfg, rng, 64)[0]
        assert out.shape == (8, 64)
        assert np.isfinite(out).all()


def test_random_augment_too_short_after_resize():
    img = _image(h=4, w=20)
    cfg = AugmentConfig(
        flip_prob=0.0,
        resize_factor_range=(0.25, 0.25),
        crop_len_range=(10, 20),
        jitter_level=0.0,
    )
    with pytest.raises(ValidationError, match="below minimum crop"):
        random_augment(_stack(img), cfg, Prng(0))


def test_resized_width_is_bounded():
    # refused from the width alone: no array of that width is built
    assert temporal_width(64, MAX_TEMPORAL_WIDTH / 64) == MAX_TEMPORAL_WIDTH
    for factor in (1 / 1e-300, 1 / 1e-6, (MAX_TEMPORAL_WIDTH + 1) / 64):
        with pytest.raises(ValidationError, match="above the maximum"):
            temporal_width(64, factor)
    cfg = AugmentConfig(resize_factor_range=(1e6, 1e6))
    with pytest.raises(ValidationError, match="above the maximum"):
        random_augment(_stack(_image(h=4, w=20)), cfg, Prng(0))


def test_flip_rate_matches_binomial():
    # 10,000 draws at p=0.5; 3-sigma binomial band is 5000 +/- 150.
    img = TactileImage(data=np.array([[0.0, 1.0, 2.0, 3.0]]))
    cfg = AugmentConfig(
        flip_prob=0.5,
        resize_factor_range=(1.0, 1.0),
        crop_len_range=(4, 4),
        jitter_level=0.0,
    )
    rng = Prng(2024)
    flips = sum(
        not np.array_equal(random_augment(_stack(img), cfg, rng)[0], img.data)
        for _ in range(10_000)
    )
    assert abs(flips - 5000) <= 150
    # frozen for regression: exact count under seed 2024
    assert flips == 4983


def test_random_augment_matches_documented_draw_order():
    img = _image(h=6, w=48)
    cfg = AugmentConfig(
        flip_prob=0.5,
        resize_factor_range=(0.6, 1.8),
        crop_len_range=(12, 48),
        jitter_level=0.3,
    )
    for trial in range(20):
        out = random_augment(_stack(img), cfg, Prng(trial), 48)[0]
        rng = Prng(trial)
        step = img
        if rng.random() < cfg.flip_prob:
            step = flip_temporal(step)
        step = resize_temporal(step, rng.uniform(*cfg.resize_factor_range))
        lo, hi = cfg.crop_len_range
        hi = min(hi, step.width)
        length = lo + rng.randint(hi - lo + 1)
        start = rng.randint(step.width - length + 1)
        step = crop_temporal(step, start, length)
        step = jitter(step, cfg.jitter_level, rng)
        step = resize_to_width(step, 48)
        assert np.array_equal(out, step.data)


def test_camera_augment_restores_frame_shape():
    spec = SensorSpec("cam", channels=12 * 16, sample_rate_hz=10.0, kind=CAMERA_FRAMES,
                      frame_h=12, frame_w=16, value_range=(0.0, 1.0))
    img = TactileImage(data=Prng(9).uniform(-1, 1, size=(12, 16)), source=spec, normalized=True)
    cfg = AugmentConfig(
        flip_prob=0.5,
        resize_factor_range=(0.75, 1.5),
        crop_len_range=(8, 16),
        jitter_level=0.1,
    )
    rng = Prng(3)
    for _ in range(10):
        out = random_augment(_stack(img), cfg, rng)[0]
        assert out.shape == (12, 16)
    a = random_augment(_stack(img), cfg, Prng(7))[0]
    b = random_augment(_stack(img), cfg, Prng(7))[0]
    assert np.array_equal(a, b)


def resize_frame(image, height, width):
    """Resize both spatial axes (camera frames); the per-image oracle's op."""
    if height < 1 or width < 1:
        raise ValidationError(f"target size must be >= 1x1, got {height}x{width}")
    if (height, width) == image.data.shape[-2:]:
        return image
    data = _resample_axis(image.data.swapaxes(-1, -2), height).swapaxes(-1, -2)
    data = _resample_axis(data, width)
    return image.with_data(data)


def crop_rows(image, start, length):
    """Keep rows [start, start+length); the per-image oracle's op."""
    if length < 1:
        raise ValidationError(f"crop length must be >= 1, got {length}")
    if start < 0 or start + length > image.data.shape[-2]:
        raise ValidationError(
            f"row crop [{start}, {start + length}) out of range for height "
            f"{image.data.shape[-2]}"
        )
    return image.with_data(image.data[..., start : start + length, :].copy())


def test_resize_frame_both_axes():
    img = _image(h=10, w=20)
    out = resize_frame(img, 5, 40)
    assert out.data.shape == (5, 40)
    assert np.array_equal(resize_frame(img, 10, 20).data, img.data)


def test_config_validation():
    with pytest.raises(ValidationError):
        AugmentConfig(flip_prob=1.5)
    with pytest.raises(ValidationError):
        AugmentConfig(resize_factor_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        AugmentConfig(crop_len_range=(0, 4))
    with pytest.raises(ValidationError):
        AugmentConfig(jitter_level=-0.2)


def _random_augment_one(image, cfg, rng, width=None):
    # The per-image random_augment the batched one replaced, kept verbatim as
    # the oracle: a stack must give the bytes, errors and generator state of
    # augmenting its planes one after another with this.
    is_camera = image.source is not None and image.source.kind == CAMERA_FRAMES
    out_h = image.data.shape[-2]
    out_w = width if width is not None else image.width

    if rng.random() < cfg.flip_prob:
        image = flip_temporal(image)

    factor = rng.uniform(*cfg.resize_factor_range)
    if is_camera:
        new_h = max(1, int(np.floor(image.data.shape[-2] * factor + 0.5)))
        new_w = max(1, int(np.floor(image.width * factor + 0.5)))
        image = resize_frame(image, new_h, new_w)
    else:
        image = resize_temporal(image, factor)

    lo, hi = cfg.crop_len_range
    hi = min(hi, image.width)
    if image.width < lo:
        raise ValidationError(
            f"image width {image.width} after resize is below minimum crop length {lo}"
        )
    length = lo + rng.randint(hi - lo + 1)
    start = rng.randint(image.width - length + 1)
    image = crop_temporal(image, start, length)
    if is_camera:
        row_len = min(length, image.data.shape[-2])
        row_start = rng.randint(image.data.shape[-2] - row_len + 1)
        image = crop_rows(image, row_start, row_len)

    image = jitter(image, cfg.jitter_level, rng)

    if is_camera:
        return resize_frame(image, out_h, out_w)
    return resize_to_width(image, out_w)


_CAMERA = SensorSpec("cam", channels=9 * 13, sample_rate_hz=10.0, kind=CAMERA_FRAMES,
                     frame_h=9, frame_w=13, value_range=(0.0, 1.0))


def _assert_batch_matches_oracle(images, cfg, width, seed):
    oracle_rng, batch_rng = Prng(seed), Prng(seed)
    try:
        expected = np.stack([_random_augment_one(images[i], cfg, oracle_rng, width).data
                             for i in range(len(images))])
    except ValidationError as exc:
        with pytest.raises(type(exc)) as raised:
            random_augment(images, cfg, batch_rng, width)
        assert str(raised.value) == str(exc)
    else:
        out = random_augment(images, cfg, batch_rng, width)
        assert out.dtype == images.data.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
    assert batch_rng._state == oracle_rng._state


def _batch(camera, height, widths, seed, negative_zero_rate):
    planes = []
    for i, w in enumerate(widths):
        draw = Prng(seed).spawn(i)
        data = draw.uniform(-1, 1, size=(height, w))
        # the per-image ops copy a -0.0 where they do not interpolate
        data[draw.random((height, w)) < negative_zero_rate] = -0.0
        planes.append(data)
    return TactileImage(data=np.stack(planes), source=_CAMERA if camera else None,
                        normalized=True)


@st.composite
def _augment_cases(draw):
    camera = draw(st.booleans())
    height = draw(st.integers(1, 9 if camera else 6))
    n = draw(st.integers(1, 5))
    widths = [draw(st.integers(1, 40))] * n
    width = None
    if draw(st.booleans()):  # identity settings: factor 1, full-width crop, no jitter
        cfg = AugmentConfig(flip_prob=draw(st.sampled_from([0.0, 1.0])),
                            resize_factor_range=(1.0, 1.0),
                            crop_len_range=(widths[0], widths[0]), jitter_level=0.0)
    else:
        factor = draw(st.floats(0.02, 2.5))
        crop_min = draw(st.integers(1, 12))
        cfg = AugmentConfig(
            flip_prob=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
            resize_factor_range=(factor, factor * draw(st.sampled_from([1.0, 1.5, 3.0]))),
            crop_len_range=(crop_min, crop_min + draw(st.integers(0, 30))),
            jitter_level=draw(st.sampled_from([0.0, 0.1, 0.5])),
        )
        width = draw(st.integers(1, 40)) if draw(st.booleans()) else None
    images = _batch(camera, height, widths, draw(st.integers(0, 2**32)),
                    draw(st.sampled_from([0.0, 0.3])))
    return images, cfg, width, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(_augment_cases())
def test_batched_augment_matches_per_image_oracle(case):
    _assert_batch_matches_oracle(*case)


# each cfg is an (AugmentConfig, output width) pair
_ORACLE_CASES = [
    # vector images, every op active
    (False, [24] * 4, (AugmentConfig(0.5, (0.6, 1.8), (4, 20), 0.3), 16)),
    # camera frames, kept at and resized to another output width
    (True, [13] * 4, (AugmentConfig(0.5, (0.7, 1.4), (5, 13), 0.2), None)),
    (True, [13] * 3, (AugmentConfig(0.5, (0.7, 1.4), (3, 9), 0.2), 12)),
    # no jitter, and copying and interpolating images in one batch
    (False, [12] * 6, (AugmentConfig(0.5, (0.9, 1.1), (10, 12), 0.0), 12)),
    # identity settings, flips forced on
    (False, [12] * 3, (AugmentConfig(1.0, (1.0, 1.0), (12, 12), 0.0), None)),
    (True, [13] * 3, (AugmentConfig(1.0, (1.0, 1.0), (13, 13), 0.0), None)),
    # for some seeds a later image's width collapses to zero, or falls below the crop
    (False, [2] * 3, (AugmentConfig(0.5, (0.05, 0.5), (1, 4), 0.1), 5)),
    (False, [8] * 3, (AugmentConfig(0.5, (0.3, 1.0), (4, 8), 0.1), 8)),
    (True, [13, 13], (AugmentConfig(0.5, (0.25, 0.25), (6, 8), 0.1), None)),
]


@pytest.mark.parametrize("camera, widths, cfg", _ORACLE_CASES)
@pytest.mark.parametrize("negative_zero_rate", [0.0, 0.5])
def test_batched_augment_oracle_cases(camera, widths, cfg, negative_zero_rate):
    images = _batch(camera, 9 if camera else 5, widths, 4, negative_zero_rate)
    for seed in range(5):
        _assert_batch_matches_oracle(images, *cfg, seed)


def test_batched_augment_matches_the_oracle_on_float32_stacks():
    # a dataset split's float32 stack is augmented in float32, as the per-image
    # ops augment its planes
    for camera, widths, cfg in _ORACLE_CASES:
        images = _batch(camera, 9 if camera else 5, widths, 4, 0.5)
        images = images.with_data(images.data.astype(np.float32))
        assert images.data.dtype == np.float32
        for seed in range(5):
            _assert_batch_matches_oracle(images, *cfg, seed)
