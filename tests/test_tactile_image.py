import numpy as np
import pytest

from taclearn.errors import ValidationError
from taclearn.prng import Prng
from taclearn.sensor_io import (
    CAMERA_FRAMES,
    SensorSpec,
    SensorStream,
    SyntheticTextureConfig,
    generate_synthetic,
    synthetic_sensor_spec,
)
from taclearn.tactile_image import (
    NotNormalizedError,
    TactileImage,
    WindowError,
    compute_bounds,
    image_plane,
    normalize,
    prepare_for_model,
)


def _stream(n, t, seed=0):
    rng = Prng(seed)
    spec = SensorSpec("s", channels=n, sample_rate_hz=100.0, value_range=(-10.0, 10.0))
    return SensorStream(spec=spec, readings=rng.uniform(-5, 5, size=(t, n)))


def test_biotac_like_window_shape():
    stream = _stream(19, 400)
    plane = image_plane(stream.readings, stream.spec, 0, 399)
    assert plane.shape == (19, 400)
    assert not plane.flags.writeable and np.shares_memory(plane, stream.readings)


def test_contactile_like_full_stream_default():
    stream = _stream(27, 599)
    assert image_plane(stream.readings, stream.spec).shape == (27, 599)


def test_single_reading_window():
    stream = _stream(6, 10)
    plane = image_plane(stream.readings, stream.spec, 0, 0)
    assert plane.shape == (6, 1)
    assert np.array_equal(plane[:, 0], stream.readings[0])


def test_column_fidelity_random_windows():
    stream = _stream(8, 50, seed=4)
    rng = Prng(1)
    for _ in range(20):
        j = rng.randint(50)
        k = j + rng.randint(50 - j)
        plane = image_plane(stream.readings, stream.spec, j, k)
        for c in range(k - j + 1):
            assert np.array_equal(plane[:, c], stream.readings[j + c])


def test_window_bounds_errors():
    stream = _stream(4, 10)
    with pytest.raises(WindowError):
        image_plane(stream.readings, stream.spec, 5, 3)
    with pytest.raises(WindowError):
        image_plane(stream.readings, stream.spec, 0, 10)
    with pytest.raises(WindowError):
        image_plane(stream.readings, stream.spec, -1, 3)


def test_camera_frame_pass_through():
    cam = SensorSpec("cam", channels=12, sample_rate_hz=10.0, kind=CAMERA_FRAMES,
                     frame_h=3, frame_w=4, value_range=(0.0, 1.0))
    readings = np.arange(24, dtype=float).reshape(2, 12)
    stream = SensorStream(spec=cam, readings=readings)
    plane = image_plane(stream.readings, stream.spec, frame_index=1)
    assert plane.shape == (3, 4)
    assert plane[0, 0] == 12.0
    with pytest.raises(WindowError):
        image_plane(stream.readings, stream.spec, frame_index=2)


def test_normalize_endpoints_midpoint_clamp():
    out = normalize(np.array([[0.0, 5.0, 10.0, 12.0]]), 0.0, 10.0)
    assert out.normalized
    assert np.allclose(out.data, [[-1.0, 0.0, 1.0, 1.0]])
    assert out.data.max() <= 1.0 and out.data.min() >= -1.0


def test_normalize_bad_bounds():
    with pytest.raises(ValidationError):
        normalize(np.zeros((2, 2)), 3.0, 3.0)


def test_normalize_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValidationError, match="non-finite"):
            normalize(np.array([[0.0, bad]]), 0.0, 1.0)


def test_normalize_idempotent():
    rng = Prng(2)
    once = normalize(rng.uniform(-4, 9, size=(7, 11)), -4.0, 9.0)
    twice = normalize(once.data.copy(), -1.0, 1.0)
    assert np.array_equal(once.data, twice.data)


def test_normalize_monotone():
    rng = Prng(3)
    a = rng.uniform(-2, 2, size=(5, 5))
    b = a + rng.uniform(0, 1, size=(5, 5))
    na = normalize(a, -2.0, 3.0)
    nb = normalize(b, -2.0, 3.0)
    assert (na.data <= nb.data).all()


def test_prepare_returns_the_plane():
    # the encoder, not the image, feeds the plane to its input channels
    img = normalize(Prng(5).uniform(-1, 1, size=(19, 40)), -1.0, 1.0)
    assert prepare_for_model(img) is img.data


def test_image_is_one_plane():
    # an image is one (H, W) plane; a split is a stack (N, H, W) of them
    for shape in [(5,), (2, 3, 4, 5)]:
        with pytest.raises(ValidationError, match=r"\(H, W\) plane"):
            TactileImage(data=np.zeros(shape), normalized=True)
    with pytest.raises(ValidationError, match="at least 1x1"):
        TactileImage(data=np.zeros((0, 4, 5)))
    stack = TactileImage(data=np.arange(60.0).reshape(3, 4, 5), normalized=True)
    assert len(stack) == 3 and (stack.data.shape[-2], stack.width) == (4, 5)
    assert stack[1].normalized and np.array_equal(stack[1].data, stack.data[1])
    assert np.array_equal(stack[[2, 0]].data, stack.data[[2, 0]])


def test_normalize_stack_equals_each_plane():
    # the map runs in place, with the bytes of the one-expression form, plane by plane
    planes = Prng(6).uniform(-4, 9, size=(5, 7, 11))
    raw = planes.copy()
    stack = normalize(raw, -3.0, 8.0)
    assert stack.data is raw and stack.data.shape == (5, 7, 11)
    for plane, normalized in zip(planes, stack.data):
        expected = np.clip((plane + 3.0) * (2.0 / 11.0) - 1.0, -1.0, 1.0)
        assert normalized.tobytes() == expected.tobytes()


def test_prepare_requires_normalization():
    img = TactileImage(data=np.full((2, 3), 7.0))
    with pytest.raises(NotNormalizedError):
        prepare_for_model(img)


def test_compute_bounds_from_streams():
    cfg = SyntheticTextureConfig(num_classes=2, channels=4, stream_length=32, seed=5)
    arrays = [generate_synthetic(cfg, c, range(3)) for c in range(2)]
    lo, hi = compute_bounds(arrays)
    assert lo < hi
    assert (lo, hi) == compute_bounds(r for a in arrays for r in a)
    for a in arrays:
        assert lo <= a.min() and a.max() <= hi


def test_image_plane_of_a_stack_is_each_streams_plane():
    cfg = SyntheticTextureConfig(num_classes=2, channels=4, stream_length=32, seed=5)
    spec = synthetic_sensor_spec(cfg)
    readings = generate_synthetic(cfg, 1, range(3))
    planes = image_plane(readings, spec, 2, 20)
    assert planes.shape == (3, 4, 19) and np.shares_memory(planes, readings)
    for r, plane in zip(readings, planes):
        assert np.array_equal(plane, image_plane(r, spec, 2, 20))
    cam = SensorSpec("cam", channels=6, sample_rate_hz=10.0, kind=CAMERA_FRAMES,
                     frame_h=2, frame_w=3, value_range=(0.0, 1.0))
    frames = np.arange(48, dtype=float).reshape(4, 2, 6)
    stack = image_plane(frames, cam, frame_index=1)
    assert stack.shape == (4, 2, 3)
    for r, plane in zip(frames, stack):
        assert np.array_equal(plane, image_plane(r, cam, frame_index=1))
