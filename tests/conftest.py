"""Shared fixtures: synthetic datasets and a session-wide pretrained backend.

The pretrained backend plays the role of the transferable embedding model:
it is trained once per session on its own synthetic task (different seed and
class count from every downstream experiment) and then used frozen wherever
a fixed representation is required.

taclearn is imported before numpy, so the tests run at the one BLAS thread
the package pins, as the CLI does.
"""

import taclearn  # noqa: F401,I001 - first, see above

import numpy as np
import pytest

from taclearn.augment import AugmentConfig
from taclearn.model import ConvNetBackend, TrainConfig, train_supervised
from taclearn.sensor_io import SyntheticTextureConfig, generate_synthetic, synthetic_sensor_spec
from taclearn.tactile_image import compute_bounds, image_plane, normalize


def synth_images(num_classes=5, per_class=10, channels=12, length=64, noise=0.05,
                 seed=0, start_index=0, bounds=None):
    """Labeled normalized tactile images from the synthetic generator.

    Returns (images, labels, bounds): one (N, H, W) stack and its labels.
    Pass `bounds` to reuse calibration computed on a training split.
    """
    cfg = SyntheticTextureConfig(
        num_classes=num_classes,
        channels=channels,
        stream_length=length,
        noise_floor=noise,
        seed=seed,
    )
    indices = range(start_index, start_index + per_class)
    readings = np.concatenate([generate_synthetic(cfg, c, indices) for c in range(num_classes)])
    if bounds is None:
        bounds = compute_bounds([readings])
    spec = synthetic_sensor_spec(cfg)
    images = normalize(np.ascontiguousarray(image_plane(readings, spec)), *bounds, source=spec)
    labels = [c for c in range(num_classes) for _ in range(per_class)]
    return images, labels, bounds


@pytest.fixture(scope="session")
def pretrained_backend():
    """Backend trained on a disjoint 10-class synthetic task, then frozen.

    Light augmentation during pretraining makes the representation transfer
    well enough that a frozen-feature ridge classifier clears 95% on unseen
    5-class tasks.
    """
    images, labels, _ = synth_images(num_classes=10, per_class=40, seed=777)
    aug = AugmentConfig(flip_prob=0.5, resize_factor_range=(0.8, 1.25),
                        crop_len_range=(32, 64), jitter_level=0.2, seed=2)
    cfg = TrainConfig(epochs=60, lr=0.01, momentum=0.9, weight_decay=1e-4,
                      batch_size=16, lr_schedule="cosine", seed=777)
    backend, _, _ = train_supervised(images, labels, cfg, aug,
                                     backend=ConvNetBackend(seed=777, input_width=64))
    return backend


@pytest.fixture(scope="session")
def random_backend():
    return ConvNetBackend(seed=4242)


@pytest.fixture
def tiny_dataset():
    """(images, labels): a 3-class stack of 24 images."""
    images, labels, _ = synth_images(num_classes=3, per_class=8, channels=10,
                                     length=32, seed=11)
    return images, labels
