"""taclearn: sensor-agnostic tactile representation learning.

Heterogeneous tactile sensor streams are converted into a unified 2-D
"tactile image" format, classified with a small size-agnostic convolutional
network, stress-tested with physically interpretable augmentations, and
learned continually with a schedule-robust two-phase algorithm (streaming
ridge statistics plus exemplar-buffer fine-tuning).

The package namespace holds what the README's library quickstart uses; every
other name lives in its module.
"""

from .model import TrainConfig, train_supervised
from .sensor_io import SyntheticTextureConfig, generate_synthetic, synthetic_sensor_spec
from .tactile_image import compute_bounds, image_plane, normalize
