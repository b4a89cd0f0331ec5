"""taclearn: sensor-agnostic tactile representation learning.

Heterogeneous tactile sensor streams are converted into a unified 2-D
"tactile image" format, classified with a small size-agnostic convolutional
network, stress-tested with physically interpretable augmentations, and
learned continually with a schedule-robust two-phase algorithm (streaming
ridge statistics plus exemplar-buffer fine-tuning).

The package namespace holds what the README's library quickstart uses; every
other name lives in its module.

Importing taclearn before numpy pins BLAS to one thread (a thread variable
already set wins): a GEMM's last bits depend on its thread count, so this
makes every output a function of (config, seed) alone. BLAS reads the
variables once, when numpy is imported, so a process that imported numpy
first keeps the count it started with.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .model import TrainConfig, train_supervised
from .sensor_io import SyntheticTextureConfig, generate_synthetic, synthetic_sensor_spec
from .tactile_image import compute_bounds, image_plane, normalize
