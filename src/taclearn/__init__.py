"""taclearn: sensor-agnostic tactile representation learning.

Heterogeneous tactile sensor streams are converted into a unified 2-D
"tactile image" format, classified with a small size-agnostic convolutional
network, stress-tested with physically interpretable augmentations, and
learned continually with a schedule-robust two-phase algorithm (streaming
ridge statistics plus exemplar-buffer fine-tuning).
"""

from .augment import (
    AugmentConfig,
    crop_temporal,
    flip_temporal,
    jitter,
    random_augment,
    resize_temporal,
)
from .continual import (
    ClSnapshot,
    MemoryBuffer,
    RlsState,
    cl_run,
    cl_sweep,
    fine_tune,
    ridge_solve,
    rls_update,
)
from .errors import RuntimeFailure, TaclearnError, ValidationError
from .evaluate import (
    EvalReport,
    composition_score,
    kfold_eval,
    least_squares_baseline,
    length_sweep,
    noise_sweep,
    speed_sweep,
)
from .fabric import CONSTITUENTS
from .model import (
    Checkpoint,
    Classifier,
    ConvNetBackend,
    LinearHead,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train_composition,
    train_supervised,
)
from .prng import Prng
from .sensor_io import (
    SensorSpec,
    SensorStream,
    SyntheticTextureConfig,
    generate_dataset,
    generate_synthetic,
    load_stream,
    write_stream,
)
from .tactile_image import TactileImage, normalize, prepare_for_model

__version__ = "0.1.0"
