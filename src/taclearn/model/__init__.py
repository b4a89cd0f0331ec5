from .backend import (
    Checkpoint,
    ConvNetBackend,
    LinearHead,
    MIN_INPUT,
    load_checkpoint,
    save_checkpoint,
)
from .train import (
    Classifier,
    EpochStats,
    TrainConfig,
    composition_probs,
    embed_images,
    prepare_batch,
    sgd_step,
    train_composition,
    train_supervised,
)
