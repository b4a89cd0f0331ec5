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
    history_to_csv,
    prepare_batch,
    sgd_step,
    train_composition,
    train_supervised,
)

__all__ = [
    "Checkpoint",
    "Classifier",
    "ConvNetBackend",
    "EpochStats",
    "LinearHead",
    "MIN_INPUT",
    "TrainConfig",
    "composition_probs",
    "embed_images",
    "history_to_csv",
    "load_checkpoint",
    "prepare_batch",
    "save_checkpoint",
    "sgd_step",
    "train_composition",
    "train_supervised",
]
