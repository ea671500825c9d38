"""Video saliency prediction with EMA and ConvLSTM temporal recurrences."""

from .model import Model, ModelConfig, build
from .recurrence import EmaConfig, EmaState, ema_step
from .tensor import Tensor, backward, no_grad
from .training import Adam, TrainConfig, bce_loss, train

__all__ = [
    "Adam",
    "EmaConfig",
    "EmaState",
    "Model",
    "ModelConfig",
    "Tensor",
    "TrainConfig",
    "backward",
    "bce_loss",
    "build",
    "ema_step",
    "no_grad",
    "train",
]

__version__ = "0.1.0"
