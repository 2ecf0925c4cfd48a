"""Training machinery: optimizers, trainers (§3.2), data parallelism, loops."""

from .capture import CaptureReplayEngine
from .data_parallel import DataParallel, shard_batch
from .checkpointing import CheckpointedLayer
from .loop import (EpochStats, StepResult, train_epoch, train_step,
                   train_step_accumulated)
from .optimizers import (ConstantSchedule, InverseSqrtSchedule,
                         LinearDecaySchedule, OptimizerSpec)
from .trainer import (ApexLikeTrainer, LSFusedTrainer, NaiveMPTrainer,
                      TrainerBase, make_trainer)

__all__ = [
    "OptimizerSpec", "InverseSqrtSchedule", "LinearDecaySchedule",
    "ConstantSchedule", "TrainerBase", "NaiveMPTrainer", "ApexLikeTrainer",
    "LSFusedTrainer", "make_trainer",
    "CaptureReplayEngine", "DataParallel", "shard_batch",
    "train_step", "train_epoch", "train_step_accumulated",
    "StepResult", "EpochStats", "CheckpointedLayer",
]
