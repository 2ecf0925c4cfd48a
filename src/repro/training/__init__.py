"""Training machinery: optimizers, trainers (§3.2), data parallelism, loops."""

from .capture import CaptureReplayEngine
from .data_parallel import DataParallel, shard_batch
from .checkpointing import (CheckpointedLayer, checkpoint_stack,
                            stack_backward, stack_forward)
from .loop import (EpochStats, StepResult, train_epoch, train_step,
                   train_step_accumulated)
from .serialization import (load_model, load_trainer, save_model,
                            save_trainer)
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
    "checkpoint_stack", "stack_forward", "stack_backward",
    "save_model", "load_model", "save_trainer", "load_trainer",
]
