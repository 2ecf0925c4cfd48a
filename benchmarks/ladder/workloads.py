"""The four ladder workloads: what each builds, and how one step is driven.

Constructing a workload *is* its set-up (model, data, batching, trainer
link, warm-up up to the first timed step), so ``setup_s`` times the
constructor.  ``step`` is the one public call a user makes per optimisation
step; ``traced_step`` re-issues the same work through the public sub-calls
with a span around each, which is what the per-layer numbers come from.  The
two must produce bit-identical losses for the same seed.

Why each workload exists is recorded in ``WHY`` (and, at length, in the
README): every later optimisation needs one workload that exercises its
mechanism and one that bypasses it.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend.arena import ActivationArena, use_arena
from repro.backend.device import Device
from repro.backend.profiler import replay_counters
from repro.config import LSConfig, get_config
from repro.data.batching import batch_by_tokens
from repro.data.synthetic import (SyntheticLMCorpus,
                                  SyntheticTranslationCorpus)
from repro.models import BertModel, GPTModel, TransformerModel
from repro.obs.metrics import MetricsRecorder
from repro.precision.loss_scaler import DynamicLossScaler
from repro.resilience.checkpoint import CheckpointStore
from repro.training import (CaptureReplayEngine, DataParallel, OptimizerSpec,
                            StepResult, make_trainer, shard_batch, train_step)

from .spans import NO_LOG, STEP, SpanLog

#: scratch for checkpoints and metrics streams — inside the checkout.
WORK_DIR = Path(__file__).resolve().parent / ".work"

WHY: Dict[str, str] = {
    "mt_fp16_eager": "paper's headline task: FP16 eager MT with shuffled "
                     "variable shapes; broadest kernel mix, arena regrowth",
    "bert_tiny_replay": "tiny tensors under capture-replay, so the dispatch "
                        "funnel (not numpy math) is a third of the step",
    "gpt_long_tiled": "L=1024 tiled attention: flash kernels are half the "
                      "step and activation memory is the constraint",
    "gpt_ddp2_zero1_ckpt": "only workload running ring collectives, ZeRO-1, "
                           "checkpoint I/O, JSONL metrics and tanh-GELU",
}


def _work_dir(prefix: str) -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR))


class Workload:
    """One named workload, built and warmed up by its constructor."""

    name = ""
    #: timed steps come in whole blocks (an MT pass, a checkpoint interval).
    block_steps = 1
    #: nominal steps per second, used only to turn ``--seconds`` into the
    #: traced pass's *fixed* step count (counts must not depend on the host).
    nominal_steps_per_s = 1.0
    #: True when two instances cannot be alive in one process at once.
    exclusive = False

    cfg: LSConfig
    #: (batch, seq) the kernel and layer micro-timings run at.
    modal_shape: Tuple[int, int]
    arenas: Sequence[ActivationArena] = ()
    #: stopwatch readings of the data layer, seconds: ``sample`` (and
    #: ``batching``) — one reading from set-up, or one per step.
    data_log: Dict[str, List[float]]

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.data_log = {}
        self.steps_done = 0

    # -- per-step protocol --------------------------------------------------

    def next_batch(self):
        raise NotImplementedError

    def step(self, batch) -> StepResult:
        raise NotImplementedError

    def traced_step(self, batch, log: SpanLog, dev: Device,
                    step_id: int) -> StepResult:
        raise NotImplementedError

    def after_step(self, res: StepResult, wall_s: float,
                   log: Optional[SpanLog] = None) -> None:
        """Work a real run does between steps (metrics, checkpoints)."""
        self.steps_done += 1

    # -- what the traced pass reports ---------------------------------------

    def trainers(self) -> list:
        return [self.trainer]

    def pad_share(self) -> Optional[float]:
        return None

    def distinct_shapes(self) -> int:
        return 1

    def check(self) -> List[str]:
        """Workload-specific output checks after a run: failure messages."""
        return []

    def close(self) -> None:
        pass


def _eager_traced_step(model, trainer, arena, batch, log, dev, step_id):
    """``train_step(model, trainer, batch, arena=arena)`` re-issued through
    its public sub-calls, one span per layer boundary."""
    with log.span(STEP, step_id):
        with log.span("trainer.zero_grad"):
            trainer.zero_grad()
        scale = trainer.scaler.scale if trainer.scaler is not None else 1.0
        with log.span("arena.begin_step"):
            arena.begin_step()
        with use_arena(arena):
            with dev.stage_scope("forward"), log.span("model.forward"):
                loss, ntok = model.forward(*batch)
            with dev.stage_scope("backward"), log.span("model.backward"):
                model.backward(grad_scale=scale)
        with log.span("trainer.step"):
            applied = trainer.step(
                grad_scale=1.0 / (scale * max(ntok, 1)))
    return StepResult(loss=loss, num_tokens=ntok, applied=applied)


class MTFp16Eager(Workload):
    name = "mt_fp16_eager"
    nominal_steps_per_s = 6.5

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.cfg = get_config(
            "transformer-base", max_batch_tokens=512, max_seq_len=64,
            fp16=True, hidden_dim=128, nhead=8, ffn_dim=512, vocab_size=4096,
            num_encoder_layers=2, num_decoder_layers=2)
        self.model = TransformerModel(self.cfg, seed=seed)
        t0 = time.perf_counter()
        corpus = SyntheticTranslationCorpus(self.cfg.vocab_size, max_len=64,
                                            seed=seed)
        self.pairs = corpus.sample(64 if quick else 512)
        t1 = time.perf_counter()
        self.mt_batches = batch_by_tokens(self.pairs, 512, shuffle_seed=seed)
        t2 = time.perf_counter()
        self.data_log = {"sample": [t1 - t0], "batching": [t2 - t1]}
        self.batches = [b.as_tuple() for b in self.mt_batches]
        self.block_steps = len(self.batches)
        mid = sorted(self.mt_batches, key=lambda b: b.max_len)[
            len(self.batches) // 2]
        self.modal_shape = (mid.batch_size, mid.max_len)
        self.trainer = make_trainer("lightseq", self.model, OptimizerSpec(),
                                    DynamicLossScaler())
        self.arena = ActivationArena()
        self.arenas = [self.arena]
        self.model.set_arena(self.arena)
        self._stream = itertools.cycle(self.batches)
        for _ in range(2 if quick else 8):
            train_step(self.model, self.trainer, self.next_batch(),
                       arena=self.arena)

    def next_batch(self):
        return next(self._stream)

    def step(self, batch):
        return train_step(self.model, self.trainer, batch, arena=self.arena)

    def traced_step(self, batch, log, dev, step_id):
        return _eager_traced_step(self.model, self.trainer, self.arena,
                                  batch, log, dev, step_id)

    def pad_share(self):
        slots = sum(a.size for b in self.batches for a in b[:2])
        pad = sum(int((a == self.cfg.padding_idx).sum())
                  for b in self.batches for a in b[:2])
        return pad / slots

    def distinct_shapes(self):
        return len({(b[0].shape, b[1].shape) for b in self.batches})


class BertTinyReplay(Workload):
    name = "bert_tiny_replay"
    block_steps = 300
    nominal_steps_per_s = 250.0
    # captured programs are valid for one process-wide parameter link epoch,
    # and the replay counters are process-wide: building a second trainer
    # would invalidate this engine's programs and muddle its counts
    exclusive = True
    SHAPES = ((4, 16), (2, 8), (4, 8))

    @staticmethod
    def config() -> LSConfig:
        # ReLU, not BERT's tanh-GELU: pre**3 + tanh would be ~45 % of this
        # step and bury the dispatch signal the workload exists to expose
        return get_config(
            "bert-base", max_batch_tokens=64, max_seq_len=16, hidden_dim=32,
            nhead=4, ffn_dim=64, vocab_size=512, num_encoder_layers=6,
            activation="relu")

    @classmethod
    def make_pool(cls, seed: int) -> list:
        """Eight batches per shape, cycled shape by shape; the label is a
        function of the [CLS] token so the loss has something to learn."""
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(8):
            for shape in cls.SHAPES:
                tokens = rng.integers(1, 512, shape)
                pool.append((tokens, tokens[:, 0] % 2))
        return pool

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.cfg = self.config()
        if quick:
            self.block_steps = 60
        self.modal_shape = self.SHAPES[0]
        self.model = BertModel(self.cfg, seed=seed)
        self.trainer = make_trainer("lightseq", self.model, OptimizerSpec())
        self.arena = ActivationArena()
        self.arenas = [self.arena]
        self.engine = CaptureReplayEngine(self.model, self.trainer,
                                          self.arena)
        t0 = time.perf_counter()
        self.pool = self.make_pool(seed)
        self.data_log = {"sample": [time.perf_counter() - t0]}
        self._stream = itertools.cycle(self.pool)
        counters = replay_counters()
        self.setup_base = counters.snapshot()
        #: wall seconds of the warm-up steps that sealed a program.
        self.capture_seconds: List[float] = []
        for _ in range(30 if quick else 200):
            captures = counters.captures
            t0 = time.perf_counter()
            self.engine.step(self.next_batch())
            if counters.captures > captures:
                self.capture_seconds.append(time.perf_counter() - t0)
        self.timed_base = counters.snapshot()

    def next_batch(self):
        return next(self._stream)

    def step(self, batch):
        return self.engine.step(batch)

    def traced_step(self, batch, log, dev, step_id):
        trainer = self.trainer
        with log.span(STEP, step_id):
            with log.span("trainer.zero_grad"):
                trainer.zero_grad()
            with log.span("engine.forward_backward"):
                loss, ntok = self.engine.forward_backward(*batch,
                                                          grad_scale=1.0)
            with log.span("trainer.step"):
                applied = trainer.step(grad_scale=1.0 / max(ntok, 1))
        return StepResult(loss=loss, num_tokens=ntok, applied=applied)

    def distinct_shapes(self):
        return len(self.SHAPES)

    def check(self):
        timed = replay_counters().since(self.timed_base)
        bad = []
        if timed.eager_fallbacks or timed.invalidations:
            bad.append(f"replay left steady state in the timed window: "
                       f"{timed.eager_fallbacks} eager fallbacks, "
                       f"{timed.invalidations} invalidations")
        return bad


class GPTLongTiled(Workload):
    name = "gpt_long_tiled"
    block_steps = 5
    nominal_steps_per_s = 5.5

    @staticmethod
    def config(**overrides) -> LSConfig:
        # ReLU for the same isolation reason as bert_tiny_replay
        kw = dict(max_batch_tokens=1024, max_seq_len=1024, hidden_dim=128,
                  nhead=4, ffn_dim=512, vocab_size=2048,
                  num_decoder_layers=2, activation="relu",
                  attn_impl="tiled", attn_tile_q=128, attn_tile_k=128)
        kw.update(overrides)
        return get_config("gpt2-small", **kw)

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.cfg = self.config()
        if quick:
            self.block_steps = 2
        self.modal_shape = (1, 1024)
        self.model = GPTModel(self.cfg, seed=seed)
        self.trainer = make_trainer("lightseq", self.model, OptimizerSpec())
        self.arena = ActivationArena()
        self.arenas = [self.arena]
        self.model.set_arena(self.arena)
        self.corpus = SyntheticLMCorpus(self.cfg.vocab_size, block_len=1024,
                                        seed=seed)
        self.data_log = {"sample": []}
        for _ in range(1 if quick else 3):
            train_step(self.model, self.trainer, self.next_batch(),
                       arena=self.arena)

    def next_batch(self):
        t0 = time.perf_counter()
        batch = self.corpus.sample_batch(1)
        self.data_log["sample"].append(time.perf_counter() - t0)
        return batch

    def step(self, batch):
        return train_step(self.model, self.trainer, batch, arena=self.arena)

    def traced_step(self, batch, log, dev, step_id):
        return _eager_traced_step(self.model, self.trainer, self.arena,
                                  batch, log, dev, step_id)


class GPTDdp2Zero1Ckpt(Workload):
    name = "gpt_ddp2_zero1_ckpt"
    block_steps = 10            # one checkpoint interval
    nominal_steps_per_s = 4.2
    WORLD = 2
    BLOCKS, BLOCK_LEN = 16, 64

    @staticmethod
    def config() -> LSConfig:
        return get_config(
            "gpt2-small", max_batch_tokens=1024, max_seq_len=64,
            hidden_dim=128, nhead=4, ffn_dim=512, vocab_size=4096,
            num_decoder_layers=2)

    def make_dp(self) -> DataParallel:
        return DataParallel(lambda: GPTModel(self.cfg, seed=self.seed),
                            self.WORLD, "lightseq", OptimizerSpec(),
                            zero1=True, overlap_grad_sync=True)

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        self.cfg = self.config()
        if quick:
            self.block_steps = 3
        self.modal_shape = (self.BLOCKS // self.WORLD, self.BLOCK_LEN)
        self.dp = self.make_dp()
        self.corpus = SyntheticLMCorpus(self.cfg.vocab_size,
                                        block_len=self.BLOCK_LEN, seed=seed)
        self.dir = _work_dir("ddp-")
        # no provenance header: it shells out to git, which is not the
        # per-step JSONL emission this workload is here to include
        self.metrics = MetricsRecorder(str(self.dir / "metrics.jsonl"),
                                       provenance=False)
        self.store = CheckpointStore(self.dir / "ckpt", keep=2)
        self.save_seconds: List[float] = []
        self.data_log = {"sample": [], "batching": []}
        for _ in range(1 if quick else 5):
            self.dp.train_step(self.next_batch())

    def next_batch(self):
        t0 = time.perf_counter()
        arrays = self.corpus.sample_batch(self.BLOCKS)
        t1 = time.perf_counter()
        shards = shard_batch(arrays, self.WORLD)
        self.data_log["sample"].append(t1 - t0)
        self.data_log["batching"].append(time.perf_counter() - t1)
        return shards

    def step(self, batch):
        loss, ntok = self.dp.train_step(batch)
        return StepResult(loss=loss, num_tokens=ntok, applied=True)

    def traced_step(self, batch, log, dev, step_id):
        # the ZeRO-1 update has no public sub-calls: span the step whole,
        # the per-replica / sync / collective split is timed on a twin
        with log.span(STEP, step_id):
            with log.span("dp.train_step"):
                loss, ntok = self.dp.train_step(batch)
        return StepResult(loss=loss, num_tokens=ntok, applied=True)

    def save(self) -> None:
        t0 = time.perf_counter()
        self.store.save(self.dp.replicas[0], self.dp.trainers[0],
                        step=self.steps_done)
        self.save_seconds.append(time.perf_counter() - t0)

    def after_step(self, res, wall_s, log=None):
        self.steps_done += 1
        log = log or NO_LOG
        with log.span("obs.observe_step", self.steps_done):
            self.metrics.observe_step(self.steps_done, res.loss,
                                      res.num_tokens, wall_s)
        if self.steps_done % self.block_steps == 0:
            with log.span("ckpt.save", self.steps_done):
                self.save()

    def trainers(self):
        return list(self.dp.trainers)

    def checkpoint_bytes(self) -> int:
        latest = self.store.steps()[-1]
        paths = self.store.paths(latest)
        return sum(p.stat().st_size for p in paths.values())

    def check(self):
        """Replicas in sync; the latest checkpoint validates and restores a
        fresh rank-0 twin bitwise (params, Adam moments, step count).  The
        validate / resume_auto timings are kept for ``ckpt.*``."""
        bad = []
        self.in_sync = self.dp.parameters_in_sync()
        if not self.in_sync:
            bad.append("replicas diverged: parameters_in_sync() is False")
        # the state the twin must equal (not one of the window's saves)
        self.store.save(self.dp.replicas[0], self.dp.trainers[0],
                        step=self.steps_done)
        t0 = time.perf_counter()
        problems = self.store.validate(self.store.steps()[-1])
        self.validate_s = time.perf_counter() - t0
        if problems:
            bad.append(f"latest checkpoint invalid: {problems}")
        model = GPTModel(self.cfg, seed=self.seed)
        trainer = make_trainer("zero1", model, OptimizerSpec(), rank=0,
                               world_size=self.WORLD)
        t0 = time.perf_counter()
        manifest = self.store.resume_auto(model, trainer)
        self.resume_s = time.perf_counter() - t0
        ref_model, ref_trainer = self.dp.replicas[0], self.dp.trainers[0]
        same = (manifest is not None
                and trainer.step_count == ref_trainer.step_count
                and np.array_equal(trainer.m, ref_trainer.m)
                and np.array_equal(trainer.v, ref_trainer.v)
                and all(np.array_equal(a.data, b.data) for a, b in
                        zip(model.parameters(), ref_model.parameters())))
        if not same:
            bad.append("resume_auto twin differs from the live replica")
        return bad

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (MTFp16Eager, BertTinyReplay, GPTLongTiled, GPTDdp2Zero1Ckpt)}


def traced_step_count(cls, seconds: float) -> int:
    """Fixed step count of the traced pass (and its untraced twin): about a
    quarter of ``--seconds`` each at the nominal rate, between 2 and 300, in
    whole blocks (checkpoint intervals) once there is room for one.
    A function of the arguments only, so counts repeat on any host."""
    n = min(300, max(2, round(0.25 * seconds * cls.nominal_steps_per_s)))
    if n >= cls.block_steps:
        n -= n % cls.block_steps
    return n

