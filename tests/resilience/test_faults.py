"""Deterministic fault injection: plans, injectors, and armed sites."""

import json

import numpy as np
import pytest

from repro.resilience.faults import (CRASH_STAGES, CollectiveFault,
                                     FaultInjector, FaultPlan, FaultSpec,
                                     current_injector, use_faults)
from repro.sim.comm import (ring_allgather, ring_allreduce,
                            ring_reduce_scatter)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan([
            FaultSpec("comm.allreduce", "drop", step=3),
            FaultSpec("replica.crash", "crash", step=5, rank=2,
                      stage="sync"),
            FaultSpec("comm.straggler", "delay", delay_s=0.25),
            FaultSpec("checkpoint.write", "torn", after=1, fraction=0.3),
        ], seed=11, name="mixed")
        again = FaultPlan.from_json(json.dumps(plan.as_dict()))
        assert again == plan
        assert again.digest() == plan.digest()

    def test_digest_stable_and_seed_sensitive(self):
        plan = FaultPlan([FaultSpec("comm.allreduce", "drop")], seed=1)
        assert plan.digest() == plan.digest()
        assert plan.with_seed(2).digest() != plan.digest()
        assert plan.with_seed(2).specs == plan.specs

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("comm.broadcast", "drop")

    def test_wrong_kind_for_site_rejected(self):
        with pytest.raises(ValueError, match="invalid for site"):
            FaultSpec("replica.crash", "drop")

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="fraction"):
            FaultSpec("checkpoint.write", "torn", fraction=1.5)

    def test_bad_stage_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            FaultSpec("replica.crash", "crash", stage="teardown")
        for stage in CRASH_STAGES:
            FaultSpec("replica.crash", "crash", stage=stage)

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{truncated")
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")


class TestFaultInjector:
    def test_step_scoped_firing(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("comm.allreduce", "drop", step=3)]))
        for step in (1, 2):
            inj.begin_step(step)
            assert inj.fire("comm.allreduce") is None
        inj.begin_step(3)
        assert inj.fire("comm.allreduce") is not None
        assert inj.fire("comm.allreduce") is None       # count=1 consumed

    def test_after_targets_nth_opportunity(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("checkpoint.write", "torn", after=2)]))
        assert inj.fire("checkpoint.write") is None     # seq 0
        assert inj.fire("checkpoint.write") is None     # seq 1
        assert inj.fire("checkpoint.write") is not None  # seq 2
        assert inj.fire("checkpoint.write") is None

    def test_rank_scoped_firing(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("replica.crash", "crash", rank=1)]))
        assert inj.fire("replica.crash", rank=0) is None
        assert inj.fire("replica.crash", rank=1) is not None

    def test_count_allows_repeated_firing(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("comm.allreduce", "drop", count=2)]))
        assert inj.fire("comm.allreduce") is not None
        assert inj.fire("comm.allreduce") is not None
        assert inj.fire("comm.allreduce") is None
        assert len(inj.injections) == 2

    def test_reproducible_injection_log(self):
        plan = FaultPlan([FaultSpec("comm.allreduce", "bitflip", count=3)],
                         seed=42)

        def run():
            inj = FaultInjector(plan)
            bufs = [np.ones(16, dtype=np.float32) for _ in range(2)]
            for step in range(1, 4):
                inj.begin_step(step)
                if inj.fire("comm.allreduce"):
                    inj.corrupt_one_bit(bufs)
            return [i.as_dict() for i in inj.injections], bufs

        log_a, bufs_a = run()
        log_b, bufs_b = run()
        assert log_a == log_b
        for a, b in zip(bufs_a, bufs_b):
            np.testing.assert_array_equal(a, b)
        assert any(i["detail"] for i in log_a)          # bit positions logged

    def test_ambient_installation_scoped(self):
        assert current_injector() is None
        inj = FaultInjector(FaultPlan())
        with use_faults(inj):
            assert current_injector() is inj
        assert current_injector() is None


def _bufs(world=3, n=32, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n).astype(np.float32) for _ in range(world)]


class TestArmedCollectives:
    def test_drop_raises_before_mutation(self):
        bufs = _bufs()
        before = [b.copy() for b in bufs]
        inj = FaultInjector(FaultPlan(
            [FaultSpec("comm.allreduce", "drop")]))
        with use_faults(inj):
            with pytest.raises(CollectiveFault, match="drop"):
                ring_allreduce(bufs, average=True)
        for b, ref in zip(bufs, before):                # message never arrived
            np.testing.assert_array_equal(b, ref)

    def test_bitflip_corrupts_exactly_one_bit(self):
        bufs = _bufs()
        clean = [b.copy() for b in bufs]
        ring_allreduce(clean, average=True)
        inj = FaultInjector(FaultPlan(
            [FaultSpec("comm.allreduce", "bitflip")], seed=5))
        with use_faults(inj):
            with pytest.raises(CollectiveFault, match="bitflip"):
                ring_allreduce(bufs, average=True)
        diff_bits = sum(
            int(np.unpackbits(a.view(np.uint8) ^ b.view(np.uint8)).sum())
            for a, b in zip(bufs, clean))
        assert diff_bits == 1

    def test_reduce_scatter_and_allgather_sites(self):
        inj = FaultInjector(FaultPlan(
            [FaultSpec("comm.reduce_scatter", "drop"),
             FaultSpec("comm.allgather", "drop")]))
        with use_faults(inj):
            with pytest.raises(CollectiveFault):
                ring_reduce_scatter(_bufs(), average=True)
            with pytest.raises(CollectiveFault):
                ring_allgather(_bufs())
        assert {i.site for i in inj.injections} == \
            {"comm.reduce_scatter", "comm.allgather"}

    def test_no_injector_means_no_faults(self):
        bufs = _bufs()
        ring_allreduce(bufs, average=True)              # must not raise
        for a, b in zip(bufs[1:], bufs):
            np.testing.assert_array_equal(a, b)
