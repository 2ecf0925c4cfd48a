"""Device: trace recording, stage scoping, device stack."""

import threading

import numpy as np
import pytest

from repro.backend.device import (NULL_DEVICE, Device, KernelLaunch,
                                  current_device, use_device)


def test_null_device_when_inactive():
    assert current_device() is NULL_DEVICE
    # recording on the null device is a silent no-op
    current_device().record("x", 1, 1, family="elementwise")
    assert NULL_DEVICE.launches == []


def test_use_device_nesting():
    d1, d2 = Device("a"), Device("b")
    with use_device(d1):
        assert current_device() is d1
        with use_device(d2):
            assert current_device() is d2
        assert current_device() is d1
    assert current_device() is NULL_DEVICE


def test_record_and_totals():
    d = Device(lib="pytorch")
    with use_device(d):
        d.record("k1", 10, 5, flops=7, family="elementwise")
        d.record("k2", 2, 2, flops=3, dtype_bytes=2, family="gemm")
    assert d.launch_count() == 2
    # bytes: (10+5)*4 + (2+2)*2
    assert d.total_bytes() == 60 + 8
    assert d.launches[0].lib == "pytorch"


def test_stage_scoping():
    d = Device()
    with use_device(d):
        d.record("fwd_k", 1, 1, family="elementwise")
        with d.stage_scope("backward"):
            d.record("bwd_k", 1, 1, family="elementwise")
            with d.stage_scope("update"):
                d.record("upd_k", 1, 1, family="elementwise")
            d.record("bwd_k2", 1, 1, family="elementwise")
    stages = [k.stage for k in d.launches]
    assert stages == ["forward", "backward", "update", "backward"]
    assert d.launch_count("backward") == 2


def test_stage_validation():
    d = Device()
    with pytest.raises(ValueError):
        with d.stage_scope("nonsense"):
            pass


def test_lib_validation():
    with pytest.raises(ValueError):
        Device(lib="jax")


def test_kernel_launch_byte_properties():
    k = KernelLaunch("k", elems_read=3, elems_written=2, dtype_bytes=2,
                     family="elementwise")
    assert k.bytes_read == 6
    assert k.bytes_written == 4
    assert k.bytes_moved == 10


def test_reset():
    d = Device()
    d.record("k", 1, 1, family="elementwise")
    d.reset()
    assert d.launches == []


def test_trace_disabled():
    d = Device(trace=False)
    d.record("k", 1, 1, family="elementwise")
    assert d.launches == []


def test_thread_local_stack():
    """Each thread has its own active-device stack."""
    d_main = Device("main")
    seen = {}

    def worker():
        seen["inner"] = current_device()

    with use_device(d_main):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["inner"] is NULL_DEVICE
