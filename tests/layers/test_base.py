"""Layer/Parameter base machinery."""

import warnings

import numpy as np
import pytest

from repro.layers.base import Layer, Parameter, widened


class TestParameter:
    def test_storage_precision(self, rng):
        v = rng.standard_normal((3, 4)).astype(np.float32)
        p16 = Parameter("p", v, fp16=True)
        p32 = Parameter("p", v, fp16=False)
        assert p16.data.dtype == np.float16
        assert p32.data.dtype == np.float32
        assert p16.grad.dtype == np.float16
        assert p16.shape == (3, 4) and p16.size == 12

    def test_compute_widens(self, rng):
        p = Parameter("p", rng.standard_normal(4).astype(np.float32),
                      fp16=True)
        assert p.compute().dtype == np.float32

    def test_accumulate_grad_shape_check(self, rng):
        p = Parameter("p", np.zeros((2, 2), np.float32))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.zeros(3, np.float32))

    def test_accumulate_adds(self):
        p = Parameter("p", np.zeros(3, np.float32))
        p.accumulate_grad(np.ones(3, np.float32))
        p.accumulate_grad(np.ones(3, np.float32))
        np.testing.assert_array_equal(p.grad, 2.0)
        p.zero_grad()
        assert not p.grad.any()

    def test_link_shape_check(self):
        p = Parameter("p", np.zeros((2, 3), np.float32))
        with pytest.raises(ValueError):
            p.link(np.zeros((3, 2), np.float32),
                   np.zeros((3, 2), np.float32))


#: contributions whose first landing must keep the add-only bits: zeros of
#: both signs, values an FP16 narrowing flushes to -0, and overflow
_EDGES = np.array([-0.0, 0.0, -1e-10, 1e-10, -3e-8, 1.0, -2.5, 6e-5, 7e4,
                   -7e4, np.inf, -np.inf], np.float32)


class TestWriteFirst:
    @pytest.mark.parametrize("fp16", [True, False])
    def test_first_contribution_after_a_clear_has_add_only_bits(self, fp16):
        p = Parameter("p", np.zeros(_EDGES.size, np.float32), fp16=fp16)
        p.zero_grad()
        assert p.grad_fresh
        with np.errstate(over="ignore"):
            want = np.zeros_like(p.grad) + _EDGES.astype(p.grad.dtype)
        p.accumulate_grad(_EDGES)
        assert not p.grad_fresh
        assert p.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fresh", [True, False])
    def test_rows_touch_only_the_indexed_rows(self, fresh):
        p = Parameter("t", np.zeros((6, 2), np.float32), fp16=True)
        p.zero_grad()
        if not fresh:
            p.accumulate_grad(np.full((6, 2), 0.5, np.float32))
        g = np.zeros((6, 2), np.float32)
        g[[1, 4]] = [[1.0, -0.0], [-1e-10, 3.0]]
        want = p.grad.copy()
        with np.errstate(over="ignore"):
            want += g.astype(np.float16)
        p.accumulate_grad(g, rows=np.array([[4, 1], [4, 4]]))
        assert p.grad.tobytes() == want.tobytes()

    def test_fp16_overflow_still_lands_as_inf_and_skips_the_step(
            self, tiny_config_fp16):
        """The narrowing write overflows to inf silently, as the add does,
        so the loss scaler sees it and skips the update."""
        from repro.models import TransformerModel
        from repro.precision import DynamicLossScaler
        from repro.training import OptimizerSpec, make_trainer
        model = TransformerModel(tiny_config_fp16, seed=0)
        trainer = make_trainer("lightseq", model, OptimizerSpec(),
                               DynamicLossScaler(init_scale=4.0))
        before = trainer.workspace.params.copy()
        trainer.zero_grad()
        p = next(model.parameters())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p.accumulate_grad(np.full(p.shape, 1e6, np.float32))
        assert np.isposinf(p.grad).all()
        assert not trainer.step()
        assert trainer.skipped_steps == 1
        assert trainer.workspace.params.tobytes() == before.tobytes()


class TestWidened:
    def test_pass_widens_once_and_always_ends(self):
        p = Parameter("p", np.ones(3, np.float32), fp16=True)
        with pytest.raises(RuntimeError):
            with widened([p]):
                buf = p.compute()
                p.data[...] = 2                 # not read back inside
                assert p.compute() is buf and (buf == 1).all()
                raise RuntimeError("pass failed")
        assert (p.compute() == 2).all()         # outside: widened again


class TestLayer:
    def test_duplicate_param_rejected(self, tiny_config):
        layer = Layer(tiny_config, name="l")
        layer.add_param("w", np.zeros(2, np.float32))
        with pytest.raises(ValueError):
            layer.add_param("w", np.zeros(2, np.float32))

    def test_duplicate_sublayer_rejected(self, tiny_config):
        layer = Layer(tiny_config, name="l")
        layer.add_sublayer("s", Layer(tiny_config, name="s"))
        with pytest.raises(ValueError):
            layer.add_sublayer("s", Layer(tiny_config, name="s2"))

    def test_parameters_depth_first_deterministic(self, tiny_config):
        root = Layer(tiny_config, name="root")
        root.add_param("a", np.zeros(1, np.float32))
        child = root.add_sublayer("c", Layer(tiny_config, name="c"))
        child.add_param("b", np.zeros(2, np.float32))
        names = [p.name for p in root.parameters()]
        assert names == ["root.a", "c.b"]
        assert root.num_parameters() == 3

    def test_train_eval_propagates(self, tiny_config):
        root = Layer(tiny_config, name="root")
        child = root.add_sublayer("c", Layer(tiny_config, name="c"))
        root.train(False)
        assert not child.training
        assert root.dropout_p == 0.0
        root.train()
        assert child.training
        assert root.dropout_p == tiny_config.dropout

    def test_saved_bookkeeping(self, tiny_config, rng):
        layer = Layer(tiny_config, name="l")
        with pytest.raises(RuntimeError, match="backward before forward"):
            layer.saved("x")
        x = rng.standard_normal((4, 4)).astype(np.float32)
        layer.save(x=x)
        assert layer.saved("x") is x
        assert layer.saved_nbytes() == x.nbytes
        layer.clear_saved()
        assert layer.saved_nbytes() == 0

    def test_same_seed_same_rng_stream(self, tiny_config, rng):
        a = Layer(tiny_config, name="same", seed=7)
        b = Layer(tiny_config, name="same", seed=7)
        np.testing.assert_array_equal(a.rng.random(5), b.rng.random(5))
        c = Layer(tiny_config, name="other", seed=7)
        assert not np.array_equal(a.rng.random(5), c.rng.random(5))
