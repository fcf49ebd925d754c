"""Op-registry engine tests: dispatch, registration, buffer-reuse backward,
and the float32 dtype policy.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, ops
from repro.tensor import engine
from repro.tensor.engine import Context, Op, apply, apply_ctx, get_op, registered_ops


class TestRegistry:
    def test_core_primitives_are_registered(self):
        names = set(registered_ops())
        for expected in ("add", "sub", "mul", "div", "matmul", "sum", "max",
                         "relu", "exp", "log", "reshape", "getitem",
                         "linear", "mlp", "l2normalize", "cosine_rows",
                         "normalized_mse", "conv_stage", "conv2d",
                         "maxpool2d"):
            assert expected in names, expected

    def test_get_op_unknown_name_raises_with_known_ops(self):
        with pytest.raises(KeyError, match="known ops"):
            get_op("definitely_not_an_op")

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="already registered"):
            @engine.register
            class DuplicateAdd(Op):
                name = "add"

    def test_register_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            @engine.register
            class Nameless(Op):
                pass

    def test_custom_op_dispatches_through_apply(self):
        @engine.register
        class TripleOp(Op):
            name = "test_triple"

            @staticmethod
            def forward(ctx, a):
                return 3.0 * a

            @staticmethod
            def backward(ctx, grad):
                return (3.0 * grad,)

        x = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        out = apply("test_triple", x)
        out.sum().backward()
        np.testing.assert_allclose(out.data, [3.0, 6.0])
        np.testing.assert_allclose(x.grad, [3.0, 3.0])

    def test_apply_coerces_raw_arrays(self):
        out = apply("add", np.ones(3, dtype=np.float32), 2.0)
        np.testing.assert_allclose(out.data, 3.0)
        assert not out.requires_grad
        assert out._parents == ()

    def test_apply_unknown_op_raises_with_known_ops_hint(self):
        # dispatch goes through get_op, not a bare _REGISTRY[name]: a typo
        # must produce the curated error, not an opaque KeyError
        with pytest.raises(KeyError, match="known ops"):
            apply("definitely_not_an_op", np.ones(2, dtype=np.float32))

    def test_apply_ctx_unknown_op_raises_with_known_ops_hint(self):
        with pytest.raises(KeyError, match="known ops"):
            apply_ctx("definitely_not_an_op", np.ones(2, dtype=np.float32))


class TestContext:
    def test_needs_input_grad_mirrors_requires_grad(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(2, dtype=np.float32))
        _out, ctx = apply_ctx("mul", a, b)
        assert ctx.needs_input_grad == (True, False)

    def test_needs_input_grad_all_false_under_no_grad(self):
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with engine.no_grad():
            out, ctx = apply_ctx("relu", a)
        assert ctx.needs_input_grad == (False,)
        assert not out.requires_grad

    def test_no_grad_path_releases_saved_activations(self):
        # nothing will run backward through this node, so whatever forward
        # stashed on the context must be dropped immediately
        a = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)
        with engine.no_grad():
            _out, ctx = apply_ctx("relu", a)
        assert ctx.saved == ()

    def test_non_grad_inputs_release_saved_activations(self):
        # same release when no input requires grad at all (eval passes)
        a = Tensor(np.ones((4, 4), dtype=np.float32))
        b = Tensor(np.ones((4, 4), dtype=np.float32))
        _out, ctx = apply_ctx("mul", a, b)
        assert ctx.saved == ()

    def test_grad_path_keeps_saved_activations(self):
        a = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((4, 4), dtype=np.float32))
        _out, ctx = apply_ctx("mul", a, b)
        assert ctx.saved != ()

    def test_saved_arrays_are_eager(self):
        # rebinding the input's .data after taping must not change backward
        a = Tensor(np.array([2.0, 3.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([4.0, 5.0], dtype=np.float32), requires_grad=True)
        out = a * b
        grads_expected = (b.data.copy(), a.data.copy())
        out.sum().backward()
        np.testing.assert_allclose(a.grad, grads_expected[0])
        np.testing.assert_allclose(b.grad, grads_expected[1])

    def test_version_counter_still_detects_rebind(self):
        a = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        out = a * a
        a.data = np.array([9.0], dtype=np.float32)
        with pytest.raises(RuntimeError, match="modified after the forward pass"):
            out.backward(np.ones(1, dtype=np.float32))


class TestBufferReuseBackward:
    def test_grad_identity_stable_across_steps_with_fill_zero(self):
        w = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        (x @ w).sum().backward()
        first = w.grad
        assert first is not None
        w.zero_grad(set_to_none=False)
        np.testing.assert_allclose(w.grad, 0.0)
        assert w.grad is first  # same buffer
        (x @ w).sum().backward()
        assert w.grad is first  # accumulated in place
        np.testing.assert_allclose(w.grad, 2.0)

    def test_zero_grad_set_to_none_drops_buffer(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (w * 2.0).sum().backward()
        w.zero_grad()
        assert w.grad is None

    def test_repeated_backward_accumulates(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (w * 2.0).sum().backward()
        (w * 2.0).sum().backward()
        np.testing.assert_allclose(w.grad, 4.0)

    def test_diamond_graph_accumulation_is_correct(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        y = x * 2.0
        z = y + y * y  # y used twice: diamond
        z.backward(np.ones(1, dtype=np.float32))
        # dz/dx = dz/dy * dy/dx = (1 + 2y) * 2 = (1 + 12) * 2
        np.testing.assert_allclose(x.grad, [26.0])

    def test_duplicate_parent_accumulates_both_contributions(self):
        x = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        out = x * x
        out.backward(np.ones(1, dtype=np.float32))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_leaf_grad_not_aliased_to_op_internals(self):
        # the gradient buffer donated to .grad must be private: mutating it
        # must not corrupt another tensor's gradient
        a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        a.grad[:] = 99.0
        np.testing.assert_allclose(b.grad, 1.0)

    def test_backward_grad_not_aliased_to_seed(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        seed = np.ones(3, dtype=np.float32)
        x.backward(seed)
        x.grad[:] = 7.0
        np.testing.assert_allclose(seed, 1.0)

    def test_module_and_optimizer_zero_grad_keep_buffers(self):
        from repro.nn.linear import Linear
        from repro.optim import SGD

        layer = Linear(4, 3, rng=np.random.default_rng(0))
        opt = SGD(layer.parameters(), lr=0.1)
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        layer(x).sum().backward()
        buffers = [p.grad for p in layer.parameters()]
        assert all(b is not None for b in buffers)
        opt.zero_grad(set_to_none=False)
        for p, buf in zip(layer.parameters(), buffers):
            assert p.grad is buf
            np.testing.assert_allclose(buf, 0.0)
        layer(x).sum().backward()
        for p, buf in zip(layer.parameters(), buffers):
            assert p.grad is buf


class TestDtypePolicy:
    def test_float32_graph_stays_float32(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        out = ops.l2_normalize(ops.relu(x * 2.0 + 1.0), axis=1)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_weak_float64_scalar_cannot_upcast(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = x * np.float64(0.5)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_python_float_scalar_is_weak(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert (x + 1.0).dtype == np.float32
        assert (1.0 / x).dtype == np.float32
        assert (x ** 2).dtype == np.float32

    def test_strong_float64_input_promotes_for_gradcheck(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        out = (x * 2.0).sum()
        assert out.dtype == np.float64
        out.backward()
        assert x.grad.dtype == np.float64

    def test_leaf_grad_pinned_to_leaf_dtype(self):
        x32 = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y64 = Tensor(np.full(3, 2.0, dtype=np.float64))
        (x32 * y64).sum().backward()
        assert x32.grad.dtype == np.float32

    def test_training_step_produces_no_float64(self):
        from repro.nn.mlp import MLP

        model = MLP([4, 8, 4], batch_norm=True, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(6, 4)).astype(np.float32))
        out = model(x)
        assert out.dtype == np.float32
        out.sum().backward()
        for p in model.parameters():
            assert p.grad.dtype == np.float32, p.shape
