"""Unit tests for the Tensor class: construction, arithmetic, backward."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float32

    def test_preserves_float64(self):
        t = Tensor(np.ones(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_promotes_int_array(self):
        t = Tensor(np.arange(4))
        assert t.dtype == np.float32

    def test_item_scalar(self):
        assert Tensor(5.0).item() == pytest.approx(5.0)

    def test_item_nonscalar_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0, 2.0]).item()

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_scalar_radd(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.numpy(), [2.0])

    def test_sub_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).numpy(), [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).numpy(), [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).numpy(), [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 2.0).numpy(), [3.0])
        np.testing.assert_allclose((6.0 / Tensor([2.0])).numpy(), [3.0])

    def test_neg_pow(self):
        np.testing.assert_allclose((-Tensor([2.0])).numpy(), [-2.0])
        np.testing.assert_allclose((Tensor([2.0]) ** 3).numpy(), [8.0])

    def test_pow_tensor_exponent_raises(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).numpy(), b.numpy())

    def test_comparisons_return_numpy(self):
        mask = Tensor([1.0, 3.0]) > Tensor([2.0, 2.0])
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [False, True])


class TestBackward:
    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3.0 + 1.0) ** 2
        y.backward()
        # dy/dx = 2 * (3x + 1) * 3 = 42 at x=2
        np.testing.assert_allclose(x.grad, [42.0])

    def test_diamond_graph_accumulates_once(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        out = a + a
        out.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward(np.ones(1))
        (x * 2.0).backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_broadcast_add_grad(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, 3 * np.ones(4))

    def test_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((3, 1)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad.shape == (3, 1)
        np.testing.assert_allclose(a.grad, 4 * np.ones((3, 1)))

    def test_detach_blocks_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        z = y.detach() * x
        z.backward()
        # d/dx (const * x) = const = 6; no second-order path through y
        np.testing.assert_allclose(x.grad, [6.0])

    def test_detach_shares_data(self):
        x = Tensor([1.0], requires_grad=True)
        d = x.detach()
        assert d.numpy() is x.numpy()
        assert not d.requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward(np.ones(1))
        x.zero_grad()
        assert x.grad is None


class TestNoGrad:
    def test_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6, dtype=np.float32), requires_grad=True)
        y = x.reshape(2, 3).reshape(6)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4)))
        assert x.T.shape == (4, 3, 2)

    def test_getitem_grad_scatters(self):
        x = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        idx = np.array([0, 0, 1])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        np.testing.assert_allclose(x.sum(axis=0).numpy(), [3.0, 5.0, 7.0])

    def test_mean_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(4, 5))
        t = Tensor(data)
        np.testing.assert_allclose(t.mean(axis=1).numpy(), data.mean(axis=1), rtol=1e-6)

    def test_max_min(self):
        x = Tensor([[1.0, 5.0], [3.0, 2.0]])
        np.testing.assert_allclose(x.max(axis=0).numpy(), [3.0, 5.0])
        # A min is the negated max of the negation.
        np.testing.assert_allclose((-(-x).max(axis=1)).numpy(), [1.0, 2.0])

    def test_max_ties_split_gradient(self):
        x = Tensor([2.0, 2.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5])
