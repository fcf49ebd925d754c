"""Tests for Linear, Conv2d, BatchNorm, pooling, activations, containers."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.tensor import Tensor, no_grad
from repro.tensor.engine import apply, apply_ctx
from repro.tensor.gradcheck import numerical_gradient


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1
        out = layer(Tensor(np.zeros((2, 5))))
        np.testing.assert_allclose(out.numpy(), 0.0)

    def test_matches_manual_affine(self, rng):
        layer = Linear(4, 2, rng=rng)
        x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).numpy(), expected, rtol=1e-5)

    def test_deterministic_init_with_seed(self):
        a = Linear(4, 4, rng=np.random.default_rng(3))
        b = Linear(4, 4, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestConv2d:
    def test_output_shape_stride_padding(self, rng):
        conv = Conv2d(3, 8, kernel_size=3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_rejects_non_nchw(self, rng):
        conv = Conv2d(3, 8, 3, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(np.zeros((3, 8, 8))))

    def test_identity_kernel_preserves_input(self, rng):
        conv = Conv2d(1, 1, kernel_size=1, bias=False, rng=rng)
        conv.weight.data = np.ones((1, 1), dtype=np.float32)
        x = np.random.default_rng(0).normal(size=(1, 1, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(conv(Tensor(x)).numpy(), x, rtol=1e-6)

    def test_input_gradient_matches_numerical(self, rng):
        conv = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng)
        conv.weight.data = conv.weight.data.astype(np.float64)
        conv.bias.data = conv.bias.data.astype(np.float64)
        x = np.random.default_rng(1).normal(size=(2, 2, 5, 5))
        xt = Tensor(x.copy(), requires_grad=True)
        conv(xt).sum().backward()
        numerical = numerical_gradient(lambda t: conv(t), [x], 0)
        np.testing.assert_allclose(xt.grad, numerical, atol=1e-4)

    def test_weight_gradient_matches_numerical(self, rng):
        conv = Conv2d(1, 2, kernel_size=2, stride=2, padding=0, bias=False, rng=rng)
        conv.weight.data = conv.weight.data.astype(np.float64)
        x = np.random.default_rng(2).normal(size=(1, 1, 4, 4))
        conv(Tensor(x)).sum().backward()
        w0 = conv.weight.data.copy()

        def as_function_of_weight(wt):
            conv.weight.data = wt.numpy()
            result = conv(Tensor(x))
            conv.weight.data = w0
            return result

        numerical = numerical_gradient(as_function_of_weight, [w0], 0)
        np.testing.assert_allclose(conv.weight.grad, numerical, atol=1e-4)


class TestBatchNorm:
    def test_train_normalizes_batch(self, rng):
        bn = BatchNorm1d(4)
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(64, 4))
        out = bn(Tensor(x)).numpy()
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm1d(2)
        x = np.random.default_rng(0).normal(loc=2.0, size=(100, 2))
        bn(Tensor(x))
        # One EMA step at momentum 0.1 from mean 0 / variance 1, with the
        # unbiased batch variance.
        mean = 0.1 * x.mean(axis=0)
        var = 0.9 + 0.1 * x.var(axis=0, ddof=1)
        np.testing.assert_allclose(bn.running_mean, mean, rtol=1e-5)
        np.testing.assert_allclose(bn.running_var, var, rtol=1e-5)
        bn.eval()
        out = bn(Tensor(x)).numpy()
        np.testing.assert_allclose(out, (x - mean) / np.sqrt(var + 1e-5),
                                   rtol=1e-4, atol=1e-5)

    def test_2d_normalizes_per_channel(self):
        bn = BatchNorm2d(3)
        x = np.random.default_rng(0).normal(loc=1.0, size=(8, 3, 4, 4))
        out = bn(Tensor(x)).numpy()
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            BatchNorm1d(3)(Tensor(np.zeros((2, 3, 4))))
        with pytest.raises(ValueError):
            BatchNorm2d(3)(Tensor(np.zeros((2, 3))))

    def test_running_stats_update_only_in_train(self):
        bn = BatchNorm1d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(Tensor(np.full((10, 2), 7.0)))
        np.testing.assert_array_equal(bn.running_mean, before)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(Tensor(x)).numpy()
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_pool_gradients_match_numerical(self):
        x = np.random.default_rng(0).normal(size=(2, 2, 4, 4))
        pool = MaxPool2d(2)
        xt = Tensor(x.copy(), requires_grad=True)
        pool(xt).sum().backward()
        numerical = numerical_gradient(pool, [x], 0)
        np.testing.assert_allclose(xt.grad, numerical, atol=1e-4)

    def test_indivisible_size_raises(self):
        with pytest.raises(ValueError):
            MaxPool2d(3)(Tensor(np.zeros((1, 1, 4, 4))))

    @pytest.mark.parametrize("op,layer", [("maxpool2d", "MaxPool2d")])
    def test_ops_reject_indivisible_size(self, op, layer):
        """The check lives in the op, so direct dispatch gets it too."""
        with pytest.raises(ValueError,
                           match=rf"{layer}\(3\) needs H, W divisible by 3, "
                                 rf"got \(4, 4\)"):
            apply(op, Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)),
                  kernel=3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_ties_split_the_gradient(self, dtype):
        # Left window: all four cells tie.  Right window: two maxima.
        x = np.array([[[[3, 3, 1, 5],
                        [3, 3, 5, 2]]]], dtype=dtype)
        xt = Tensor(x, requires_grad=True)
        out = MaxPool2d(2)(xt)
        np.testing.assert_array_equal(out.numpy(), [[[[3, 5]]]])
        out.backward(np.array([[[[2.0, 6.0]]]], dtype=dtype))
        assert xt.grad.dtype == dtype
        np.testing.assert_array_equal(xt.grad, [[[[0.5, 0.5, 0.0, 3.0],
                                                  [0.5, 0.5, 3.0, 0.0]]]])

    def test_maxpool_without_grad_builds_no_tie_weights(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
        with no_grad():
            _, ctx = apply_ctx("maxpool2d", Tensor(x, requires_grad=True),
                               kernel=2)
        assert not hasattr(ctx, "ties")
        _, ctx = apply_ctx("maxpool2d", Tensor(x), kernel=2)
        assert not hasattr(ctx, "ties")
        _, ctx = apply_ctx("maxpool2d", Tensor(x, requires_grad=True), kernel=2)
        hits, count = ctx.ties  # the tie masks as bools, and their count
        assert hits.dtype == np.bool_ and hits.shape == (4, 2, 3, 2, 2)
        assert count.dtype == np.uint8 and (count >= 1).all()

    def test_global_avg_pool(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        out = GlobalAvgPool2d()(Tensor(x)).numpy()
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-6)


class TestActivationsAndContainers:
    def test_activation_layers_forward(self):
        x = Tensor(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(ReLU()(x).numpy(), [0.0, 2.0])

    def test_sequential_order_and_indexing(self, rng):
        seq = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        assert len(seq) == 3
        assert isinstance(seq[1], ReLU)
        out = seq(Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 2)
