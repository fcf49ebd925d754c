"""Unit tests for functional ops: values and analytic gradients."""

import numpy as np
import pytest

from repro.tensor import Tensor, ops, check_gradients


RNG = np.random.default_rng(42)


class TestValues:
    def test_exp_log_inverse(self):
        x = RNG.uniform(0.5, 2.0, size=(3, 4))
        out = ops.log(ops.exp(Tensor(x)))
        np.testing.assert_allclose(out.numpy(), x, rtol=1e-5)

    def test_sqrt(self):
        np.testing.assert_allclose(ops.sqrt(Tensor([4.0, 9.0])).numpy(), [2.0, 3.0])

    def test_sigmoid_range(self):
        x = Tensor(RNG.normal(size=100) * 5)
        s = ops.sigmoid(x).numpy()
        assert np.all((s > 0) & (s < 1))

    def test_relu_clamps(self):
        out = ops.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.numpy(), [0.0, 0.0, 2.0])

    def test_softmax_rows_sum_to_one(self):
        # The softmax as the linear probe computes it: exp(log_softmax).
        x = Tensor(RNG.normal(size=(5, 7)))
        rows = np.exp(ops.log_softmax(x, axis=1).numpy()).sum(axis=1)
        np.testing.assert_allclose(rows, np.ones(5), rtol=1e-5)

    def test_log_softmax_consistency(self):
        x = RNG.normal(size=(3, 4))
        exps = np.exp(x)
        np.testing.assert_allclose(
            ops.log_softmax(Tensor(x), axis=1).numpy(),
            np.log(exps / exps.sum(axis=1, keepdims=True)),
            rtol=1e-5,
        )

    def test_softmax_extreme_values_stable(self):
        x = Tensor(np.array([[1000.0, 1000.0], [-1000.0, 1000.0]]))
        out = np.exp(ops.log_softmax(x, axis=1).numpy())
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[0], [0.5, 0.5], atol=1e-6)

    def test_l2_normalize_unit_rows(self):
        x = Tensor(RNG.normal(size=(6, 8)))
        norms = np.linalg.norm(ops.l2_normalize(x, axis=1).numpy(), axis=1)
        np.testing.assert_allclose(norms, np.ones(6), rtol=1e-4)

    def test_cosine_similarity_bounds(self):
        a = Tensor(RNG.normal(size=(10, 5)))
        b = Tensor(RNG.normal(size=(10, 5)))
        sims = ops.cosine_similarity(a, b).numpy()
        assert np.all(sims <= 1.0 + 1e-5)
        assert np.all(sims >= -1.0 - 1e-5)

    def test_cosine_similarity_self_is_one(self):
        a = Tensor(RNG.normal(size=(4, 5)))
        np.testing.assert_allclose(ops.cosine_similarity(a, a).numpy(), np.ones(4), rtol=1e-4)

    def test_mse_zero_for_identical(self):
        a = Tensor(RNG.normal(size=(3, 4)))
        assert ops.mse(a, a).item() == pytest.approx(0.0)


class TestGradients:
    """Analytic vs central-difference gradients per op."""

    @pytest.mark.parametrize("fn", [
        ops.exp,
        ops.sigmoid,
        ops.relu,
        lambda t: ops.log_softmax(t, axis=1),
        lambda t: ops.l2_normalize(t, axis=1),
    ], ids=["exp", "sigmoid", "relu", "log_softmax", "l2norm"])
    def test_unary(self, fn):
        x = RNG.normal(size=(3, 4)) + 0.1  # avoid relu kinks at 0
        check_gradients(fn, [x])

    def test_log_sqrt_positive_domain(self):
        x = RNG.uniform(0.5, 2.0, size=(3, 4))
        check_gradients(ops.log, [x])
        check_gradients(ops.sqrt, [x])

    def test_cosine_similarity_grad(self):
        check_gradients(lambda a, b: ops.cosine_similarity(a, b),
                        [RNG.normal(size=(4, 5)), RNG.normal(size=(4, 5))])

    def test_mse_grad(self):
        check_gradients(ops.mse, [RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))])
