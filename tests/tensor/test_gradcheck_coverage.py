"""Gradcheck tests closing the gaps found by the coverage auditor.

``repro.analysis.coverage`` enumerates every differentiable primitive and
cross-references the gradcheck tests in this directory; this module holds
the gradient tests for primitives no other file exercises, plus a
regression test for the AD002 late-binding-closure bug class.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, ops

RNG = np.random.default_rng(7)


class TestTensorMethodGradients:
    """Primitives on Tensor itself (methods that dispatch a registered op)."""

    def test_neg_grad(self):
        check_gradients(lambda t: (-t).sum(), [RNG.normal(size=(3, 4))])

    def test_truediv_grad(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.uniform(0.5, 2.0, size=(3, 4))  # keep the denominator away from 0
        check_gradients(lambda x, y: (x / y).sum(), [a, b])

    def test_truediv_broadcast_grad(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.uniform(0.5, 2.0, size=(1, 4))
        check_gradients(lambda x, y: (x / y).sum(), [a, b])

    def test_getitem_slice_grad(self):
        check_gradients(lambda t: t[1:3, ::2].sum(), [RNG.normal(size=(4, 5))])

    def test_getitem_fancy_index_grad(self):
        index = np.array([0, 2, 2])  # repeated index: gradients must accumulate
        check_gradients(lambda t: t[index].sum(), [RNG.normal(size=(4, 3))])

    def test_abs_grad(self):
        x = RNG.normal(size=(3, 4))
        x[np.abs(x) < 0.2] = 0.5  # stay away from the kink at 0
        check_gradients(lambda t: t.abs().sum(), [x])

    def test_max_grad_all_and_axis(self):
        x = RNG.permutation(12).astype(np.float64).reshape(3, 4)  # no ties
        check_gradients(lambda t: t.max(), [x])
        check_gradients(lambda t: t.max(axis=1).sum(), [x])
        check_gradients(lambda t: t.max(axis=0, keepdims=True).sum(), [x])

    def test_reshape_grad(self):
        check_gradients(lambda t: (t.reshape(6, 2) * 2.0).sum(), [RNG.normal(size=(3, 4))])

    def test_transpose_grad(self):
        x = RNG.normal(size=(2, 3, 4))
        check_gradients(lambda t: (t.transpose(2, 0, 1) * 1.5).sum(), [x])
        check_gradients(lambda t: t.T.sum(), [RNG.normal(size=(3, 4))])

    def test_trace_grad(self):
        check_gradients(lambda t: t.trace(), [RNG.normal(size=(4, 4))])
        check_gradients(lambda t: t.trace(), [RNG.normal(size=(3, 5))])


class TestOpsGradients:
    def test_minimum_grad(self):
        a = RNG.normal(size=(3, 4))
        b = RNG.normal(size=(3, 4))
        check_gradients(ops.minimum, [a, b])

    def test_minimum_matches_numpy_forward(self):
        a, b = RNG.normal(size=(5,)), RNG.normal(size=(5,))
        out = ops.minimum(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.numpy(), np.minimum(a, b), rtol=1e-6)


class TestLateBindingRegression:
    """AD002 bug class: per-segment grad_fns must bind their loop state.

    ``ops.concatenate`` builds one grad_fn per input inside a for loop; if
    those closures captured ``start``/``stop`` late, every parent would
    receive the *last* segment's gradient slice.  Unequal segment widths
    make that failure unmissable (wrong shapes), and distinct per-column
    seed gradients catch the equal-width aliasing case too.
    """

    def test_concatenate_multi_segment_backward(self):
        widths = (2, 3, 4)
        parents = [Tensor(RNG.normal(size=(2, w)), requires_grad=True) for w in widths]
        out = ops.concatenate(parents, axis=1)
        seed = np.arange(out.size, dtype=np.float64).reshape(out.shape)
        out.backward(seed)
        offset = 0
        for parent, width in zip(parents, widths):
            expected = seed[:, offset:offset + width]
            assert parent.grad.shape == (2, width)
            np.testing.assert_allclose(parent.grad, expected)
            offset += width

    def test_concatenate_multi_segment_gradcheck(self):
        check_gradients(
            lambda a, b, c: (ops.concatenate([a, b, c], axis=0) ** 2).sum(),
            [RNG.normal(size=(1, 3)), RNG.normal(size=(2, 3)), RNG.normal(size=(3, 3))])

    def test_stack_per_index_backward(self):
        parents = [Tensor(np.full((2, 2), float(i)), requires_grad=True) for i in range(3)]
        out = ops.stack(parents, axis=0)
        seed = np.stack([np.full((2, 2), 10.0 * (i + 1)) for i in range(3)])
        out.backward(seed)
        for i, parent in enumerate(parents):
            np.testing.assert_allclose(parent.grad, np.full((2, 2), 10.0 * (i + 1)))
