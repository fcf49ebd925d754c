"""Gradcheck tests closing the gaps found by the coverage auditor.

``repro.analysis.coverage`` enumerates every differentiable primitive and
cross-references the gradcheck tests in this directory; this module holds
the gradient tests for primitives no other file exercises.
"""

import numpy as np

from repro.tensor import check_gradients

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
