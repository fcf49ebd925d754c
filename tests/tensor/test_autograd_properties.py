"""Property-based tests of the autograd engine (hypothesis).

Invariants: analytic gradients match numerical differentiation for random
composite expressions; linearity of the gradient operator; broadcasting
reduces gradient shapes correctly.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor, check_gradients, ops


def small_arrays(max_side: int = 4):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side))
    return hnp.arrays(np.float64, shapes,
                      elements=st.floats(-2.0, 2.0, allow_nan=False, width=64))


@settings(max_examples=25, deadline=None)
@given(small_arrays())
def test_polynomial_gradients_match_numerical(x):
    check_gradients(lambda t: (t * t * 0.5 + t * 3.0 - 1.0).sum(), [x])


@settings(max_examples=25, deadline=None)
@given(small_arrays())
def test_smooth_composite_gradients_match_numerical(x):
    check_gradients(lambda t: ops.sigmoid(t * 0.5).mean() + ops.sigmoid(t).sum(), [x])


@settings(max_examples=20, deadline=None)
@given(small_arrays(), st.floats(0.1, 3.0))
def test_gradient_is_linear_in_scale(x, scale):
    """grad(c * f) == c * grad(f)."""
    t1 = Tensor(x.copy(), requires_grad=True)
    (t1 * t1).sum().backward()
    t2 = Tensor(x.copy(), requires_grad=True)
    ((t2 * t2) * scale).sum().backward()
    np.testing.assert_allclose(t2.grad, scale * t1.grad, rtol=1e-6, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(small_arrays())
def test_sum_of_grads_equals_grad_of_sum(x):
    """grad(f + g) == grad(f) + grad(g)."""
    fa = Tensor(x.copy(), requires_grad=True)
    (fa * 2.0).sum().backward()
    fb = Tensor(x.copy(), requires_grad=True)
    ops.sigmoid(fb).sum().backward()
    both = Tensor(x.copy(), requires_grad=True)
    ((both * 2.0).sum() + ops.sigmoid(both).sum()).backward()
    np.testing.assert_allclose(both.grad, fa.grad + fb.grad, rtol=1e-6, atol=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_broadcast_grad_shapes(rows, cols):
    a = Tensor(np.ones((rows, cols)), requires_grad=True)
    b = Tensor(np.ones((1, cols)), requires_grad=True)
    c = Tensor(np.ones((rows, 1)), requires_grad=True)
    (a * b + c).sum().backward()
    assert a.grad.shape == (rows, cols)
    assert b.grad.shape == (1, cols)
    assert c.grad.shape == (rows, 1)
    np.testing.assert_allclose(b.grad, rows * np.ones((1, cols)))
    np.testing.assert_allclose(c.grad, cols * np.ones((rows, 1)))


@settings(max_examples=15, deadline=None)
@given(small_arrays())
def test_detach_gradient_equals_treating_as_constant(x):
    """f(x) = sg(x) * x must differentiate like c * x."""
    t = Tensor(x.copy(), requires_grad=True)
    (t.detach() * t).sum().backward()
    np.testing.assert_allclose(t.grad, x, rtol=1e-6, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(small_arrays())
def test_matmul_chain_gradcheck(x):
    w = np.random.default_rng(0).normal(size=(x.shape[1], 3))
    check_gradients(lambda t, u: ops.relu(t @ u).sum(), [x + 0.05, w])
