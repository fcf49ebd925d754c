"""``Optimizer.step`` over flat groups equals the per-parameter rule, byte for byte.

The reference below is the per-parameter update SGD and Adam ran before
``step`` grouped parameters by step count and dtypes and applied the rule
once per group over flat concatenations.  Hypothesis draws parameter
lists from scalars to matrices, float32 and float64 mixed, and leaves some
parameters without a gradient on some steps; every ``.data`` and every
state array must come out with the reference's dtype, shape and bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Parameter
from repro.optim import SGD, Adam
from repro.optim.adam import BETA1, BETA2, EPS


# -- the per-parameter rules ---------------------------------------------
def reference_sgd(data, grad, state, lr, momentum, weight_decay):
    if weight_decay:
        grad = grad + weight_decay * data
    if momentum:
        buf = state.get("momentum")
        if buf is None:
            buf = np.zeros_like(data)
        buf = momentum * buf + grad
        state["momentum"] = buf
        grad = buf
    return data - lr * grad


def reference_adam(data, grad, state, lr, weight_decay):
    if weight_decay:
        grad = grad + weight_decay * data
    step = state.get("step", 0) + 1
    m = state.get("m")
    v = state.get("v")
    if m is None:
        m = np.zeros_like(data)
        v = np.zeros_like(data)
    m = BETA1 * m + (1 - BETA1) * grad
    v = BETA2 * v + (1 - BETA2) * grad * grad
    state.update(step=step, m=m, v=v)
    m_hat = m / (1 - BETA1 ** step)
    v_hat = v / (1 - BETA2 ** step)
    return data - lr * m_hat / (np.sqrt(v_hat) + EPS)


# -- drawing -------------------------------------------------------------
SHAPES = [(), (1,), (3,), (2, 3), (4, 1), (3, 5)]


@st.composite
def parameter_specs(draw):
    count = draw(st.integers(1, 6))
    return [(draw(st.sampled_from(SHAPES)),
             draw(st.sampled_from([np.float32, np.float64])))
            for _ in range(count)]


@st.composite
def runs(draw):
    specs = draw(parameter_specs())
    steps = draw(st.integers(1, 4))
    # Which parameters have a gradient at each step.
    masks = [[draw(st.booleans()) for _ in specs] for _ in range(steps)]
    return specs, masks, draw(st.integers(0, 2**32 - 1))


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_against_reference(build, reference, specs, masks, seed,
                            state_names):
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.normal(size=shape).astype(dtype))
              for shape, dtype in specs]
    want = [p.data.copy() for p in params]
    want_states = [{} for _ in params]
    optimizer = build(params)
    for mask in masks:
        for i, (p, has_grad) in enumerate(zip(params, mask)):
            if has_grad:
                p.grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
                want[i] = reference(want[i], p.grad, want_states[i])
            else:
                p.grad = None
        optimizer.step()
        for i, p in enumerate(params):
            assert_same_bytes(p.data, want[i])
            state = optimizer._state.get(id(p), {})
            if "step" in want_states[i]:
                assert state["step"] == want_states[i]["step"]
            for name in state_names:
                if name in want_states[i]:
                    assert_same_bytes(state[name], want_states[i][name])
                else:
                    assert name not in state


@settings(max_examples=60, deadline=None)
@given(runs(), st.sampled_from([0.0, 0.9]), st.sampled_from([0.0, 1e-2]))
def test_sgd_step_matches_the_per_parameter_rule(run, momentum, weight_decay):
    specs, masks, seed = run
    lr = 0.05
    check_against_reference(
        lambda params: SGD(params, lr=lr, momentum=momentum,
                           weight_decay=weight_decay),
        lambda data, grad, state: reference_sgd(data, grad, state, lr,
                                                momentum, weight_decay),
        specs, masks, seed, ["momentum"])


@settings(max_examples=60, deadline=None)
@given(runs(), st.sampled_from([0.0, 1e-5]))
def test_adam_step_matches_the_per_parameter_rule(run, weight_decay):
    specs, masks, seed = run
    lr = 1e-3
    check_against_reference(
        lambda params: Adam(params, lr=lr, weight_decay=weight_decay),
        lambda data, grad, state: reference_adam(data, grad, state, lr,
                                                 weight_decay),
        specs, masks, seed, ["m", "v"])


def test_a_parameter_listed_twice_is_rejected():
    p = Parameter(np.zeros(2))
    with pytest.raises(ValueError, match="more than once"):
        SGD([p, p], lr=0.1)


def test_a_gradient_of_another_shape_is_rejected():
    """Its flat slice would overlap its neighbour's."""
    p = Parameter(np.zeros(2))
    p.grad = np.ones(3)
    with pytest.raises(ValueError, match="gradient of shape"):
        Adam([p], lr=0.1).step()
