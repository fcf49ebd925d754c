"""Optimizer state-management edge cases."""

import numpy as np

from repro.nn import Parameter
from repro.optim import SGD, Adam


class TestStateIsolation:
    def test_momentum_buffers_are_per_parameter(self):
        a = Parameter(np.array([1.0]))
        b = Parameter(np.array([1.0, 1.0]))
        opt = SGD([a, b], lr=0.1, momentum=0.9)
        a.grad = np.array([1.0])
        b.grad = np.array([2.0, 2.0])
        opt.step()
        assert opt._state[id(a)]["momentum"].shape == (1,)
        assert opt._state[id(b)]["momentum"].shape == (2,)

    def test_adam_step_counter_per_parameter(self):
        a = Parameter(np.array([1.0]))
        b = Parameter(np.array([1.0]))
        opt = Adam([a, b], lr=0.1)
        a.grad = np.array([1.0])
        opt.step()           # only a has a grad
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        assert opt._state[id(a)]["step"] == 2
        assert opt._state[id(b)]["step"] == 1

    def test_two_optimizers_do_not_share_state(self):
        p = Parameter(np.array([1.0]))
        first = SGD([p], lr=0.1, momentum=0.9)
        second = SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.array([1.0])
        first.step()
        assert id(p) in first._state
        assert id(p) not in second._state

    def test_zero_grad_only_clears_grads_not_state(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.array([1.0])
        opt.step()
        opt.zero_grad()
        assert p.grad is None
        assert "momentum" in opt._state[id(p)]


class TestFreshOptimizerPerTask:
    def test_trainer_pattern_resets_momentum(self):
        """The trainer builds a fresh optimizer per increment, so stale
        momentum from the previous increment cannot leak — this is the
        invariant that pattern relies on."""
        p = Parameter(np.array([0.0]))
        old = SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.array([10.0])
        old.step()
        fresh = SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.array([0.0]) * 0  # zero gradient
        before = p.data.copy()
        fresh.step()
        # zero grad + fresh (empty) momentum => no movement
        np.testing.assert_allclose(p.data, before)

