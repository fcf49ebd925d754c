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


def _grads_for(params, step):
    """Deterministic pseudo-gradients: a fixed function of data and step."""
    for i, p in enumerate(params):
        p.grad = np.sin(p.data * (i + 1)) + 0.01 * step


def _run_steps(params, opt, schedule, start, stop, trace):
    for step in range(start, stop):
        schedule.step(step)
        _grads_for(params, step)
        opt.step()
        opt.zero_grad()
        trace.append([p.data.copy() for p in params])


class TestMidScheduleResume:
    """A checkpointed optimizer resumed mid-schedule must retrace the
    uninterrupted run step for step, bit for bit."""

    def _fresh_params(self):
        rng = np.random.default_rng(123)
        return [Parameter(rng.normal(size=(3, 4))),
                Parameter(rng.normal(size=(4,)))]

    def _trajectory(self, make_opt, make_sched, break_at=None, total=10):
        params = self._fresh_params()
        opt = make_opt(params)
        sched = make_sched(opt)
        trace = []
        if break_at is None:
            _run_steps(params, opt, sched, 0, total, trace)
            return trace
        _run_steps(params, opt, sched, 0, break_at, trace)
        saved_opt = opt.state_dict()
        saved_params = [p.data.copy() for p in params]
        # Simulate a process restart: everything rebuilt from scratch.
        params = self._fresh_params()
        for p, data in zip(params, saved_params):
            p.data = data
        opt = make_opt(params)
        # The schedule captures base_lr at construction, so it must be built
        # from the freshly configured optimizer *before* load_state_dict
        # restores the mid-schedule lr.
        sched = make_sched(opt)
        opt.load_state_dict(saved_opt)
        _run_steps(params, opt, sched, break_at, total, trace)
        return trace

    def _assert_identical(self, make_opt, make_sched):
        full = self._trajectory(make_opt, make_sched)
        resumed = self._trajectory(make_opt, make_sched, break_at=4)
        assert len(full) == len(resumed)
        for step, (a, b) in enumerate(zip(full, resumed)):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y,
                                              err_msg=f"diverged at step {step}")

    def test_sgd_momentum_under_cosine_schedule(self):
        from repro.optim import CosineLR
        self._assert_identical(
            lambda ps: SGD(ps, lr=0.05, momentum=0.9, weight_decay=1e-4),
            lambda o: CosineLR(o, total_epochs=10))

    def test_adam_under_cosine_schedule(self):
        from repro.optim import CosineLR
        self._assert_identical(
            lambda ps: Adam(ps, lr=0.01, weight_decay=1e-4),
            lambda o: CosineLR(o, total_epochs=6))

    def test_adam_step_counters_survive_roundtrip(self):
        params = self._fresh_params()
        opt = Adam(params, lr=0.01)
        for step in range(3):
            _grads_for(params, step)
            opt.step()
        fresh = Adam(self._fresh_params(), lr=0.01)
        fresh.load_state_dict(opt.state_dict())
        for p in fresh.parameters:
            assert fresh._state[id(p)]["step"] == 3

    def test_slot_count_mismatch_raises(self):
        opt = SGD(self._fresh_params(), lr=0.1, momentum=0.9)
        other = SGD([Parameter(np.zeros(2))], lr=0.1, momentum=0.9)
        import pytest
        with pytest.raises(ValueError, match="parameter slots"):
            other.load_state_dict(opt.state_dict())
