"""Tests for SGD, Adam, and LR schedules."""

import math

import numpy as np
import pytest

from repro.nn import Linear, MLP, Parameter
from repro.optim import SGD, Adam, CosineLR
from repro.optim.base import Optimizer
from repro.tensor import Tensor


def quadratic_loss(param: Parameter) -> Tensor:
    target = Tensor(np.array([3.0, -1.0]))
    diff = param - target
    return (diff * diff).sum()


class TestSGD:
    def test_vanilla_step_formula(self):
        p = Parameter(np.array([1.0, 1.0]))
        opt = SGD([p], lr=0.1, momentum=0.0)
        quadratic_loss(p).backward()
        grad = p.grad.copy()
        opt.step()
        np.testing.assert_allclose(p.data, np.array([1.0, 1.0]) - 0.1 * grad, rtol=1e-6)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.array([10.0, 10.0]))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(30):
                opt.zero_grad()
                quadratic_loss(p).backward()
                opt.step()
            return quadratic_loss(p).item()

        assert run(0.5) < run(0.0)

    def test_weight_decay_shrinks_params(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=1.0)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 1.0

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([0.0, 0.0]))
        opt = SGD([p], lr=0.05, momentum=0.5)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [3.0, -1.0], atol=1e-3)

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad: no-op, no crash
        np.testing.assert_allclose(p.data, [1.0])

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([0.0, 0.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [3.0, -1.0], atol=1e-2)

    def test_first_step_is_lr_sized(self):
        """Adam's bias correction makes the first step ~lr * sign(grad)."""
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([5.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.01], rtol=1e-3)

    def test_trains_mlp_regression(self, rng):
        mlp = MLP([3, 16, 1], batch_norm=False, rng=rng)
        opt = Adam(mlp.parameters(), lr=5e-3)
        data_rng = np.random.default_rng(0)
        x = data_rng.normal(size=(64, 3)).astype(np.float32)
        y = (x @ np.array([[1.0], [-2.0], [0.5]])).astype(np.float32)
        initial = None
        for step in range(400):
            opt.zero_grad()
            pred = mlp(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            opt.step()
            if initial is None:
                initial = loss.item()
        assert loss.item() < 0.1 * initial


class TestSchedules:
    def test_cosine_endpoints(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = CosineLR(opt, total_epochs=10, min_lr=0.0)
        assert schedule.step(0) == pytest.approx(1.0)
        assert schedule.step(10) == pytest.approx(0.0, abs=1e-9)
        mid = schedule.step(5)
        assert mid == pytest.approx(0.5, abs=1e-6)

    def test_cosine_monotone_decreasing(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = CosineLR(opt, total_epochs=20)
        rates = [schedule.step(e) for e in range(21)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_schedule_mutates_optimizer_lr(self):
        opt = SGD([Parameter(np.zeros(1))], lr=1.0)
        CosineLR(opt, total_epochs=2).step(1)
        assert opt.lr < 1.0


class TestOptimizerBase:
    def test_update_not_implemented(self):
        opt = Optimizer([Parameter(np.zeros(1))], lr=0.1)
        opt.parameters[0].grad = np.ones(1)
        with pytest.raises(NotImplementedError):
            opt.step()
