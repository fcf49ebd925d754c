"""Unit tests for the runtime autograd sanitizer.

Covers the two safety nets: ``detect_anomaly()`` (NaN/Inf checking on
forward outputs and backward gradients, naming the offending op) and the
always-on saved-tensor version counter (``backward()`` refuses to use a
tensor whose ``.data`` was rebound after the op was taped).
"""

import numpy as np
import pytest

from repro.tensor import (
    AnomalyError,
    Tensor,
    detect_anomaly,
    is_anomaly_enabled,
    ops,
)


class TestDetectAnomalyForward:
    def test_nan_forward_names_op(self):
        with np.errstate(invalid="ignore"):
            with detect_anomaly():
                with pytest.raises(AnomalyError, match=r"forward of op 'log'.*NaN"):
                    ops.log(Tensor([-1.0], requires_grad=True))

    def test_inf_forward_names_op(self):
        with np.errstate(over="ignore"):
            with detect_anomaly():
                with pytest.raises(AnomalyError, match=r"forward of op 'exp'.*Inf"):
                    ops.exp(Tensor([1000.0], requires_grad=True))

    def test_forward_error_carries_creating_stack(self):
        with np.errstate(invalid="ignore"), detect_anomaly():
            with pytest.raises(AnomalyError, match="created at"):
                ops.sqrt(Tensor([-4.0], requires_grad=True))

    def test_no_check_outside_context(self):
        with np.errstate(invalid="ignore"):
            out = ops.log(Tensor([-1.0], requires_grad=True))
        assert np.isnan(out.numpy()).all()  # silently produced, by design

    def test_flag_restored_after_exception(self):
        assert not is_anomaly_enabled()
        with np.errstate(invalid="ignore"):
            with pytest.raises(AnomalyError):
                with detect_anomaly():
                    assert is_anomaly_enabled()
                    ops.log(Tensor([-1.0], requires_grad=True))
        assert not is_anomaly_enabled()


class TestDetectAnomalyBackward:
    def test_nan_gradient_names_op(self):
        # Forward is finite (sqrt(0) == 0) but the gradient 0.5/sqrt(0) blows up.
        x = Tensor([0.0, 1.0], requires_grad=True)
        out = ops.sqrt(x).sum()
        with np.errstate(divide="ignore"), detect_anomaly():
            with pytest.raises(AnomalyError, match=r"backward of op 'sqrt'"):
                out.backward()

    def test_nan_seed_gradient_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = (x * 2.0).sum()
        with detect_anomaly():
            with pytest.raises(AnomalyError):
                out.backward(np.array(np.nan))

    def test_healthy_graph_passes_end_to_end(self):
        rng = np.random.default_rng(0)
        with detect_anomaly():
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            loss = (ops.sigmoid(x @ w) ** 2).mean()
            loss.backward()
        assert np.isfinite(x.grad).all()
        assert np.isfinite(w.grad).all()


class TestVersionCounter:
    def test_rebind_bumps_version(self):
        t = Tensor([1.0, 2.0])
        v0 = t._version
        t.data = np.array([3.0, 4.0], dtype=np.float32)
        assert t._version == v0 + 1

    def test_backward_raises_on_saved_tensor_mutation(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        out = (x * w).sum()
        w.data = np.array([9.0, 9.0], dtype=np.float32)  # stale-closure hazard
        with pytest.raises(RuntimeError, match="modified after the forward"):
            out.backward()

    def test_error_names_op_and_shape(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = ops.relu(x).sum()
        x.data = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(RuntimeError, match=r"op 'sum'|op 'relu'"):
            out.backward()

    def test_rebind_after_backward_is_fine(self):
        # The optimizer pattern: forward -> backward -> param update -> new graph.
        w = Tensor([1.0, 2.0], requires_grad=True)
        (w * w).sum().backward()
        w.data = w.data - 0.1 * w.grad
        w.zero_grad()
        (w * w).sum().backward()
        np.testing.assert_allclose(w.grad, 2 * w.data, rtol=1e-6)

    def test_detached_tensor_mutation_is_allowed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        snapshot = x.detach()
        out = (x * 2.0).sum()
        snapshot.data = np.zeros(2, dtype=np.float32)  # independent counter
        out.backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0])
