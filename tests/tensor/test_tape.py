"""Tape capture/replay tests: recording, validity, poisoning, the
TapedFunction lifecycle, the bit-for-bit parity guarantee (including a
hypothesis fuzz over random MLP/conv graphs, fused and unfused), and fault
hygiene across a poisoned replay plus restore.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.conv import Conv2d
from repro.nn.mlp import MLP
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.optim import SGD
from repro.ssl.byol import BYOL
from repro.ssl.encoder import Encoder, build_backbone
from repro.ssl.vae import VAEObjective
from repro.tensor import Tape, TapedFunction, Tensor, capture, engine, no_fusion, ops
from repro.tensor.anomaly import detect_anomaly


def _x(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def _square_sum_loss(model):
    """A loss whose gradients depend on the parameter values."""
    def fn(x):
        out = model(Tensor(x))
        loss = (out * out).sum()
        loss.backward()
        return loss
    return fn


def _vae_step():
    """A VAE, whose reparameterization noise poisons the first capture."""
    objective = VAEObjective(4, 3, hidden_dim=6, rng=np.random.default_rng(0))

    def fn(x):
        loss = objective.css_loss(x, x)
        loss.backward()
        return loss

    batches = [(_x((8, 4), seed=i),) for i in range(4)]
    return objective, fn, batches


def _byol_step():
    """BYOL, whose momentum update poisons the first capture."""
    rng = np.random.default_rng(0)
    backbone = build_backbone("mlp", rng, input_dim=6, hidden_dim=8)
    objective = BYOL(Encoder(backbone, representation_dim=8, rng=rng), rng=rng)

    def fn(x1, x2):
        loss = objective.css_loss(x1, x2)
        loss.backward()
        return loss

    batches = [(_x((6, 6), seed=2 * i), _x((6, 6), seed=2 * i + 1))
               for i in range(4)]
    return objective, fn, batches


class TestCapture:
    def test_records_ops_and_backward(self):
        w = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        x = _x((4, 3), seed=1)
        with capture([x]) as tape:
            loss = (Tensor(x) @ w).sum()
            loss.backward()
        assert tape.complete
        assert len(tape.instructions) == 2  # matmul, sum
        assert tape.schedule  # frozen backward order
        assert tape.check([x]) is None

    def test_captures_do_not_nest(self):
        with capture():
            with pytest.raises(RuntimeError, match="already active"):
                with capture():
                    pass

    def test_capture_hook_cleared_on_error(self):
        with contextlib.suppress(ValueError):
            with capture():
                raise ValueError("boom")
        assert engine.active_capture() is None

    def test_incomplete_without_backward(self):
        x = _x((2, 2))
        with capture([x]) as tape:
            (Tensor(x) * 2.0).sum()
        assert not tape.complete
        assert "backward" in tape.check([x])


class TestValidity:
    def _complete_tape(self, x):
        w = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        with capture([x]) as tape:
            ((Tensor(x) @ w) * (Tensor(x) @ w)).sum().backward()
        return tape, w

    def test_shape_drift_detected(self):
        x = _x((4, 3))
        tape, _w = self._complete_tape(x)
        assert "drifted" in tape.check([_x((5, 3))])

    def test_dtype_drift_detected(self):
        x = _x((4, 3))
        tape, _w = self._complete_tape(x)
        assert "drifted" in tape.check([x.astype(np.float64)])

    def test_input_count_drift_detected(self):
        x = _x((4, 3))
        tape, _w = self._complete_tape(x)
        assert "inputs" in tape.check([x, x])

    def test_fusion_flag_drift_detected(self):
        x = _x((4, 3))
        tape, _w = self._complete_tape(x)
        with no_fusion():
            assert "fusion" in tape.check([x])

    def test_grad_flag_drift_detected(self):
        x = _x((4, 3))
        tape, _w = self._complete_tape(x)
        with engine.no_grad():
            assert "grad" in tape.check([x])

    def test_anomaly_mode_blocks_replay(self):
        x = _x((4, 3))
        tape, _w = self._complete_tape(x)
        with detect_anomaly():
            assert "anomaly" in tape.check([x])

    def test_registry_fingerprint_drift_detected(self):
        x = _x((4, 3))
        tape, _w = self._complete_tape(x)

        @engine.register
        class FingerprintBump(engine.Op):
            name = "test_tape_fingerprint_bump"

            @staticmethod
            def forward(ctx, a):
                return a

            @staticmethod
            def backward(ctx, grad):
                return (grad,)

        assert "registry" in tape.check([x])


class TestPoisoning:
    def test_vae_reparameterization_poisons_capture(self):
        objective = VAEObjective(6, 4, rng=np.random.default_rng(0))
        x = _x((4, 6))
        with capture([x]) as tape:
            objective.css_loss(x, x)
        assert tape.unsafe
        assert "reparameterization" in tape.unsafe_reason

    def test_byol_momentum_update_poisons_capture(self):
        from repro.ssl.byol import BYOL
        from repro.ssl.encoder import Encoder, build_backbone

        rng = np.random.default_rng(0)
        backbone = build_backbone("mlp", rng, input_dim=6, hidden_dim=8)
        objective = BYOL(Encoder(backbone, representation_dim=8, rng=rng), rng=rng)
        x = _x((4, 6))
        with capture([x]) as tape:
            objective.css_loss(x, x)
        assert tape.unsafe
        assert "momentum" in tape.unsafe_reason

    def test_eval_batchnorm_poisons_capture(self):
        bn = BatchNorm1d(3)
        bn.eval()
        with capture() as tape:
            bn(Tensor(_x((4, 3))))
        assert tape.unsafe
        assert "eval-mode BatchNorm" in tape.unsafe_reason

    def test_op_after_backward_poisons_capture(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with capture() as tape:
            (w * w).sum().backward()
            (w * 2.0).sum()
        assert tape.unsafe
        assert "after backward" in tape.unsafe_reason

    def test_second_backward_poisons_capture(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with capture() as tape:
            (w * w).sum().backward()
            (w * w).sum()  # rebuilt graph, second backward
        # the second sum() above is recorded; backward on it poisons
        assert tape.unsafe

    def test_backward_from_outside_graph_poisons_capture(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        loss = (w * w).sum()  # built before the capture
        with capture() as tape:
            loss.backward()
        assert tape.unsafe
        assert "outside the capture" in tape.unsafe_reason

    def test_anomaly_during_capture_poisons(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with capture() as tape:
            with detect_anomaly():
                (w * w).sum().backward()
        assert tape.unsafe
        assert "anomaly" in tape.unsafe_reason


# ----------------------------------------------------------------------
# Two-view train steps (an SSL-shaped step: two forwards, one backward)
# ----------------------------------------------------------------------
def _two_view_step(model):
    def step(v1, v2):
        a = model(Tensor(v1))
        b = model(Tensor(v2))
        loss = ((a - b) ** 2).mean() + (a ** 2).mean()
        loss.backward()
        return loss
    return step


def _build_mlp(seed=7):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Linear(12, 16, rng=rng),
        nn.BatchNorm1d(16),
        nn.ReLU(),
        nn.Linear(16, 8, rng=rng),
    )
    model.train()
    return model, _two_view_step(model)


def _view_pairs(shape, n_steps, seed):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(shape).astype(np.float32),
             rng.standard_normal(shape).astype(np.float32))
            for _ in range(n_steps)]


def _build_conv(seed=11):
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(2, 4, 3, stride=1, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.MaxPool2d(2),
    )
    model.train()
    return model, _two_view_step(model)


#: model name -> (builder, per-view input shape, data seed)
TWO_VIEW_MODELS = {"mlp": (_build_mlp, (10, 12), 42),
                   "conv": (_build_conv, (4, 2, 6, 6), 43)}


def _step_state(model, params, loss):
    return {
        "loss": np.asarray(loss.data).copy(),
        "grads": [p.grad.copy() for p in params],
        "params": [p.data.copy() for p in params],
        "buffers": {name: buf.copy() for name, buf in model.named_buffers()},
    }


def _assert_traces_identical(reference, candidate, label):
    assert len(reference) == len(candidate)
    for i, (expected, actual) in enumerate(zip(reference, candidate)):
        np.testing.assert_array_equal(expected["loss"], actual["loss"],
                                      err_msg=f"{label}: step {i} loss")
        for slot, (e, a) in enumerate(zip(expected["grads"], actual["grads"])):
            np.testing.assert_array_equal(e, a,
                                          err_msg=f"{label}: step {i} grad[{slot}]")
        for slot, (e, a) in enumerate(zip(expected["params"], actual["params"])):
            np.testing.assert_array_equal(e, a,
                                          err_msg=f"{label}: step {i} param[{slot}]")
        assert expected["buffers"].keys() == actual["buffers"].keys()
        for name, e in expected["buffers"].items():
            np.testing.assert_array_equal(e, actual["buffers"][name],
                                          err_msg=f"{label}: step {i} buffer {name}")


def _drive_two_view(model_name, use_tape, n_steps=7):
    """``n_steps`` SGD steps, eager or through a TapedFunction."""
    build, shape, seed = TWO_VIEW_MODELS[model_name]
    model, step = build()
    params = list(model.parameters())
    optimizer = SGD(params, lr=0.05, momentum=0.9)
    taped = TapedFunction(step)
    taped.enabled = use_tape
    trace = []
    for v1, v2 in _view_pairs(shape, n_steps, seed):
        optimizer.zero_grad()
        loss = taped(v1, v2)
        optimizer.step()
        trace.append(_step_state(model, params, loss))
    return trace, taped


class TestReplayParity:
    def _run_steps(self, use_tape, *, batch_norm, fused, n_steps=4,
                   dims=(6, 8, 5), seed=3):
        """Identically-seeded model+optimizer driven eager or taped."""
        xs = [_x((5, dims[0]), seed=100 + i) for i in range(n_steps)]
        ctx = contextlib.nullcontext() if fused else no_fusion()
        with ctx:
            model = MLP(list(dims), batch_norm=batch_norm,
                        rng=np.random.default_rng(seed))
            model.train()
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            fn = _square_sum_loss(model)
            step = TapedFunction(fn) if use_tape else fn
            losses = []
            for x in xs:
                optimizer.zero_grad(set_to_none=False)
                loss = step(x)
                optimizer.step()
                losses.append(np.asarray(loss.data).copy())
        return losses, model, (step if use_tape else None)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("batch_norm", [True, False])
    def test_bit_for_bit_vs_eager(self, batch_norm, fused):
        eager_losses, eager_model, _ = self._run_steps(
            False, batch_norm=batch_norm, fused=fused)
        taped_losses, taped_model, taped = self._run_steps(
            True, batch_norm=batch_norm, fused=fused)

        assert taped.stats["captures"] == 1
        assert taped.stats["replays"] == len(taped_losses) - 1
        np.testing.assert_array_equal(np.array(eager_losses),
                                      np.array(taped_losses))
        for (name, pe), (_n, pt) in zip(eager_model.named_parameters(),
                                        taped_model.named_parameters()):
            np.testing.assert_array_equal(pe.data, pt.data, err_msg=name)
            np.testing.assert_array_equal(pe.grad, pt.grad, err_msg=name)
        for key, ve in eager_model.state_dict().items():
            np.testing.assert_array_equal(
                ve, taped_model.state_dict()[key], err_msg=key)

    def test_batchnorm_running_stats_advance_on_replay(self):
        bn = BatchNorm1d(4)
        bn.train()
        w = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)

        def fn(x):
            loss = (bn(Tensor(x) @ w)).sum()
            loss.backward()
            return loss

        step = TapedFunction(fn)
        step(_x((6, 4), seed=0))
        after_capture = bn.running_mean.copy()
        step(_x((6, 4), seed=1))
        assert step.stats["replays"] == 1
        # a replay that skipped the stat hook would leave the stats frozen
        assert not np.array_equal(bn.running_mean, after_capture)

        bn2 = BatchNorm1d(4)
        bn2.train()
        w2 = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)
        for seed in (0, 1):
            (bn2(Tensor(_x((6, 4), seed=seed)) @ w2)).sum().backward()
        np.testing.assert_array_equal(bn.running_mean, bn2.running_mean)
        np.testing.assert_array_equal(bn.running_var, bn2.running_var)

    def test_param_rebind_is_picked_up(self):
        # SGD rebinds param.data each step; replay must read the new values.
        w = Tensor(np.full((3, 3), 2.0, dtype=np.float32), requires_grad=True)
        x = _x((4, 3), seed=5)

        def fn(a):
            out = Tensor(a) @ w
            loss = (out * out).sum()
            loss.backward()
            return loss

        step = TapedFunction(fn)
        step(x)
        w.data = np.full((3, 3), -1.5, dtype=np.float32)
        w.zero_grad(set_to_none=False)
        replayed = step(x)
        assert step.stats["replays"] == 1
        replay_grad = w.grad.copy()

        w_ref = Tensor(np.full((3, 3), -1.5, dtype=np.float32), requires_grad=True)
        out = Tensor(x) @ w_ref
        eager = (out * out).sum()
        eager.backward()
        np.testing.assert_array_equal(replayed.data, eager.data)
        np.testing.assert_array_equal(replay_grad, w_ref.grad)

    def test_shared_storage_params_accumulate_separately(self):
        arr = np.full(3, 2.0, dtype=np.float32)
        a = Tensor(arr, requires_grad=True)
        b = Tensor(arr, requires_grad=True)
        with capture() as tape:
            ((a * 3.0) + (b * 5.0)).sum().backward()
        grad_a, grad_b = a.grad.copy(), b.grad.copy()
        a.zero_grad(set_to_none=False)
        b.zero_grad(set_to_none=False)
        tape.replay([])
        np.testing.assert_array_equal(a.grad, grad_a)
        np.testing.assert_array_equal(b.grad, grad_b)
        np.testing.assert_array_equal(a.grad, 3.0)
        np.testing.assert_array_equal(b.grad, 5.0)

    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    @pytest.mark.parametrize("model_name", ["mlp", "conv"])
    def test_bitwise_parity(self, model_name, fused):
        """Two-view MLP/conv steps: losses, every grad, every param and
        every BatchNorm buffer of a replayed run equal eager's bit for bit."""
        with contextlib.nullcontext() if fused else no_fusion():
            eager, _ = _drive_two_view(model_name, use_tape=False)
            replayed, taped = _drive_two_view(model_name, use_tape=True)
        assert taped.stats["captures"] == 1
        assert taped.stats["replays"] == len(replayed) - 1
        _assert_traces_identical(eager, replayed, f"{model_name} replay-vs-eager")


class TestTapedFunction:
    def _make(self, dims=(4, 6, 3), seed=9):
        model = MLP(list(dims), batch_norm=False, rng=np.random.default_rng(seed))
        model.train()
        return model, TapedFunction(_square_sum_loss(model), name="unit")

    def test_one_tape_per_signature(self):
        _model, step = self._make()
        step(_x((8, 4)))
        step(_x((8, 4), seed=1))
        step(_x((3, 4)))  # partial final batch gets its own tape
        step(_x((3, 4), seed=1))
        assert step.stats == {"captures": 2, "replays": 2, "eager": 0,
                              "invalidations": 0}
        assert len(step.tapes) == 2

    def test_fusion_toggle_uses_separate_tapes(self):
        _model, step = self._make()
        x = _x((8, 4))
        step(x)
        with no_fusion():
            step(x)
            step(x)
        step(x)
        assert step.stats["captures"] == 2
        assert step.stats["replays"] == 2
        assert step.stats["invalidations"] == 0

    def test_registry_change_invalidates_and_recaptures(self):
        _model, step = self._make()
        x = _x((8, 4))
        step(x)

        @engine.register
        class InvalidationBump(engine.Op):
            name = "test_taped_fn_invalidation_bump"

            @staticmethod
            def forward(ctx, a):
                return a

            @staticmethod
            def backward(ctx, grad):
                return (grad,)

        step(x)
        step(x)
        assert step.stats["captures"] == 2
        assert step.stats["invalidations"] == 1
        assert step.stats["replays"] == 1

    @pytest.mark.parametrize("build, reason", [
        (_vae_step, "reparameterization"),
        (_byol_step, "momentum"),
    ], ids=["vae", "byol"])
    def test_unsafe_step_disables_permanently(self, build, reason):
        """A poisoned step runs eagerly from then on, bit-for-bit equal to a
        never-taped run over the same optimizer steps."""
        runs = {}
        for use_tape in (False, True):
            model, fn, batches = build()
            optimizer = SGD(model.parameters(), lr=0.03, momentum=0.9)
            step = TapedFunction(fn) if use_tape else fn
            losses = []
            for arrays in batches:
                optimizer.zero_grad(set_to_none=False)
                losses.append(step(*arrays).data.copy())
                optimizer.step()
            runs[use_tape] = losses, model
        assert not step.enabled
        assert reason in step.disabled_reason
        assert step.stats == {"captures": 0, "replays": 0, "eager": 3,
                              "invalidations": 0}
        assert not step.tapes
        eager_losses, eager_model = runs[False]
        taped_losses, taped_model = runs[True]
        for eager, taped in zip(eager_losses, taped_losses):
            np.testing.assert_array_equal(eager, taped)
        for (name, pe), (_n, pt) in zip(eager_model.named_parameters(),
                                        taped_model.named_parameters()):
            np.testing.assert_array_equal(pe.data, pt.data, err_msg=name)
        for (name, be), (_n, bt) in zip(eager_model.named_buffers(),
                                        taped_model.named_buffers()):
            np.testing.assert_array_equal(be, bt, err_msg=name)

    def test_reset_reenables_and_drops_tapes(self):
        _model, step = self._make()
        x = _x((8, 4))
        step(x)
        assert step.tapes
        step.enabled = False
        step.disabled_reason = "forced"
        step.reset()
        assert step.enabled and step.disabled_reason is None
        assert not step.tapes

    def test_eager_under_no_grad(self):
        calls = []

        def forward_only(x):
            calls.append(x.shape)
            return Tensor(x).sum()

        step = TapedFunction(forward_only)
        with engine.no_grad():
            step(_x((2, 2)))
        assert step.stats["eager"] == 1
        assert not step.tapes

    def test_eager_inside_active_capture(self):
        w = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)

        def fn(x):
            loss = (w * Tensor(x)).sum()
            loss.backward()
            return loss

        step = TapedFunction(fn)
        with capture() as outer:
            step(_x((2,)))
        assert step.stats["eager"] == 1
        # the outer capture recorded the dispatches instead
        assert outer.instructions

    def test_returns_tensor_on_replay(self):
        _model, step = self._make()
        x = _x((8, 4))
        first = step(x)
        second = step(x.copy())
        assert isinstance(second, type(first))
        np.testing.assert_array_equal(first.data, second.data)


# ----------------------------------------------------------------------
# Property-based fuzz: replay is bit-for-bit eager on random graphs
# ----------------------------------------------------------------------
def _assert_parity(build_model, xs, fused):
    """Drive identically-seeded models eager vs taped; everything bitwise."""
    results = {}
    for use_tape in (False, True):
        with contextlib.nullcontext() if fused else no_fusion():
            model, fn = build_model()
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            step = TapedFunction(fn) if use_tape else fn
            losses = []
            for x in xs:
                optimizer.zero_grad(set_to_none=False)
                losses.append(np.asarray(step(x).data).copy())
                optimizer.step()
            results[use_tape] = (losses, model,
                                 step if use_tape else None)
    eager_losses, eager_model, _ = results[False]
    taped_losses, taped_model, taped = results[True]
    assert taped.stats["captures"] >= 1
    assert taped.stats["replays"] >= 1
    np.testing.assert_array_equal(np.array(eager_losses), np.array(taped_losses))
    for (name, pe), (_n, pt) in zip(eager_model.named_parameters(),
                                    taped_model.named_parameters()):
        np.testing.assert_array_equal(pe.data, pt.data, err_msg=name)
        np.testing.assert_array_equal(pe.grad, pt.grad, err_msg=name)
    for key, value in eager_model.state_dict().items():
        np.testing.assert_array_equal(value, taped_model.state_dict()[key],
                                      err_msg=key)


class TestFuzzParity:
    @settings(max_examples=20, deadline=None)
    @given(depth=st.integers(1, 3), width=st.integers(2, 8),
           batch=st.integers(2, 5), batch_norm=st.booleans(),
           fused=st.booleans(), n_steps=st.integers(2, 4),
           seed=st.integers(0, 2**16))
    def test_random_mlp_graphs(self, depth, width, batch, batch_norm, fused,
                               n_steps, seed):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(2, 9))] + [width] * depth
        xs = [rng.normal(size=(batch, dims[0])).astype(np.float32)
              for _ in range(n_steps)]

        def build():
            model = MLP(dims, batch_norm=batch_norm,
                        rng=np.random.default_rng(seed + 1))
            model.train()
            return model, _square_sum_loss(model)

        _assert_parity(build, xs, fused)

    @settings(max_examples=10, deadline=None)
    @given(channels=st.integers(1, 3), out_channels=st.integers(1, 4),
           batch=st.integers(2, 4), batch_norm=st.booleans(),
           fused=st.booleans(), seed=st.integers(0, 2**16))
    def test_random_conv_graphs(self, channels, out_channels, batch,
                                batch_norm, fused, seed):
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(batch, channels, 5, 5)).astype(np.float32)
              for _ in range(3)]

        def build():
            init = np.random.default_rng(seed + 1)

            class ConvNet:
                def __init__(self):
                    self.conv = Conv2d(channels, out_channels, kernel_size=3,
                                       padding=1, rng=init)
                    self.bn = BatchNorm2d(out_channels) if batch_norm else None

                def parameters(self):
                    params = self.conv.parameters()
                    if self.bn is not None:
                        params = params + self.bn.parameters()
                    return params

                def named_parameters(self):
                    named = list(self.conv.named_parameters())
                    if self.bn is not None:
                        named += list(self.bn.named_parameters())
                    return named

                def state_dict(self):
                    state = dict(self.conv.state_dict())
                    if self.bn is not None:
                        state.update({f"bn.{k}": v
                                      for k, v in self.bn.state_dict().items()})
                    return state

                def __call__(self, x):
                    out = ops.relu(self.conv(x))
                    if self.bn is not None:
                        out = self.bn(out)
                    return out

            net = ConvNet()
            if net.bn is not None:
                net.bn.train()
            return net, _square_sum_loss(net)

        _assert_parity(build, xs, fused)


# ----------------------------------------------------------------------
# Fault hygiene: a poisoned replay, a guardrail-style restore, resume
# ----------------------------------------------------------------------
def _snapshot(model, params):
    return ([p.data.copy() for p in params],
            {name: buf.copy() for name, buf in model.named_buffers()})


def _restore(model, params, snap):
    datas, buffers = snap
    for p, d in zip(params, datas):
        np.copyto(p.data, d)
    for name, buf in model.named_buffers():
        np.copyto(buf, buffers[name])


def _run_mlp(n_steps=7, fault_before_step=None):
    """Train the two-view MLP through a TapedFunction.

    Before step ``fault_before_step``, one replay runs on a throwaway batch
    of NaN-filled views, then weights and buffers are restored
    guardrail-style.  Momentum is off so the restorable state is exactly
    (weights, buffers); the poisoned batch never reaches
    ``optimizer.step``, mirroring the guardrail's skip-batch rung.
    """
    model, step = _build_mlp()
    params = list(model.parameters())
    optimizer = SGD(params, lr=0.05, momentum=0.0)
    taped = TapedFunction(step)
    _build, shape, seed = TWO_VIEW_MODELS["mlp"]
    throwaway = [np.full_like(v, np.nan)
                 for v in _view_pairs(shape, 1, seed=777)[0]]
    trace = []
    for i, (v1, v2) in enumerate(_view_pairs(shape, n_steps, seed)):
        if i == fault_before_step:
            snap = _snapshot(model, params)
            optimizer.zero_grad()
            poisoned = taped(*throwaway)
            assert np.isnan(np.asarray(poisoned.data)).any()
            _restore(model, params, snap)
        optimizer.zero_grad()
        loss = taped(v1, v2)
        optimizer.step()
        trace.append(_step_state(model, params, loss))
    return trace, taped


class TestFaultHygiene:
    def test_nan_through_replay_restores_clean(self):
        """The tape survives the poisoned replay and resumed replayed steps
        match an unfaulted run bit for bit."""
        reference, _ = _run_mlp()
        trace, taped = _run_mlp(fault_before_step=4)
        assert taped.stats["captures"] == 1
        assert taped.stats["invalidations"] == 0
        _assert_traces_identical(reference, trace, "nan-through-replay")
