"""Fused-vs-unfused parity and gradcheck coverage for the fused kernels.

Every fused op ships with an exact unfused reference composition reachable
under ``no_fusion()``.  These tests pin the two paths against each other —
forward outputs and input gradients — to tight tolerance, and gradcheck
each fused kernel against the finite-difference reference so the coverage
auditor counts them (ops.linear, ops.mlp, ops.conv_stage,
ops.normalized_mse, plus the fused dispatch inside ops.l2_normalize and
ops.cosine_similarity; ops.batch_norm_train and ops.batch_norm_eval are
compositions only, gradchecked as such).  ``ops.mlp`` and
``ops.conv_stage`` have no unfused branch of their own; their reference is
the per-layer composition, built here from ``ops.linear``, ``conv2d``,
``ops.relu``, ``maxpool2d`` and the batch-norm ops under ``no_fusion()``.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, no_fusion, ops
from repro.tensor import engine


def _rng():
    return np.random.default_rng(1234)


def _grads(fn, arrays):
    """Run fn on float64 tensors, return (output, [grad per input])."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.sum().backward()
    return out.data, [t.grad for t in tensors]


def _assert_paths_match(fn, arrays, atol=1e-10):
    """Forward and gradients of ``fn`` agree with and without fusion."""
    fused_out, fused_grads = _grads(fn, arrays)
    with no_fusion():
        ref_out, ref_grads = _grads(fn, arrays)
    np.testing.assert_allclose(fused_out, ref_out, atol=atol, rtol=1e-8)
    for fg, rg in zip(fused_grads, ref_grads):
        np.testing.assert_allclose(fg, rg, atol=atol, rtol=1e-8)


class TestFusedLinear:
    def test_linear_parity(self):
        rng = _rng()
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(3,))
        _assert_paths_match(lambda x, w, b: ops.linear(x, w, b), [x, w, b])

    def test_linear_no_bias_parity(self):
        rng = _rng()
        x, w = rng.normal(size=(5, 4)), rng.normal(size=(4, 3))
        _assert_paths_match(lambda x, w: ops.linear(x, w), [x, w])

    def test_linear_gradcheck(self):
        rng = _rng()
        assert check_gradients(
            lambda x, w, b: ops.linear(x, w, b),
            [rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(2,))])

    def test_linear_falls_back_for_non_2d(self):
        rng = _rng()
        x = rng.normal(size=(2, 5, 4))
        w = rng.normal(size=(4, 3))
        out = ops.linear(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x @ w)


class TestFusedNormalizeFamily:
    def test_l2_normalize_parity(self):
        rng = _rng()
        for axis in (-1, 0, 1):
            x = rng.normal(size=(5, 4))
            _assert_paths_match(lambda x, axis=axis: ops.l2_normalize(x, axis=axis), [x])

    def test_l2_normalize_custom_eps_parity(self):
        rng = _rng()
        x = rng.normal(size=(5, 4))
        _assert_paths_match(lambda x: ops.l2_normalize(x, axis=0, eps=1e-8), [x])

    def test_l2_normalize_gradcheck(self):
        rng = _rng()
        assert check_gradients(lambda x: ops.l2_normalize(x, axis=1),
                               [rng.normal(size=(3, 4))])

    def test_cosine_similarity_parity(self):
        rng = _rng()
        a, b = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        _assert_paths_match(lambda a, b: ops.cosine_similarity(a, b), [a, b])

    def test_cosine_similarity_gradcheck(self):
        rng = _rng()
        assert check_gradients(lambda a, b: ops.cosine_similarity(a, b),
                               [rng.normal(size=(3, 5)), rng.normal(size=(3, 5))])

    def test_normalized_mse_parity(self):
        rng = _rng()
        p, t = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        _assert_paths_match(lambda p, t: ops.normalized_mse(p, t, axis=1), [p, t])

    def test_normalized_mse_gradcheck(self):
        rng = _rng()
        assert check_gradients(lambda p, t: ops.normalized_mse(p, t, axis=1),
                               [rng.normal(size=(3, 5)), rng.normal(size=(3, 5))])

    def test_normalized_mse_equals_two_minus_two_cosine(self):
        # On unit-ish vectors the BYOL loss is 2 - 2 cos to high accuracy.
        rng = _rng()
        p, t = rng.normal(size=(4, 16)), rng.normal(size=(4, 16))
        mse = ops.normalized_mse(Tensor(p), Tensor(t), axis=1).data
        cos = ops.cosine_similarity(Tensor(p), Tensor(t), axis=1).data
        np.testing.assert_allclose(mse, 2.0 - 2.0 * cos, atol=1e-10)


def _bn_train(axes, relu, scale):
    """Train-mode BatchNorm (affine, optional ReLU) weighted by ``scale``."""
    def fn(x, w, b):
        y = ops.batch_norm_train(x, w, b, axes, 1e-5)[0]
        return (ops.relu(y) if relu else y) * scale
    return fn


#: (input shape, reduction axes) of BatchNorm1d and BatchNorm2d.
BN_LAYOUTS = [((6, 4), (0,)), ((3, 2, 3, 3), (0, 2, 3))]


def _bn_inputs(shape, seed=1234):
    rng = np.random.default_rng(seed)
    channels = shape[1]
    return (rng.normal(size=shape), rng.normal(size=channels),
            rng.normal(size=channels), Tensor(rng.normal(size=shape)))


def _running_stats(channels, seed=99):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=channels).astype(np.float32),
            rng.uniform(0.5, 2.0, size=channels).astype(np.float32))


def _stage(relu, pool=0, stride=1, running=None, stat_callback=None):
    """A 3x3 conv stage: one ``ops.conv_stage`` dispatch when fused, and
    the ops of its layers one by one under ``no_fusion()``."""
    geometry = dict(kernel=3, stride=stride, padding=1)

    def fn(x, w, gamma, beta):
        if engine.fusion_enabled():
            return ops.conv_stage(x, w, gamma, beta, eps=1e-5, relu=relu,
                                  pool=pool, running=running,
                                  stat_callback=stat_callback, **geometry)
        y = engine.apply("conv2d", x, w, **geometry)
        if running is None:
            y, mean, var = ops.batch_norm_train(y, gamma, beta, (0, 2, 3), 1e-5)
            if stat_callback is not None:
                stat_callback(mean, var)
        else:
            y = ops.batch_norm_eval(y, gamma, beta, *running, (0, 2, 3), 1e-5)
        if relu:
            y = ops.relu(y)
        return engine.apply("maxpool2d", y, kernel=pool) if pool else y
    return fn


def _stage_inputs(samples, channels, size=4, seed=1234):
    """x, the conv weight, the BatchNorm weight and bias, and an output
    weight of the stage's output shape (``stride``, ``pool`` as given)."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(samples, 3, size, size)),
            rng.normal(size=(27, channels)), rng.normal(size=channels),
            rng.normal(size=channels)]


def _weighted(fn, scale_seed=7):
    """``fn``'s output times a fixed random weight of its shape, so the
    train-form gradient is O(1) rather than the degenerate ~0 a plain sum
    of BatchNorm outputs gives."""
    def weighted(*tensors):
        out = fn(*tensors)
        scale = np.random.default_rng(scale_seed).normal(size=out.shape)
        return out * Tensor(scale)
    return weighted


class TestFusedBatchNorm:
    # BatchNorm runs inside the ``conv_stage`` (and ``mlp``) dispatch; the
    # parity cases compare a stage with its layers' ops under
    # ``no_fusion()``.  Parity tolerance note: the composed Tensor.mean
    # multiplies by a weak scalar 1/count that coerces to float32 (the
    # engine's historical behavior), while the fused kernel divides
    # exactly — a benign ~2e-9 relative divergence, with the fused path the
    # more accurate one.  The output is weighted so the BN gradient is O(1).

    def test_batch_norm_parity(self):
        arrays = _stage_inputs(8, 5)
        for relu in (False, True):
            _assert_paths_match(_weighted(_stage(relu)), arrays, atol=1e-6)

    def test_batch_norm_2d_axes_parity(self):
        arrays = _stage_inputs(4, 3, size=8)
        for relu in (False, True):
            _assert_paths_match(_weighted(_stage(relu, pool=2, stride=2)),
                                arrays, atol=1e-6)

    def test_batch_norm_gradcheck(self):
        x, w, b, scale = _bn_inputs((6, 4))
        assert check_gradients(
            lambda x, w, b: ops.batch_norm_train(x, w, b, (0,), 1e-5)[0] * scale,
            [x, w, b])

    @pytest.mark.parametrize("shape,axes", BN_LAYOUTS)
    def test_batch_norm_relu_gradcheck(self, shape, axes):
        x, w, b, scale = _bn_inputs(shape)
        assert check_gradients(_bn_train(axes, True, scale), [x, w, b])

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("shape,axes", BN_LAYOUTS)
    def test_batch_norm_eval_parity(self, shape, axes, relu):
        """The eval-form stage whose BatchNorm sees ``shape``'s samples and
        channels."""
        arrays = _stage_inputs(*shape[:2])
        running = _running_stats(shape[1])
        _assert_paths_match(_stage(relu, pool=2, running=running), arrays)

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("shape,axes", BN_LAYOUTS)
    def test_batch_norm_eval_gradcheck(self, shape, axes, relu):
        x, w, b, _scale = _bn_inputs(shape)
        running_mean, running_var = _running_stats(shape[1])

        def fn(x, w, b):
            y = ops.batch_norm_eval(x, w, b, running_mean, running_var, axes,
                                    1e-5)
            return ops.relu(y) if relu else y
        assert check_gradients(fn, [x, w, b])

    def test_batch_norm_stats_match_numpy(self):
        rng = _rng()
        x = rng.normal(size=(16, 3)).astype(np.float32)
        w = Tensor(np.ones(3, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32))
        out, mean, var = ops.batch_norm_train(Tensor(x), w, b, (0,), 1e-5)
        np.testing.assert_allclose(mean.reshape(-1), x.mean(axis=0), atol=1e-6)
        np.testing.assert_allclose(var.reshape(-1), x.var(axis=0), atol=1e-6)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-6)

    def test_batch_norm_stats_match_under_no_fusion(self):
        """The stage's batch statistics, as its stat callback receives them."""
        arrays = [Tensor(a.astype(np.float32)) for a in _stage_inputs(16, 3)]
        stats = []

        def record(mean, var):
            stats.append((mean.reshape(-1), var.reshape(-1)))
        _stage(True, stat_callback=record)(*arrays)
        with no_fusion():
            _stage(True, stat_callback=record)(*arrays)
        (mean, var), (mean2, var2) = stats
        np.testing.assert_allclose(mean, mean2, atol=1e-6)
        np.testing.assert_allclose(var, var2, atol=1e-6)


class TestFusedConvStage:
    @pytest.mark.parametrize("pool", [0, 2], ids=["no-pool", "pool"])
    @pytest.mark.parametrize("relu", [False, True], ids=["affine", "relu"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_conv_stage_gradcheck(self, mode, relu, pool):
        running = None if mode == "train" else _running_stats(2)
        assert check_gradients(
            lambda x, w, gamma, beta: ops.conv_stage(
                x, w, gamma, beta, kernel=3, stride=1, padding=1, eps=1e-5,
                relu=relu, pool=pool, running=running)
            * Tensor(np.random.default_rng(7).normal(
                size=(3, 2, 4 // (pool or 1), 4 // (pool or 1)))),
            _stage_inputs(3, 2))


#: (bias, norm, relu) per Linear of an ``ops.mlp`` run, and the shape of
#: each layer's weight.
MLP_RUNS = {
    "linear-relu-linear": (((True, None, True), (True, None, False)),
                           [(4, 3), (3, 2)]),
    "bn-train-relu": (((True, "train", True), (True, None, False)),
                      [(4, 5), (5, 2)]),
    "mixed-modes": (((True, "train", True), (True, None, True),
                     (False, "eval", False)), [(4, 5), (5, 3), (3, 2)]),
}


def _mlp_inputs(layers, shapes, seed=1234):
    """x, the run's parameters in input order, and the eval layers' stats."""
    rng = np.random.default_rng(seed)
    params, running = [], []
    for (bias, norm, _relu), shape in zip(layers, shapes):
        params.append(rng.normal(size=shape))
        if bias:
            params.append(rng.normal(size=shape[1]))
        if norm is not None:
            params += [rng.normal(size=shape[1]), rng.normal(size=shape[1])]
        if norm == "eval":
            running.append(_running_stats(shape[1]))
    x = rng.normal(size=(6, shapes[0][0]))
    scale = Tensor(rng.normal(size=(6, shapes[-1][1])))
    return [x] + params, tuple(running), scale


def _mlp_composed(layers, running):
    """The run layer by layer: ``linear``, then batch norm or ``relu``."""
    def fn(x, *params):
        params, stats = iter(params), iter(running)
        for bias, norm, relu in layers:
            x = ops.linear(x, next(params), next(params) if bias else None)
            if norm == "train":
                x = ops.batch_norm_train(x, next(params), next(params), (0,),
                                         1e-5)[0]
            elif norm == "eval":
                x = ops.batch_norm_eval(x, next(params), next(params),
                                        *next(stats), (0,), 1e-5)
            if relu:
                x = ops.relu(x)
        return x
    return fn


class TestFusedMlp:
    @pytest.mark.parametrize("run", sorted(MLP_RUNS))
    def test_mlp_parity(self, run):
        layers, shapes = MLP_RUNS[run]
        arrays, running, scale = _mlp_inputs(layers, shapes)
        fused_out, fused_grads = _grads(
            lambda x, *p: ops.mlp(x, p, layers, eps=1e-5,
                                  running=running) * scale, arrays)
        with no_fusion():
            ref_out, ref_grads = _grads(
                lambda *a: _mlp_composed(layers, running)(*a) * scale, arrays)
        np.testing.assert_allclose(fused_out, ref_out, atol=1e-6, rtol=1e-8)
        for fg, rg in zip(fused_grads, ref_grads, strict=True):
            np.testing.assert_allclose(fg, rg, atol=1e-6, rtol=1e-8)

    @pytest.mark.parametrize("run", sorted(MLP_RUNS))
    def test_mlp_gradcheck(self, run):
        layers, shapes = MLP_RUNS[run]
        arrays, running, scale = _mlp_inputs(layers, shapes)
        assert check_gradients(
            lambda x, *p: ops.mlp(x, p, layers, eps=1e-5,
                                  running=running) * scale, arrays)


class TestFusedConv:
    def test_conv_forward_matches_previous_composition(self):
        from repro.nn.conv import Conv2d

        rng = _rng()
        conv = Conv2d(3, 4, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        out = conv(Tensor(x))
        # reference: explicit im2col + matmul + bias
        from repro.nn.conv import _im2col
        cols, oh, ow = _im2col(x, kernel=3, stride=1, padding=1)
        flat = cols.reshape(-1, cols.shape[-1])
        ref = (flat @ conv.weight.data + conv.bias.data)
        ref = ref.reshape(2, oh, ow, 4).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    def test_conv_gradcheck_through_layer(self):
        from repro.nn.conv import Conv2d

        conv = Conv2d(2, 3, kernel_size=2, stride=1, padding=1,
                      rng=np.random.default_rng(0))
        # promote parameters to float64 for the finite-difference check
        x0 = np.random.default_rng(5).normal(size=(2, 2, 4, 4))

        def fn(x, w, b):
            params = dict(kernel=2, stride=1, padding=1)
            return engine.apply("conv2d", x, w, b, **params)

        assert check_gradients(
            fn, [x0, conv.weight.data.astype(np.float64),
                 conv.bias.data.astype(np.float64)])


class TestSequentialFusion:
    def test_mlp_without_norm_fuses_and_matches(self):
        from repro.nn.container import Sequential
        from repro.nn.linear import Linear
        from repro.nn.activation import ReLU

        rng = np.random.default_rng(0)
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        x = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)

        out_fused = model(Tensor(x))
        with no_fusion():
            out_ref = model(Tensor(x))
        np.testing.assert_allclose(out_fused.data, out_ref.data, atol=1e-6)

    def test_sequential_fusion_gradients_match(self):
        from repro.nn.container import Sequential
        from repro.nn.linear import Linear
        from repro.nn.activation import ReLU

        rng = np.random.default_rng(0)
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        x = np.random.default_rng(1).normal(size=(5, 4)).astype(np.float32)

        model(Tensor(x)).sum().backward()
        fused = [p.grad.copy() for p in model.parameters()]
        model.zero_grad()
        with no_fusion():
            model(Tensor(x)).sum().backward()
        for fg, p in zip(fused, model.parameters()):
            np.testing.assert_allclose(fg, p.grad, atol=1e-5)


    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batch_norm_relu_fold_matches_unfused(self, training):
        """A conv stage: the conv, its BatchNorm, the ReLU and the pool."""
        from repro.nn import BatchNorm2d, Conv2d, MaxPool2d, ReLU, Sequential

        rng = np.random.default_rng(0)
        model = Sequential(Conv2d(3, 4, 3, padding=1, bias=False, rng=rng),
                           BatchNorm2d(4), ReLU(), MaxPool2d(2))
        model.train(training)
        x = np.random.default_rng(1).normal(size=(5, 3, 4, 4)).astype(np.float32)
        scale = Tensor(np.random.default_rng(2).normal(size=(5, 4, 2, 2)))

        out_fused = model(Tensor(x))
        (out_fused * scale).sum().backward()
        fused = [p.grad.copy() for p in model.parameters()]
        model.zero_grad()
        with no_fusion():
            out_ref = model(Tensor(x))
            (out_ref * scale).sum().backward()
        np.testing.assert_allclose(out_fused.data, out_ref.data, atol=1e-5)
        for fg, p in zip(fused, model.parameters()):
            np.testing.assert_allclose(fg, p.grad, atol=1e-5)


class TestFusionToggle:
    def test_no_fusion_restores_previous_state(self):
        assert engine.fusion_enabled()
        with no_fusion():
            assert not engine.fusion_enabled()
            with no_fusion():
                assert not engine.fusion_enabled()
            assert not engine.fusion_enabled()
        assert engine.fusion_enabled()

    def test_set_fusion_returns_previous(self):
        prev = engine.set_fusion(False)
        try:
            assert prev is True
            assert not engine.fusion_enabled()
        finally:
            engine.set_fusion(prev)
