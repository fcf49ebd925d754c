"""``L_css`` and ``L_dis`` share one live-encoder pass per view (Eq. 9).

CaSSLe, PFR and EDSR apply both losses to the same ``f(x)``: one training
step encodes each new-data view once (and, for EDSR, the replay batch
once), so each of the encoder's BatchNorm layers moves its running
statistics once per encoded batch.  The step loss must equal the formula
that encoded every view a second time for ``L_dis``, kept here as
``double_encode_loss``: the forward values are identical, and the
parameter gradients agree to float32 rounding.
"""

import numpy as np
import pytest

from repro.continual import build_objective, make_method
from repro.continual.cassle import DISTILL_WEIGHT
from repro.continual.edsr import EDSR, REPLAY_WEIGHT
from repro.continual.trainer import _build_augment
from repro.nn import norm
from repro.nn.norm import _BatchNorm

METHODS = ["cassle", "pfr", "edsr"]
OBJECTIVES = ["simsiam", "barlow", "byol"]
#: Live-encoder passes per step: two views, plus EDSR's replay batch.
PASSES = {"cassle": 2, "pfr": 2, "edsr": 3}
#: Gradients may differ by float32 rounding (one backward through the
#: encoder with summed upstream gradients, against two backwards summed),
#: up to this fraction of the step's largest gradient entry; the largest
#: difference measured was 3e-6 of it.
GRAD_TOL = 1e-5


def method_at_task_one(name, objective_name, fast_config, tiny_sequence):
    """A method that finished task 0 and began task 1, built from seed 0."""
    config = fast_config.with_overrides(objective=objective_name)
    rng = np.random.default_rng(0)
    objective = build_objective(config, tiny_sequence[0].train.x.shape[1:],
                                rng)
    method = make_method(name, objective, config, rng)
    method.augment = _build_augment(tiny_sequence[0].train.x)
    method.begin_task(tiny_sequence[0], 0, len(tiny_sequence))
    method.end_task(tiny_sequence[0], 0)
    method.begin_task(tiny_sequence[1], 1, len(tiny_sequence))
    return method


def step_inputs(method, tiny_sequence):
    raw = tiny_sequence[1].train.x[:16]
    view1, view2 = method.augment(raw, np.random.default_rng(1))
    return view1, view2, raw


def double_encode_loss(method, view1, view2, raw):
    """The step loss as it was computed with two encodes per view:
    ``css_loss`` encodes both views, then each ``L_dis`` term encodes its
    view again."""
    objective = method.objective
    loss = objective.css_loss(view1, view2)
    distill = (method._distill(view1, objective.representation(view1))
               + method._distill(view2, objective.representation(view2))) * 0.5
    loss = loss + DISTILL_WEIGHT * distill
    if isinstance(method, EDSR):
        loss = loss + REPLAY_WEIGHT * method._replay_loss(raw)
    return loss


@pytest.mark.parametrize("objective_name", OBJECTIVES)
@pytest.mark.parametrize("name", METHODS)
def test_one_encoder_pass_per_batch(name, objective_name, fast_config,
                                    tiny_sequence, monkeypatch):
    method = method_at_task_one(name, objective_name, fast_config,
                                tiny_sequence)
    encoder = method.objective.encoder
    passes = []
    forward = encoder.forward
    monkeypatch.setattr(encoder, "forward",
                        lambda x: passes.append(len(x)) or forward(x))
    # One EMA may update a whole run's layers: count the layers it updates.
    updates = {}
    layers = [m for m in encoder.modules() if isinstance(m, _BatchNorm)]
    assert layers
    update = norm.update_running_stats

    def counted(updated, mean, var, count):
        for layer in updated:
            updates[id(layer)] = updates.get(id(layer), 0) + 1
        return update(updated, mean, var, count)

    monkeypatch.setattr(norm, "update_running_stats", counted)

    method.batch_loss(*step_inputs(method, tiny_sequence))
    assert passes[:2] == [16, 16]
    assert len(passes) == PASSES[name]
    assert [updates.get(id(layer), 0) for layer in layers] == \
        [PASSES[name]] * len(layers)


@pytest.mark.parametrize("objective_name", OBJECTIVES)
@pytest.mark.parametrize("name", METHODS)
def test_step_loss_equals_the_double_encode_formula(name, objective_name,
                                                    fast_config,
                                                    tiny_sequence):
    shared = method_at_task_one(name, objective_name, fast_config,
                                tiny_sequence)
    reference = method_at_task_one(name, objective_name, fast_config,
                                   tiny_sequence)
    inputs = step_inputs(shared, tiny_sequence)

    loss = shared.batch_loss(*inputs)
    expected = double_encode_loss(reference, *inputs)
    assert loss.numpy().tobytes() == expected.numpy().tobytes()

    loss.backward()
    expected.backward()
    params = shared.trainable_parameters()
    ref_params = reference.trainable_parameters()
    assert len(params) == len(ref_params)
    scale = max(float(np.abs(p.grad).max()) for p in ref_params)
    for param, ref_param in zip(params, ref_params):
        np.testing.assert_allclose(param.grad, ref_param.grad, rtol=0,
                                   atol=GRAD_TOL * scale)
