"""Semantic behaviour tests: do the mechanisms do what the paper claims?

These go beyond interface contracts — each test sets up a small controlled
scenario and checks the *direction* of an effect (representation anchoring,
drift under finetuning, selection informativeness).
"""

import numpy as np
import pytest

from repro.continual import ContinualConfig, build_objective
from repro.continual.trainer import _build_augment
from repro.eval.protocol import extract_representations
from repro.optim import SGD
from repro.ssl import DistillationHead
from repro.tensor.tensor import no_grad


@pytest.fixture
def scenario(tiny_sequence, rng):
    config = ContinualConfig(epochs=2, representation_dim=16, batch_size=16)
    objective = build_objective(config, tiny_sequence[0].train.x.shape[1:], rng)
    augment = _build_augment(tiny_sequence[0].train.x)
    return config, objective, augment


def _train_steps(objective, head, x_new, x_old, old_objective, augment, rng,
                 distill: bool, steps: int = 20):
    params = objective.parameters() + (head.parameters() if head else [])
    optimizer = SGD(params, lr=0.05, momentum=0.9)
    for _ in range(steps):
        view1, view2 = augment(x_new, rng), augment(x_new, rng)
        optimizer.zero_grad()
        loss = objective.css_loss(view1, view2)
        if distill:
            view = augment(x_old, rng)
            with no_grad():
                target = old_objective.representation(view).numpy()
            loss = loss + head.loss(objective.representation(view), target)
        loss.backward()
        optimizer.step()


class TestDistillationAnchorsOldRepresentations:
    def test_drift_reduced_by_memory_distillation(self, scenario, tiny_sequence, rng):
        """Training on task B drifts task A's representations; distilling a
        stored task-A batch through the old model must reduce that drift
        (measured as change in A's pairwise cosine structure)."""
        config, objective, augment = scenario
        x_a = tiny_sequence[0].train.x[:24]
        x_b = tiny_sequence[1].train.x[:24]

        def cosine_structure(obj):
            reps = extract_representations(obj, x_a)
            normalized = reps / (np.linalg.norm(reps, axis=1, keepdims=True) + 1e-12)
            return normalized @ normalized.T

        import copy
        start_state = objective.state_dict()
        old = objective.copy()
        old.eval()
        before = cosine_structure(objective)

        # finetune on B only
        _train_steps(objective, None, x_b, None, None, augment.pipeline, rng,
                     distill=False)
        drift_plain = np.abs(cosine_structure(objective) - before).mean()

        # reset, then train on B with memory distillation of A
        objective.load_state_dict(start_state)
        head = DistillationHead(objective, rng=np.random.default_rng(0))
        _train_steps(objective, head, x_b, x_a, old, augment.pipeline,
                     np.random.default_rng(1), distill=True)
        drift_distilled = np.abs(cosine_structure(objective) - before).mean()

        assert drift_distilled < drift_plain


class TestSelectionInformativeness:
    def test_high_entropy_memory_spans_more_of_the_data(self, scenario, tiny_sequence, rng):
        """The chosen subset should reconstruct the representation space
        better than a random subset: lower mean residual when projecting all
        representations onto the selected span."""
        from repro.selection import HighEntropySelection, SelectionContext
        _config, objective, _augment = scenario
        reps = extract_representations(objective, tiny_sequence[0].train.x)
        reps = reps - reps.mean(axis=0)
        budget = 6

        def residual(indices):
            basis, _r = np.linalg.qr(reps[indices].T)
            projected = reps @ basis @ basis.T
            return np.linalg.norm(reps - projected, axis=1).mean()

        context = SelectionContext(representations=reps, budget=budget,
                                   rng=np.random.default_rng(0))
        chosen = HighEntropySelection().select(context)
        random_residuals = [
            residual(np.random.default_rng(s).choice(len(reps), budget, replace=False))
            for s in range(15)
        ]
        assert residual(chosen) < np.mean(random_residuals)


class TestNoiseScalesTrackDensity:
    def test_noise_smaller_in_denser_neighbourhoods(self, scenario, tiny_sequence):
        """r(x) must reflect local representation density (Sec. III-B)."""
        from repro.replay import noise_scales
        _config, objective, _augment = scenario
        reps = extract_representations(objective, tiny_sequence[0].train.x)
        dense = np.tile(reps[:1], (20, 1)) + 0.001 * np.random.default_rng(0).normal(
            size=(20, reps.shape[1]))
        pool = np.concatenate([dense, reps])
        scales = noise_scales(pool, pool, k=5, mode="scalar")
        assert scales[:20].mean() < scales[20:].mean()
