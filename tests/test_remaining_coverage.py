"""Coverage for smaller paths not exercised elsewhere."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.augment import (
    ColorJitter,
    Compose,
    GaussianBlur,
    RandomCrop,
    RandomGrayscale,
    RandomHorizontalFlip,
)
from repro.continual import run_multitask
from repro.eval import ContinualResult
from repro.utils import aggregate_runs


class TestMultitaskVerbose:
    def test_prints_epoch_lines(self, tiny_sequence, fast_config, capsys):
        run_multitask(tiny_sequence, fast_config, seed=0, verbose=True)
        out = capsys.readouterr().out
        assert out.count("[multitask] epoch") == fast_config.epochs


class TestContinualResultMisc:
    def test_repr_states_progress(self):
        r = ContinualResult(3, name="m")
        assert "empty" in repr(r)
        r.record_row([0.5])
        assert "1/3" in repr(r)
        r.record_row([0.5, 0.5])
        r.record_row([0.5, 0.5, 0.5])
        assert "Acc=0.5000" in repr(r)

    def test_forgetting_matrix_shape_tracks_rows(self):
        r = ContinualResult(4)
        r.record_row([0.9])
        r.record_row([0.8, 0.9])
        assert r.forgetting().shape == (2, 2)

    def test_fgt_text_percent(self):
        r = ContinualResult(2, name="m")
        r.record_row([1.0])
        r.record_row([0.9, 1.0])
        agg = aggregate_runs("m", [r])
        assert agg.fgt_text().startswith("10.00")


AUGMENT_OPS = [
    RandomCrop(1),
    RandomHorizontalFlip(),
    ColorJitter(),
    RandomGrayscale(),
    GaussianBlur(),
]


class TestAugmentComposition:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, len(AUGMENT_OPS) - 1), min_size=1, max_size=5),
           st.integers(0, 1000))
    def test_any_op_subset_preserves_shape_and_range(self, op_indices, seed):
        """Eq. 2: any sequential composition of ops is a valid augmentation."""
        pipeline = Compose([AUGMENT_OPS[i] for i in op_indices])
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(4, 3, 8, 8)).astype(np.float32)
        out = pipeline(x, rng)
        assert out.shape == x.shape
        assert out.min() >= -1e-6 and out.max() <= 1.0 + 1e-6
        assert np.isfinite(out).all()


class TestTabularMinVarPath:
    def test_edsr_minvar_on_tabular(self, fast_config):
        """Min-Var selection requires augmented-view variances; the tabular
        pipeline (SCARF) must feed it just like the image pipeline."""
        from repro.continual import run_method
        from repro.data import load_tabular_benchmark
        sequence = load_tabular_benchmark("ci")
        config = fast_config.with_overrides(selection="min-var", optimizer="adam",
                                            lr=1e-3, epochs=1)
        result, _ = run_method("edsr", sequence, config, seed=0)
        assert result.complete
