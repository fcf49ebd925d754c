"""Tests for model/result serialization."""

import numpy as np
import pytest

from repro.eval import ContinualResult
from repro.nn import MLP
from repro.tensor import Tensor
from repro.runtime import CheckpointManager
from repro.utils import load_result, save_result


class TestModelRoundtrip:
    """A model persists as its state dict inside a run checkpoint."""

    def _reload(self, model, fresh, directory):
        manager = CheckpointManager(directory)
        manager.save(0, {"model": model.state_dict()})
        fresh.load_state_dict(manager.load_latest().state["model"])
        return fresh

    def test_identical_outputs_after_reload(self, rng, tmp_path):
        model = MLP([4, 8, 2], batch_norm=True, rng=rng)
        model.eval()
        fresh = self._reload(model, MLP([4, 8, 2], batch_norm=True,
                                        rng=np.random.default_rng(777)),
                             tmp_path)
        fresh.eval()
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32))
        np.testing.assert_array_equal(fresh(x).numpy(), model(x).numpy())

    def test_wrong_architecture_raises(self, rng, tmp_path):
        model = MLP([4, 8, 2], rng=rng)
        with pytest.raises((KeyError, ValueError)):
            self._reload(model, MLP([4, 16, 2], rng=rng), tmp_path)


class TestResultRoundtrip:
    def _result(self):
        r = ContinualResult(3, name="edsr")
        r.record_row([0.9])
        r.record_row([0.85, 0.92])
        r.record_row([0.8, 0.9, 0.95])
        r.elapsed_seconds = 12.5
        return r

    def test_metrics_preserved(self, tmp_path):
        original = self._result()
        path = tmp_path / "result.json"
        save_result(original, path)
        restored = load_result(path)
        assert restored.name == "edsr"
        assert restored.acc() == pytest.approx(original.acc())
        assert restored.fgt() == pytest.approx(original.fgt())
        assert restored.elapsed_seconds == pytest.approx(12.5)
        np.testing.assert_allclose(restored.accuracy_matrix,
                                   original.accuracy_matrix, equal_nan=True)

    def test_partial_result_roundtrip(self, tmp_path):
        r = ContinualResult(3, name="partial")
        r.record_row([0.9])
        path = tmp_path / "partial.json"
        save_result(r, path)
        restored = load_result(path)
        assert not restored.complete
        assert restored.acc_at(0) == pytest.approx(0.9)

    def test_partial_result_full_equality(self, tmp_path):
        # Interrupted runs must round-trip exactly: row count, matrix, name,
        # and elapsed_seconds (previously inferred by breaking on None rows).
        r = ContinualResult(4, name="interrupted")
        r.record_row([0.9])
        r.record_row([0.85, 0.92])
        r.elapsed_seconds = 7.25
        path = tmp_path / "partial.json"
        save_result(r, path)
        restored = load_result(path)
        assert restored.rows_recorded == 2
        assert restored.n_tasks == 4
        assert restored.name == "interrupted"
        assert restored.elapsed_seconds == pytest.approx(7.25)
        np.testing.assert_allclose(restored.accuracy_matrix, r.accuracy_matrix,
                                   equal_nan=True)

    def test_empty_result_roundtrip(self, tmp_path):
        import json
        r = ContinualResult(3, name="empty")
        r.elapsed_seconds = 1.5
        path = tmp_path / "empty.json"
        save_result(r, path)
        payload = json.loads(path.read_text())
        assert payload["rows_recorded"] == 0
        assert payload["acc"] is None and payload["fgt"] is None
        restored = load_result(path)
        assert restored.rows_recorded == 0
        assert restored.elapsed_seconds == pytest.approx(1.5)

    def test_recorded_row_with_null_is_an_error(self, tmp_path):
        import json
        path = tmp_path / "bad.json"
        save_result(self._result(), path)
        payload = json.loads(path.read_text())
        payload["accuracy_matrix"][1][0] = None  # corrupt a recorded row
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="null"):
            load_result(path)

    @pytest.mark.parametrize("field, value, match", [
        ("accuracy_matrix", [[0.9, None, None], [0.85, 0.92, None]],
         "not 3x3"),
        ("accuracy_matrix", [[0.9, None], [0.85, 0.92], [0.8, 0.9]],
         "not 3x3"),
        ("rows_recorded", 4, "outside"),
        ("rows_recorded", -1, "outside"),
    ], ids=["matrix-rows-short", "matrix-columns-short",
            "rows-recorded-past-n-tasks", "rows-recorded-negative"])
    def test_file_contradicting_its_header_is_an_error(self, tmp_path, field,
                                                       value, match):
        import json
        path = tmp_path / "bad.json"
        save_result(self._result(), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            load_result(path)

    def test_legacy_file_without_rows_recorded(self, tmp_path):
        # Files from before rows_recorded (and the probe field) are not
        # read: `repro compare --resume` counts them as unreadable and
        # restores the run from its checkpoints.
        import json
        path = tmp_path / "legacy.json"
        save_result(self._result(), path)
        payload = json.loads(path.read_text())
        del payload["rows_recorded"]
        path.write_text(json.dumps(payload))
        with pytest.raises(KeyError, match="rows_recorded"):
            load_result(path)

    def test_json_is_plain(self, tmp_path):
        import json
        path = tmp_path / "result.json"
        save_result(self._result(), path)
        payload = json.loads(path.read_text())
        assert payload["n_tasks"] == 3
        assert payload["accuracy_matrix"][0][1] is None
