"""Unit tests for the first-class TransferMatrix result object."""

import json

import numpy as np
import pytest

from repro.eval import TransferMatrix
from repro.utils.serialization import (load_transfer_matrix,
                                       save_transfer_matrix)


def small_matrix() -> TransferMatrix:
    """3 rows over a 3-task panel, row i trains on task i."""
    return TransferMatrix(
        3, ["task-0", "task-1", "task-2"], name="edsr", scenario="blurry",
        row_sources=[0, 1, 2], chance=[0.5, 0.5, 0.5])


def filled_matrix() -> TransferMatrix:
    matrix = small_matrix()
    matrix.record_row([0.50, 0.50, 0.50], [0.90, 0.60, 0.55])
    matrix.record_row([0.85, 0.65, 0.58], [0.80, 0.92, 0.60])
    matrix.record_row([0.78, 0.88, 0.62], [0.75, 0.85, 0.95])
    return matrix


class TestRecording:
    def test_rows_append_in_order(self):
        matrix = small_matrix()
        assert matrix.rows_recorded == 0 and not matrix.complete
        matrix.record_row([0.5] * 3, [0.6] * 3)
        assert matrix.rows_recorded == 1
        np.testing.assert_array_equal(matrix.online[0], [0.5] * 3)
        np.testing.assert_array_equal(matrix.final[0], [0.6] * 3)
        assert np.isnan(matrix.online[1]).all()

    def test_complete_after_all_rows(self):
        matrix = filled_matrix()
        assert matrix.complete
        with pytest.raises(RuntimeError, match="all rows"):
            matrix.record_row([0.5] * 3, [0.5] * 3)

    def test_row_length_is_validated(self):
        matrix = small_matrix()
        with pytest.raises(ValueError, match="online"):
            matrix.record_row([0.5, 0.5], [0.5] * 3)
        with pytest.raises(ValueError, match="final"):
            matrix.record_row([0.5] * 3, [0.5] * 4)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n_rows"):
            TransferMatrix(0, ["a"])
        with pytest.raises(ValueError, match="eval_names"):
            TransferMatrix(1, [])
        with pytest.raises(ValueError, match="row_sources"):
            TransferMatrix(2, ["a"], row_sources=[0])
        with pytest.raises(ValueError, match="chance"):
            TransferMatrix(1, ["a", "b"], chance=[0.5])


class TestMetrics:
    def test_final_accuracy_is_last_row_mean(self):
        matrix = filled_matrix()
        assert matrix.final_accuracy() == pytest.approx(
            np.mean([0.75, 0.85, 0.95]))

    def test_online_accuracy_reads_source_columns(self):
        matrix = filled_matrix()
        assert matrix.online_accuracy() == pytest.approx(
            np.mean([0.50, 0.65, 0.62]))

    def test_forgetting_is_peak_to_final_over_trained_columns(self):
        matrix = filled_matrix()
        # Column 2 first trains at the last row: no forgetting term.
        assert matrix.forgetting() == pytest.approx(
            np.mean([0.90 - 0.75, 0.92 - 0.85]))

    def test_forward_transfer_above_chance_before_first_training(self):
        matrix = filled_matrix()
        # Column 0 trains at row 0 (excluded); columns 1 and 2 first train
        # at rows 1 and 2 with online 0.65 and 0.62 against chance 0.5.
        assert matrix.forward_transfer() == pytest.approx(
            np.mean([0.65 - 0.5, 0.62 - 0.5]))

    def test_metrics_on_empty_matrix(self):
        matrix = small_matrix()
        assert np.isnan(matrix.final_accuracy())
        assert np.isnan(matrix.online_accuracy())
        assert np.isnan(matrix.forgetting())
        assert np.isnan(matrix.forward_transfer())

    def test_nan_chance_disables_fwt_column(self):
        matrix = TransferMatrix(2, ["a", "b"], row_sources=[0, 1],
                                chance=[0.5, float("nan")])
        matrix.record_row([0.5, 0.4], [0.9, 0.5])
        matrix.record_row([0.8, 0.7], [0.85, 0.9])
        assert np.isnan(matrix.forward_transfer())

    def test_summary_is_json_safe(self):
        matrix = filled_matrix()
        summary = matrix.summary()
        json.dumps(summary)
        assert summary["final_accuracy"] == pytest.approx(
            matrix.final_accuracy())
        empty = small_matrix().summary()
        assert empty["final_accuracy"] is None


class TestSerialization:
    def test_state_dict_round_trip(self):
        matrix = filled_matrix()
        clone = small_matrix()
        clone.load_state_dict(matrix.state_dict())
        np.testing.assert_array_equal(clone.online, matrix.online)
        np.testing.assert_array_equal(clone.final, matrix.final)
        assert clone.rows_recorded == matrix.rows_recorded
        assert clone.row_sources == matrix.row_sources

    def test_load_rejects_wrong_shape(self):
        matrix = filled_matrix()
        other = TransferMatrix(2, ["a", "b"])
        with pytest.raises(ValueError, match="rows"):
            other.load_state_dict(matrix.state_dict())

    def test_payload_round_trip_preserves_nan_as_none(self):
        matrix = small_matrix()
        matrix.record_row([0.5, float("nan"), 0.5], [0.6, 0.7, float("nan")])
        payload = json.loads(json.dumps(matrix.to_payload()))
        assert payload["online"][0][1] is None
        clone = TransferMatrix.from_payload(payload)
        np.testing.assert_array_equal(clone.online, matrix.online)
        np.testing.assert_array_equal(clone.final, matrix.final)
        assert clone.rows_recorded == 1
        assert clone.scenario == "blurry"

    def test_file_round_trip_via_atomic_writer(self, tmp_path):
        matrix = filled_matrix()
        path = tmp_path / "transfer.json"
        save_transfer_matrix(matrix, path)
        loaded = load_transfer_matrix(path)
        np.testing.assert_array_equal(loaded.online, matrix.online)
        np.testing.assert_array_equal(loaded.final, matrix.final)
        assert loaded.eval_names == matrix.eval_names
        # Byte-determinism: saving the loaded matrix reproduces the file.
        again = tmp_path / "again.json"
        save_transfer_matrix(loaded, again)
        assert path.read_bytes() == again.read_bytes()
