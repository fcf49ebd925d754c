"""Tests for the atomic checkpoint layer (flattening + manager)."""

import json

import numpy as np
import pytest

from repro.faults import plane
from repro.runtime import (
    CheckpointManager,
    atomic_write_bytes,
    check_serializable,
    flatten_state,
    unflatten_state,
)
from repro.runtime.checkpoint import _manifest_digest


def sample_state():
    return {
        "weights": np.arange(6, dtype=np.float32).reshape(2, 3),
        "nested": {
            "momentum": np.zeros(4),
            "step": 7,
            "name": "sgd",
            "nothing": None,
        },
        "rows": [np.ones(2), {"inner": np.full(3, 2.0)}, 1.5],
        "flag": True,
    }


class TestFlatten:
    def test_roundtrip_preserves_tree_and_arrays(self):
        state = sample_state()
        tree, arrays = flatten_state(state)
        restored = unflatten_state(tree, arrays)
        assert restored["nested"]["step"] == 7
        assert restored["nested"]["name"] == "sgd"
        assert restored["nested"]["nothing"] is None
        assert restored["flag"] is True
        np.testing.assert_array_equal(restored["weights"], state["weights"])
        np.testing.assert_array_equal(restored["rows"][1]["inner"],
                                      state["rows"][1]["inner"])

    def test_tree_is_json_serializable(self):
        tree, _arrays = flatten_state(sample_state())
        json.dumps(tree)  # must not raise

    def test_tuples_come_back_as_lists(self):
        tree, arrays = flatten_state({"t": (1, 2)})
        restored = unflatten_state(tree, arrays)
        assert restored["t"] == [1, 2]

    def test_numpy_scalars_become_python_scalars(self):
        tree, _ = flatten_state({"a": np.int64(3), "b": np.float32(1.5),
                                 "c": np.bool_(True)})
        assert tree["a"] == 3 and isinstance(tree["a"], int)
        assert tree["b"] == pytest.approx(1.5) and isinstance(tree["b"], float)
        assert tree["c"] is True

    def test_object_array_rejected_with_path(self):
        bad = {"buf": {"records": [np.array([object()], dtype=object)]}}
        with pytest.raises(TypeError, match=r"state/buf/records/0"):
            flatten_state(bad)

    def test_non_string_key_rejected(self):
        with pytest.raises(TypeError, match="not a string"):
            flatten_state({"state": {3: np.zeros(1)}})

    def test_reserved_key_rejected(self):
        with pytest.raises(TypeError, match="reserved"):
            flatten_state({"__ndarray__": "x"})

    def test_unserializable_leaf_rejected_with_path(self):
        with pytest.raises(TypeError, match=r"state/cb.*function"):
            flatten_state({"cb": lambda: None})

    def test_check_serializable_passes_good_state(self):
        check_serializable(sample_state())

    def test_check_serializable_names_bad_path(self):
        with pytest.raises(TypeError, match=r"state/rng"):
            check_serializable({"rng": np.random.default_rng(0)})


class TestCheckpointManager:
    def test_save_and_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        state = sample_state()
        manager.save(3, state)
        loaded = manager.load_latest()
        assert loaded is not None
        assert loaded.task_index == 3
        assert loaded.skipped == []
        np.testing.assert_array_equal(loaded.state["weights"], state["weights"])
        assert loaded.state["nested"]["step"] == 7

    def test_load_latest_returns_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        manager.save(1, {"v": np.array([1.0])})
        loaded = manager.load_latest()
        assert loaded.task_index == 1
        np.testing.assert_array_equal(loaded.state["v"], [1.0])

    def test_empty_directory_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        newest = manager.save(1, {"v": np.array([1.0])})
        newest.write_text("{not json", encoding="utf-8")
        loaded = manager.load_latest()
        assert loaded.task_index == 0
        assert len(loaded.skipped) == 1
        assert "ckpt-00001.json" in loaded.skipped[0]

    def test_truncated_npz_is_skipped(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        manager.save(1, {"v": np.array([1.0])})
        npz = tmp_path / "ckpt-00001.npz"
        npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
        loaded = manager.load_latest()
        assert loaded.task_index == 0

    def test_flipped_bits_fail_checksum(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        manager.save(1, {"v": np.arange(64, dtype=np.float64)})
        manifest = json.loads((tmp_path / "ckpt-00001.json").read_text())
        # Point the manifest at a checksum the data can no longer satisfy,
        # and re-sign it so the array check, not the digest, rejects it.
        key = next(iter(manifest["checksums"]))
        manifest["checksums"][key] = "0" * 64
        manifest["digest"] = _manifest_digest(manifest)
        (tmp_path / "ckpt-00001.json").write_text(json.dumps(manifest))
        loaded = manager.load_latest()
        assert loaded.task_index == 0
        assert "checksum mismatch" in loaded.skipped[0]

    def test_any_flipped_byte_in_the_array_file_falls_back_or_loads(self, tmp_path):
        """Each single-byte corruption of the newest ``.npz`` either leaves
        its arrays intact or makes ``load_latest`` skip it for the older
        checkpoint; it never raises."""
        manager = CheckpointManager(tmp_path)
        older, newer = np.arange(8.0), np.arange(8.0) + 1
        manager.save(0, {"v": older})
        manager.save(1, {"v": newer})
        npz = tmp_path / "ckpt-00001.npz"
        original = npz.read_bytes()
        for position in range(len(original)):
            for mask in (0x01, 0x10, 0x80, 0xFF):
                damaged = bytearray(original)
                damaged[position] ^= mask
                atomic_write_bytes(npz, bytes(damaged))
                loaded = manager.load_latest()
                if loaded.task_index == 1:
                    assert loaded.skipped == []
                    np.testing.assert_array_equal(loaded.state["v"], newer)
                else:
                    assert loaded.task_index == 0
                    assert len(loaded.skipped) == 1
                    assert "ckpt-00001.npz" in loaded.skipped[0]
                    np.testing.assert_array_equal(loaded.state["v"], older)

    def test_missing_array_file_is_skipped(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        manager.save(1, {"v": np.array([1.0])})
        (tmp_path / "ckpt-00001.npz").unlink()
        assert manager.load_latest().task_index == 0

    def test_schema_version_mismatch_is_skipped(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        manifest_path = tmp_path / "ckpt-00000.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        assert manager.load_latest() is None

    def test_altered_manifest_value_falls_back_to_the_older(self, tmp_path):
        """A damaged digit in the JSON tree, which no array checksum covers,
        fails the manifest digest."""
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"state": 12345})
        newest = manager.save(1, {"state": 12345})
        text = newest.read_text()
        assert text.count("12345") == 1
        atomic_write_bytes(newest, text.replace("12345", "12845").encode())
        loaded = manager.load_latest()
        assert loaded.task_index == 0
        assert loaded.state == {"state": 12345}
        assert len(loaded.skipped) == 1
        assert "ckpt-00001.json" in loaded.skipped[0]
        assert "digest mismatch" in loaded.skipped[0]

    def test_schema_2_manifest_is_skipped(self, tmp_path):
        """A checkpoint written before manifests carried their digest."""
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        newest = manager.save(1, {"v": np.array([1.0])})
        manifest = json.loads(newest.read_text())
        manifest["schema_version"] = 2
        del manifest["digest"]
        atomic_write_bytes(newest, json.dumps(manifest, indent=1).encode())
        loaded = manager.load_latest()
        assert loaded.task_index == 0
        assert "schema version 2" in loaded.skipped[0]

    @pytest.mark.parametrize("damage", ["renamed-key", "dangling-array",
                                        "json-array", "not-utf8"])
    def test_malformed_manifest_is_skipped(self, damage, tmp_path):
        """A manifest committed whole but not in the shape ``save`` writes
        falls back to the previous checkpoint instead of crashing
        ``load_latest``."""
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        newest = manager.save(1, {"v": np.array([1.0])})
        manifest = json.loads(newest.read_text())
        if damage == "renamed-key":
            manifest["arrays_fild"] = manifest.pop("arrays_file")
        elif damage == "dangling-array":
            manifest["tree"]["w"] = {"__ndarray__": "state/w"}
        elif damage == "json-array":
            manifest = []
        data = json.dumps(manifest).encode()
        if damage == "not-utf8":
            data = b'{"schema_version": \xff}'
        atomic_write_bytes(newest, data)
        loaded = manager.load_latest()
        assert loaded.task_index == 0
        assert len(loaded.skipped) == 1
        assert "ckpt-00001.json" in loaded.skipped[0]

    def test_no_temp_files_left_behind(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, sample_state())
        leftovers = [p for p in tmp_path.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    def test_rewriting_same_index_overwrites(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([1.0])})
        manager.save(0, {"v": np.array([2.0])})
        loaded = manager.load_latest()
        np.testing.assert_array_equal(loaded.state["v"], [2.0])
        assert len(manager.manifest_paths()) == 1


def torn_manifest_save(manager, task_index, state):
    """Save with the manifest write torn (truncated bytes at the final path)."""
    plan = plane.FaultPlan(
        events=(plane.FaultEvent(site="ckpt.manifest.torn",
                                 kind="torn_write"),))
    with plane.armed(plan), pytest.raises(plane.InjectedTornWrite):
        manager.save(task_index, state)


class TestPartialStates:
    """Crash residue: stale temps, half-written pairs, torn manifests."""

    def test_stale_tmp_files_swept_on_init(self, tmp_path):
        stale = tmp_path / "ckpt-00002.npz.tmp-4242"
        stale.write_bytes(b"partial write residue")
        CheckpointManager(tmp_path)
        assert not stale.exists()

    def test_sweep_orphans_reports_removed_names(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        stale = tmp_path / "ckpt-00001.json.tmp-99"
        stale.write_text("{", encoding="utf-8")
        assert manager.sweep_orphans() == [stale.name]
        assert not stale.exists()

    def test_load_latest_skips_torn_manifest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        torn_manifest_save(manager, 1, {"v": np.array([1.0])})
        loaded = manager.load_latest()
        assert loaded.task_index == 0
        assert len(loaded.skipped) == 1

    def test_torn_pairs_cannot_evict_the_last_good_checkpoint(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(0, {"v": np.array([0.0])})
        for index in (1, 2):
            torn_manifest_save(manager, index, {"v": np.array([float(index)])})
        loaded = manager.load_latest()
        assert loaded.task_index == 0
        assert [entry.split(":")[0] for entry in loaded.skipped] == [
            "ckpt-00002.json", "ckpt-00001.json"]
