"""Atomic, integrity-checked run-state checkpoints.

A checkpoint is a pair of files in the checkpoint directory::

    ckpt-00007.npz    every ndarray leaf of the state tree, flattened
    ckpt-00007.json   the manifest: schema version, the non-array tree with
                      array references, and a SHA-256 checksum per array

Both files are written via write-to-temp + ``fsync`` + ``os.replace``; the
manifest is written *last*, so its presence is the commit point — a crash
mid-write leaves at worst a stale temp file, never a manifest pointing at
missing or truncated data.  On load, :meth:`CheckpointManager.load_latest`
verifies the manifest parses, the schema version matches, every referenced
array exists, and every checksum agrees; a checkpoint failing any check is
skipped (recorded in ``LoadedCheckpoint.skipped``) and the next most recent
one is tried, so a corrupt or partial newest checkpoint falls back to the
last good one instead of crashing the run.

The state trees being checkpointed are the nested dicts produced by the
``state_dict()`` family (methods, optimizers, buffers, results): leaves must
be ndarrays (non-object dtype), plain Python scalars, strings, ``None``, or
lists/tuples/dicts thereof.  :func:`check_serializable` is the runtime
enforcement of that contract (lint rule SER001 is the static sibling).

A manifest may carry an informational ``meta`` mapping (e.g. the probe
name), but restoring a checkpoint never reads it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import re
import zipfile
from dataclasses import dataclass, field

import numpy as np

from repro.faults import plane as _faults

SCHEMA_VERSION = 1

#: Every fault-injection site on the checkpoint write path, in program
#: order.  The crash-consistency sweep (:mod:`repro.faults.crashsweep`)
#: kills a saving subprocess at each of these in turn and asserts
#: ``load_latest`` still yields the previous or the new checkpoint —
#: adding an I/O boundary to ``save`` means adding its site here (the
#: sweep's probe pass fails if the two drift apart).
_WRITE_STAGES = ("begin", "tmp_written", "tmp_fsynced", "replaced", "committed")
CHECKPOINT_SITES = tuple(f"{prefix}.{stage}"
                         for prefix in ("ckpt.arrays", "ckpt.manifest")
                         for stage in _WRITE_STAGES)

#: Marker key used in the manifest tree to reference an array in the npz.
_ARRAY_REF = "__ndarray__"

_MANIFEST_RE = re.compile(r"^ckpt-(\d+)\.json$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, or no usable checkpoint was found."""


# ----------------------------------------------------------------------
# State-tree flattening
# ----------------------------------------------------------------------
def flatten_state(state: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a nested state tree into a JSON-safe tree plus an array table.

    Returns ``(tree, arrays)`` where every ndarray leaf in ``state`` is
    replaced in ``tree`` by ``{"__ndarray__": key}`` and stored in
    ``arrays[key]``.  Raises ``TypeError`` naming the offending path for any
    leaf that is not serializable.
    """
    arrays: dict[str, np.ndarray] = {}
    tree = _flatten(state, "state", arrays)
    return tree, arrays


def _flatten(node, path: str, arrays: dict[str, np.ndarray]):
    if isinstance(node, np.ndarray):
        if node.dtype == object:
            raise TypeError(f"{path}: object-dtype arrays are not serializable")
        arrays[path] = node
        return {_ARRAY_REF: path}
    if isinstance(node, dict):
        flat = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise TypeError(f"{path}: dict key {key!r} is not a string")
            if key == _ARRAY_REF:
                raise TypeError(f"{path}: key {_ARRAY_REF!r} is reserved")
            flat[key] = _flatten(value, f"{path}/{key}", arrays)
        return flat
    if isinstance(node, (list, tuple)):
        return [_flatten(value, f"{path}/{i}", arrays)
                for i, value in enumerate(node)]
    if isinstance(node, (np.integer, np.floating, np.bool_)):
        return node.item()
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise TypeError(f"{path}: value of type {type(node).__name__} is not "
                    f"JSON/ndarray-serializable")


def unflatten_state(tree, arrays: dict[str, np.ndarray]):
    """Inverse of :func:`flatten_state` (tuples come back as lists)."""
    if isinstance(tree, dict):
        if set(tree) == {_ARRAY_REF}:
            return arrays[tree[_ARRAY_REF]]
        return {key: unflatten_state(value, arrays) for key, value in tree.items()}
    if isinstance(tree, list):
        return [unflatten_state(value, arrays) for value in tree]
    return tree


def check_serializable(state: dict) -> None:
    """Raise ``TypeError`` (naming the path) if ``state`` cannot checkpoint."""
    flatten_state(state)


# ----------------------------------------------------------------------
# Atomic file primitives
# ----------------------------------------------------------------------
def _fsync_directory(directory: pathlib.Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: pathlib.Path, data: bytes,
                       site: str = "io.atomic_write") -> None:
    """Write ``data`` to ``path`` so readers see either nothing or all of it.

    ``site`` names this write's fault-injection points (five per write:
    ``begin``/``tmp_written``/``tmp_fsynced``/``replaced``/``committed``)
    — no-ops unless a :class:`repro.faults.FaultPlan` is armed.  An armed
    ``torn_write`` event short-circuits the atomic dance entirely: it
    writes *truncated* bytes straight to the final path and raises,
    leaving exactly the corruption a non-atomic writer would have — the
    state the loader's checksum fallback must survive.
    """
    path = pathlib.Path(path)
    if _faults.ARMED and _faults.take_torn(f"{site}.torn"):
        with open(path, "wb") as handle:  # repro-lint: disable=RB001
            handle.write(data[:max(1, len(data) // 2)])
        raise _faults.InjectedTornWrite(site)
    _faults.fault_point(f"{site}.begin")
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        _faults.fault_point(f"{site}.tmp_written")
        os.fsync(handle.fileno())
    _faults.fault_point(f"{site}.tmp_fsynced")
    os.replace(tmp, path)
    _faults.fault_point(f"{site}.replaced")
    _fsync_directory(path.parent)
    _faults.fault_point(f"{site}.committed")


def _array_checksum(array: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    # Checkpoint integrity hashing runs at save/load boundaries, not in a
    # replayed step; the copy is needed to hash strided views at all.
    digest.update(np.ascontiguousarray(array).tobytes())  # repro-lint: disable=PERF002
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Checkpoint manager
# ----------------------------------------------------------------------
@dataclass
class LoadedCheckpoint:
    """A successfully validated checkpoint plus any corrupt ones skipped."""

    task_index: int
    state: dict
    path: pathlib.Path
    skipped: list[str] = field(default_factory=list)
    #: Informational run metadata (e.g. the probe name); never used to
    #: restore state.
    meta: dict = field(default_factory=dict)


class CheckpointManager:
    """Writes and validates per-task checkpoints in one run directory.

    Parameters
    ----------
    directory:
        Run directory; created if missing.
    keep:
        Retain only the newest ``keep`` checkpoints after each save
        (``None`` keeps everything).
    """

    def __init__(self, directory: str | pathlib.Path, keep: int | None = None):
        if keep is not None and keep < 1:
            raise ValueError("keep must be >= 1 (or None to keep all)")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.sweep_orphans()

    def sweep_orphans(self) -> list[str]:
        """Remove stale ``*.tmp-<pid>`` files a killed writer left behind.

        Safe under the manager's single-writer-per-directory contract: a
        temp file present at init can only be the residue of a crashed
        save (the atomic dance never leaves one on success).  Returns the
        removed names, for logging.
        """
        removed = []
        for stale in self.directory.glob("ckpt-*.tmp-*"):
            stale.unlink(missing_ok=True)
            removed.append(stale.name)
        return sorted(removed)

    # -- paths ----------------------------------------------------------
    def manifest_paths(self) -> list[pathlib.Path]:
        """All manifest files, oldest first (by task index)."""
        found = []
        for path in self.directory.iterdir():
            match = _MANIFEST_RE.match(path.name)
            if match:
                found.append((int(match.group(1)), path))
        return [path for _index, path in sorted(found)]

    def _names(self, task_index: int) -> tuple[str, str]:
        stem = f"ckpt-{task_index:05d}"
        return f"{stem}.npz", f"{stem}.json"

    # -- write ----------------------------------------------------------
    def save(self, task_index: int, state: dict,
             meta: dict | None = None) -> pathlib.Path:
        """Atomically write ``state`` as the checkpoint for ``task_index``.

        ``meta`` is an optional JSON-safe mapping recorded in the manifest
        for humans and tooling (e.g. ``{"probe": "knn"}``); loading ignores
        it when restoring state.
        """
        tree, arrays = flatten_state(state)
        arrays_name, manifest_name = self._names(task_index)
        arrays_path = self.directory / arrays_name

        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        atomic_write_bytes(arrays_path, buffer.getvalue(), site="ckpt.arrays")

        manifest = {
            "schema_version": SCHEMA_VERSION,
            "task_index": task_index,
            "arrays_file": arrays_name,
            "checksums": {key: _array_checksum(a) for key, a in arrays.items()},
            "tree": tree,
        }
        if meta:
            meta_arrays: dict[str, np.ndarray] = {}
            manifest["meta"] = _flatten(meta, "meta", meta_arrays)
            if meta_arrays:
                raise TypeError("checkpoint meta must be JSON-only "
                                "(ndarrays belong in the state tree)")
        manifest_path = self.directory / manifest_name
        atomic_write_bytes(manifest_path,
                           json.dumps(manifest, indent=1).encode("utf-8"),
                           site="ckpt.manifest")
        self._prune()
        return manifest_path

    def _pair_is_valid(self, manifest_path: pathlib.Path) -> bool:
        """Cheap pair validity: manifest parses and its npz file exists.

        (Checksums are the loader's job; pruning only needs to know which
        checkpoints could possibly restore, so that retention counts
        *valid* checkpoints and a run of torn pairs can't evict the last
        good one.)
        """
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return False
        arrays_file = manifest.get("arrays_file")
        return (isinstance(arrays_file, str)
                and (self.directory / arrays_file).exists())

    def _prune(self) -> None:
        """Retain the newest ``keep`` *valid* checkpoints.

        Invalid pairs (manifest without npz, torn manifest) never count
        toward ``keep`` and are removed along with anything older than
        the retained set; orphan npz files below the newest retained
        index (residue of a crash between the two writes) go too.
        """
        if self.keep is None:
            return
        manifests = self.manifest_paths()
        valid = [path for path in manifests if self._pair_is_valid(path)]
        kept = set(valid[-self.keep:])
        for stale in manifests:
            if stale in kept:
                continue
            stale.unlink(missing_ok=True)
            stale.with_suffix(".npz").unlink(missing_ok=True)
        if kept:
            newest_kept = max(int(_MANIFEST_RE.match(p.name).group(1))
                              for p in kept)
            kept_arrays = {p.with_suffix(".npz").name for p in kept}
            for npz in self.directory.glob("ckpt-*.npz"):
                index = int(npz.stem.split("-")[1])
                if npz.name not in kept_arrays and index < newest_kept:
                    npz.unlink(missing_ok=True)

    # -- read -----------------------------------------------------------
    def _load_manifest(self, manifest_path: pathlib.Path) -> tuple[int, dict, dict]:
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable manifest: {exc}") from exc
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise CheckpointError(
                f"schema version {manifest.get('schema_version')!r} != {SCHEMA_VERSION}")
        arrays_path = self.directory / manifest["arrays_file"]
        try:
            with np.load(arrays_path) as archive:
                arrays = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"unreadable array file {arrays_path.name}: {exc}") from exc
        checksums = manifest["checksums"]
        if set(checksums) != set(arrays):
            raise CheckpointError(
                f"array set mismatch in {arrays_path.name}: manifest lists "
                f"{len(checksums)} arrays, file holds {len(arrays)}")
        for key, expected in checksums.items():
            actual = _array_checksum(arrays[key])
            if actual != expected:
                raise CheckpointError(
                    f"checksum mismatch for array {key!r} in {arrays_path.name}")
        state = unflatten_state(manifest["tree"], arrays)
        return int(manifest["task_index"]), state, manifest.get("meta") or {}

    def load_latest(self) -> LoadedCheckpoint | None:
        """Newest checkpoint that passes validation, or ``None`` if none do.

        Corrupt/partial checkpoints are skipped (newest-first) and recorded
        in the returned ``skipped`` list so callers can log the fallback.
        """
        skipped: list[str] = []
        for manifest_path in reversed(self.manifest_paths()):
            try:
                task_index, state, meta = self._load_manifest(manifest_path)
            except CheckpointError as exc:
                skipped.append(f"{manifest_path.name}: {exc}")
                continue
            return LoadedCheckpoint(task_index=task_index, state=state,
                                    path=manifest_path, skipped=skipped,
                                    meta=meta)
        return None
