"""Saving and loading models and experiment results.

Model state dicts go to ``.npz`` (pure arrays); continual results and
transfer matrices go to ``.json`` with the matrices inlined, so
downstream analysis does not need this library installed.

Interrupted runs are first-class: :func:`save_result` records how many rows
of the accuracy matrix were actually recorded, and :func:`load_result`
rebuilds exactly that partial state, so ``save → load`` round-trips both
complete and partial results (including ``elapsed_seconds``).

Results and transfer matrices go through the checkpoint layer's atomic
writer (:func:`repro.runtime.checkpoint.atomic_write_bytes`): the trainer
writes the matrix next to the checkpoints when a run ends, and ``repro
compare --resume`` reads results back, so a crash mid-write must leave
either the old file or the new one — never a torn file.  Both loaders
check the arrays against the header and raise ``ValueError`` when they
disagree.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.eval.metrics import ContinualResult
from repro.eval.transfer import TransferMatrix
from repro.nn.module import Module
from repro.runtime.checkpoint import atomic_write_bytes


def _npz_path(path: str | pathlib.Path) -> pathlib.Path:
    """Normalize a model path to the ``.npz`` file numpy actually writes.

    ``np.savez_compressed`` silently appends ``.npz`` when the given path
    lacks the suffix; applying the same normalization on both the save and
    load side keeps the two functions symmetric for any caller-supplied path.
    """
    path = pathlib.Path(path)
    if path.suffix == ".npz":
        return path
    return path.with_name(path.name + ".npz")


def save_model(module: Module, path: str | pathlib.Path) -> pathlib.Path:
    """Serialize a module's state dict to a compressed ``.npz`` archive.

    Returns the path actually written (with the ``.npz`` suffix applied).
    """
    state = module.state_dict()
    target = _npz_path(path)
    # npz keys may not contain '/'; state-dict names never do, but be safe.
    np.savez_compressed(str(target), **state)
    return target


def load_model(module: Module, path: str | pathlib.Path) -> Module:
    """Restore a module's parameters and buffers from :func:`save_model`.

    Accepts the same path the caller passed to :func:`save_model`, with or
    without the ``.npz`` suffix.
    """
    with np.load(str(_npz_path(path))) as archive:
        state = {key: archive[key] for key in archive.files}
    module.load_state_dict(state)
    return module


def save_result(result: ContinualResult, path: str | pathlib.Path) -> None:
    """Write a continual run's metrics and matrix to JSON.

    Partial results (interrupted runs) are saved faithfully: the summary
    metrics are ``None`` when no row has been recorded, and the explicit
    ``rows_recorded`` count lets :func:`load_result` restore the exact
    partial state rather than guessing from ``None`` entries.
    """
    recorded = result.rows_recorded
    payload = {
        "name": result.name,
        "probe": result.probe,
        "n_tasks": result.n_tasks,
        "rows_recorded": recorded,
        "acc": result.acc() if recorded else None,
        "fgt": result.fgt() if recorded else None,
        "elapsed_seconds": result.elapsed_seconds,
        "accuracy_matrix": [
            [None if np.isnan(v) else float(v) for v in row]
            for row in result.accuracy_matrix
        ],
    }
    atomic_write_bytes(pathlib.Path(path),
                       json.dumps(payload, indent=2).encode("utf-8"),
                       site="result.save")


def _infer_rows_recorded(matrix: list[list[float | None]], n_tasks: int) -> int:
    """Row count for legacy files that predate the ``rows_recorded`` field."""
    for i in range(n_tasks):
        if any(matrix[i][j] is None for j in range(i + 1)):
            return i
    return n_tasks


def load_result(path: str | pathlib.Path) -> ContinualResult:
    """Rebuild a :class:`ContinualResult` from :func:`save_result` output.

    Round-trips partial matrices: exactly ``rows_recorded`` rows are
    restored.  A file that contradicts itself — a matrix that is not
    ``n_tasks x n_tasks``, a ``rows_recorded`` outside ``[0, n_tasks]``, or
    a recorded row containing ``None`` — raises ``ValueError`` instead of
    being silently truncated.
    """
    payload = json.loads(pathlib.Path(path).read_text())
    n_tasks = payload["n_tasks"]
    # Files from before the probe registry were all KNN-probed.
    result = ContinualResult(n_tasks, name=payload["name"],
                             probe=payload.get("probe", "knn"))
    matrix = payload["accuracy_matrix"]
    if len(matrix) != n_tasks or any(len(row) != n_tasks for row in matrix):
        raise ValueError(f"{path}: accuracy_matrix is not {n_tasks}x{n_tasks} "
                         f"as the header declares")
    recorded = payload.get("rows_recorded")
    if recorded is None:
        recorded = _infer_rows_recorded(matrix, n_tasks)
    if not 0 <= recorded <= n_tasks:
        raise ValueError(f"{path}: rows_recorded {recorded} is outside "
                         f"[0, {n_tasks}]")
    for i in range(recorded):
        row = [matrix[i][j] for j in range(i + 1)]
        if any(v is None for v in row):
            raise ValueError(
                f"{path}: row {i} is marked recorded but contains null entries")
        result.record_row(row)
    result.elapsed_seconds = payload["elapsed_seconds"]
    return result


def save_transfer_matrix(transfer: TransferMatrix,
                         path: str | pathlib.Path) -> None:
    """Atomically write a transfer matrix to JSON.

    Same inlined-matrix philosophy as :func:`save_result`: the trainer
    writes this file once when a run ends (the run's checkpoints hold the
    same rows), and the CLI writes it for ``--scenario`` runs.
    """
    data = json.dumps(transfer.to_payload(), indent=2).encode("utf-8")
    atomic_write_bytes(pathlib.Path(path), data, site="transfer.matrix")


def load_transfer_matrix(path: str | pathlib.Path) -> TransferMatrix:
    """Rebuild a :class:`TransferMatrix` from :func:`save_transfer_matrix`."""
    payload = json.loads(pathlib.Path(path).read_text())
    return TransferMatrix.from_payload(payload)
