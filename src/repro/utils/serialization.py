"""Saving and loading experiment results.

Continual results and transfer matrices go to ``.json`` with the matrices
inlined, so downstream analysis does not need this library installed.

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
from repro.runtime.checkpoint import atomic_write_bytes


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
    result = ContinualResult(n_tasks, name=payload["name"],
                             probe=payload["probe"])
    matrix = payload["accuracy_matrix"]
    if len(matrix) != n_tasks or any(len(row) != n_tasks for row in matrix):
        raise ValueError(f"{path}: accuracy_matrix is not {n_tasks}x{n_tasks} "
                         f"as the header declares")
    recorded = payload["rows_recorded"]
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
