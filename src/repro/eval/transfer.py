"""First-class transfer-matrix results for scenario runs.

A scenario run (``repro.scenarios``) trains on a *stream* of segments and
evaluates against a fixed panel of *eval tasks*.  The
:class:`TransferMatrix` holds two dense ``(n_rows, n_eval)`` matrices:

- ``online[i, j]`` — accuracy on eval task ``j`` measured **before**
  training on stream segment ``i`` (the online/zero-shot view: row 0 is
  the untrained model, row ``i`` is the model after ``i`` segments);
- ``final[i, j]`` — accuracy on eval task ``j`` measured **after**
  training on segment ``i``.

Unlike the triangular :class:`~repro.eval.metrics.ContinualResult`, every
cell is defined: future tasks are probed too, which is what makes forward
transfer measurable.  From the two matrices:

- ``forgetting``  — ``mean_j ( max_i final[i, j] - final[last, j] )``
  over eval tasks that were actually trained on (GEM's backward-transfer
  magnitude, sign-flipped so that positive means forgetting);
- ``forward_transfer`` — ``mean_j ( online[r_j, j] - chance_j )`` over
  eval tasks first trained at row ``r_j > 0``: the accuracy the stream
  had *already* bought on task ``j`` before any training on it, relative
  to chance (GEM Eq. for FWT).

A run's matrix lives in its checkpoints (:meth:`TransferMatrix.state_dict`
is part of the trainer's run state), so a resumed run restores it exactly,
like its :class:`~repro.eval.metrics.ContinualResult`.  The JSON form
(:meth:`TransferMatrix.to_payload`) is written once, when the run ends.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TransferMatrix"]


def _cell(value: float) -> float | None:
    return None if np.isnan(value) else float(value)


class TransferMatrix:
    """Online + final accuracy per (stream row, eval task) cell.

    Parameters
    ----------
    n_rows:
        Number of stream segments (one recorded row per segment).
    eval_names:
        One display name per eval-panel task; fixes the column count.
    name, scenario, probe:
        Run identity: method name, scenario registry name, and which
        probe produced the accuracies (cells from different probes are
        not comparable).
    row_sources:
        For each row, the eval-task index its training data primarily
        came from (``None`` when unknown).  Drives the forgetting /
        forward-transfer column selection.
    chance:
        Per-eval-task chance accuracy (``1 / n_classes``); the forward
        transfer baseline.  NaN disables the column's FWT term.
    """

    def __init__(self, n_rows: int, eval_names: list[str], *,
                 name: str = "run", scenario: str = "class_incremental",
                 probe: str = "knn",
                 row_sources: list[int | None] | None = None,
                 chance: list[float] | None = None):
        if n_rows < 1:
            raise ValueError("n_rows must be >= 1")
        if not eval_names:
            raise ValueError("eval_names must not be empty")
        self.n_rows = int(n_rows)
        self.eval_names = [str(n) for n in eval_names]
        self.name = name
        self.scenario = scenario
        self.probe = probe
        n_eval = len(self.eval_names)
        if row_sources is None:
            row_sources = [None] * n_rows
        if len(row_sources) != n_rows:
            raise ValueError(f"row_sources needs {n_rows} entries, "
                             f"got {len(row_sources)}")
        self.row_sources = [None if s is None else int(s) for s in row_sources]
        if chance is None:
            chance = [np.nan] * n_eval
        if len(chance) != n_eval:
            raise ValueError(f"chance needs {n_eval} entries, got {len(chance)}")
        self.chance = [float(c) for c in chance]
        self.online = np.full((n_rows, n_eval), np.nan)
        self.final = np.full((n_rows, n_eval), np.nan)
        self._rows_recorded = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def n_eval(self) -> int:
        return len(self.eval_names)

    @property
    def rows_recorded(self) -> int:
        return self._rows_recorded

    @property
    def complete(self) -> bool:
        return self._rows_recorded == self.n_rows

    def record_row(self, online_row: list[float], final_row: list[float]) -> None:
        """Record segment ``rows_recorded``'s pre- and post-training panel."""
        i = self._rows_recorded
        if i >= self.n_rows:
            raise RuntimeError("all rows already recorded")
        for label, row in (("online", online_row), ("final", final_row)):
            if len(row) != self.n_eval:
                raise ValueError(f"{label} row expects {self.n_eval} "
                                 f"accuracies, got {len(row)}")
        self.online[i] = online_row
        self.final[i] = final_row
        self._rows_recorded += 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _first_trained_row(self, column: int) -> int | None:
        for i in range(self._rows_recorded):
            if self.row_sources[i] == column:
                return i
        return None

    def final_accuracy(self) -> float:
        """Mean of the last recorded ``final`` row (NaN when empty)."""
        if self._rows_recorded == 0:
            return float("nan")
        return float(np.nanmean(self.final[self._rows_recorded - 1]))

    def online_accuracy(self) -> float:
        """Mean pre-training accuracy on each segment's own source task."""
        cells = [self.online[i, s]
                 for i, s in enumerate(self.row_sources[:self._rows_recorded])
                 if s is not None]
        if not cells:
            return float("nan")
        return float(np.nanmean(cells))

    def forgetting(self) -> float:
        """Mean peak-to-final drop over eval tasks trained before the end."""
        if self._rows_recorded == 0:
            return float("nan")
        last = self._rows_recorded - 1
        drops = []
        for j in range(self.n_eval):
            first = self._first_trained_row(j)
            if first is None or first >= last:
                continue
            peak = np.nanmax(self.final[:self._rows_recorded, j])
            drops.append(peak - self.final[last, j])
        if not drops:
            return 0.0
        return float(np.nanmean(drops))

    def forward_transfer(self) -> float:
        """Mean above-chance accuracy on tasks *before* first training on them."""
        gains = []
        for j in range(self.n_eval):
            first = self._first_trained_row(j)
            if first is None or first == 0 or np.isnan(self.chance[j]):
                continue
            cell = self.online[first, j]
            if not np.isnan(cell):
                gains.append(cell - self.chance[j])
        if not gains:
            return float("nan")
        return float(np.mean(gains))

    def summary(self) -> dict:
        """The scalar metrics as a JSON-safe dict (NaN becomes ``None``)."""
        return {
            "final_accuracy": _cell(self.final_accuracy()),
            "online_accuracy": _cell(self.online_accuracy()),
            "forgetting": _cell(self.forgetting()),
            "forward_transfer": _cell(self.forward_transfer()),
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "probe": self.probe,
            "n_rows": self.n_rows,
            "eval_names": list(self.eval_names),
            "row_sources": list(self.row_sources),
            "chance": list(self.chance),
            "rows_recorded": self._rows_recorded,
            "online": self.online.copy(),
            "final": self.final.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        if int(state["n_rows"]) != self.n_rows:
            raise ValueError(f"state holds {state['n_rows']} rows, "
                             f"this matrix expects {self.n_rows}")
        online = np.asarray(state["online"], dtype=np.float64)
        final = np.asarray(state["final"], dtype=np.float64)
        if online.shape != self.online.shape or final.shape != self.final.shape:
            raise ValueError(f"matrix shapes {online.shape}/{final.shape} != "
                             f"{self.online.shape}")
        self.name = str(state["name"])
        self.scenario = str(state["scenario"])
        self.probe = str(state["probe"])
        self.eval_names = [str(n) for n in state["eval_names"]]
        self.row_sources = [None if s is None else int(s)
                            for s in state["row_sources"]]
        self.chance = [float(c) for c in state["chance"]]
        self.online = online.copy()
        self.final = final.copy()
        self._rows_recorded = int(state["rows_recorded"])

    def to_payload(self) -> dict:
        """JSON-safe payload (see :func:`repro.utils.serialization`)."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "probe": self.probe,
            "n_rows": self.n_rows,
            "eval_names": list(self.eval_names),
            "row_sources": list(self.row_sources),
            "chance": [_cell(c) for c in self.chance],
            "rows_recorded": self._rows_recorded,
            "online": [[_cell(v) for v in row] for row in self.online],
            "final": [[_cell(v) for v in row] for row in self.final],
            "summary": self.summary(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TransferMatrix":
        """Rebuild a matrix; ``ValueError`` when the arrays contradict the header."""
        matrix = cls(
            int(payload["n_rows"]), [str(n) for n in payload["eval_names"]],
            name=payload["name"], scenario=payload["scenario"],
            probe=payload["probe"],
            row_sources=payload["row_sources"],
            chance=[np.nan if c is None else c for c in payload["chance"]])
        nan = float("nan")
        for label in ("online", "final"):
            rows = payload[label]
            if (len(rows) != matrix.n_rows
                    or any(len(row) != matrix.n_eval for row in rows)):
                raise ValueError(f"{label} is not {matrix.n_rows}x"
                                 f"{matrix.n_eval} as the header declares")
            setattr(matrix, label, np.array(
                [[nan if v is None else v for v in row] for row in rows],
                dtype=np.float64))
        recorded = int(payload["rows_recorded"])
        if not 0 <= recorded <= matrix.n_rows:
            raise ValueError(f"rows_recorded {recorded} is outside "
                             f"[0, {matrix.n_rows}]")
        matrix._rows_recorded = recorded
        return matrix

    def __repr__(self) -> str:
        return (f"TransferMatrix({self.name}, scenario={self.scenario}, "
                f"rows={self._rows_recorded}/{self.n_rows}, "
                f"eval_tasks={self.n_eval})")
