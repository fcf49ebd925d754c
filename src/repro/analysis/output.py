"""The ``lint-baseline.json`` no-new-violations ratchet.

``lint-baseline.json`` pins the set of *accepted* pre-existing violations
so the suite can gate on "no new violations" without requiring a
historically clean tree.  Entries are line-independent fingerprints —
``(path, code, message)`` with an occurrence count — so moving code
around a file does not churn the baseline, while a genuinely new
violation (or one more occurrence of a known one) fails the ratchet.
Paths are stored relative to the baseline file's directory, so the gate
is invocation-directory independent.  ``--update-baseline`` re-pins;
entries whose violations have been fixed are dropped on update (the
ratchet only tightens).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence

from repro.analysis.linter import Violation

__all__ = ["Baseline"]


def _relpath(path: Path, anchor: Path) -> str:
    try:
        return path.resolve().relative_to(anchor.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


class Baseline:
    """Line-independent accepted-violation set with occurrence counts."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.entries: dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path | str) -> "Baseline":
        """Read ``path``; a missing file is an empty baseline.

        Raises :class:`ValueError` naming the file when it is not a
        baseline (invalid JSON, or entries that are not name→count).
        """
        baseline = cls(path)
        try:
            data = json.loads(baseline.path.read_text(encoding="utf-8"))
            baseline.entries = {str(k): int(v)
                                for k, v in data.get("entries", {}).items()}
        except FileNotFoundError:
            pass  # empty baseline: every violation is new
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"{baseline.path}: not a lint baseline "
                             f"({exc})") from None
        return baseline

    def fingerprint(self, violation: Violation) -> str:
        rel = _relpath(Path(violation.path), self.path.parent)
        digest = hashlib.sha256(violation.message.encode("utf-8")).hexdigest()
        return f"{rel}:{violation.code}:{digest[:12]}"

    # ------------------------------------------------------------------
    def partition(self, violations: Sequence[Violation]
                  ) -> tuple[list[Violation], list[str]]:
        """Split into (new violations, fixed baseline fingerprints).

        A violation is *new* when its fingerprint's occurrence count
        exceeds the baselined count; a baseline entry is *fixed* when
        fewer occurrences were found than pinned.
        """
        seen: dict[str, int] = {}
        new: list[Violation] = []
        for violation in violations:
            key = self.fingerprint(violation)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] > self.entries.get(key, 0):
                new.append(violation)
        fixed = [key for key, count in self.entries.items()
                 if seen.get(key, 0) < count]
        return new, fixed

    def update(self, violations: Sequence[Violation]) -> None:
        """Re-pin the baseline to exactly the given violations."""
        entries: dict[str, int] = {}
        for violation in violations:
            key = self.fingerprint(violation)
            entries[key] = entries.get(key, 0) + 1
        self.entries = entries

    def write(self) -> None:
        payload = {
            "_comment": ("Accepted lint violations (repro lint --baseline). "
                         "Keys are path:CODE:message-digest with occurrence "
                         "counts; regenerate with --update-baseline. New "
                         "violations beyond these counts fail the ratchet."),
            "entries": dict(sorted(self.entries.items())),
        }
        self.path.write_text(json.dumps(payload, indent=2) + "\n",
                             encoding="utf-8")
