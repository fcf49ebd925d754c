"""Content-hash incremental cache for the linter (``.repro-lint-cache.json``).

Two granularities, matching the two rule families:

- **per-file** entries key the violations of the single-file rules on the
  file's content digest — edit one file and only that file re-lints;
- **one project entry** keys the whole-program rules' violations on the
  *project fingerprint* (the digest of every file's digest).  Any edit
  anywhere invalidates it — a change in one module can add or remove
  violations in another through the call graph, so nothing finer is
  sound.

Both are additionally keyed on a fingerprint of the active rule set
(source text of every rule class), so editing a rule never serves stale
results.  A fully warm run therefore does no parsing at all: it hashes
file bytes, matches both keys, and replays the stored violations — that
is where the cold/warm speedup comes from.

Suppression comments live in the file content, so violations are stored
*after* suppression filtering and the digest covers them.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.linter import Violation

__all__ = ["DEFAULT_CACHE_NAME", "LintCache", "file_digest",
           "project_fingerprint", "rules_fingerprint"]

DEFAULT_CACHE_NAME = ".repro-lint-cache.json"
_CACHE_FORMAT = 1


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rules_fingerprint(rules: Iterable) -> str:
    """Digest of the active rule set: codes plus each class's source."""
    parts = []
    for rule in sorted(rules, key=lambda r: r.code):
        try:
            body = inspect.getsource(type(rule))
        except (OSError, TypeError):  # dynamically defined rule (tests)
            body = repr(type(rule))
        parts.append(f"{rule.code}\n{body}")
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()


def project_fingerprint(digests: dict[str, str]) -> str:
    """Digest of every file digest — the whole-program cache key."""
    joined = "\n".join(f"{path}:{digest}"
                       for path, digest in sorted(digests.items()))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _pack(violations: Sequence[Violation]) -> list[dict]:
    return [{"path": str(v.path), "line": v.line, "code": v.code,
             "message": v.message} for v in violations]


def _unpack(entries: Sequence[dict]) -> list[Violation]:
    return [Violation(path=Path(e["path"]), line=int(e["line"]),
                      code=e["code"], message=e["message"]) for e in entries]


class LintCache:
    """Load/store lint results keyed by content and rule-set digests."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self._data = {"format": _CACHE_FORMAT, "files": {}, "project": {}}
        try:
            loaded = json.loads(self.path.read_text(encoding="utf-8"))
            if loaded.get("format") == _CACHE_FORMAT:
                self._data = loaded
        except (OSError, ValueError):
            pass  # missing or corrupt cache: start cold

    # ------------------------------------------------------------------
    def file_violations(self, key: str, digest: str,
                        rules_fp: str) -> list[Violation] | None:
        entry = self._data["files"].get(key)
        if entry and entry["digest"] == digest and entry["rules"] == rules_fp:
            self.hits += 1
            return _unpack(entry["violations"])
        self.misses += 1
        return None

    def store_file(self, key: str, digest: str, rules_fp: str,
                   violations: Sequence[Violation]) -> None:
        self._data["files"][key] = {
            "digest": digest, "rules": rules_fp,
            "violations": _pack(violations)}

    # ------------------------------------------------------------------
    def project_violations(self, fingerprint: str,
                           rules_fp: str) -> list[Violation] | None:
        entry = self._data["project"]
        if entry and entry.get("fingerprint") == fingerprint \
                and entry.get("rules") == rules_fp:
            self.hits += 1
            return _unpack(entry["violations"])
        self.misses += 1
        return None

    def store_project(self, fingerprint: str, rules_fp: str,
                      violations: Sequence[Violation]) -> None:
        self._data["project"] = {
            "fingerprint": fingerprint, "rules": rules_fp,
            "violations": _pack(violations)}

    # ------------------------------------------------------------------
    def save(self) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(self._data), encoding="utf-8")
        tmp.replace(self.path)
