"""Append-only, versioned result history (``.rtrbench_results/``).

Layout::

    .rtrbench_results/
      bench/
        20260806T114210Z-3fa9c1.json    # one RunRecord per run, never rewritten
        LATEST                          # filename of the newest record
      suite/ ...
      rt/ ...

Writes are atomic (temp file + ``os.replace`` in the destination
directory) so concurrent runs and abrupt kills can corrupt nothing; the
``LATEST`` pointer is replaced the same way after the record lands, so it
always names a complete file.  ``RTRBENCH_RESULTS_DIR`` relocates the
store (tests point it at a temp directory).

Loading accepts plain paths as well as store references —
``bench@latest`` (or just ``bench``), ``bench@<run_id>`` — and reads
only :class:`~repro.results.record.RunRecord` documents (schema
generation 2).  A file that is not one — bad JSON, an untyped report
layout, another ``schema_version``, a malformed measurement — raises a
``ValueError`` naming its path.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, List, Optional

from repro.results.record import RunRecord

DEFAULT_RESULTS_DIR = ".rtrbench_results"

#: Name of the per-kind pointer file (not a record; skipped by history).
LATEST_POINTER = "LATEST"


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultStore:
    """Filesystem-backed record history, one subdirectory per record kind."""

    def __init__(self, root: Optional[str] = None) -> None:
        if root is None:
            root = os.environ.get("RTRBENCH_RESULTS_DIR", DEFAULT_RESULTS_DIR)
        self.root = root

    # -- writing ---------------------------------------------------------------

    def save(self, record: RunRecord) -> str:
        """Append a record to its kind's history; returns the file path.

        Run ids are never overwritten: a collision (same second, same
        content digest) gets a numeric suffix, preserving append-only
        semantics.  The kind's ``LATEST`` pointer is updated after the
        record file is durably in place.
        """
        directory = os.path.join(self.root, record.kind)
        os.makedirs(directory, exist_ok=True)
        run_id = record.run_id
        path = os.path.join(directory, f"{run_id}.json")
        bump = 1
        while os.path.exists(path):
            bump += 1
            run_id = f"{record.run_id}-{bump}"
            path = os.path.join(directory, f"{run_id}.json")
        record.run_id = run_id
        payload = json.dumps(record.to_dict(), indent=2, sort_keys=True)
        _atomic_write(path, payload + "\n")
        _atomic_write(
            os.path.join(directory, LATEST_POINTER), f"{run_id}.json\n"
        )
        return path

    # -- enumeration -----------------------------------------------------------

    def kinds(self) -> List[str]:
        """Record kinds with at least one stored record."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            name
            for name in os.listdir(self.root)
            if os.path.isdir(os.path.join(self.root, name))
            and self.history(name)
        )

    def history(self, kind: str) -> List[str]:
        """All record paths for a kind, oldest first.

        Run ids start with a UTC timestamp, so lexicographic filename
        order is chronological order.
        """
        directory = os.path.join(self.root, kind)
        if not os.path.isdir(directory):
            return []
        return [
            os.path.join(directory, name)
            for name in sorted(os.listdir(directory))
            if name.endswith(".json")
        ]

    def latest_path(self, kind: str) -> Optional[str]:
        """Path of the newest record for a kind (via the LATEST pointer)."""
        pointer = os.path.join(self.root, kind, LATEST_POINTER)
        try:
            with open(pointer) as fh:
                name = fh.read().strip()
        except OSError:
            history = self.history(kind)
            return history[-1] if history else None
        path = os.path.join(self.root, kind, name)
        return path if os.path.exists(path) else None

    def latest(self, kind: str) -> Optional[RunRecord]:
        """The newest record for a kind, or ``None`` when none stored."""
        path = self.latest_path(kind)
        return None if path is None else self.load(path)

    # -- loading ---------------------------------------------------------------

    def load(self, ref: str) -> RunRecord:
        """Load a record by path or store reference.

        Accepted forms: a filesystem path,
        ``<kind>`` / ``<kind>@latest`` (newest record of that kind), and
        ``<kind>@<run_id>``.
        """
        if os.path.exists(ref):
            return self._load_file(ref)
        kind, _, selector = ref.partition("@")
        directory = os.path.join(self.root, kind)
        if not os.path.isdir(directory):
            raise FileNotFoundError(
                f"no such record reference {ref!r}: neither a file nor a "
                f"kind in {self.root!r}"
            )
        if selector in ("", "latest"):
            path = self.latest_path(kind)
            if path is None:
                raise FileNotFoundError(
                    f"no records stored for kind {kind!r} in {self.root!r}"
                )
            return self._load_file(path)
        path = os.path.join(directory, f"{selector}.json")
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"no record {selector!r} for kind {kind!r} in {self.root!r}"
            )
        return self._load_file(path)

    @staticmethod
    def _load_file(path: str) -> RunRecord:
        """Parse one record file; a corrupt or foreign file raises a
        ``ValueError`` naming its path (a truncated write, a hand edit, a
        stray file, a record of another schema generation)."""
        with open(path) as fh:
            try:
                payload: Any = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ValueError(f"corrupt record {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(
                f"corrupt record {path}: top level is a JSON "
                f"{type(payload).__name__}, not an object"
            )
        try:
            return RunRecord.from_dict(payload)
        except ValueError as exc:
            raise ValueError(f"unreadable record {path}: {exc}") from exc
