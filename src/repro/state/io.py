"""Atomic file writes and torn-tail-tolerant JSONL.

Every durable artifact of the reproduction — checkpoints, telemetry
exports, manifests, reports — goes through the same discipline: write to
a temporary file in the destination directory, flush, then ``os.replace``
onto the final name.  A reader therefore only ever observes either the
previous complete file or the new complete file, never a torn one, no
matter when the writing process is killed.

The one deliberately *append-only* format is the checkpoint index
(``checkpoints.jsonl``): appends are not atomic, so :func:`read_jsonl`
tolerates a torn final line — a kill mid-append loses at most the record
being written, never an earlier one.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Iterator


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", encoding: str | None = None) -> Iterator:
    """Open a temp file beside ``path``; replace ``path`` on clean exit.

    The temporary lives in the destination directory so the final
    ``os.replace`` stays within one filesystem (rename atomicity).  On any
    exception the temporary is removed and ``path`` is left untouched.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_open only supports fresh writes, got mode {mode!r}")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if encoding is None and "b" not in mode:
        encoding = "utf-8"
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_path)
        raise


def atomic_write_text(path, text: str) -> str:
    """Atomically write ``text`` to ``path``; returns the path."""
    with atomic_open(path, "w") as handle:
        handle.write(text)
    return os.fspath(path)


def atomic_write_bytes(path, data: bytes) -> str:
    """Atomically write ``data`` to ``path``; returns the path."""
    with atomic_open(path, "wb") as handle:
        handle.write(data)
    return os.fspath(path)


def atomic_write_json(path, payload, indent: int | None = 2, default=None) -> str:
    """Atomically write ``payload`` as sorted-key JSON; returns the path."""
    with atomic_open(path, "w") as handle:
        # One dumps + write: json.dump streams many tiny chunks.
        handle.write(json.dumps(payload, indent=indent, sort_keys=True, default=default))
    return os.fspath(path)


def append_jsonl(path, record: dict) -> None:
    """Append one JSON record (plus newline) to a JSONL file.

    Appends are intentionally not staged through a temp file — the format
    is append-only and :func:`read_jsonl` tolerates a torn final line.
    The write is flushed and fsynced so a completed append survives a
    crash of the process.
    """
    line = json.dumps(record, sort_keys=True)
    if "\n" in line:
        raise ValueError("JSONL records must serialize to a single line")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_jsonl(path) -> list[dict]:
    """Read a JSONL file, tolerating a torn (killed-mid-append) final line.

    A malformed line anywhere *before* the final line indicates real
    corruption and raises ``ValueError``; a malformed or unterminated
    final line is silently dropped.
    """
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    # A well-formed file ends with a newline, so the final split entry is
    # empty; anything else there is a torn tail.
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break
            raise ValueError(f"corrupt JSONL line {index + 1} in {path}") from None
    return records
