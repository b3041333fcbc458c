"""Run manifests: who produced a result, from what, on which build.

Every telemetry directory (and any exported result that wants one) carries
a ``manifest.json`` answering the questions a regression hunt starts with:
which command and arguments ran, which seeds, which git commit, which
python/numpy/platform, and how long the whole invocation took.

Schema (``repro.obs.manifest/v1``)::

    {
      "schema": "repro.obs.manifest/v1",
      "created_utc": "2026-08-06T12:00:00+00:00",
      "repro_version": "1.0.0",
      "git_sha": "82432c6..." | null,
      "python": "3.11.9",
      "platform": "Linux-...",
      "numpy": "1.26.4",
      "command": "compare",
      "args": {"brokers": 200, ...},
      "runs": [{"algorithm": "LACB-Opt", "matcher_seed": 7, "platform": "..."}],
      "wall_seconds": 12.34
    }
"""

from __future__ import annotations

import os
import platform as _platform
import subprocess
import sys
from datetime import datetime, timezone
from typing import Mapping, Sequence

import numpy as np

MANIFEST_SCHEMA = "repro.obs.manifest/v1"


def repro_version() -> str:
    """The installed package version (falls back to the source tree's)."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        import repro

        return getattr(repro, "__version__", "unknown")


def git_sha() -> str | None:
    """The source tree's HEAD commit, or ``None`` outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def describe_specs(specs: Sequence) -> list[dict]:
    """Summaries of :class:`~repro.engine.spec.RunSpec` runs for a manifest."""
    described = []
    for spec in specs:
        entry = {
            "algorithm": spec.matcher.name,
            "matcher_seed": spec.matcher.seed,
            "platform": repr(spec.platform.cache_key()),
            "tag": spec.tag,
        }
        # Checkpoint lineage: where this run's durable state lives and
        # whether it continued an earlier segment (see docs/state.md).
        if getattr(spec, "checkpoint_dir", None) or getattr(spec, "resume_from", None):
            entry["checkpoint"] = {
                "run_id": spec.run_id(),
                "checkpoint_dir": spec.checkpoint_dir,
                "checkpoint_every": spec.checkpoint_every,
                "resume_from": spec.resume_from,
            }
        described.append(entry)
    return described


def describe_telemetry(telemetry) -> dict | None:
    """Telemetry lineage of a run: its live stream directory and segments.

    Returns ``None`` when the telemetry never streamed (nothing to link).
    Each segment entry records its name, last flushed day, flush count,
    whether its run completed and how many audited days it carries — the
    counterpart of the ``telemetry_segment`` field on checkpoint index
    lines, so manifests and checkpoints cross-reference the same lineage.
    """
    stream_dir = getattr(telemetry, "stream_dir", None)
    if not stream_dir:
        return None
    from repro.obs.stream import read_stream

    view = read_stream(stream_dir)
    described = {
        "stream_dir": stream_dir,
        "complete": view.complete,
        "segments": [
            {
                "segment": segment.segment,
                "day": segment.day,
                "flushes": segment.flushes,
                "final": segment.final,
                "audit_days": len(segment.audit),
            }
            for segment in view.segments
        ],
    }
    if getattr(telemetry, "audit", None) is not None:
        described["audit_sample_every"] = telemetry.audit.sample_every
    return described


def build_manifest(
    command: str | None = None,
    args: Mapping | None = None,
    specs: Sequence | None = None,
    wall_seconds: float | None = None,
    extra: Mapping | None = None,
) -> dict:
    """Assemble a manifest dictionary (see module docstring for the schema)."""
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "repro_version": repro_version(),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "platform": _platform.platform(),
        "numpy": np.__version__,
        "argv": list(sys.argv),
    }
    if command is not None:
        manifest["command"] = command
    if args is not None:
        manifest["args"] = {k: _plain(v) for k, v in args.items()}
    if specs is not None:
        manifest["runs"] = describe_specs(specs)
    if wall_seconds is not None:
        manifest["wall_seconds"] = float(wall_seconds)
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(directory, manifest: Mapping) -> str:
    """Write ``manifest.json`` into ``directory``; returns the path.

    The write is atomic (write-temp-then-rename): a manifest is the record
    a regression hunt trusts, so a crash mid-export must leave either the
    previous manifest or the new one — never a torn file.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "manifest.json")
    from repro.state.io import atomic_write_json

    atomic_write_json(path, dict(manifest), default=str)
    return path


def _plain(value):
    """JSON-safe rendering of one argparse namespace value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return repr(value)
