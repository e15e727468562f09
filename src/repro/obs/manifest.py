"""JSONL run manifests: one streamed event file per run.

A manifest is the crash-tolerant sibling of the run ledger: the ledger row
is written atomically when a run *closes*, while the manifest streams one
JSON line per happening as the run executes -- ``start``, each finished
``phase`` span, structured events (per-window convergence traces, queue
lease events), and an ``end`` footer with the aggregate phases and metrics.
A worker killed mid-trial therefore leaves a readable partial manifest that
shows exactly which phase it died in, even though no ledger row exists.

Files live under ``<telemetry root>/manifests/<run_id>.jsonl`` and are
plain line-delimited JSON: greppable, ``jq``-able, and cheap to ship as CI
artifacts.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.core import MANIFEST_DIRNAME


def manifest_dir(root: Path) -> Path:
    """The manifest directory under one telemetry root."""
    return Path(root) / MANIFEST_DIRNAME


def manifest_path(root: Path, run_id: str) -> Path:
    return manifest_dir(root) / f"{run_id}.jsonl"


def open_manifest(root: Path, run_id: str) -> io.TextIOWrapper:
    """Open a run's manifest for streaming appends (creates directories)."""
    directory = manifest_dir(root)
    directory.mkdir(parents=True, exist_ok=True)
    return open(manifest_path(root, run_id), "a", encoding="utf-8")


def read_manifest(path: Path) -> List[Dict[str, object]]:
    """Parse one manifest; tolerates a torn final line (crashed writer)."""
    events: List[Dict[str, object]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail from a killed writer
    return events


def find_manifest(root: Path, run_id: str) -> Optional[Path]:
    path = manifest_path(root, run_id)
    return path if path.is_file() else None


__all__ = [
    "find_manifest",
    "manifest_dir",
    "manifest_path",
    "open_manifest",
    "read_manifest",
]
