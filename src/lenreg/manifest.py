"""The ``manifest.json`` every command writes into each directory it fills:
resolved config, seed, SHA-256 of every input and output, and wall clock."""

from __future__ import annotations

import dataclasses
import datetime as _dt
import enum
import hashlib
import json
from pathlib import Path

import numpy as np

MANIFEST_VERSION = 1


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, config_doc, seed, inputs, outputs, t0, t1) -> None:
    doc = {
        "format_version": MANIFEST_VERSION,
        "command": command,
        "config": _jsonable(config_doc),
        "seed": seed,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "started_utc": _dt.datetime.fromtimestamp(t0, _dt.timezone.utc).isoformat(),
        "duration_seconds": round(t1 - t0, 3),
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
