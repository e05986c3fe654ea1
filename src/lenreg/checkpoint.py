"""Checkpoint container: a text manifest followed by raw float32 tensors.

Layout of a ``.ckpt`` file:

    lenreg-checkpoint 1
    field <config-field> <value>     one line per ModelConfig field
    extra <key> <value>              optional string metadata (e.g. opt_step)
    tensor <name> <byte-offset> <d0,d1,...>
    end
    <payload: raw little-endian IEEE-754 32-bit values, manifest order>

Tensors are stored and reloaded as float32; a save/load round trip of
float32 parameters is bitwise exact. Optimizer moments ride in the same
container under ``adam_m.`` / ``adam_v.`` name prefixes.

A save writes a temporary file next to the target and renames it into
place, so a reader never sees a half-written checkpoint under the target
name. A load rejects a manifest that names a field, extra or tensor twice,
a tensor that runs past the payload, and payload bytes after the last
tensor.
"""

from __future__ import annotations

import dataclasses
import os
import secrets
from pathlib import Path

import numpy as np

from .encoder import ModelConfig, ModelParams, tensor_names

__all__ = ["save_checkpoint", "load_checkpoint", "load_params", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_MAGIC = "lenreg-checkpoint"

_INT_FIELDS = {"hidden_size", "num_layers", "num_heads", "ffn_size", "maxlen", "vocab_size", "seed"}


def _format_value(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _check_token(kind: str, text: str) -> None:
    # The loader splits manifest lines on whitespace: anything else would not
    # read back as written.
    if not text or any(c.isspace() for c in text):
        raise ValueError(f"{kind} must be a non-empty token without whitespace: {text!r}")


def save_checkpoint(
    path,
    config: ModelConfig,
    tensors: dict[str, np.ndarray],
    extra: dict[str, str] | None = None,
) -> None:
    lines = [f"{_MAGIC} {FORMAT_VERSION}"]
    for f in dataclasses.fields(config):
        lines.append(f"field {f.name} {_format_value(getattr(config, f.name))}")
    for k, v in (extra or {}).items():
        _check_token("extra key", k)
        _check_token("extra value", str(v))
        lines.append(f"extra {k} {v}")
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        _check_token("tensor name", name)
        if np.ndim(arr) == 0:
            raise ValueError(f"tensor {name!r} must have at least one dimension")
        raw = np.ascontiguousarray(arr, dtype="<f4")
        shape = ",".join(str(d) for d in raw.shape)
        lines.append(f"tensor {name} {offset} {shape}")
        blobs.append(raw.tobytes())
        offset += len(blobs[-1])
    lines.append("end")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Same directory, so os.replace is a rename; open() keeps the umask mode
    # that mkstemp's 0600 would not. No fsync: a file torn by a power loss
    # fails the loader's length checks, and on some disks deleting an
    # fsynced file takes ~170 ms, which repeated runs would pay each time.
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], dict[str, str]]:
    fields: dict[str, str] = {}
    extra: dict[str, str] = {}
    table: dict[str, tuple[int, tuple[int, ...]]] = {}

    def put(entries: dict, kind: str, key: str, value) -> None:
        if key in entries:
            raise ValueError(f"{path}: duplicate {kind} {key!r} in manifest")
        entries[key] = value

    with open(path, "rb") as fh:
        first = fh.readline().decode("ascii", errors="replace").split()
        if len(first) != 2 or first[0] != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        if int(first[1]) != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {first[1]}")
        while True:
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: manifest not terminated")
            parts = line.decode("ascii", errors="replace").split()
            if parts == ["end"]:
                break
            if len(parts) < 3:
                raise ValueError(f"{path}: malformed manifest line {line!r}")
            kind = parts[0]
            if kind == "field":
                put(fields, "field", parts[1], parts[2])
            elif kind == "extra":
                put(extra, "extra", parts[1], parts[2])
            elif kind == "tensor":
                if len(parts) != 4:
                    raise ValueError(f"{path}: malformed tensor line {line!r}")
                shape = tuple(int(d) for d in parts[3].split(","))
                put(table, "tensor", parts[1], (int(parts[2]), shape))
            else:
                raise ValueError(f"{path}: unknown manifest entry {kind!r}")
        payload = fh.read()

    kwargs = {}
    for f in dataclasses.fields(ModelConfig):
        if f.name not in fields:
            raise ValueError(f"{path}: manifest missing config field {f.name}")
        raw = fields[f.name]
        kwargs[f.name] = int(raw) if f.name in _INT_FIELDS else float(raw)
    config = ModelConfig(**kwargs)

    tensors: dict[str, np.ndarray] = {}
    payload_end = 0
    for name, (offset, shape) in table.items():
        count = int(np.prod(shape, dtype=np.int64))
        end = offset + 4 * count
        if offset < 0 or end > len(payload):
            raise ValueError(f"{path}: tensor {name} extends past payload end")
        payload_end = max(payload_end, end)
        tensors[name] = (
            np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
    if len(payload) != payload_end:
        raise ValueError(f"{path}: {len(payload) - payload_end} trailing payload bytes "
                         "after the last tensor")
    return config, tensors, extra


def load_params(path) -> ModelParams:
    config, tensors, _ = load_checkpoint(path)
    missing = [n for n in tensor_names(config) if n not in tensors]
    if missing:
        raise ValueError(f"{path}: checkpoint missing model tensors {missing[:3]}...")
    model_tensors = {n: tensors[n] for n in tensor_names(config)}
    return ModelParams(config, model_tensors)
