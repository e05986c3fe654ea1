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
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .encoder import ModelConfig, ModelParams, tensor_names

__all__ = ["save_checkpoint", "load_checkpoint", "load_params", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_MAGIC = "lenreg-checkpoint"

_INT_FIELDS = {"hidden_size", "num_layers", "num_heads", "ffn_size", "maxlen", "vocab_size", "seed"}


def _format_value(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


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
        if " " in k or "\n" in str(v):
            raise ValueError(f"extra key/value must be space-free tokens: {k!r}")
        lines.append(f"extra {k} {v}")
    blobs = []
    offset = 0
    for name, arr in tensors.items():
        if " " in name:
            raise ValueError(f"tensor name must not contain spaces: {name!r}")
        raw = np.ascontiguousarray(arr, dtype="<f4")
        shape = ",".join(str(d) for d in raw.shape)
        lines.append(f"tensor {name} {offset} {shape}")
        blobs.append(raw.tobytes())
        offset += len(blobs[-1])
    lines.append("end")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], dict[str, str]]:
    fields: dict[str, str] = {}
    extra: dict[str, str] = {}
    table: list[tuple[str, int, tuple[int, ...]]] = []
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
                fields[parts[1]] = parts[2]
            elif kind == "extra":
                extra[parts[1]] = parts[2]
            elif kind == "tensor":
                if len(parts) != 4:
                    raise ValueError(f"{path}: malformed tensor line {line!r}")
                shape = tuple(int(d) for d in parts[3].split(",")) if parts[3] else ()
                table.append((parts[1], int(parts[2]), shape))
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
    for name, offset, shape in table:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        end = offset + 4 * count
        if offset < 0 or end > len(payload):
            raise ValueError(f"{path}: tensor {name} extends past payload end")
        tensors[name] = (
            np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
    return config, tensors, extra


def load_params(path) -> ModelParams:
    config, tensors, _ = load_checkpoint(path)
    missing = [n for n in tensor_names(config) if n not in tensors]
    if missing:
        raise ValueError(f"{path}: checkpoint missing model tensors {missing[:3]}...")
    model_tensors = {n: tensors[n] for n in tensor_names(config)}
    return ModelParams(config, model_tensors)
