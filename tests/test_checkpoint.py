"""Checkpoint container: exact round trips, atomic saves, corrupt files rejected."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenreg import checkpoint
from lenreg.checkpoint import load_checkpoint, save_checkpoint
from lenreg.encoder import ModelConfig

_TOKEN = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=12)

_CONFIGS = st.builds(
    ModelConfig,
    hidden_size=st.sampled_from([2, 4, 8]),
    num_layers=st.integers(1, 3),
    num_heads=st.just(2),
    ffn_size=st.integers(1, 64),
    maxlen=st.integers(1, 512),
    vocab_size=st.integers(6, 10_000),
    dropout_p=st.floats(0.0, 0.99),
    layernorm_eps=st.floats(1e-12, 1.0),
    seed=st.integers(0, 2**63 - 1),
)


@st.composite
def _tensors(draw):
    names = draw(st.lists(_TOKEN, max_size=6, unique=True))
    out = {}
    for name in names:
        shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
        bits = draw(st.lists(st.integers(0, 2**32 - 1), min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        out[name] = np.array(bits, dtype=np.uint32).view(np.float32).reshape(shape)
    return out


def _small_checkpoint(path):
    config = ModelConfig(hidden_size=4, num_layers=1, num_heads=2, ffn_size=8,
                         maxlen=8, vocab_size=12)
    tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
               "b": np.array([1.5, -2.0], dtype=np.float32)}
    save_checkpoint(path, config, tensors, extra={"opt_step": "7"})
    return config, tensors


@given(_CONFIGS, _tensors(), st.dictionaries(_TOKEN, _TOKEN, max_size=4))
@settings(max_examples=60, deadline=None)
def test_round_trip_is_exact(tmp_path_factory, config, tensors, extra):
    path = tmp_path_factory.mktemp("rt") / "x.ckpt"
    save_checkpoint(path, config, tensors, extra=extra)
    got_config, got_tensors, got_extra = load_checkpoint(path)
    assert got_config == config
    assert got_extra == extra
    assert list(got_tensors) == list(tensors)  # manifest order kept
    for name, arr in tensors.items():
        assert got_tensors[name].shape == arr.shape
        # compare bits, so NaN payloads and -0.0 count too
        np.testing.assert_array_equal(got_tensors[name].view(np.uint32), arr.view(np.uint32))


def test_save_replaces_target_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "m.ckpt"
    _small_checkpoint(path)
    config = ModelConfig(hidden_size=4, num_layers=1, num_heads=2, ffn_size=8,
                         maxlen=8, vocab_size=12, seed=9)
    save_checkpoint(path, config, {"c": np.ones(3, dtype=np.float32)})
    assert os.listdir(tmp_path) == ["m.ckpt"]
    got_config, got_tensors, _ = load_checkpoint(path)
    assert got_config.seed == 9 and list(got_tensors) == ["c"]


def test_failed_save_keeps_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    config, tensors = _small_checkpoint(path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, config, {"a": np.zeros(100, dtype=np.float32)})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]


@pytest.mark.parametrize("extra", [{"k": "two words"}, {"k": ""}, {"": "v"}, {"k": "a\tb"}])
def test_save_rejects_extras_that_would_not_read_back(tmp_path, extra):
    config = ModelConfig(hidden_size=4, num_layers=1, num_heads=2, ffn_size=8,
                         maxlen=8, vocab_size=12)
    with pytest.raises(ValueError, match="whitespace"):
        save_checkpoint(tmp_path / "m.ckpt", config, {}, extra=extra)
    assert not (tmp_path / "m.ckpt").exists()


def test_save_rejects_zero_dim_tensor(tmp_path):
    # a 0-d tensor would read back with shape (1,)
    config = ModelConfig(hidden_size=4, num_layers=1, num_heads=2, ffn_size=8,
                         maxlen=8, vocab_size=12)
    with pytest.raises(ValueError, match="at least one dimension"):
        save_checkpoint(tmp_path / "m.ckpt", config, {"s": np.float32(1.0)})


def _rewrite_manifest(path, edit):
    raw = path.read_bytes()
    head, sep, payload = raw.partition(b"end\n")
    lines = head.decode("ascii").splitlines()
    path.write_bytes(("\n".join(edit(lines)) + "\n").encode("ascii") + sep + payload)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    _small_checkpoint(path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match="tensor b extends past payload end"):
        load_checkpoint(path)


def test_truncated_manifest_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    _small_checkpoint(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:raw.index(b"tensor b")])
    with pytest.raises(ValueError, match="manifest not terminated"):
        load_checkpoint(path)


@pytest.mark.parametrize("tail", [b"\x00", b"\x00" * 4, b"junk data"])
def test_trailing_payload_bytes_rejected(tmp_path, tail):
    path = tmp_path / "m.ckpt"
    _small_checkpoint(path)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(ValueError, match=f"{len(tail)} trailing payload bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("prefix, kind", [
    ("tensor a ", "tensor 'a'"),
    ("field seed ", "field 'seed'"),
    ("extra opt_step ", "extra 'opt_step'"),
])
def test_duplicate_manifest_name_rejected(tmp_path, prefix, kind):
    path = tmp_path / "m.ckpt"
    _small_checkpoint(path)

    def duplicate(lines):
        line = next(ln for ln in lines if ln.startswith(prefix))
        return lines + [line]

    _rewrite_manifest(path, duplicate)
    with pytest.raises(ValueError, match=f"duplicate {kind}"):
        load_checkpoint(path)
