"""Corpus ingestion, vocabulary, BERT-style masking, and length batching.

Documents are split at blank lines into paragraph units. Tokenization is
lowercased whitespace-and-punctuation splitting; the vocabulary keeps the
top ``size - 5`` tokens by frequency (ties broken lexicographically) after
the five reserved ids:

    0 [PAD]   1 [UNK]   2 [CLS]   3 [SEP]   4 [MASK]

Every encoded unit is [CLS] body [SEP], truncated to the model maxlen. A
sequence's length counts all real tokens including [CLS] and [SEP] and
excludes padding.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .losses import length_ratio

__all__ = [
    "PAD_ID", "UNK_ID", "CLS_ID", "SEP_ID", "MASK_ID", "RESERVED_TOKENS",
    "IngestError", "Vocab", "TokenSequence", "MaskedBatch",
    "tokenize_text", "ingest", "build_vocab", "encode", "load_corpus",
    "mask_batch", "group_by_length", "pad_to_batch",
]

PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = 0, 1, 2, 3, 4
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

MASK_SELECT_P = 0.15
# Of the selected positions: 80% -> [MASK], 10% -> random non-reserved id,
# 10% -> left unchanged. Labels are kept for all selected positions.
REPLACE_MASK_P = 0.8
REPLACE_RANDOM_P = 0.1

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class IngestError(ValueError):
    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


@dataclass
class Vocab:
    """id-ordered non-reserved tokens; reserved ids 0..4 are implicit."""

    tokens: list[str]
    _index: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self._index:
            self._index = {tok: i + len(RESERVED_TOKENS) for i, tok in enumerate(self.tokens)}
            if len(self._index) != len(self.tokens):
                raise ValueError("vocabulary contains duplicate tokens")

    @property
    def size(self) -> int:
        return len(self.tokens) + len(RESERVED_TOKENS)

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        if 0 <= token_id < len(RESERVED_TOKENS):
            return RESERVED_TOKENS[token_id]
        if token_id < self.size:
            return self.tokens[token_id - len(RESERVED_TOKENS)]
        raise IndexError(f"token id {token_id} out of range for vocab size {self.size}")

    def save(self, path) -> None:
        # One token per line; line number == id - 5.
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        text = Path(path).read_text(encoding="utf-8")
        tokens = [line for line in text.splitlines() if line]
        return cls(tokens)


@dataclass(frozen=True)
class TokenSequence:
    ids: np.ndarray  # 1-D int64, [CLS] ... [SEP]

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        object.__setattr__(self, "ids", ids)
        if ids.ndim != 1 or ids.shape[0] < 2:
            raise ValueError("a token sequence is at least [CLS] [SEP]")
        if ids[0] != CLS_ID or ids[-1] != SEP_ID:
            raise ValueError("a token sequence must start with [CLS] and end with [SEP]")

    @property
    def length(self) -> int:
        return int(self.ids.shape[0])


def tokenize_text(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def ingest(raw) -> list[str]:
    """Split a UTF-8 document into paragraph units at blank lines."""
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise IngestError(f"invalid UTF-8 at byte {e.start}", byte_offset=e.start) from e
    else:
        text = raw
    units = []
    for block in re.split(r"\n\s*\n", text):
        unit = " ".join(block.split())
        if unit:
            units.append(unit)
    return units


def build_vocab(units: list[str], size: int) -> Vocab:
    """Frequency-ranked vocabulary of the top ``size - 5`` tokens."""
    if size <= len(RESERVED_TOKENS):
        raise ValueError(f"vocab size must exceed {len(RESERVED_TOKENS)}, got {size}")
    counts: dict[str, int] = {}
    for unit in units:
        for tok in tokenize_text(unit):
            counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: size - len(RESERVED_TOKENS)]]
    return Vocab(kept)


def encode(unit: str, vocab: Vocab, maxlen: int) -> TokenSequence:
    """[CLS] body [SEP] with the body truncated to maxlen - 2 tokens."""
    if maxlen < 3:
        raise ValueError(f"maxlen must be at least 3, got {maxlen}")
    body = [vocab.id_of(tok) for tok in tokenize_text(unit)][: maxlen - 2]
    return TokenSequence(np.array([CLS_ID] + body + [SEP_ID], dtype=np.int64))


def load_corpus(path, vocab: Vocab, maxlen: int, min_length: int | None = None) -> list[TokenSequence]:
    """Ingest + encode a corpus file; optionally drop sequences shorter than
    ``min_length`` real tokens (off by default)."""
    units = ingest(Path(path).read_bytes())
    seqs = [encode(u, vocab, maxlen) for u in units]
    if min_length is not None:
        seqs = [s for s in seqs if s.length >= min_length]
    if not seqs:
        raise IngestError(f"{path}: no usable sequences")
    return seqs


@dataclass
class MaskedBatch:
    ids: np.ndarray            # (B, S) int64, after replacement
    pad_mask: np.ndarray       # (B, S) bool, True at padding
    mask_positions: np.ndarray  # (B, S) bool, True where the loss applies
    labels: np.ndarray         # (B, S) int64, original id at masked positions, -1 elsewhere
    true_lengths: np.ndarray   # (B,) int64, real token counts incl. [CLS]/[SEP]
    ratio_r: float             # max(true_lengths) / maxlen
    skipped: int               # sequences dropped for having no maskable position


def pad_to_batch(sequences: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-pad with [PAD] to the longest member; no truncation here."""
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    lengths = np.array([s.length for s in sequences], dtype=np.int64)
    s_max = int(lengths.max())
    ids = np.full((len(sequences), s_max), PAD_ID, dtype=np.int64)
    for i, seq in enumerate(sequences):
        ids[i, : seq.length] = seq.ids
    pad = np.arange(s_max)[None, :] >= lengths[:, None]
    return ids, pad, lengths


def mask_batch(
    sequences: list[TokenSequence],
    vocab: Vocab,
    rng: np.random.Generator,
    *,
    maxlen: int,
) -> MaskedBatch:
    """Dynamic masking of one batch.

    Every non-special position is selected independently with probability
    0.15; selection is re-drawn until at least one position is chosen.
    Sequences with no maskable position (length <= 2) are skipped and counted.
    Selected positions become [MASK] (80%), a uniformly random non-reserved
    id (10%), or stay unchanged (10%); the original id is recorded as the
    label either way.
    """
    if vocab.size <= len(RESERVED_TOKENS):
        raise ValueError("vocabulary has no non-reserved ids to sample replacements from")
    kept: list[TokenSequence] = []
    skipped = 0
    selections: list[np.ndarray] = []
    replacements: list[tuple[np.ndarray, np.ndarray]] = []
    for seq in sequences:
        n_eligible = seq.length - 2
        if n_eligible < 1:
            skipped += 1
            continue
        select = rng.random(n_eligible) < MASK_SELECT_P
        while not select.any():
            select = rng.random(n_eligible) < MASK_SELECT_P
        n_sel = int(select.sum())
        u = rng.random(n_sel)
        rand_ids = rng.integers(len(RESERVED_TOKENS), vocab.size, size=n_sel)
        kept.append(seq)
        selections.append(select)
        replacements.append((u, rand_ids))
    if skipped:
        warnings.warn(f"mask_batch skipped {skipped} sequence(s) with no maskable position")
    if not kept:
        raise ValueError("batch has no sequence with a maskable position")

    ids, pad, lengths = pad_to_batch(kept)
    ratio = length_ratio(lengths, maxlen)  # also rejects a sequence longer than maxlen
    mask_pos = np.zeros_like(pad)
    labels = np.full_like(ids, -1)
    for i, (select, (u, rand_ids)) in enumerate(zip(selections, replacements)):
        positions = np.nonzero(select)[0] + 1  # offset past [CLS]
        originals = ids[i, positions].copy()
        labels[i, positions] = originals
        mask_pos[i, positions] = True
        new = originals.copy()
        new[u < REPLACE_MASK_P] = MASK_ID
        random_slot = (u >= REPLACE_MASK_P) & (u < REPLACE_MASK_P + REPLACE_RANDOM_P)
        new[random_slot] = rand_ids[random_slot]
        ids[i, positions] = new
    return MaskedBatch(
        ids=ids, pad_mask=pad, mask_positions=mask_pos, labels=labels,
        true_lengths=lengths, ratio_r=ratio, skipped=skipped,
    )


def group_by_length(
    sequences: list[TokenSequence],
    batch_size: int,
    rng: np.random.Generator,
) -> list[list[TokenSequence]]:
    """Sort by length, cut into contiguous chunks of ``batch_size``, and
    shuffle the chunk order; within-chunk order is preserved. Every sequence
    appears exactly once per epoch (the last chunk may be short)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if not sequences:
        raise ValueError("cannot batch an empty corpus")
    order = np.argsort([s.length for s in sequences], kind="stable")
    chunks = [
        [sequences[j] for j in order[i : i + batch_size]]
        for i in range(0, len(order), batch_size)
    ]
    perm = rng.permutation(len(chunks))
    return [chunks[j] for j in perm]
