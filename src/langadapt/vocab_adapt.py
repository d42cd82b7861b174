"""Remap an embedding matrix onto a new subword vocabulary.

Each new piece found verbatim among the old model's byte and learned pieces
copies its row exactly; specials match by name only, as the old model never
encodes text to one. Any other piece is re-encoded with the old tokenizer
and initialized to the arithmetic mean of the resulting rows, accumulated in
64-bit in subtoken order and stored as 32-bit. Special tokens whose names
the old model lacks fall back to the global mean row.

The old matrix is held once, as the float32 array read from its file;
float64 appears only in the accumulator of one averaged row and of the
global mean, never as a copy of the whole matrix. A matrix checks its
shape, hash and values when made, so a valid file is scanned once.
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .tokenizer import TokenizerModel, encode_bytes, model_hash

__all__ = [
    "AdaptationReport",
    "EmbeddingFormatError",
    "EmbeddingMatrix",
    "VocabBindingError",
    "adapt_embeddings",
    "load_embeddings",
    "save_embeddings",
]

_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")
_HASH_LEN = 32


class EmbeddingFormatError(ValueError):
    """Malformed embedding file; the message carries a byte offset."""


class VocabBindingError(ValueError):
    """Embedding matrix is not bound to the tokenizer it is used with."""


def _check_hash(vocab_hash: str) -> None:
    if len(vocab_hash) != _HASH_LEN or any(
        c not in "0123456789abcdef" for c in vocab_hash
    ):
        raise ValueError(
            f"vocab_hash must be {_HASH_LEN} lowercase hex characters, got {vocab_hash!r}"
        )


@dataclass(frozen=True)
class EmbeddingMatrix:
    """A |V| x d float32 matrix bound to a tokenizer by vocab hash, checked when made."""

    data: np.ndarray
    vocab_hash: str

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError(f"embedding data must be 2-dimensional, got {self.data.ndim}")
        if self.rows < 1 or self.dims < 1:
            raise ValueError("embedding matrix must have at least one row and column")
        _check_hash(self.vocab_hash)
        bad = _first_non_finite_row(self.data)
        if bad is not None:
            raise ValueError(f"non-finite value in embedding row {bad}")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> int:
        return self.data.shape[1]

    @classmethod
    def from_array(cls, array, vocab_hash: str) -> "EmbeddingMatrix":
        return cls(np.ascontiguousarray(array, dtype=np.float32), vocab_hash)


def _first_non_finite_row(data: np.ndarray) -> int | None:
    # A row of finite float32 values cannot overflow a float64 sum, so a
    # non-finite row sum marks exactly the rows holding inf or nan.
    with np.errstate(invalid="ignore"):
        finite_rows = np.isfinite(data.sum(axis=1, dtype=np.float64))
    return None if finite_rows.all() else int(np.flatnonzero(~finite_rows)[0])


def save_embeddings(matrix: EmbeddingMatrix, path) -> None:
    """Write the binary embedding format; save then load is bit-identical.

    Layout (little-endian, no padding): magic ``EMB1``, u32 rows, u32 dims,
    32 hex bytes of vocab hash, then rows*dims float32 row-major.
    """
    EmbeddingMatrix(matrix.data, matrix.vocab_hash)  # checked again: data stays writable
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, matrix.rows, matrix.dims))
        handle.write(matrix.vocab_hash.encode("ascii"))
        handle.write(np.ascontiguousarray(matrix.data, dtype="<f4").data)


def load_embeddings(path) -> EmbeddingMatrix:
    """Read the binary embedding format into one writable array of finite float32."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(_HEADER.size + _HASH_LEN)
        if size < 4:
            raise EmbeddingFormatError(f"{path}: truncated at byte offset {size}: missing magic")
        if head[:4] != _MAGIC:
            raise EmbeddingFormatError(f"{path}: bad magic at byte offset 0")
        if size < _HEADER.size:
            raise EmbeddingFormatError(
                f"{path}: truncated at byte offset {size}: incomplete header"
            )
        _, rows, dims = _HEADER.unpack_from(head)
        if rows == 0:
            raise EmbeddingFormatError(f"{path}: rows=0 at byte offset 4")
        if dims == 0:
            raise EmbeddingFormatError(f"{path}: dims=0 at byte offset 8")
        hash_end = _HEADER.size + _HASH_LEN
        if size < hash_end:
            raise EmbeddingFormatError(
                f"{path}: truncated at byte offset {size}: incomplete vocab hash"
            )
        vocab_hash = head[_HEADER.size :].decode("ascii", errors="replace")
        try:
            _check_hash(vocab_hash)
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}: at byte offset {_HEADER.size}: {exc}") from exc
        expected = hash_end + rows * dims * 4
        if size != expected:
            raise EmbeddingFormatError(
                f"{path}: length mismatch at byte offset {min(size, expected)}: "
                f"expected {expected} bytes, got {size}"
            )
        data = np.fromfile(handle, dtype="<f4", count=rows * dims).reshape(rows, dims)
    try:
        return EmbeddingMatrix(data=data, vocab_hash=vocab_hash)
    except ValueError as exc:  # the header is checked, so only a row can be at fault
        bad = _first_non_finite_row(data)
        raise EmbeddingFormatError(
            f"{path}: non-finite value in embedding row {bad} "
            f"at byte offset {hash_end + bad * dims * 4}"
        ) from exc


@dataclass(frozen=True)
class AdaptationReport:
    """Provenance of every row produced by :func:`adapt_embeddings`.

    ``per_piece_provenance`` maps new token ids to ``"copied"``,
    ``"averaged:<k>"`` (k old subtokens), or ``"fallback"``. The three counts
    always sum to the new vocabulary size.
    """

    copied: int
    averaged: int
    fallback: int
    per_piece_provenance: dict[int, str]

    def to_json_dict(self) -> dict:
        return {
            "copied": self.copied,
            "averaged": self.averaged,
            "fallback": self.fallback,
            "per_piece_provenance": {
                str(k): v for k, v in sorted(self.per_piece_provenance.items())
            },
        }


def adapt_embeddings(
    old_tok: TokenizerModel,
    old_emb: EmbeddingMatrix,
    new_tok: TokenizerModel,
) -> tuple[EmbeddingMatrix, AdaptationReport]:
    """Remap ``old_emb`` from ``old_tok``'s vocabulary to ``new_tok``'s.

    Row computations are independent of each other and of id order; copied
    rows are bit-exact, averaged rows accumulate in float64 left-to-right
    over the encoded subtoken order before rounding to float32.
    """
    old_hash = model_hash(old_tok)
    if old_emb.vocab_hash != old_hash:
        raise VocabBindingError(
            "embedding matrix is not bound to the given old tokenizer "
            f"(vocab_hash {old_emb.vocab_hash} != {old_hash})"
        )
    if old_emb.rows != old_tok.piece_count:
        raise VocabBindingError(
            f"embedding rows ({old_emb.rows}) != old vocabulary size "
            f"({old_tok.piece_count})"
        )

    old32 = old_emb.data
    old_index = {piece: i for i, piece in enumerate(old_tok.pieces) if i >= old_tok.byte_offset}
    new_special_names = {i: name for name, i in new_tok.special_tokens.items()}
    missing = {
        new_id: piece
        for new_id, piece in enumerate(new_tok.pieces)
        if new_id not in new_special_names and piece not in old_index
    }
    # No piece holds a whitespace byte and each whitespace byte is a token of
    # its own, so the pieces joined by spaces encode to theirs split at spaces.
    space = old_tok.byte_offset + ord(" ")
    runs = groupby(encode_bytes(old_tok, b" ".join(missing.values())), space.__ne__)
    encoded = dict(zip(missing, (list(ids) for is_piece, ids in runs if is_piece)))
    new_data = np.empty((new_tok.piece_count, old_emb.dims), dtype=np.float32)
    provenance: dict[int, str] = {}
    fallback_ids: list[int] = []

    for new_id, piece in enumerate(new_tok.pieces):
        subtokens = encoded.get(new_id, ())
        if new_id in new_special_names:
            old_id = old_tok.special_tokens.get(new_special_names[new_id])
        else:
            old_id = old_index.get(piece)
        if old_id is not None:
            new_data[new_id] = old32[old_id]
            provenance[new_id] = "copied"
        elif subtokens:
            acc = np.zeros(old_emb.dims, dtype=np.float64)
            for token_id in subtokens:
                acc += old32[token_id]
            new_data[new_id] = acc / len(subtokens)
            provenance[new_id] = f"averaged:{len(subtokens)}"
        else:
            fallback_ids.append(new_id)
            provenance[new_id] = "fallback"
    if fallback_ids:
        new_data[fallback_ids] = old32.sum(axis=0, dtype=np.float64) / old_emb.rows

    kinds = Counter(kind.partition(":")[0] for kind in provenance.values())
    report = AdaptationReport(
        copied=kinds["copied"],
        averaged=kinds["averaged"],
        fallback=kinds["fallback"],
        per_piece_provenance=provenance,
    )
    return EmbeddingMatrix.from_array(new_data, model_hash(new_tok)), report
