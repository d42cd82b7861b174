"""Remap an embedding matrix onto a new subword vocabulary.

Each new piece found verbatim among the old model's byte and learned pieces
copies its row exactly; specials match by name only, as the old model never
encodes text to one. Any other piece is re-encoded with the old tokenizer
and initialized to the arithmetic mean of the resulting rows, accumulated in
64-bit in subtoken order and stored as 32-bit. Special tokens whose names
the old model lacks fall back to the global mean row, summed in 64-bit in
row order.

Adaptation reads the old matrix once, in row blocks of at most
``_READ_BLOCK_BYTES`` (at least one row): from an :class:`EmbeddingMatrix`
the blocks are views, and from an :class:`EmbeddingFile` they are read into
one reused buffer and checked for finite values. Copied rows go straight
into the new matrix and only the rows that averaging needs are kept, so the
peak is the new matrix, one block and those rows, never the whole old
matrix. A matrix checks its dtype, shape, hash and values when made, so its
blocks are not checked again. A file fails on its header or length when
opened, then on its binding to the old tokenizer, then on its first
non-finite row.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .tokenizer import TokenizerModel, encode_bytes, model_hash

__all__ = [
    "AdaptationReport",
    "EmbeddingFile",
    "EmbeddingFormatError",
    "EmbeddingMatrix",
    "VocabBindingError",
    "adapt_embeddings",
    "load_embeddings",
    "open_embeddings",
    "save_embeddings",
]

_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")
_HASH_LEN = 32
_DATA_OFFSET = _HEADER.size + _HASH_LEN
# Adaptation reads the old matrix in blocks of at most this many bytes of
# rows, so its memory follows one block; a longer row is a block alone.
_READ_BLOCK_BYTES = 1 << 20


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
        if self.data.dtype.kind != "f" or self.data.dtype.itemsize != 4:  # either byte order
            raise ValueError(f"embedding data must be float32, got {self.data.dtype}")
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


@dataclass(frozen=True)
class EmbeddingFile:
    """An embedding file whose header and length are checked; its rows are not read."""

    path: str | os.PathLike
    rows: int
    dims: int
    vocab_hash: str


def _read_header(handle, path) -> EmbeddingFile:
    """Check the header and length of the open file ``path``; leaves ``handle`` at the rows."""
    size = os.fstat(handle.fileno()).st_size
    head = handle.read(_DATA_OFFSET)
    if size < 4:
        raise EmbeddingFormatError(f"{path}: truncated at byte offset {size}: missing magic")
    if head[:4] != _MAGIC:
        raise EmbeddingFormatError(f"{path}: bad magic at byte offset 0")
    if size < _HEADER.size:
        raise EmbeddingFormatError(f"{path}: truncated at byte offset {size}: incomplete header")
    _, rows, dims = _HEADER.unpack_from(head)
    if rows == 0:
        raise EmbeddingFormatError(f"{path}: rows=0 at byte offset 4")
    if dims == 0:
        raise EmbeddingFormatError(f"{path}: dims=0 at byte offset 8")
    if size < _DATA_OFFSET:
        raise EmbeddingFormatError(
            f"{path}: truncated at byte offset {size}: incomplete vocab hash"
        )
    vocab_hash = head[_HEADER.size :].decode("ascii", errors="replace")
    try:
        _check_hash(vocab_hash)
    except ValueError as exc:
        raise EmbeddingFormatError(f"{path}: at byte offset {_HEADER.size}: {exc}") from exc
    expected = _DATA_OFFSET + rows * dims * 4
    if size != expected:
        raise EmbeddingFormatError(
            f"{path}: length mismatch at byte offset {min(size, expected)}: "
            f"expected {expected} bytes, got {size}"
        )
    return EmbeddingFile(path, rows, dims, vocab_hash)


def _non_finite_row_error(path, row: int, dims: int) -> EmbeddingFormatError:
    return EmbeddingFormatError(
        f"{path}: non-finite value in embedding row {row} "
        f"at byte offset {_DATA_OFFSET + row * dims * 4}"
    )


def open_embeddings(path) -> EmbeddingFile:
    """Check the binary embedding format's header and length; adaptation reads the rows."""
    with open(path, "rb") as handle:
        return _read_header(handle, path)


def load_embeddings(path) -> EmbeddingMatrix:
    """Read the binary embedding format into one writable array of finite float32."""
    with open(path, "rb") as handle:
        file = _read_header(handle, path)
        data = np.fromfile(handle, dtype="<f4", count=file.rows * file.dims)
    data = data.reshape(file.rows, file.dims)
    try:
        return EmbeddingMatrix(data=data, vocab_hash=file.vocab_hash)
    except ValueError as exc:  # the header is checked, so only a row can be at fault
        raise _non_finite_row_error(path, _first_non_finite_row(data), file.dims) from exc


def _blocks(old_emb: EmbeddingMatrix | EmbeddingFile, step: int):
    """Yield (first row, rows) for consecutive blocks of ``step`` rows of ``old_emb``.

    A file's blocks are read into one buffer, which the next block overwrites,
    and each is checked for finite values as it is read.
    """
    if isinstance(old_emb, EmbeddingMatrix):
        for start in range(0, old_emb.rows, step):
            yield start, old_emb.data[start : start + step]
        return
    buffer = np.empty((min(step, old_emb.rows), old_emb.dims), dtype="<f4")
    with open(old_emb.path, "rb") as handle:
        handle.seek(_DATA_OFFSET)
        for start in range(0, old_emb.rows, step):
            block = buffer[: min(step, old_emb.rows - start)]
            got = handle.readinto(block)
            if got != block.nbytes:  # the file shrank after it was opened
                offset = _DATA_OFFSET + start * old_emb.dims * 4 + got
                raise EmbeddingFormatError(f"{old_emb.path}: truncated at byte offset {offset}")
            bad = _first_non_finite_row(block)
            if bad is not None:
                raise _non_finite_row_error(old_emb.path, start + bad, old_emb.dims)
            yield start, block


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
    old_emb: EmbeddingMatrix | EmbeddingFile,
    new_tok: TokenizerModel,
) -> tuple[EmbeddingMatrix, AdaptationReport]:
    """Remap ``old_emb`` from ``old_tok``'s vocabulary to ``new_tok``'s.

    ``old_emb`` is a matrix in memory or a file from :func:`open_embeddings`;
    either is read once, block by block, and gives the same bytes. Row
    computations are independent of each other and of id order; copied rows
    are bit-exact, averaged rows accumulate in float64 left-to-right over the
    encoded subtoken order before rounding to float32, and the fallback row
    accumulates in float64 in row order.
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
    provenance: dict[int, str] = {}
    copies: list[tuple[int, int]] = []
    averaged: dict[int, list[int]] = {}
    fallback_ids: list[int] = []

    for new_id, piece in enumerate(new_tok.pieces):
        subtokens = encoded.get(new_id)
        if new_id in new_special_names:
            old_id = old_tok.special_tokens.get(new_special_names[new_id])
        else:
            old_id = old_index.get(piece)
        if old_id is not None:
            copies.append((old_id, new_id))
            provenance[new_id] = "copied"
        elif subtokens:
            averaged[new_id] = subtokens
            provenance[new_id] = f"averaged:{len(subtokens)}"
        else:
            fallback_ids.append(new_id)
            provenance[new_id] = "fallback"

    # One pass over the old rows: each block fills the new rows copied from it
    # and the stash of the rows that averaging reads, a row at a time, so with
    # no temporary as large as a block. Both lists of (old id, row) are sorted
    # by old id, so a block's share is one slice.
    dims = old_emb.dims
    new_data = np.empty((new_tok.piece_count, dims), dtype=np.float32)
    stash_ids = sorted({old_id for ids in averaged.values() for old_id in ids})
    slot = {old_id: i for i, old_id in enumerate(stash_ids)}
    stash = np.empty((len(stash_ids), dims), dtype=np.float32)
    targets = ((new_data, sorted(copies)), (stash, list(slot.items())))
    step = max(1, _READ_BLOCK_BYTES // (4 * dims))
    # Row 0 holds the running total; np.add.accumulate adds strictly in row
    # order at every width, where a sum over axis 0 is pairwise at width 1.
    sums = np.zeros((min(step, old_emb.rows) + 1, dims)) if fallback_ids else None
    for start, block in _blocks(old_emb, step):
        for dest, rows in targets:
            lo, hi = (bisect_left(rows, (old_id,)) for old_id in (start, start + len(block)))
            for old_id, row in rows[lo:hi]:
                dest[row] = block[old_id - start]
        if sums is not None:
            run = sums[: len(block) + 1]
            run[1:] = block
            np.add.accumulate(run, axis=0, out=run)
            sums[0] = run[-1]

    for new_id, subtokens in averaged.items():
        acc = np.zeros(dims, dtype=np.float64)
        for token_id in subtokens:
            acc += stash[slot[token_id]]
        new_data[new_id] = acc / len(subtokens)
    if fallback_ids:
        new_data[fallback_ids] = sums[0] / old_emb.rows

    report = AdaptationReport(
        copied=len(copies),
        averaged=len(averaged),
        fallback=len(fallback_ids),
        per_piece_provenance=provenance,
    )
    return EmbeddingMatrix.from_array(new_data, model_hash(new_tok)), report
