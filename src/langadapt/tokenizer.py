"""Byte-level BPE: vocabulary training, encoding, and token-efficiency reports.

Training greedily merges the most frequent adjacent token pair until the
vocabulary target is reached or no pair occurs at least twice. Ties on pair
frequency break by lower left id, then lower right id, so training is
deterministic on any platform and independent of thread count. Merges never
cross an ASCII whitespace byte, which keeps learned pieces word-internal and
stabilizes fertility numbers.

Training counts each distinct word once and keeps exact pair counts up to
date incrementally (Sennrich et al., 2016): a merge rewrites only the words
that contain its pair, and at each merge site adjusts only the two
neighbouring pairs. A lazy max-heap of pair counts picks the next merge. The
merges equal those of a full recount after every step.

Encoding applies merges in learned order to each whitespace-free word and
keeps nothing per word, only the merge ranks per model. A word keeps one
list with the merge rank of each adjacent pair; the lowest rank is merged at
its leftmost site, and only the two pairs next to that site are looked up
again. Only :func:`count_words` splits text into words, for training and
fertility alike; fertility encodes each distinct word once and counts
whitespace bytes from lengths.

Token ids are laid out as: special placeholders first, then the 256 single
bytes, then one piece per learned merge. Because the base alphabet is the
full byte range, every input is encodable and ``decode(encode(x)) == x``.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import json
import re
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import CorpusDocument, _load_json, _typed

__all__ = [
    "FertilityReport",
    "REQUIRED_SPECIALS",
    "TokenizerModel",
    "compare_fertility",
    "count_words",
    "decode",
    "encode",
    "encode_bytes",
    "fertility",
    "improvement_pct",
    "load_model",
    "model_hash",
    "save_model",
    "serialize_model",
    "train_bpe",
    "validate_model",
]

MODEL_FORMAT_VERSION = 1
REQUIRED_SPECIALS = ("pad", "eos", "unk")

# Merges must not cross these bytes; runs of them encode as single-byte tokens.
_WS = b" \t\n\r\x0b\x0c"
_WS_SET = frozenset(_WS)
_SEG_RE = re.compile(rb"[ \t\n\r\x0b\x0c]+|[^ \t\n\r\x0b\x0c]+")

_MIN_PAIR_FREQ = 2


@dataclass(frozen=True, eq=False)
class TokenizerModel:
    """A learned subword vocabulary plus its merge rules and special tokens.

    ``pieces[i]`` is the byte sequence of token id ``i``. Models are
    immutable and safe to share across threads; they compare by identity,
    so compare :func:`serialize_model` output for structural equality.
    The encoder's merge ranks are built on the first encode.
    """

    pieces: tuple[bytes, ...]
    merges: tuple[tuple[int, int], ...]
    special_tokens: dict[str, int]
    version: int = MODEL_FORMAT_VERSION

    @property
    def byte_offset(self) -> int:
        """Id of byte 0; single byte ``b`` has id ``byte_offset + b``."""
        return len(self.special_tokens)

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    @cached_property
    def _ranks(self) -> dict[tuple[int, int], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}


def validate_model(model: TokenizerModel) -> None:
    """Check the structural invariants of a model; raise ValueError if broken."""
    k = len(model.special_tokens)
    if model.version != MODEL_FORMAT_VERSION:
        raise ValueError(f"model version must be {MODEL_FORMAT_VERSION}, got {model.version}")
    missing = [name for name in REQUIRED_SPECIALS if name not in model.special_tokens]
    if missing:
        raise ValueError(f"special tokens {missing} are required")
    if sorted(model.special_tokens.values()) != list(range(k)):
        raise ValueError("special token ids must be exactly 0..len(specials)-1")
    if len(model.pieces) < k + 256:
        raise ValueError("model must contain the 256 single-byte base pieces")
    for i in range(256):
        if model.pieces[k + i] != bytes([i]):
            raise ValueError(f"piece {k + i} must be the single byte {i:#04x}")
    if len(model.merges) != len(model.pieces) - k - 256:
        raise ValueError("merge count must equal the number of learned pieces")
    for rank, (left, right) in enumerate(model.merges):
        piece_id = k + 256 + rank
        if not (k <= left < piece_id and k <= right < piece_id):
            raise ValueError(f"merge {rank} references undefined or special ids")
        if model.pieces[piece_id] != model.pieces[left] + model.pieces[right]:
            raise ValueError(f"piece {piece_id} does not equal its merge concatenation")
    for piece in model.pieces:
        if not piece:
            raise ValueError("pieces must be non-empty byte sequences")
    if len(set(model.pieces)) != len(model.pieces):
        raise ValueError("piece list contains duplicates")


def train_bpe(
    docs: Iterable[CorpusDocument],
    vocab_size: int,
    special_names: Sequence[str] = REQUIRED_SPECIALS,
) -> TokenizerModel:
    """Learn a byte-level BPE vocabulary of exactly ``vocab_size`` pieces.

    Stops early only when no adjacent pair occurs at least twice. The result
    is fully determined by the corpus and parameters.
    """
    names = list(special_names)
    if len(set(names)) != len(names):
        raise ValueError("special token names must be unique")
    for required in REQUIRED_SPECIALS:
        if required not in names:
            raise ValueError(f"special token {required!r} is required")
    min_size = 256 + len(names)
    if vocab_size < min_size:
        raise ValueError(
            f"vocab_size must be at least {min_size} "
            f"(256 bytes + {len(names)} specials), got {vocab_size}"
        )
    # Summed into the first language's counter in place; a copy doubles memory.
    counters = (counts for _, _, counts in count_words(docs).values())
    word_counts = next(counters, Counter())
    for counts in counters:
        word_counts.update(counts)
    if not word_counts:
        raise ValueError("training corpus is empty")
    pieces = [f"<{name}>".encode("utf-8") for name in names]
    pieces.extend(bytes([i]) for i in range(256))
    merges = _learn_merges(word_counts, pieces, vocab_size, len(names))
    model = TokenizerModel(
        pieces=tuple(pieces),
        merges=tuple(merges),
        special_tokens={name: i for i, name in enumerate(names)},
    )
    validate_model(model)
    return model


def count_words(docs: Iterable[CorpusDocument]) -> dict[str, list]:
    """Map each language of a stream to ``[documents, UTF-8 bytes, Counter of
    bytes.split words]`` in one pass; memory follows distinct words."""
    table: defaultdict[str, list] = defaultdict(lambda: [0, 0, Counter()])
    for doc in docs:
        data = doc.text.encode("utf-8")
        entry = table[doc.language]
        entry[0] += 1
        entry[1] += len(data)
        entry[2].update(data.split())
    return dict(table)


def _learn_merges(
    word_counts: Counter[bytes],
    pieces: list[bytes],
    vocab_size: int,
    byte_offset: int,
) -> list[tuple[int, int]]:
    # Incremental pair bookkeeping: exact pair counts, the words each pair
    # may occur in, and a lazy max-heap of (-count, left, right) entries.
    # Every live pair keeps at least one entry whose key is >= its count:
    # after each merge, every pair whose count rose (all of them contain the
    # new id) gets one entry at its new count, and a count that falls stays
    # below an entry already queued. A popped entry above its pair's count is
    # re-queued at the count; one below it is dropped, because a newer entry
    # holds the larger count. So the first popped entry equal to its count is
    # the true maximum under the (count, lowest left, lowest right) order.
    words: list[list[int]] = []
    freqs: list[int] = []
    pair_counts: dict[tuple[int, int], int] = {}
    pair_words: dict[tuple[int, int], set[int]] = {}
    for word, freq in word_counts.items():
        if len(word) < 2:
            continue
        ids = [byte_offset + b for b in word]
        index = len(words)
        words.append(ids)
        freqs.append(freq)
        prev = ids[0]
        for cur in ids[1:]:
            pair = (prev, cur)
            pair_counts[pair] = pair_counts.get(pair, 0) + freq
            members = pair_words.get(pair)
            if members is None:
                pair_words[pair] = {index}
            else:
                members.add(index)
            prev = cur

    heap = [(-count, pair[0], pair[1]) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    existing = set(pieces)
    banned: set[tuple[int, int]] = set()
    merges: list[tuple[int, int]] = []

    while len(pieces) < vocab_size and heap:
        neg_count, left, right = heapq.heappop(heap)
        pair = (left, right)
        count = pair_counts.get(pair)
        if count is None or count > -neg_count:
            continue
        if count < -neg_count:
            heapq.heappush(heap, (-count, left, right))
            continue
        if count < _MIN_PAIR_FREQ:
            break
        if pair in banned:
            continue
        merged = pieces[left] + pieces[right]
        if merged in existing:
            # Minting the piece would duplicate an existing one (only special
            # placeholders can collide); never select this pair again.
            banned.add(pair)
            continue
        new_id = len(pieces)
        pieces.append(merged)
        existing.add(merged)
        merges.append(pair)
        del pair_counts[pair]
        risen: set[tuple[int, int]] = set()
        for widx in pair_words.pop(pair):
            ids = words[widx]
            n = len(ids)
            # One left-to-right pass rewrites the word and records how each
            # merge site changes its neighbour pairs. The previous symbol is
            # taken from the rewritten output, so adjacent sites come out
            # exact: in "aaaa" merging (a, a) the second site turns the
            # (new, a) gained at the first into (new, new).
            deltas: dict[tuple[int, int], int] = {}
            out: list[int] = []
            i = 0
            while i < n:
                cur = ids[i]
                if cur != left or i + 1 == n or ids[i + 1] != right:
                    out.append(cur)
                    i += 1
                    continue
                if out:
                    p = out[-1]
                    deltas[(p, left)] = deltas.get((p, left), 0) - 1
                    deltas[(p, new_id)] = deltas.get((p, new_id), 0) + 1
                if i + 2 < n:
                    q = ids[i + 2]
                    deltas[(right, q)] = deltas.get((right, q), 0) - 1
                    deltas[(new_id, q)] = deltas.get((new_id, q), 0) + 1
                out.append(new_id)
                i += 2
            if len(out) == n:
                continue  # stale membership from an earlier rewrite
            words[widx] = out
            freq = freqs[widx]
            for p, delta in deltas.items():
                if delta == 0 or p == pair:
                    continue
                updated = pair_counts.get(p, 0) + delta * freq
                if updated == 0:
                    del pair_counts[p]
                    continue
                pair_counts[p] = updated
                if delta > 0:
                    risen.add(p)
                    pair_words.setdefault(p, set()).add(widx)
        for p in risen:
            heapq.heappush(heap, (-pair_counts[p], p[0], p[1]))
    return merges


def _encode_word(model: TokenizerModel, word: bytes) -> list[int]:
    base, get, none = model.byte_offset, model._ranks.get, len(model.merges)
    ids = [base + b for b in word]
    # ranks[i] is the merge rank of (ids[i], ids[i + 1]), ``none`` if no merge.
    # A pair holding the id just minted ranks above the merge that minted it,
    # so the other sites of that merge stay the minimum and are merged leftmost
    # first: the left-to-right, non-overlapping replacement of BPE.
    ranks = list(map(get, zip(ids, ids[1:]), repeat(none)))
    while ranks:
        r = min(ranks)
        if r == none:
            break
        i = ranks.index(r)
        ids[i] = new = base + 256 + r
        del ids[i + 1]
        del ranks[i]
        if i:
            ranks[i - 1] = get((ids[i - 1], new), none)
        if i < len(ranks):
            ranks[i] = get((new, ids[i + 1]), none)
    return ids


def encode(model: TokenizerModel, text: str) -> list[int]:
    """Segment text into token ids by applying merges in learned order.

    Byte-level, so every string is encodable and the output never has more
    tokens than the text has UTF-8 bytes. Special ids are never produced.
    """
    return encode_bytes(model, text.encode("utf-8"))


def encode_bytes(model: TokenizerModel, data: bytes) -> list[int]:
    """Encode a raw byte sequence (used when pieces are not valid UTF-8)."""
    base = model.byte_offset
    out: list[int] = []
    for segment in _SEG_RE.findall(data):
        if segment[0] in _WS_SET:
            out.extend(base + b for b in segment)
        else:
            out.extend(_encode_word(model, segment))
    return out


def decode(model: TokenizerModel, ids: Iterable[int]) -> str:
    """Concatenate piece bytes and decode as UTF-8.

    Raises IndexError for out-of-range ids, ValueError for special ids, and
    UnicodeDecodeError when an adversarial id list concatenates to invalid
    UTF-8.
    """
    specials = {v: k for k, v in model.special_tokens.items()}
    count = len(model.pieces)
    parts = []
    for token_id in ids:
        if not 0 <= token_id < count:
            raise IndexError(
                f"token id {token_id} out of range for vocabulary of {count} pieces"
            )
        if token_id in specials:
            raise ValueError(
                f"token id {token_id} is the special token {specials[token_id]!r}"
            )
        parts.append(model.pieces[token_id])
    return b"".join(parts).decode("utf-8")


@dataclass(frozen=True)
class FertilityReport:
    """Average token counts for one language under one tokenizer."""

    language: str
    doc_count: int
    total_tokens: int
    tokens_per_doc: float
    tokens_per_word: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def fertility(model: TokenizerModel, words: dict[str, list]) -> list[FertilityReport]:
    """Measure per-language token counts from a :func:`count_words` table.

    ``tokens_per_word`` divides by ``str.split`` word counts, taken from the
    distinct byte words (ASCII whitespace is also ``str`` whitespace), and
    counts each ASCII whitespace byte as one token. Each distinct word is
    encoded once, weighted by its frequency. Reports are sorted by language.
    """
    if not words:
        raise ValueError("fertility requires a non-empty document stream")
    reports = []
    for lang, (n_docs, n_bytes, counts) in sorted(words.items()):
        saved = sum(f * (len(w) - len(_encode_word(model, w))) for w, f in counts.items())
        n_tokens = n_bytes - saved
        n_words = sum(f * len(w.decode("utf-8").split()) for w, f in counts.items())
        reports.append(
            FertilityReport(
                language=lang,
                doc_count=n_docs,
                total_tokens=n_tokens,
                tokens_per_doc=n_tokens / n_docs,
                tokens_per_word=(n_tokens / n_words) if n_words else 0.0,
            )
        )
    return reports


def compare_fertility(a: FertilityReport, b: FertilityReport) -> float:
    """Relative token-efficiency improvement of ``a`` over ``b``, in percent.

    Computed as (b.tokens_per_doc - a.tokens_per_doc) / b.tokens_per_doc * 100;
    positive when ``a`` is the more efficient tokenizer.
    """
    if a.language != b.language:
        raise ValueError(
            f"cannot compare fertility across languages ({a.language!r} vs {b.language!r})"
        )
    if b.tokens_per_doc <= 0:
        raise ValueError("baseline tokens_per_doc must be positive")
    return improvement_pct(a.tokens_per_doc, b.tokens_per_doc)


def improvement_pct(value: float, baseline: float) -> float:
    """Percent by which ``value`` is below a positive ``baseline``."""
    return (baseline - value) / baseline * 100.0


def serialize_model(model: TokenizerModel) -> bytes:
    """Canonical UTF-8 serialization: pretty-printed JSON with LF endings."""
    payload = {
        "version": model.version,
        "special_tokens": dict(model.special_tokens),
        "pieces": [base64.b64encode(p).decode("ascii") for p in model.pieces],
        "merges": [list(m) for m in model.merges],
    }
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def model_hash(model: TokenizerModel) -> str:
    """Truncated hex SHA-256 over the canonical model file bytes (32 chars)."""
    return hashlib.sha256(serialize_model(model)).hexdigest()[:32]


def save_model(model: TokenizerModel, path) -> None:
    validate_model(model)
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> TokenizerModel:
    """Load and validate a tokenizer model file."""
    payload = _load_json(path, ValueError)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: model file must contain a JSON object")
    missing = {"version", "special_tokens", "pieces", "merges"} - payload.keys()
    if missing:
        raise ValueError(f"{path}: model file missing keys {sorted(missing)}")
    try:
        pieces = _typed(payload["pieces"], "a list of strings", "pieces")
        decoded = []
        for index, entry in enumerate(pieces):
            try:
                decoded.append(base64.b64decode(entry, validate=True))
            except ValueError as exc:
                raise ValueError(f"pieces[{index}] is not valid base64: {exc}") from exc
        pieces = tuple(decoded)
        merges = _typed(payload["merges"], "a list", "merges")
        for rank, merge in enumerate(merges):
            if len(_typed(merge, "a list of integers", "merge")) != 2:
                raise ValueError(f"merge {rank} must be a pair of integers, got {merge!r}")
        merges = tuple(map(tuple, merges))
        specials = _typed(payload["special_tokens"], "a JSON object", "special_tokens")
        for name, token_id in specials.items():
            _typed(token_id, "an integer", f"special_tokens[{name!r}]")
        version = _typed(payload["version"], "an integer", "version")
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from exc
    model = TokenizerModel(
        pieces=pieces, merges=merges, special_tokens=specials, version=version
    )
    try:
        validate_model(model)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return model
