"""Byte-level BPE: vocabulary training, encoding, and token-efficiency reports.

Training greedily merges the most frequent adjacent token pair until the
vocabulary target is reached or no pair occurs at least twice. Ties on pair
frequency break by lower left id, then lower right id, so training is
deterministic on any platform and independent of thread count. Merges never
cross an ASCII whitespace byte, which keeps learned pieces word-internal and
stabilizes fertility numbers.

Training and encoding share one flat form of words: their token ids back
to back, and the number of ids of each word. Training counts each distinct
word once, sums the languages' counters into that flat form and drops them,
so no word table is alive while it learns merges in two phases. The first
``_ARRAY_MERGES`` merges, each of which rewrites many words, run in array
rounds over the flat words, with int32 ids, word indices and links: a dense
table of exact pair counts gives the next pair by one argmax, and a merge
rewrites all its sites and adds the count changes of the pairs beside them in
one scatter. ``_loop_state`` then builds, from the flat words, whether or not
a round ran, the incremental loop of Sennrich et al. (2016) for the long
tail: a merge rewrites only the words that contain its pair and adjusts only
the two neighbouring pairs of each site, and a lazy max-heap of pair counts
picks the next merge. The words that hold each pair are slices of three
sorted arrays for the pairs counted at the start, and one tuple for a pair
minted in the loop; a pair whose count reaches zero drops both its count and
its tuple. Both phases keep exact counts and break ties alike, so the merges
equal those of a full recount after every step.

Encoding applies merges in learned order to each whitespace-free word and
keeps nothing per word, only the merge rank lookups per model. All of it goes
through ``_encode_words``: :func:`encode_bytes` passes its text cut into each
ASCII whitespace byte and each run of other bytes, :func:`fertility` each
language's distinct words. It runs array rounds over consecutive batches of
at most ``_ENCODE_BATCH_BYTES``: a round merges every site of each word's
lowest rank at once, looks up again only the pairs beside the new ids, and
drops the words left with no merge. This is the left-to-right
replacement of BPE, because a pair holding a new id ranks above the merge that
minted it. Many short inputs, such as the pieces ``adapt`` averages, go in
one call joined by spaces: no learned piece holds an ASCII whitespace byte
(no :class:`TokenizerModel` with one can be made), so each whitespace byte is
a token of its own and the ids split back at them.

Only :func:`count_words` splits text into words, for training and fertility
alike; fertility encodes each distinct word once per model, counts its
``str`` words once for all models, and counts whitespace bytes from lengths.

Token ids are laid out as: special placeholders first, then the 256 single
bytes, then one piece per learned merge. Because the base alphabet is the
full byte range, every input is encodable and ``decode(encode(x)) == x``.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import heapq
import json
import re
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, pairwise, repeat
from operator import mul, sub
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import CorpusDocument, _batches, _encodable, _load_json, _typed

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
]

MODEL_FORMAT_VERSION = 1
REQUIRED_SPECIALS = ("pad", "eos", "unk")

# Encoding units: each ASCII whitespace byte alone, and each run of other bytes.
_UNITS = re.compile(rb"[ \t\n\r\x0b\x0c]|[^ \t\n\r\x0b\x0c]+")

_MIN_PAIR_FREQ = 2


@dataclass(frozen=True, eq=False)
class TokenizerModel:
    """A learned subword vocabulary plus its merge rules and special tokens.

    ``pieces[i]`` is the byte sequence of token id ``i``. Construction
    checks every structural invariant and raises ValueError if one is
    broken, so a model that exists is valid; its fields are stored as
    tuples and a read-only mapping. Models are immutable and safe to share across
    threads; they compare by identity, so compare :func:`serialize_model`
    output for structural equality. The encoder builds its merge rank
    lookups on first use and keeps them with the model.
    """

    pieces: tuple[bytes, ...]
    merges: tuple[tuple[int, int], ...]
    special_tokens: Mapping[str, int]

    def __post_init__(self) -> None:
        # Read-only copies, so no caller can make a checked model invalid.
        specials = MappingProxyType(dict(self.special_tokens))
        object.__setattr__(self, "special_tokens", specials)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "merges", tuple(map(tuple, self.merges)))
        k = len(specials)
        missing = [name for name in REQUIRED_SPECIALS if name not in specials]
        if missing:
            raise ValueError(f"special tokens {missing} are required")
        if sorted(specials.values()) != list(range(k)):
            raise ValueError("special token ids must be exactly 0..len(specials)-1")
        if len(self.pieces) < k + 256:
            raise ValueError("model must contain the 256 single-byte base pieces")
        for i in range(256):
            if self.pieces[k + i] != bytes([i]):
                raise ValueError(f"piece {k + i} must be the single byte {i:#04x}")
        if len(self.merges) != len(self.pieces) - k - 256:
            raise ValueError("merge count must equal the number of learned pieces")
        for rank, (left, right) in enumerate(self.merges):
            piece_id = k + 256 + rank
            if not (k <= left < piece_id and k <= right < piece_id):
                raise ValueError(f"merge {rank} references undefined or special ids")
            piece = self.pieces[piece_id]
            if piece != self.pieces[left] + self.pieces[right]:
                raise ValueError(f"piece {piece_id} does not equal its merge concatenation")
            if piece.split() != [piece]:
                raise ValueError(f"piece {piece_id} holds an ASCII whitespace byte")
        for piece in self.pieces:
            if not piece:
                raise ValueError("pieces must be non-empty byte sequences")
        if len(set(self.pieces)) != len(self.pieces):
            raise ValueError("piece list contains duplicates")

    @property
    def byte_offset(self) -> int:
        """Id of byte 0; single byte ``b`` has id ``byte_offset + b``."""
        return len(self.special_tokens)

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    @cached_property
    def _rank_arrays(self):
        """The encoder's lookups: the rank of every byte pair as a flat
        256x256 table, and the sorted merge keys ``left * piece_count + right``
        (int64) with the rank of each; ``len(merges)`` means no merge."""
        import numpy as np  # not at the top: see collection.subsample_to_target

        merges = np.array(self.merges, dtype=np.int64).reshape(-1, 2)
        keys = merges[:, 0] * self.piece_count + merges[:, 1]
        order = np.argsort(keys)
        byte_pairs = merges - self.byte_offset
        is_bytes = (byte_pairs < 256).all(axis=1)
        table = np.full(256 * 256, len(self.merges), dtype=np.int64)
        table[byte_pairs[is_bytes, 0] * 256 + byte_pairs[is_bytes, 1]] = np.flatnonzero(is_bytes)
        return table, keys[order], order


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
    for name in names:
        _encodable(name, f"special token {name!r}")
    for required in REQUIRED_SPECIALS:
        if required not in names:
            raise ValueError(f"special token {required!r} is required")
    min_size = 256 + len(names)
    if vocab_size < min_size:
        raise ValueError(
            f"vocab_size must be at least {min_size} "
            f"(256 bytes + {len(names)} specials), got {vocab_size}"
        )
    pieces = [f"<{name}>".encode("utf-8") for name in names]
    pieces.extend(bytes([i]) for i in range(256))
    ids, lengths, freq = _flat_words(count_words(docs), len(names))
    merges = _learn_merges(ids, lengths, freq, pieces, vocab_size, len(names))
    return TokenizerModel(
        pieces=pieces, merges=merges, special_tokens={name: i for i, name in enumerate(names)}
    )


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


def _flat_words(table: dict[str, list], byte_offset: int):
    """Consume a :func:`count_words` table into the flat form training learns
    from: the distinct words of two bytes or more as int32 ids back to back,
    each one's length, and its summed frequency (both int64).

    Each language's counter is popped as it is summed into the first one's, in
    place (a copy doubles memory), and the sum is dropped here, so no word
    table outlives the call. Raises ValueError if the table holds no word.
    """
    import numpy as np  # not at the top: see collection.subsample_to_target

    word_counts = table.pop(next(iter(table)))[2] if table else Counter()
    while table:
        word_counts.update(table.pop(next(iter(table)))[2])
    if not word_counts:
        raise ValueError("training corpus is empty")
    distinct = [word for word in word_counts if len(word) > 1]
    lengths = np.fromiter(map(len, distinct), np.int64, len(distinct))
    freq = np.fromiter(map(word_counts.__getitem__, distinct), np.int64, len(distinct))
    del word_counts
    ids = np.frombuffer(b"".join(distinct), np.uint8).astype(np.int32)
    ids += byte_offset
    return ids, lengths, freq


def _learn_merges(ids, lengths, freq, pieces, vocab_size, byte_offset) -> list[tuple[int, int]]:
    """Learn merges from flat words, ``ids`` back to back, each word's length
    and frequency, extending ``pieces`` until it holds ``vocab_size`` or no
    pair occurs twice; return the merges."""
    import numpy as np  # not at the top: see collection.subsample_to_target

    # Incremental pair bookkeeping: exact pair counts, keyed by
    # ``left * size + right``, and a lazy max-heap of entries
    # ``key - count * size**2``, which sort as (-count, left, right). Every
    # live pair keeps at least one entry whose count is >= its count: after
    # each merge, every pair whose count rose (all of them contain the new
    # id) gets one entry at its new count, and a count that falls stays below
    # an entry already queued. A popped entry above its pair's count is
    # re-queued at the count; one below it is dropped, because a newer entry
    # holds the larger count. So the first popped entry equal to its count is
    # the maximum by count, then lowest left, then lowest right.
    #
    # The words that may hold a pair: ``_loop_state``'s sorted arrays for the
    # pairs it counted, and for a pair minted by a merge, a tuple of the words
    # that merge gave it. That tuple is complete for good, since a pair's
    # count rises only in the merge that mints its new id. A pair whose count
    # reaches zero loses its tuple with its count. Keys, entries, words and
    # tuples hold only ints, which the garbage collector skips.
    existing = set(pieces)
    merges: list[tuple[int, int]] = []
    # Each merge removes at least one position, so ids stay below ``size``
    # even when ``vocab_size`` is far beyond what the words can give.
    size = min(vocab_size, len(pieces) + len(ids))
    stop = min(size, len(pieces) + _ARRAY_MERGES)
    if len(pieces) < stop:
        ids, lengths = _array_merges(ids, lengths, freq, pieces, existing, merges, stop, byte_offset)
    square = size * size
    words, freqs, pair_counts, (keys, starts, holders) = _loop_state(ids, lengths, freq, size)
    del ids, lengths
    minted: dict[int, tuple[int, ...]] = {}
    heap = [key - count * square for key, count in pair_counts.items()]
    heapq.heapify(heap)

    while len(pieces) < vocab_size and heap:
        neg_count, key = divmod(heapq.heappop(heap), square)
        count = pair_counts.get(key)
        if count is None or count > -neg_count:
            continue
        if count < -neg_count:
            heapq.heappush(heap, key - count * square)
            continue
        if count < _MIN_PAIR_FREQ:
            break
        left, right = divmod(key, size)
        merged = pieces[left] + pieces[right]
        if merged in existing:
            # Minting the piece would duplicate an existing one (only special
            # placeholders can collide). ``existing`` only grows, so the pair
            # is skipped again whenever it comes back up.
            continue
        new_id = len(pieces)
        pieces.append(merged)
        existing.add(merged)
        merges.append((left, right))
        del pair_counts[key]
        held = minted.pop(key, None)
        if held is None:
            at = np.searchsorted(keys, key)
            held = holders[starts[at] : starts[at + 1]].tolist()
        born: dict[int, list[int]] = {}
        for widx in held:
            ids = words[widx]
            n = len(ids)
            # One left-to-right pass rewrites the word and records how each
            # merge site changes its neighbour pairs. The previous symbol is
            # taken from the rewritten output, so adjacent sites come out
            # exact: in "aaaa" merging (a, a) the second site turns the
            # (new, a) gained at the first into (new, new).
            deltas: dict[int, int] = {}
            out: list[int] = []
            i = 0
            while i < n:
                cur = ids[i]
                if cur != left or i + 1 == n or ids[i + 1] != right:
                    out.append(cur)
                    i += 1
                    continue
                if out:
                    p = out[-1] * size
                    deltas[p + left] = deltas.get(p + left, 0) - 1
                    deltas[p + new_id] = deltas.get(p + new_id, 0) + 1
                if i + 2 < n:
                    q = ids[i + 2]
                    deltas[right * size + q] = deltas.get(right * size + q, 0) - 1
                    deltas[new_id * size + q] = deltas.get(new_id * size + q, 0) + 1
                out.append(new_id)
                i += 2
            if len(out) == n:
                continue  # stale membership from an earlier rewrite
            words[widx] = tuple(out)
            freq = freqs[widx]
            for p, delta in deltas.items():
                if delta == 0 or p == key:
                    continue
                updated = pair_counts.get(p, 0) + delta * freq
                if updated == 0:
                    del pair_counts[p]
                    minted.pop(p, None)
                    continue
                pair_counts[p] = updated
                if delta > 0:
                    widxs = born.get(p)
                    if widxs is None:
                        born[p] = [widx]
                    else:
                        widxs.append(widx)
        for p, widxs in born.items():
            minted[p] = tuple(widxs)
            heapq.heappush(heap, p - pair_counts[p] * square)
    return merges


# How many merges ``_array_merges`` learns before the loop takes over. Each
# array merge scans every position of every word, so it pays only while a
# merge rewrites many words; past a few hundred merges the loop is faster.
_ARRAY_MERGES = 128


def _index_type(n: int):
    """The dtype of positions and word indices below ``n``: int32 while it
    holds them, which halves their memory, else int64."""
    import numpy as np  # not at the top: see collection.subsample_to_target

    return np.int32 if n <= 2**31 else np.int64


def _array_merges(ids, lengths, freq, pieces, existing, merges, stop, byte_offset):
    """Learn merges in array rounds over flat words weighted by ``freq`` until
    ``len(pieces) == stop`` or no pair occurs twice, extending ``pieces``,
    ``existing`` and ``merges`` as the loop does; return the rewritten words
    in the same flat form, absolute int32 ids back to back and each word's length.

    Inside, ids count from byte 0, so that no special token takes a row, and
    ``word`` gives the word of each position. A merge writes the new id over
    each site's left id and -1 over its right one, and links around the right
    one: ``nxt`` and ``prv`` give a live position's neighbours, or position
    ``n`` (id -1) past either end of its word. Ids are int32, and so are word
    indices and links while they fit; pair keys and counts are int64. The
    exact pair counts are a dense table, a row and a column per id below
    ``stop``, so a row-major argmax picks the highest count, then the lowest
    left id, then the lowest right id. A merge rewrites all its sites at once
    and adds the count changes of their neighbour pairs, weighted by word
    frequency, in one scatter.
    """
    import numpy as np  # not at the top: see collection.subsample_to_target

    n, size = len(ids), stop - byte_offset
    index = _index_type(n + 2)
    ids = np.concatenate((ids - byte_offset, (-1,)), dtype=np.int32)
    word = np.repeat(np.arange(len(lengths), dtype=index), lengths)
    ends = np.cumsum(lengths)
    nxt = np.arange(1, n + 2, dtype=index)
    nxt[ends - 1] = n
    prv = np.arange(-1, n, dtype=index)
    prv[ends - lengths] = n
    # Each position and the next, weighted by zero across a word's end: no
    # index of the pairs' positions, which would be the largest temporary.
    key = ids[: n - 1].astype(np.int64)
    key *= size
    key += ids[1:n]
    weight = freq[word[: n - 1]]
    weight[nxt[: n - 1] == n] = 0
    counts = np.zeros(size * size, np.int64)
    np.add.at(counts, key, weight)
    del key, weight
    while len(pieces) < stop:
        best = int(np.argmax(counts))
        if counts[best] < _MIN_PAIR_FREQ:
            break
        left, right = divmod(best, size)
        merged = pieces[byte_offset + left] + pieces[byte_offset + right]
        if merged in existing:
            # Only pairs holding a new id ever rise, so a banned pair never
            # comes back up; ``_loop_state`` recounts it.
            counts[best] = 0
            continue
        new_id = len(pieces) - byte_offset
        pieces.append(merged)
        existing.add(merged)
        merges.append((byte_offset + left, byte_offset + right))
        sites = np.flatnonzero(ids == left)
        sites = sites[ids[nxt[sites]] == right]
        sites = _leftmost_sites(sites, sites[1:] == nxt[sites[:-1]])
        gone = nxt[sites]
        # The loop's p and q: a left neighbour that the previous site just
        # merged is the new id, as ``out[-1]`` is; a right one is unmerged.
        p = np.where(np.r_[False, gone[:-1] == prv[sites[1:]]], new_id, ids[prv[sites]])
        q = ids[nxt[gone]]
        w = freq[word[sites]]
        has_p, has_q = p >= 0, q >= 0
        p, wp = p[has_p].astype(np.int64), w[has_p]
        q, wq = q[has_q].astype(np.int64), w[has_q]
        changed = (p * size + left, p * size + new_id, right * size + q, new_id * size + q)
        np.add.at(counts, np.concatenate(changed), np.concatenate((-wp, wp, -wq, wq)))
        counts[best] = 0
        ids[sites] = new_id
        ids[gone] = -1
        nxt[sites] = nxt[gone]
        prv[nxt[sites]] = sites
    live = ids[:n] >= 0
    return ids[:n][live] + byte_offset, np.bincount(word[live], minlength=len(lengths))


def _loop_state(ids, lengths, freq, size):
    """The loop's state for flat words of ids below ``size``: each word as an
    id tuple, which the garbage collector stops tracking, ``freq`` as a list,
    each pair's exact count keyed by the int ``left * size + right``, and the
    words that hold each pair as three sorted arrays: the int64 pair keys, the
    start of each key's words and one past the last, and the word indices, in
    order and once per pair. Each id is one shared int object."""
    import numpy as np  # not at the top: see collection.subsample_to_target

    word = np.repeat(np.arange(len(lengths), dtype=_index_type(len(lengths))), lengths)
    pos = np.flatnonzero(word[:-1] == word[1:])
    key = ids[pos].astype(np.int64) * size + ids[pos + 1]
    # A stable sort keeps each key's positions, and so its words, in order.
    order = np.argsort(key, kind="stable")
    key, member = key[order], word[pos][order]
    del word, pos, order
    first = np.diff(key, prepend=-1) != 0
    totals = np.add.reduceat(freq[member], np.flatnonzero(first)).tolist()
    keys = key[first]
    once = first | (np.diff(member, prepend=-1) != 0)
    member = member[once]
    starts = np.append(np.flatnonzero(first[once]), len(member))
    del key, first, once
    id_ints = np.arange(size).astype(object)
    flat = id_ints[ids].tolist()
    words = [tuple(flat[a:b]) for a, b in pairwise(chain((0,), np.cumsum(lengths).tolist()))]
    return words, freq.tolist(), dict(zip(keys.tolist(), totals)), (keys, starts, member)


def _leftmost_sites(sites, touching):
    """Thin sorted merge sites to the leftmost non-overlapping ones;
    ``touching[i]`` says whether site ``i + 1`` starts at site ``i``'s right id.

    Sites touch only in a run of one id under an ``(a, a)`` merge; every other
    one from the run's start merges, as left-to-right replacement does.
    """
    import numpy as np  # not at the top: see collection.subsample_to_target

    if not touching.any():
        return sites
    k = np.arange(len(sites))
    run_start = np.maximum.accumulate(np.where(np.r_[False, touching], 0, k))
    return sites[(k - run_start) % 2 == 0]


# The array rounds take words in consecutive batches of at most this many
# bytes, so their memory follows one batch; a longer word is a batch alone.
_ENCODE_BATCH_BYTES = 65536


def _encode_words(
    model: TokenizerModel, words: Iterable[bytes]
) -> Iterator[tuple[list[int], list[int]]]:
    """Encode non-empty words (no merge crosses an ASCII whitespace byte) in
    consecutive batches, each as its words' token ids back to back and the
    number of ids of each word.
    """
    return map(_encode_batch, repeat(model), _batches(words, len, _ENCODE_BATCH_BYTES))


def _encode_batch(model: TokenizerModel, words: list[bytes]) -> tuple[list[int], list[int]]:
    """The token ids of each word, back to back, and each one's number of ids,
    computed in rounds over arrays of all the words.

    ``ids`` holds the live words back to back and ``ranks[i]`` the merge rank
    of ``(ids[i], ids[i + 1])``: ``none`` if no merge, ``end`` at a word's last
    token. Each round merges every site of each word's lowest rank at once,
    since a pair holding the new id ranks above it, and drops the words left
    with no merge.
    """
    import numpy as np  # not at the top: see collection.subsample_to_target

    table, keys, key_ranks = model._rank_arrays
    none = len(model.merges)
    end = none + 1
    data = np.frombuffer(b"".join(words), dtype=np.uint8)
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    ids = data + np.int64(model.byte_offset)
    ranks = np.empty(len(ids), np.int64)
    ranks[:-1] = table[(data[:-1].astype(np.int64) << 8) | data[1:]]
    ranks[np.cumsum(lengths) - 1] = end
    live = np.arange(len(words))
    finished: list[tuple] = []  # (words, their lengths, their ids) per round
    while True:
        starts = np.cumsum(lengths) - lengths
        low = np.minimum.reduceat(ranks, starts)
        done = low >= none
        if done.any():
            kept = np.repeat(~done, lengths)
            finished.append((live[done], lengths[done], ids[~kept]))
            live, lengths, low = live[~done], lengths[~done], low[~done]
            if not len(live):
                break
            ids, ranks = ids[kept], ranks[kept]
            starts = np.cumsum(lengths) - lengths
        sites = np.flatnonzero(ranks == np.repeat(low, lengths))
        sites = _leftmost_sites(sites, sites[1:] == sites[:-1] + 1)
        ids[sites] = model.byte_offset + 256 + ranks[sites]
        ranks[sites] = ranks[sites + 1]  # ``end`` if the right token ended the word
        kept = np.ones(len(ids), dtype=bool)
        kept[sites + 1] = False
        lengths = np.add.reduceat(kept, starts, dtype=np.int64)
        ids, ranks = ids[kept], ranks[kept]
        # Only the pairs on either side of a new id change. Position -1 is the
        # batch's last token, always ``end``, so a site at 0 looks up nothing.
        new = sites - np.arange(len(sites))
        pos = np.concatenate((new - 1, new))
        pos = pos[ranks[pos] != end]
        key = ids[pos] * model.piece_count + ids[pos + 1]
        i = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        ranks[pos] = np.where(keys[i] == key, key_ranks[i], none)
    # The words finished round by round; put their ids back in word order.
    word, length, ids = (np.concatenate(parts) for parts in zip(*finished))
    order = np.argsort(word)
    start = (np.cumsum(length) - length)[order]
    length = length[order]
    moved = np.repeat(start - (np.cumsum(length) - length), length)
    return ids[moved + np.arange(len(ids))].tolist(), length.tolist()


def encode(model: TokenizerModel, text: str) -> list[int]:
    """Segment text into token ids by applying merges in learned order.

    Byte-level, so every string is encodable and the output never has more
    tokens than the text has UTF-8 bytes. Special ids are never produced.
    """
    return encode_bytes(model, text.encode("utf-8"))


def encode_bytes(model: TokenizerModel, data: bytes) -> list[int]:
    """Encode a raw byte sequence (used when pieces are not valid UTF-8)."""
    return list(chain.from_iterable(ids for ids, _ in _encode_words(model, _UNITS.findall(data))))


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


def fertility(
    models: Sequence[TokenizerModel], words: dict[str, list]
) -> list[FertilityReport]:
    """Measure per-language token counts of each model from a :func:`count_words` table.

    ``tokens_per_word`` divides by ``str.split`` word counts, taken once per
    language from the distinct byte words (ASCII whitespace is also ``str``
    whitespace), and counts each ASCII whitespace byte as one token. Each
    distinct word is encoded once per model, weighted by its frequency.
    Reports are sorted by language and, within a language, follow ``models``.
    """
    if not words:
        raise ValueError("fertility requires a non-empty document stream")
    reports = []
    for lang, (n_docs, n_bytes, counts) in sorted(words.items()):
        # Frequency-weighted sums over the distinct words, each word's bytes
        # replaced by its tokens; map keeps the per-word loop in C.
        freqs = counts.values()
        n_words = sum(map(mul, freqs, map(len, map(str.split, map(bytes.decode, counts)))))
        for model in models:
            n_ids = chain.from_iterable(sizes for _, sizes in _encode_words(model, counts.keys()))
            n_tokens = n_bytes - sum(map(mul, freqs, map(sub, map(len, counts), n_ids)))
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
    """Canonical UTF-8 serialization: pretty-printed JSON with LF endings.

    The bytes are ``json.dumps(payload, indent=2, ensure_ascii=False)`` of the
    four fields plus a newline. Only the special-token names need the JSON
    encoder, and they get its C one, which ``indent`` would rule out: pieces
    are base64 ASCII and merges are integers, so both are formatted directly.
    """
    specials = json.dumps(
        dict(model.special_tokens), ensure_ascii=False, separators=(",\n    ", ": ")
    )
    pieces = b'",\n    "'.join(map(base64.b64encode, model.pieces)).decode("ascii")
    merges = "[]"
    if model.merges:
        pairs = ",\n    ".join(map("[\n      %d,\n      %d\n    ]".__mod__, model.merges))
        merges = f"[\n    {pairs}\n  ]"
    text = (
        f'{{\n  "version": {MODEL_FORMAT_VERSION},\n'
        f'  "special_tokens": {{\n    {specials[1:-1]}\n  }},\n'
        f'  "pieces": [\n    "{pieces}"\n  ],\n'
        f'  "merges": {merges}\n}}\n'
    )
    return text.encode("utf-8")


def model_hash(model: TokenizerModel) -> str:
    """Truncated hex SHA-256 over the canonical model file bytes (32 chars)."""
    return hashlib.sha256(serialize_model(model)).hexdigest()[:32]


def save_model(model: TokenizerModel, path) -> None:
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
            try:  # what b64decode(entry, validate=True) calls, without its checks in Python
                decoded.append(binascii.a2b_base64(entry, strict_mode=True))
            except ValueError as exc:
                raise ValueError(f"pieces[{index}] is not valid base64: {exc}") from exc
        merges = _typed(payload["merges"], "a list", "merges")
        for rank, merge in enumerate(merges):
            if len(_typed(merge, "a list of integers", "merge")) != 2:
                raise ValueError(f"merge {rank} must be a pair of integers, got {merge!r}")
        specials = _typed(payload["special_tokens"], "a JSON object", "special_tokens")
        for name, token_id in specials.items():
            _typed(token_id, "an integer", f"special_tokens[{name!r}]")
        version = _typed(payload["version"], "an integer", "version")
    except ValueError as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from exc
    try:
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"model version must be {MODEL_FORMAT_VERSION}, got {version}")
        return TokenizerModel(pieces=decoded, merges=merges, special_tokens=specials)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
