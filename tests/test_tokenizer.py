import base64
import gc
import itertools
import json
import operator
import random
import re
import tracemalloc
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from langadapt import tokenizer
from langadapt.corpus import CorpusDocument
from langadapt.tokenizer import FertilityReport, count_words, fertility

from oracles import (
    _split_words,
    json_model_bytes,
    naive_encode_bytes,
    naive_train_bpe,
    naive_train_bpe_counts,
)

ASCII_WS = b" \t\n\r\x0b\x0c"


def docs_from(texts, language="ind"):
    return [
        CorpusDocument(id=str(i), text=t, language=language, source="test")
        for i, t in enumerate(texts)
    ]


def random_words(rng, n_types=60, n_words=100):
    alphabet = "abcdefghij"
    types = [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(2, 8)))
        for _ in range(n_types)
    ]
    return [rng.choice(types) for _ in range(n_words)]


def byte_id(model, char):
    return model.byte_offset + ord(char)


# _ENCODE_BATCH_BYTES: the default, then batches of one and of 24 bytes so
# that a word list crosses batches and a word can outgrow its batch.
ENCODER_PATHS = {"arrays": tokenizer._ENCODE_BATCH_BYTES, "arrays-1": 1, "arrays-24": 24}


def encoder_path(name):
    return mock.patch.object(tokenizer, "_ENCODE_BATCH_BYTES", ENCODER_PATHS[name])


def assert_encodes_like_naive(model, data):
    expected = naive_encode_bytes(list(model.pieces), list(model.merges), model.byte_offset, data)
    for path in ENCODER_PATHS:
        with encoder_path(path):
            assert tokenizer.encode_bytes(model, data) == expected, path


# _ARRAY_MERGES: no array rounds, so that _loop_state builds the loop from
# the unmerged byte ids, as it would from words encoded by a base model; a
# switch that toy corpora cross after two array merges; and array rounds
# only. All three must train like naive_train_bpe.
TRAIN_PATHS = {"loop": 0, "switch-2": 2, "arrays": 10**9}


def train_path(name):
    return mock.patch.object(tokenizer, "_ARRAY_MERGES", TRAIN_PATHS[name])


def assert_trains_like_naive(docs, vocab_size):
    expected = naive_train_bpe([doc.text for doc in docs], vocab_size)
    for path in TRAIN_PATHS:
        with train_path(path):
            model = tokenizer.train_bpe(docs, vocab_size)
        assert (list(model.pieces), list(model.merges)) == expected, path
    return model


@st.composite
def tiny_alphabet_corpora(draw):
    """A few documents of long single-character runs over a 2-3 symbol alphabet,
    each in a language drawn from ind, sun and jav."""
    alphabet = draw(st.sampled_from(["ab", "aab ", "aaaa b"]))
    run = st.builds(lambda ch, n: ch * n, st.sampled_from(alphabet), st.integers(1, 12))
    text = st.lists(run, min_size=1, max_size=12).map("".join)
    drawn = draw(
        st.lists(st.tuples(st.sampled_from(["ind", "sun", "jav"]), text), min_size=1, max_size=4)
    )
    return [
        CorpusDocument(id=str(i), text=t, language=lang, source="test")
        for i, (lang, t) in enumerate(drawn)
    ]


# Runs of a, b or ab, 1-12 long, between ASCII whitespace bytes: models
# trained on these learn merges such as (a, a), (aa, a) and (aa, aa), and
# their merge sites sit side by side.
tiny_alphabet_bytes = st.lists(
    st.one_of(
        st.builds(operator.mul, st.sampled_from([b"a", b"b", b"ab"]), st.integers(1, 12)),
        st.sampled_from([bytes([c]) for c in ASCII_WS]),
    ),
    max_size=16,
).map(b"".join)

# Text over a tiny alphabet and whitespace. str.split also splits on U+00A0,
# U+3000, U+0085 and U+001C, which bytes.split keeps inside words.
mixed_whitespace_text = st.lists(
    st.sampled_from(
        ["a", "b", "ab", "é", *ASCII_WS.decode(), "\u00a0", "\u3000", "\x85", "\x1c"]
    ),
    max_size=30,
).map("".join)


@pytest.fixture(scope="module")
def runs_model():
    # Learns (a, a), (a, b), (aa, aa) and (aa, a).
    return tokenizer.train_bpe(docs_from(["aaaaaaa aaaa aaa abab ab ab"]), 256 + 3 + 4)


class TestTrainBpe:
    def test_single_possible_merge(self):
        model = tokenizer.train_bpe(docs_from(["aaaa"]), 256 + 3 + 1)
        a = byte_id(model, "a")
        assert model.merges == ((a, a),)
        assert model.pieces[-1] == b"aa"

    def test_most_frequent_pair_first(self):
        model = tokenizer.train_bpe(docs_from(["abab", "ab"]), 256 + 3 + 4)
        assert model.merges[0] == (byte_id(model, "a"), byte_id(model, "b"))

    def test_matches_naive_oracle_on_toy_corpus(self):
        rng = random.Random(42)
        model = assert_trains_like_naive(docs_from([" ".join(random_words(rng))]), 300)
        assert len(model.merges) > TRAIN_PATHS["switch-2"]

    @settings(max_examples=300, deadline=None)
    @given(docs=tiny_alphabet_corpora(), vocab_size=st.integers(260, 300))
    def test_matches_naive_oracle_on_tiny_alphabets(self, docs, vocab_size):
        # Long runs of one symbol put merge sites next to each other, where
        # the neighbour-pair updates of one site depend on the previous one.
        # Mixed languages make training sum several per-language counters.
        assume(any(doc.text.split() for doc in docs))
        assert_trains_like_naive(docs, vocab_size)

    @settings(max_examples=200, deadline=None)
    @given(
        table=st.lists(
            st.tuples(
                st.builds(operator.mul, st.sampled_from([b"a", b"b", b"ab"]), st.integers(1, 9)),
                st.integers(1, 5),
            ),
            max_size=12,
        ),
        path=st.sampled_from(sorted(ENCODER_PATHS)),
    )
    @example(
        table=[(b"a", 3), (b"aaaa", 2), (b"aaaa", 1), (b"aaaaaaa", 4), (b"abab", 2)], path="arrays"
    )
    def test_loop_state_of_encoded_words_matches_naive_recount(self, runs_model, table, path):
        # Words encoded by a trained model, flat as _encode_words yields them:
        # one-id words, runs whose pair sites overlap, and repeated words.
        pieces, merges = list(runs_model.pieces), list(runs_model.merges)
        with encoder_path(path):
            batches = list(tokenizer._encode_words(runs_model, [word for word, _ in table]))
        ids = np.array([i for batch, _ in batches for i in batch], np.int64)
        lengths = np.array([n for _, sizes in batches for n in sizes], np.int64)
        freq = np.array([f for _, f in table], np.int64)
        size = runs_model.piece_count
        words, freqs, pair_counts, pair_words = tokenizer._loop_state(ids, lengths, freq, size)
        expected = [naive_encode_bytes(pieces, merges, runs_model.byte_offset, w) for w, _ in table]
        counts, holders = Counter(), defaultdict(set)
        for index, (word, (_, f)) in enumerate(zip(expected, table)):
            for left, right in zip(word, word[1:]):
                counts[left * size + right] += f
                holders[left * size + right].add(index)
        assert words == [tuple(word) for word in expected]
        assert freqs == freq.tolist()
        assert pair_counts == dict(counts)
        assert pair_words == dict(holders)

    def test_loop_state_is_left_to_the_garbage_collector_after_one_pass(self):
        # The loop's speed rests on this: the collector stops walking words
        # that hold only ints, and pair keys are ints, not tuples.
        table = [b"abab", b"aaaa", b"abcab", b"ba"]
        ids = np.array([3 + b for word in table for b in word], np.int64)
        lengths = np.array(list(map(len, table)), np.int64)
        freq = np.array([5, 2, 1, 7], np.int64)
        words, _, pair_counts, pair_words = tokenizer._loop_state(ids, lengths, freq, 300)
        gc.collect()
        assert not any(map(gc.is_tracked, words))
        assert all(type(key) is int for key in itertools.chain(pair_counts, pair_words))

    @pytest.mark.parametrize("path", sorted(TRAIN_PATHS))
    def test_ties_survive_int_heap_entries_at_large_counts(self, path):
        # Ties at 2**31 and just above it (one of them summed over two words)
        # and near 2**40, inside the int64 of the array rounds' table; (f, e)
        # is one below (g, h) and has the lower key. Near 2**40 the loop's
        # heap entries pass 2**53, where a float would round ties away. Twelve
        # merges are possible and eleven fit, so the last mints vocab_size - 1.
        table = Counter({
            b"ef": 2**40, b"gh": 2**40, b"fe": 2**40 - 1, b"hg": 2**40 - 1,
            b"cd": 2**31 - 1, b"cdx": 2, b"dc": 2**31 + 1, b"ab": 2**31, b"ba": 2**31,
            b"xyz": 2, b"xyzxyz": 5,
        })  # fmt: skip
        vocab_size = 3 + 256 + 11
        expected = naive_train_bpe_counts(table, vocab_size)
        assert len(naive_train_bpe_counts(table, vocab_size + 1)[1]) == 12
        with train_path(path):
            pieces = expected[0][: 3 + 256]
            merges = tokenizer._learn_merges(table, pieces, vocab_size, 3)
        assert (pieces, merges) == expected
        assert pieces[vocab_size - 1] == b"xyzxyz"

    def test_adjacent_merge_sites_match_naive_oracle(self):
        model = assert_trains_like_naive(docs_from(["aaaaaaa aaaa aaa"]), 280)
        assert model.pieces[model.byte_offset + 256 :] == (b"aa", b"aaaa", b"aaa")

    def test_piece_equal_to_a_special_is_never_minted(self):
        # (<pad, >) would mint b"<pad>", the pad placeholder, so it is skipped
        # for good: in array rounds on the "arrays" path, in the loop on the
        # others. (a, b) comes next.
        model = assert_trains_like_naive(docs_from(["<pad> <pad> <pad> ab ab"]), 300)
        assert model.pieces.count(b"<pad>") == 1
        assert model.pieces[model.byte_offset + 256 :] == (b"<p", b"ad", b"<pad", b"ab")

    def test_stops_when_no_pair_occurs_twice(self):
        # After (a, b) no pair occurs twice, so training stops one merge in:
        # inside the array rounds on every path but "loop".
        model = assert_trains_like_naive(docs_from(["ab ab cd xyz"]), 300)
        assert model.merges == ((byte_id(model, "a"), byte_id(model, "b")),)
        assert len(model.pieces) < 300

    def test_merges_never_cross_whitespace(self):
        model = tokenizer.train_bpe(docs_from(["ab ab ab ab"]), 256 + 3 + 6)
        for piece in model.pieces[model.byte_offset + 256 :]:
            assert b" " not in piece

    def test_vocab_size_too_small(self):
        with pytest.raises(ValueError, match="vocab_size"):
            tokenizer.train_bpe(docs_from(["abc"]), 100)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            tokenizer.train_bpe([], 300)
        with pytest.raises(ValueError, match="empty"):
            tokenizer.train_bpe(docs_from(["   "]), 300)

    def test_required_specials(self):
        with pytest.raises(ValueError, match="pad"):
            tokenizer.train_bpe(docs_from(["abc"]), 300, special_names=["eos", "unk"])

    def test_duplicate_special_names(self):
        with pytest.raises(ValueError, match="^special token names must be unique$"):
            tokenizer.train_bpe(docs_from(["abc"]), 300, ["pad", "eos", "unk", "eos"])

    def test_extra_special_names(self):
        model = tokenizer.train_bpe(
            docs_from(["abc abc"]), 256 + 4 + 1, special_names=["pad", "eos", "unk", "sep"]
        )
        assert model.special_tokens["sep"] == 3
        assert model.pieces[3] == b"<sep>"
        assert model.pieces[4] == b"\x00"


@pytest.fixture(scope="module")
def model():
    texts = ["aku makan nasi goreng", "aku minum kopi", "makan makan nasi"]
    return tokenizer.train_bpe(docs_from(texts), 256 + 3 + 20)


class TestEncodeDecode:
    def test_empty(self, model):
        assert tokenizer.encode(model, "") == []
        assert tokenizer.decode(model, []) == ""

    def test_no_merges_yields_byte_ids(self):
        model = tokenizer.train_bpe(docs_from(["xy"]), 259)  # no pair occurs twice
        assert model.merges == ()
        assert tokenizer.encode(model, "ab") == [byte_id(model, "a"), byte_id(model, "b")]

    def test_round_trip(self, model):
        for text in ["halo dunia", "aku makan nasi", "", " ", "tab\there"]:
            assert tokenizer.decode(model, tokenizer.encode(model, text)) == text

    def test_round_trip_random_utf8(self, model):
        rng = random.Random(7)
        for _ in range(200):
            codepoints = [
                rng.randrange(0x1, 0xD800) if rng.random() < 0.8 else rng.randrange(0xE000, 0x110000)
                for _ in range(rng.randrange(0, 60))
            ]
            text = "".join(map(chr, codepoints))
            assert tokenizer.decode(model, tokenizer.encode(model, text)) == text

    @settings(max_examples=150, deadline=None)
    @given(st.text())
    def test_round_trip_property(self, model, text):
        assert tokenizer.decode(model, tokenizer.encode(model, text)) == text

    @settings(max_examples=100, deadline=None)
    @given(st.text(min_size=1))
    def test_never_more_tokens_than_bytes(self, model, text):
        assert len(tokenizer.encode(model, text)) <= len(text.encode("utf-8"))

    def test_encode_matches_naive_merge_replay(self, model):
        rng = random.Random(11)
        for _ in range(50):
            text = " ".join(random_words(rng, n_types=20, n_words=8))
            assert_encodes_like_naive(model, text.encode("utf-8"))

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(tiny_alphabet_bytes, min_size=1, max_size=4),
        vocab_size=st.integers(260, 300),
        data=tiny_alphabet_bytes,
    )
    def test_tiny_alphabet_matches_naive_merge_replay(self, texts, vocab_size, data):
        assume(any(text.split() for text in texts))
        model = tokenizer.train_bpe(docs_from([t.decode("ascii") for t in texts]), vocab_size)
        assert_encodes_like_naive(model, data)

    def test_runs_of_one_byte_match_naive_merge_replay(self):
        # (a, a), then (aa, aa) and (aa, a): every run length from 1 to 20,
        # odd and even, puts merge sites of one rank side by side.
        model = tokenizer.train_bpe(docs_from(["aaaaaaa aaaa aaa"]), 280)
        assert model.merges[0] == (byte_id(model, "a"), byte_id(model, "a"))
        assert_encodes_like_naive(model, b" ".join(b"a" * n for n in range(1, 21)))
        assert_encodes_like_naive(model, b"a" * 99 + b"b" + b"a" * 98)

    def test_word_longer_than_its_batch_matches_naive_merge_replay(self, model):
        # Under the 24-byte batches a 180-byte word is a batch of its own,
        # between batches of several short words.
        word = b"makannasigorengakuminumkopi" * 7
        assert len(word) > 24 * 7
        assert_encodes_like_naive(model, b"aku makan " + word + b" nasi goreng aku")

    def test_model_without_merges_matches_naive_merge_replay(self):
        model = tokenizer.train_bpe(docs_from(["xy"]), 259)
        assert model.merges == ()
        assert_encodes_like_naive(model, b"xy yx xxyy a b\tab")

    @pytest.mark.parametrize("names", [["pad", "eos", "unk"], ["pad", "eos", "unk", "sep", "cls"]])
    def test_byte_offset_matches_naive_merge_replay(self, names):
        texts = ["aku makan nasi goreng", "makan makan nasi aku"]
        model = tokenizer.train_bpe(docs_from(texts), 256 + len(names) + 20, special_names=names)
        assert model.byte_offset == len(names)
        assert_encodes_like_naive(model, b"aku makan nasi goreng kopi \xff\x00 nasinasi")

    def test_decode_out_of_range(self, model):
        with pytest.raises(IndexError, match="out of range"):
            tokenizer.decode(model, [model.piece_count])

    def test_decode_special_id(self, model):
        with pytest.raises(ValueError, match="special"):
            tokenizer.decode(model, [model.special_tokens["pad"]])

    def test_decode_invalid_utf8(self, model):
        # lone continuation byte can never decode
        with pytest.raises(UnicodeDecodeError):
            tokenizer.decode(model, [model.byte_offset + 0x80])


# Characters the JSON encoder escapes (a quote, a backslash, controls) or
# writes as UTF-8 under ``ensure_ascii=False``.
SPECIAL_NAME_CHARS = st.sampled_from('"\\/\x00\x08\x1f\x7f\x85\u2028é語😀 a')

BASE_PIECES = [b"<pad>", b"<eos>", b"<unk>"] + [bytes([i]) for i in range(256)]
MERGE_AB = [3 + ord("a"), 3 + ord("b")]


def write_model_file(path, pieces=(*BASE_PIECES, b"ab"), merges=(MERGE_AB,), specials=None):
    """A model file written by hand, so that it may break an invariant no
    trained model can; by default it holds one valid merge, ``ab``."""
    payload = {
        "version": 1,
        "special_tokens": specials or {"pad": 0, "eos": 1, "unk": 2},
        "pieces": [base64.b64encode(piece).decode("ascii") for piece in pieces],
        "merges": list(merges),
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        model = tokenizer.train_bpe(docs_from(["makan nasi makan"]), 270)
        path = tmp_path / "tok.json"
        tokenizer.save_model(model, path)
        loaded = tokenizer.load_model(path)
        assert tokenizer.serialize_model(loaded) == tokenizer.serialize_model(model)
        assert tokenizer.model_hash(loaded) == tokenizer.model_hash(model)

    def test_reload_reproduces_encodings(self, tmp_path):
        model = tokenizer.train_bpe(docs_from(["aku suka makan nasi goreng pedas"]), 280)
        path = tmp_path / "tok.json"
        tokenizer.save_model(model, path)
        loaded = tokenizer.load_model(path)
        rng = random.Random(3)
        for _ in range(100):
            text = " ".join(random_words(rng, n_types=30, n_words=6))
            assert tokenizer.encode(model, text) == tokenizer.encode(loaded, text)

    def test_merge_replay_reconstructs_pieces(self):
        model = tokenizer.train_bpe(docs_from(["banyak kata kata banyak"]), 280)
        k = model.byte_offset
        for rank, (left, right) in enumerate(model.merges):
            assert model.pieces[k + 256 + rank] == model.pieces[left] + model.pieces[right]

    @settings(max_examples=100, deadline=None)
    @given(
        extra=st.lists(
            st.text(SPECIAL_NAME_CHARS | st.characters()),
            max_size=4,
            unique=True,
        ),
        order=st.randoms(use_true_random=False),
        text=st.text(st.sampled_from("abcé \n"), max_size=60),
        merges=st.integers(0, 24),
    )
    def test_serialization_matches_json_dumps(self, extra, order, text, merges):
        # Special names with quotes, backslashes, control and non-ASCII
        # characters, in any order; zero merges print as ``[]``.
        names = list(dict.fromkeys([*tokenizer.REQUIRED_SPECIALS, *extra]))
        order.shuffle(names)
        docs, vocab_size = docs_from(["ab ab " + text]), 256 + len(names) + merges
        # UTF-8 cannot encode a surrogate code point, so no model file can hold it.
        bad = [name for name in names if any("\ud800" <= ch <= "\udfff" for ch in name)]
        if bad:
            with pytest.raises(ValueError, match=re.escape(f"special token {bad[0]!r} has a lone")):
                tokenizer.train_bpe(docs, vocab_size, names)
            return
        model = tokenizer.train_bpe(docs, vocab_size, names)
        assert tokenizer.serialize_model(model) == json_model_bytes(model)

    def test_special_name_utf8_cannot_encode_rejected(self):
        names = [*tokenizer.REQUIRED_SPECIALS, "\ud800"]
        with pytest.raises(ValueError) as caught:
            tokenizer.train_bpe(docs_from(["ab ab"]), 300, names)
        assert str(caught.value) == "special token '\\ud800' has a lone surrogate at index 0"

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.json: invalid JSON"):
            tokenizer.load_model(path)

    @pytest.mark.parametrize("ws", list(ASCII_WS))
    def test_load_rejects_piece_holding_whitespace(self, tmp_path, ws):
        # Encoding splits text at whitespace before it merges, so a learned
        # piece holding a whitespace byte could never be produced. No model
        # with one can be built, so the file is written by hand.
        path = write_model_file(
            tmp_path / "spaced.json", [*BASE_PIECES, b"a" + bytes([ws])], [[3 + ord("a"), 3 + ws]]
        )
        with pytest.raises(ValueError, match="spaced.json: piece 259 holds an ASCII whitespace byte"):
            tokenizer.load_model(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"specials": {"pad": 0, "eos": 1, "unk": 3}},
             "special token ids must be exactly 0..len(specials)-1"),
            ({"pieces": BASE_PIECES[:-1], "merges": []},
             "model must contain the 256 single-byte base pieces"),
            ({"merges": []}, "merge count must equal the number of learned pieces"),
            ({"merges": [[0, MERGE_AB[1]]]}, "merge 0 references undefined or special ids"),
            ({"merges": [[MERGE_AB[0], 259]]}, "merge 0 references undefined or special ids"),
            ({"pieces": [*BASE_PIECES, b"ba"]}, "piece 259 does not equal its merge concatenation"),
            ({"pieces": [b"", *BASE_PIECES[1:], b"ab"]}, "pieces must be non-empty byte sequences"),
            ({"pieces": [b"<pad>", *BASE_PIECES[:1], *BASE_PIECES[2:], b"ab"]},
             "piece list contains duplicates"),
        ],
        ids=[
            "special-ids", "missing-byte-piece", "merge-count", "merge-names-special",
            "merge-names-undefined", "not-the-concatenation", "empty-piece", "duplicate-piece",
        ],
    )
    def test_load_rejects_broken_invariant_naming_file(self, tmp_path, fields, message):
        path = write_model_file(tmp_path / "broken.json", **fields)
        with pytest.raises(ValueError) as caught:
            tokenizer.load_model(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_fields_are_read_only(self):
        specials = {"pad": 0, "eos": 1, "unk": 2}
        pieces = [b"<pad>", b"<eos>", b"<unk>"] + [bytes([i]) for i in range(256)]
        model = tokenizer.TokenizerModel(pieces=pieces, merges=[], special_tokens=specials)
        with pytest.raises(TypeError):
            model.special_tokens["x"] = 9
        # The model holds copies of what it was given.
        specials["x"] = 9
        pieces.append(b"a b")
        assert dict(model.special_tokens) == {"pad": 0, "eos": 1, "unk": 2}
        assert model.piece_count == 259 and model.merges == ()

    def test_load_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="missing keys"):
            tokenizer.load_model(path)


class TestFertility:
    def test_single_doc_mean(self):
        model = tokenizer.train_bpe(docs_from(["abc abc"]), 260)
        doc = docs_from(["abcabcd"])  # one word, 7 bytes
        (report,) = fertility([model], count_words(doc))
        tokens = len(tokenizer.encode(model, "abcabcd"))
        assert report.total_tokens == tokens
        assert report.tokens_per_doc == float(tokens)
        assert report.tokens_per_word == float(tokens)

    def test_matches_naive_recount(self):
        rng = random.Random(9)
        model = tokenizer.train_bpe(docs_from(["aku makan nasi", "nasi goreng"]), 270)
        docs = []
        for i in range(100):
            lang = rng.choice(["ind", "sun"])
            text = " ".join(random_words(rng, n_types=15, n_words=rng.randrange(1, 9)))
            docs.append(CorpusDocument(id=str(i), text=text, language=lang, source="s"))
        reports = {r.language: r for r in fertility([model], count_words(docs))}
        for lang in ("ind", "sun"):
            mine = [d for d in docs if d.language == lang]
            total = sum(len(tokenizer.encode(model, d.text)) for d in mine)
            words = sum(len(d.text.split()) for d in mine)
            assert reports[lang].doc_count == len(mine)
            assert reports[lang].total_tokens == total
            assert reports[lang].tokens_per_doc == total / len(mine)
            assert reports[lang].tokens_per_word == total / words

    @settings(max_examples=150, deadline=None)
    @given(
        drawn=st.lists(
            st.tuples(st.sampled_from(["ind", "sun"]), mixed_whitespace_text),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_independent_recount(self, drawn):
        model = tokenizer.train_bpe(
            docs_from(["aaaa abab ab éé aé\u00a0ab a\u3000b\x85a ab\x1cab aaa"]), 275
        )
        docs = [
            CorpusDocument(id=str(i), text=text, language=lang, source="s")
            for i, (lang, text) in enumerate(drawn)
        ]
        pieces, merges, k = list(model.pieces), list(model.merges), model.byte_offset
        expected = {}
        for doc in docs:
            words = _split_words(doc.text)
            tokens = sum(len(naive_encode_bytes(pieces, merges, k, w)) for w in words)
            tokens += sum(byte in ASCII_WS for byte in doc.text.encode("utf-8"))
            entry = expected.setdefault(doc.language, [0, 0, 0])
            entry[0] += 1
            entry[1] += tokens
            entry[2] += len(doc.text.split())
        reports = fertility([model], count_words(docs))
        assert [
            (r.language, r.doc_count, r.total_tokens, r.tokens_per_word) for r in reports
        ] == [
            (lang, n_docs, n_tokens, n_tokens / n_words if n_words else 0.0)
            for lang, (n_docs, n_tokens, n_words) in sorted(expected.items())
        ]

    def test_keeps_no_state_per_word(self):
        # Only the merge ranks, built by the first encode, stay with the model;
        # fertility over 20 000 distinct words leaves nothing behind.
        model = tokenizer.train_bpe(docs_from(["aku makan nasi", "nasi goreng makan"]), 275)
        tokenizer.encode(model, "aku")
        words = ["".join(letters) for letters in itertools.product("agikmnsu", repeat=5)]
        table = count_words(docs_from([" ".join(words[:20_000])]))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fertility([model], table)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 2**20

    def test_language_without_words(self):
        # ``sun`` has a document but no word, so its word list is empty at
        # every batch size; its whitespace bytes are its tokens.
        model = tokenizer.train_bpe(docs_from(["aku makan nasi", "nasi goreng makan"]), 275)
        docs = [
            CorpusDocument(id="0", text=" \t ", language="sun", source="s"),
            CorpusDocument(id="1", text="aku makan nasi goreng", language="ind", source="s"),
        ]
        pieces, merges, k = list(model.pieces), list(model.merges), model.byte_offset
        ind_tokens = len(naive_encode_bytes(pieces, merges, k, b"aku makan nasi goreng"))
        for path in ENCODER_PATHS:
            with encoder_path(path):
                reports = fertility([model], count_words(docs))
            assert [(r.language, r.total_tokens, r.tokens_per_word) for r in reports] == [
                ("ind", ind_tokens, ind_tokens / 4),
                ("sun", 3, 0.0),
            ], path

    def test_memory_follows_one_batch(self):
        # 262 144 distinct six-byte words go through the array rounds in
        # 64 KB batches and peak under 4 MB traced; as one batch they peak
        # near 75 MB.
        model = tokenizer.train_bpe(docs_from(["aku makan nasi", "nasi goreng makan"]), 275)
        words = ["".join(letters) for letters in itertools.product("agikmnsu", repeat=6)]
        table = count_words(docs_from([" ".join(words)]))
        expected = fertility([model], table)  # numpy and the rank arrays load here
        tracemalloc.start()
        try:
            assert fertility([model], table) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_models_together_match_each_alone(self):
        # One call over several models: reports by language, then by model.
        rng = random.Random(4)
        texts = [" ".join(random_words(rng, n_types=20, n_words=12)) for _ in range(6)]
        small = tokenizer.train_bpe(docs_from(texts), 265)
        large = tokenizer.train_bpe(docs_from(texts), 290)
        table = count_words(docs_from(texts[:3], "sun") + docs_from(texts[3:], "ind"))
        alone = [fertility([model], table) for model in (small, large)]
        together = fertility([small, large], table)
        assert [r.language for r in together] == ["ind", "ind", "sun", "sun"]
        assert together == [report for pair in zip(*alone) for report in pair]

    def test_empty_stream(self):
        model = tokenizer.train_bpe(docs_from(["ab ab"]), 260)
        with pytest.raises(ValueError, match="non-empty"):
            fertility([model], count_words([]))


def report(tokens_per_doc, language="ind"):
    return FertilityReport(
        language=language,
        doc_count=1,
        total_tokens=int(tokens_per_doc),
        tokens_per_doc=tokens_per_doc,
        tokens_per_word=tokens_per_doc,
    )


class TestCompareFertility:
    def test_reference_values(self):
        assert tokenizer.compare_fertility(report(46.34), report(58.87)) == pytest.approx(21.28, abs=0.01)
        assert tokenizer.compare_fertility(report(52.61), report(61.74)) == pytest.approx(14.79, abs=0.01)

    def test_identity_is_zero(self):
        assert tokenizer.compare_fertility(report(10.0), report(10.0)) == 0.0

    def test_antisymmetry_up_to_denominator(self):
        a, b = report(40.0), report(50.0)
        forward = tokenizer.compare_fertility(a, b)
        backward = tokenizer.compare_fertility(b, a)
        assert forward * b.tokens_per_doc == pytest.approx(-backward * a.tokens_per_doc)

    def test_language_mismatch(self):
        with pytest.raises(ValueError, match="language"):
            tokenizer.compare_fertility(report(1.0), report(1.0, language="sun"))
