import errno
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from langadapt import tokenizer, vocab_adapt
from langadapt.corpus import CorpusDocument
from langadapt.tokenizer import TokenizerModel
from langadapt.vocab_adapt import (
    EmbeddingFormatError,
    EmbeddingMatrix,
    VocabBindingError,
    adapt_embeddings,
    load_embeddings,
    open_embeddings,
    save_embeddings,
)

from oracles import naive_encode_bytes


def docs_from(texts, language="ind"):
    return [
        CorpusDocument(id=str(i), text=t, language=language, source="test")
        for i, t in enumerate(texts)
    ]


def random_texts(rng, n_docs, n_types, alphabet="abcdefgh"):
    types = [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(2, 9)))
        for _ in range(n_types)
    ]
    return [" ".join(rng.choice(types) for _ in range(rng.randrange(4, 20))) for _ in range(n_docs)]


def matrix_for(model, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((model.piece_count, 8), dtype=np.float32)
    return EmbeddingMatrix.from_array(data, tokenizer.model_hash(model))


def adapted(old_tok, old_emb, new_tok):
    """Adapt into a temporary file; return the new matrix read back and the report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "new.bin"
        new_file, report = adapt_embeddings(old_tok, old_emb, new_tok, path)
        assert new_file == open_embeddings(path)
        return load_embeddings(path), report


def _embedding_file_bytes():
    data = np.arange(6, dtype=np.float32).reshape(3, 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.bin"
        save_embeddings(EmbeddingMatrix.from_array(data, "ab" * 16), path)
        return path.read_bytes()


EMBEDDING_FILE = _embedding_file_bytes()


@st.composite
def mutated_embedding_files(draw):
    """A valid embedding file with one to three bytes flipped, runs inserted or tails cut."""
    raw = bytearray(EMBEDDING_FILE)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(raw)))
        edit = draw(st.sampled_from(["flip", "insert", "truncate"]))
        if edit == "flip" and at < len(raw):
            raw[at] ^= draw(st.integers(1, 255))
        elif edit == "insert":
            raw[at:at] = draw(st.binary(min_size=1, max_size=8))
        else:
            del raw[at:]
    return bytes(raw)


@pytest.fixture(scope="module")
def old_model():
    rng = random.Random(100)
    return tokenizer.train_bpe(docs_from(random_texts(rng, 300, 120)), 500)


@pytest.fixture(scope="module")
def new_model():
    rng = random.Random(200)
    return tokenizer.train_bpe(docs_from(random_texts(rng, 200, 60)), 300)


class TestFileFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        data = np.array([[1.5, -2.25], [0.1, 3.0], [-0.0, 7.0]], dtype=np.float32)
        matrix = EmbeddingMatrix.from_array(data, "ab" * 16)
        path = tmp_path / "emb.bin"
        save_embeddings(matrix, path)
        loaded = load_embeddings(path)
        assert loaded.data.dtype == np.float32
        assert loaded.data.flags.writeable and loaded.data.flags.c_contiguous
        assert loaded.vocab_hash == matrix.vocab_hash
        assert loaded.data.tobytes() == matrix.data.tobytes()
        second = tmp_path / "emb2.bin"
        save_embeddings(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_truncated_file(self, tmp_path):
        data = np.ones((3, 2), dtype=np.float32)
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingMatrix.from_array(data, "0" * 32), path)
        blob = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[:30])
        with pytest.raises(EmbeddingFormatError, match="byte offset"):
            load_embeddings(tmp_path / "cut.bin")
        (tmp_path / "cut2.bin").write_bytes(blob[:-4])
        with pytest.raises(EmbeddingFormatError, match="length mismatch"):
            load_embeddings(tmp_path / "cut2.bin")

    def test_zero_dims_rejected(self, tmp_path):
        import struct

        blob = struct.pack("<4sII", b"EMB1", 3, 0) + b"0" * 32
        path = tmp_path / "zero.bin"
        path.write_bytes(blob)
        with pytest.raises(EmbeddingFormatError, match="dims=0"):
            load_embeddings(path)

    def test_zero_rows_rejected(self, tmp_path):
        import struct

        path = tmp_path / "zero.bin"
        path.write_bytes(struct.pack("<4sII", b"EMB1", 0, 2) + b"0" * 32)
        with pytest.raises(EmbeddingFormatError, match="zero.bin: rows=0 at byte offset 4$"):
            load_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(EmbeddingFormatError, match="magic at byte offset 0"):
            load_embeddings(path)

    @pytest.mark.parametrize(
        "row",
        [[np.inf, 1.0], [-np.inf, 1.0], [1.0, np.nan], [np.inf, -np.inf]],
        ids=["inf", "-inf", "nan", "inf-and-minus-inf"],
    )
    def test_save_rejects_non_finite(self, tmp_path, row):
        data = np.ones((3, 2), dtype=np.float32)
        data[1] = row
        data[2] = np.nan
        with pytest.raises(ValueError, match="non-finite value in embedding row 1$"):
            save_embeddings(EmbeddingMatrix.from_array(data, "0" * 32), tmp_path / "x.bin")

    @settings(max_examples=200, deadline=None)
    @given(raw=mutated_embedding_files())
    def test_mutated_file_loads_or_names_file(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "emb.bin"
            path.write_bytes(raw)
            try:
                matrix = load_embeddings(path)
            except EmbeddingFormatError as exc:
                assert str(exc).startswith(f"{path}: "), str(exc)
                if "non-finite" in str(exc):  # rows are read by adaptation, not when opened
                    assert open_embeddings(path).vocab_hash == raw[12:44].decode()
                else:
                    with pytest.raises(EmbeddingFormatError) as opened:
                        open_embeddings(path)
                    assert str(opened.value) == str(exc)
                return
            opened = open_embeddings(path)
        assert len(raw) == 4 + 4 + 4 + 32 + matrix.data.nbytes
        assert matrix.data.dtype == np.float32 and matrix.data.shape == (matrix.rows, matrix.dims)
        assert (opened.rows, opened.dims, opened.vocab_hash) == (
            matrix.rows, matrix.dims, matrix.vocab_hash
        )

    def test_save_accepts_float32_max_rows(self, tmp_path):
        big = np.finfo(np.float32).max
        data = np.full((2, 2048), big, dtype=np.float32)
        data[1] = -big
        path = tmp_path / "x.bin"
        save_embeddings(EmbeddingMatrix.from_array(data, "0" * 32), path)
        assert load_embeddings(path).data.tobytes() == data.tobytes()


class TestConstruction:
    @pytest.mark.parametrize(
        "shape, vocab_hash, bad_row, message",
        [
            ((4,), "0" * 32, None, "embedding data must be 2-dimensional, got 1"),
            ((0, 4), "0" * 32, None, "embedding matrix must have at least one row and column"),
            ((4, 0), "0" * 32, None, "embedding matrix must have at least one row and column"),
            ((4, 2), "AB" * 16, None,
             f"vocab_hash must be 32 lowercase hex characters, got {'AB' * 16!r}"),
            ((4, 2), "0" * 32, [np.inf, 1.0], "non-finite value in embedding row 2"),
            ((4, 2), "0" * 32, [1.0, np.nan], "non-finite value in embedding row 2"),
        ],
        ids=["1-d", "no-rows", "no-columns", "hash", "inf-row", "nan-row"],
    )
    @pytest.mark.parametrize("make", ["constructor", "from_array"])
    def test_invalid_matrix_rejected_when_made(self, shape, vocab_hash, bad_row, message, make):
        data = np.ones(shape, dtype=np.float32)
        if bad_row is not None:
            data[2] = bad_row
        with pytest.raises(ValueError) as raised:
            if make == "constructor":
                EmbeddingMatrix(data, vocab_hash)
            else:
                EmbeddingMatrix.from_array(data, vocab_hash)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "data", [np.full((2, 3), 1e300), np.ones((2, 3), np.int64)], ids=["float64", "int64"]
    )
    def test_constructor_rejects_data_not_float32(self, data):
        # 1e300 would be saved as inf; the row-sum scan is exact only for float32
        with pytest.raises(ValueError) as raised:
            EmbeddingMatrix(data, "0" * 32)
        assert str(raised.value) == f"embedding data must be float32, got {data.dtype}"

    @pytest.mark.parametrize("dtype", ["<f4", ">f4"])
    def test_constructor_takes_float32_of_either_byte_order(self, dtype):
        data = np.full((2, 3), 1.5, dtype)
        assert EmbeddingMatrix(data, "0" * 32).data is data

    def test_from_array_coerces_float64(self):
        matrix = EmbeddingMatrix.from_array(np.full((2, 3), 0.1), "0" * 32)
        assert matrix.data.dtype == np.float32
        assert matrix.data.tolist() == np.full((2, 3), 0.1, np.float32).tolist()

    def test_save_checks_data_changed_after_construction(self, tmp_path):
        matrix = EmbeddingMatrix.from_array(np.ones((3, 2)), "0" * 32)
        matrix.data[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite value in embedding row 2$"):
            save_embeddings(matrix, tmp_path / "x.bin")
        assert not (tmp_path / "x.bin").exists()

    def test_old_matrix_scanned_once_from_file_to_adaptation(self, tmp_path, old_model, new_model):
        # The new rows are finite by construction, so they are not scanned.
        path = tmp_path / "old.bin"
        save_embeddings(matrix_for(old_model, seed=9), path)
        scan = vocab_adapt._first_non_finite_row
        with mock.patch.object(vocab_adapt, "_first_non_finite_row", wraps=scan) as spy:
            old_emb = load_embeddings(path)
            adapt_embeddings(old_model, old_emb, new_model, tmp_path / "new.bin")
        scanned = [call.args[0] for call in spy.call_args_list]
        assert [data is old_emb.data for data in scanned] == [True]


class TestAdaptEmbeddings:
    def test_identity_adaptation_is_exact(self, old_model):
        old_emb = matrix_for(old_model, seed=1)
        new_emb, report = adapted(old_model, old_emb, old_model)
        assert new_emb.data.tobytes() == old_emb.data.tobytes()
        assert report.copied == old_model.piece_count
        assert report.averaged == 0 and report.fallback == 0
        assert new_emb.vocab_hash == old_emb.vocab_hash

    def test_two_subtoken_mean(self):
        # old model knows single bytes only; new model has one merged piece "ab"
        old = tokenizer.train_bpe(docs_from(["xy"]), 259)
        new = tokenizer.train_bpe(docs_from(["ab ab"]), 260)
        data = np.zeros((old.piece_count, 2), dtype=np.float32)
        a_id = old.byte_offset + ord("a")
        b_id = old.byte_offset + ord("b")
        data[a_id] = [1.0, 3.0]
        data[b_id] = [3.0, 1.0]
        old_emb = EmbeddingMatrix.from_array(data, tokenizer.model_hash(old))
        new_emb, report = adapted(old, old_emb, new)
        ab_id = new.byte_offset + 256
        assert new.pieces[ab_id] == b"ab"
        assert new_emb.data[ab_id].tolist() == [2.0, 2.0]
        assert report.per_piece_provenance[ab_id] == "averaged:2"

    def test_piece_spelling_an_old_special_is_averaged(self):
        # The old model encodes the text "<sep>" to bytes, never to its <sep>
        # special, so a learned piece "<sep>" averages those rows.
        old = tokenizer.train_bpe(docs_from(["xy"]), 260, ["pad", "eos", "unk", "sep"])
        new = tokenizer.train_bpe(docs_from(["<sep> <sep> <sep>"]), 263)
        old_emb = matrix_for(old, seed=10)
        new_emb, report = adapted(old, old_emb, new)
        sep_id = new.pieces.index(b"<sep>")
        ids = tokenizer.encode_bytes(old, b"<sep>")
        assert ids == [old.byte_offset + b for b in b"<sep>"]
        assert report.per_piece_provenance[sep_id] == f"averaged:{len(ids)}"
        acc = sum(old_emb.data[i].astype(np.float64) for i in ids)
        assert new_emb.data[sep_id].tobytes() == (acc / len(ids)).astype(np.float32).tobytes()

    def test_subtokens_summed_left_to_right(self):
        # (a + b) + c keeps c; summing c + b first would lose it to rounding.
        old = tokenizer.train_bpe(docs_from(["xy"]), 259)
        new = tokenizer.train_bpe(docs_from(["abc abc"]), 261)
        data = np.zeros((old.piece_count, 1), dtype=np.float32)
        for byte, value in zip(b"abc", (1e20, -1e20, 1.0)):
            data[old.byte_offset + byte] = value
        old_emb = EmbeddingMatrix.from_array(data, tokenizer.model_hash(old))
        new_emb, report = adapted(old, old_emb, new)
        abc_id = new.pieces.index(b"abc")
        assert report.per_piece_provenance[abc_id] == "averaged:3"
        assert new_emb.data[abc_id].tolist() == [np.float32(1.0 / 3.0)]

    def test_averaged_rows_match_bruteforce_oracle(self, old_model, new_model):
        # Adapting onto the larger vocabulary averages up to 7 subtokens, and
        # magnitudes from 1e-3 to 1e3 make float32 accumulation change the
        # rounded rows.
        rng = np.random.default_rng(2)
        lengths = set()
        for old_tok, new_tok in ((old_model, new_model), (new_model, old_model)):
            shape = (old_tok.piece_count, 16)
            data = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
            old_emb = EmbeddingMatrix.from_array(data, tokenizer.model_hash(old_tok))
            new_emb, report = adapted(old_tok, old_emb, new_tok)
            old64 = old_emb.data.astype(np.float64)
            for new_id, provenance in report.per_piece_provenance.items():
                if not provenance.startswith("averaged"):
                    continue
                piece = new_tok.pieces[new_id]
                ids = naive_encode_bytes(
                    list(old_tok.pieces), list(old_tok.merges), old_tok.byte_offset, piece
                )
                total = np.zeros(old_emb.dims, dtype=np.float64)
                for row in old64[ids]:
                    total += row
                expected = (total / len(ids)).astype(np.float32)
                assert int(provenance.split(":")[1]) == len(ids)
                assert new_emb.data[new_id].tobytes() == expected.tobytes()
                lengths.add(len(ids))
        assert max(lengths) >= 5

    def test_provenance_counts_sum(self, old_model, new_model):
        old_emb = matrix_for(old_model, seed=3)
        _, report = adapted(old_model, old_emb, new_model)
        assert report.copied + report.averaged + report.fallback == new_model.piece_count
        assert len(report.per_piece_provenance) == new_model.piece_count

    def test_copied_rows_bit_exact(self, old_model, new_model):
        old_emb = matrix_for(old_model, seed=4)
        new_emb, report = adapted(old_model, old_emb, new_model)
        old_index = {piece: i for i, piece in enumerate(old_model.pieces)}
        for new_id, provenance in report.per_piece_provenance.items():
            if provenance != "copied":
                continue
            old_id = old_index[new_model.pieces[new_id]]
            assert new_emb.data[new_id].tobytes() == old_emb.data[old_id].tobytes()

    def test_averaging_linearity(self, old_model, new_model):
        old_emb = matrix_for(old_model, seed=5)
        doubled = EmbeddingMatrix.from_array(old_emb.data * 2.0, old_emb.vocab_hash)
        base, _ = adapted(old_model, old_emb, new_model)
        scaled, _ = adapted(old_model, doubled, new_model)
        assert np.max(np.abs(scaled.data - 2.0 * base.data)) < 1e-6

    def test_hash_mismatch(self, old_model, new_model):
        bad = EmbeddingMatrix.from_array(
            np.ones((old_model.piece_count, 8), dtype=np.float32), "f" * 32
        )
        with pytest.raises(VocabBindingError, match="not bound"):
            adapted(old_model, bad, new_model)

    def test_non_finite_row_named(self, old_model, new_model):
        data = np.ones((old_model.piece_count, 8), dtype=np.float32)
        data[17, 3] = np.nan
        with pytest.raises(ValueError, match="row 17"):
            bad = EmbeddingMatrix.from_array(data, tokenizer.model_hash(old_model))
            adapted(old_model, bad, new_model)

    def test_new_special_fallback_is_global_mean(self, old_model):
        # a new model with an extra special name absent from the old model
        rng = random.Random(300)
        new = tokenizer.train_bpe(
            docs_from(random_texts(rng, 50, 30)), 262, special_names=["pad", "eos", "unk", "cls"]
        )
        old_emb = matrix_for(old_model, seed=6)
        new_emb, report = adapted(old_model, old_emb, new)
        cls_id = new.special_tokens["cls"]
        assert report.per_piece_provenance[cls_id] == "fallback"
        expected = (old_emb.data.astype(np.float64).sum(axis=0) / old_emb.rows).astype(np.float32)
        fallback_ids = [i for i, kind in report.per_piece_provenance.items() if kind == "fallback"]
        assert len(fallback_ids) == report.fallback >= 1
        for new_id in fallback_ids:
            assert new_emb.data[new_id].tobytes() == expected.tobytes()

    def test_encodes_missing_pieces_in_one_call(self, old_model, new_model):
        # Every piece missing from the old vocabulary goes through one
        # ``vocab_adapt.encode_bytes`` call, the name the benchmark tracer wraps.
        old_emb = matrix_for(old_model, seed=7)
        with mock.patch.object(
            vocab_adapt, "encode_bytes", wraps=vocab_adapt.encode_bytes
        ) as encode_bytes:
            _, report = adapted(old_model, old_emb, new_model)
        assert report.averaged > 1
        assert encode_bytes.call_count == 1

    @pytest.mark.parametrize("role", ["old", "new"])
    def test_rejects_piece_holding_whitespace(self, old_model, role):
        # Adaptation joins the missing pieces with spaces and splits their ids
        # back at the space id, so neither model may hold a piece with one.
        # Such a model cannot be built, so it never reaches adapt_embeddings
        # in either role.
        base = [b"<pad>", b"<eos>", b"<unk>"] + [bytes([i]) for i in range(256)]

        def spaced():
            return TokenizerModel(
                pieces=tuple(base + [b"a ", b"a b"]),
                merges=((3 + ord("a"), 3 + ord(" ")), (259, 3 + ord("b"))),
                special_tokens={"pad": 0, "eos": 1, "unk": 2},
            )

        with mock.patch.object(vocab_adapt, "encode_bytes") as encode_bytes:
            with pytest.raises(ValueError, match="piece 259 holds an ASCII whitespace byte"):
                if role == "old":
                    adapted(spaced(), matrix_for(old_model), old_model)
                else:
                    adapted(old_model, matrix_for(old_model), spaced())
        assert encode_bytes.call_count == 0

    def test_permutation_equivariance_over_independent_merges(self):
        # Two hand-built models containing the same pieces, with the order of
        # two independent merges (and their embedding rows) swapped. Adapted
        # values must be identical.
        specials = {"pad": 0, "eos": 1, "unk": 2}
        base = [b"<pad>", b"<eos>", b"<unk>"] + [bytes([i]) for i in range(256)]
        k = 3
        a, b, c, d = (k + ord(ch) for ch in "abcd")
        model_ab_cd = TokenizerModel(
            pieces=tuple(base + [b"ab", b"cd"]),
            merges=((a, b), (c, d)),
            special_tokens=dict(specials),
        )
        model_cd_ab = TokenizerModel(
            pieces=tuple(base + [b"cd", b"ab"]),
            merges=((c, d), (a, b)),
            special_tokens=dict(specials),
        )
        rng = np.random.default_rng(8)
        shared = rng.standard_normal((k + 256, 4), dtype=np.float32)
        row_ab = rng.standard_normal(4).astype(np.float32)
        row_cd = rng.standard_normal(4).astype(np.float32)
        emb1 = EmbeddingMatrix.from_array(
            np.vstack([shared, row_ab[None], row_cd[None]]), tokenizer.model_hash(model_ab_cd)
        )
        emb2 = EmbeddingMatrix.from_array(
            np.vstack([shared, row_cd[None], row_ab[None]]), tokenizer.model_hash(model_cd_ab)
        )
        new = tokenizer.train_bpe(docs_from(["abcd abcd abx cdy"]), 262)
        out1, _ = adapted(model_ab_cd, emb1, new)
        out2, _ = adapted(model_cd_ab, emb2, new)
        assert np.array_equal(out1.data, out2.data)


@pytest.fixture(scope="module")
def small_models():
    """An old model, a new one with the same specials, and a new one with one
    more special, which takes the fallback row."""
    rng = random.Random(400)
    old = tokenizer.train_bpe(docs_from(random_texts(rng, 60, 30)), 280)
    texts = random_texts(rng, 60, 30, alphabet="abcdefghij")
    new = tokenizer.train_bpe(docs_from(texts), 275)
    with_cls = tokenizer.train_bpe(docs_from(texts), 276, ["pad", "eos", "unk", "cls"])
    return old, new, with_cls


def block_of(rows, dims):
    """Patch adaptation to read the old matrix ``rows`` rows at a time."""
    return mock.patch.object(vocab_adapt, "_READ_BLOCK_BYTES", rows * dims * 4)


class TestStreamedAdaptation:
    """Adaptation reads the old matrix once, block by block, from memory or a file."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from([1, 2, 3]),
        block_rows=st.sampled_from([1, 3, None]),  # None: the whole matrix
        fallback=st.booleans(),
    )
    def test_file_and_memory_give_the_same_bytes(
        self, small_models, seed, dims, block_rows, fallback
    ):
        old, new, with_cls = small_models
        new = with_cls if fallback else new
        rng = np.random.default_rng(seed)
        shape = (old.piece_count, dims)
        data = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        old_emb = EmbeddingMatrix.from_array(data, tokenizer.model_hash(old))
        expected, expected_report = adapted(old, old_emb, new)  # one block
        assert expected_report.averaged > 0 and (expected_report.fallback > 0) == fallback
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "old.bin"
            save_embeddings(old_emb, path)
            sources = (old_emb, open_embeddings(path))
            with block_of(block_rows or old.piece_count, dims):
                results = [adapted(old, source, new) for source in sources]
        for new_emb, report in results:
            assert new_emb.data.tobytes() == expected.data.tobytes()
            assert report == expected_report

    @pytest.mark.parametrize("layout", ["big-endian", "column-major"])
    def test_matrix_of_any_layout_gives_the_same_bytes(self, small_models, layout):
        # The new file takes raw little-endian rows, so a block of another
        # layout is converted, one block at a time.
        old, new, _ = small_models
        old_emb = matrix_for(old, seed=14)
        data = old_emb.data.astype(">f4") if layout == "big-endian" else np.asfortranarray(
            old_emb.data
        )
        other = EmbeddingMatrix(data, old_emb.vocab_hash)
        with block_of(3, 8):
            expected, got = adapted(old, old_emb, new), adapted(old, other, new)
        assert got[0].data.tobytes() == expected[0].data.tobytes()
        assert got[1] == expected[1]

    @pytest.mark.parametrize("source", ["memory", "file"])
    @pytest.mark.parametrize("block_rows", [1, 3, None])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_fallback_row_sums_in_row_order(self, tmp_path, small_models, dims, block_rows, source):
        # In row order 1e20 - 1e20 cancels before the later rows come; a
        # pairwise sum, numpy's over axis 0 at width 1, adds some of them to
        # 1e20 first and loses them.
        old, _, new = small_models
        data = np.random.default_rng(11).standard_normal((old.piece_count, dims), dtype=np.float32)
        data[0], data[1] = 1e20, -1e20
        total = np.zeros(dims, dtype=np.float64)
        for row in data:
            total += row
        expected = (total / len(data)).astype(np.float32)
        old_emb = EmbeddingMatrix.from_array(data, tokenizer.model_hash(old))
        if source == "file":
            save_embeddings(old_emb, tmp_path / "old.bin")
            old_emb = open_embeddings(tmp_path / "old.bin")
        with block_of(block_rows or old.piece_count, dims):
            new_emb, report = adapted(old, old_emb, new)
        fallback_ids = [i for i, kind in report.per_piece_provenance.items() if kind == "fallback"]
        assert len(fallback_ids) == report.fallback >= 1
        for new_id in fallback_ids:
            assert new_emb.data[new_id].tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "fault, error, message",
        [
            ("length", EmbeddingFormatError, "length mismatch at byte offset"),
            ("hash", VocabBindingError, "embedding matrix is not bound"),
            ("rows", VocabBindingError, "embedding rows"),
            (None, EmbeddingFormatError, "non-finite value in embedding row"),
        ],
    )
    def test_header_then_binding_then_rows(self, tmp_path, small_models, fault, error, message):
        # Every file holds a NaN in its last row; only a file without another
        # fault fails on it. A file of the wrong length is bound to another
        # tokenizer too.
        old, new, _ = small_models
        rows = old.piece_count + (fault == "rows")
        vocab_hash = "f" * 32 if fault in ("length", "hash") else tokenizer.model_hash(old)
        path = tmp_path / "old.bin"
        save_embeddings(EmbeddingMatrix.from_array(np.ones((rows, 4)), vocab_hash), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw) + b"\0" * (fault == "length"))
        with pytest.raises(error, match=message), block_of(3, 4):
            adapted(old, open_embeddings(path), new)

    def test_file_shrunk_after_opening_names_offset(self, tmp_path, small_models):
        old, new, _ = small_models
        path = tmp_path / "old.bin"
        save_embeddings(matrix_for(old), path)
        old_emb = open_embeddings(path)
        path.write_bytes(path.read_bytes()[:-4])
        end = path.stat().st_size
        with pytest.raises(EmbeddingFormatError, match=f"truncated at byte offset {end}$"):
            adapted(old, old_emb, new)


class TestWritingTheNewFile:
    """Adaptation writes the new rows into their file as it goes and the header
    last; whatever stops it removes the file."""

    def test_non_finite_row_in_the_last_block_removes_the_partial_file(
        self, tmp_path, small_models
    ):
        old, new, _ = small_models
        path = tmp_path / "old.bin"
        save_embeddings(matrix_for(old), path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        out = tmp_path / "new.bin"
        partial = tmp_path / "partial.bin"
        scan = vocab_adapt._first_non_finite_row

        def scan_keeping_a_copy(block):  # of the new file as the last block comes
            partial.write_bytes(out.read_bytes())
            return scan(block)

        last = old.piece_count - 1
        with block_of(10, 8), mock.patch.object(
            vocab_adapt, "_first_non_finite_row", scan_keeping_a_copy
        ), pytest.raises(EmbeddingFormatError) as raised:
            adapt_embeddings(old, open_embeddings(path), new, out)
        assert str(raised.value) == (
            f"{path}: non-finite value in embedding row {last} at byte offset {44 + last * 32}"
        )
        assert not out.exists()
        # Earlier blocks had written their rows, but not the header.
        assert any(partial.read_bytes()[44:])
        with pytest.raises(EmbeddingFormatError, match="bad magic at byte offset 0$"):
            open_embeddings(partial)

    def test_failed_last_write_removes_the_file(self, tmp_path, small_models):
        old, new, _ = small_models
        out = tmp_path / "new.bin"
        full = OSError(errno.ENOSPC, "No space left on device")
        with mock.patch.object(vocab_adapt, "_header", side_effect=full):
            with pytest.raises(OSError) as raised:
                adapt_embeddings(old, matrix_for(old), new, out)
        assert raised.value is full
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_is_left_as_it_was(self, tmp_path, small_models):
        old, new, _ = small_models
        (tmp_path / "new.bin").mkdir()
        with pytest.raises(IsADirectoryError):
            adapt_embeddings(old, matrix_for(old), new, tmp_path / "new.bin")
        assert (tmp_path / "new.bin").is_dir()

    def test_refuses_to_overwrite_the_old_file(self, tmp_path, small_models):
        old, new, _ = small_models
        path = tmp_path / "old.bin"
        save_embeddings(matrix_for(old), path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="cannot overwrite the file it reads"):
            adapt_embeddings(old, open_embeddings(path), new, path)
        assert path.read_bytes() == before

    def test_written_file_matches_the_returned_description(self, tmp_path, small_models):
        old, new, _ = small_models
        out = tmp_path / "new.bin"
        new_file, report = adapt_embeddings(old, matrix_for(old), new, out)
        assert new_file == vocab_adapt.EmbeddingFile(
            out, new.piece_count, 8, tokenizer.model_hash(new)
        )
        loaded = load_embeddings(out)
        assert (loaded.rows, loaded.dims, loaded.vocab_hash) == (
            new_file.rows, new_file.dims, new_file.vocab_hash
        )
        assert report.copied + report.averaged + report.fallback == new_file.rows


def traced_peak(fn, *args):
    """Return ``fn(*args)`` and the peak bytes it allocated above the baseline."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


def stash_bytes(old_tok, new_tok, report, dims):
    """The bytes of the distinct old rows that the averaged rows read."""
    rows = {
        old_id
        for new_id, kind in report.per_piece_provenance.items()
        if kind.startswith("averaged")
        for old_id in tokenizer.encode_bytes(old_tok, new_tok.pieces[new_id])
    }
    return len(rows) * dims * 4


# Adaptation's allocations besides a block and the stash: numpy's fixed 64 KB
# cast buffer for a file block's float64 row sums, the write buffer, and the
# per-piece lists and dicts.
OVERHEAD_BYTES = 192 * 1024


class TestMemory:
    """The old matrix is held once: no float64 shadow, no load or save copies.
    Adapting holds one block of it and the rows averaging reads, and no new
    matrix: its rows go straight to the file.

    Saving allocates no array as large as the matrix, not even a finiteness mask.
    """

    def test_load_adapt_save_hold_one_copy(self, tmp_path, old_model, new_model):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((old_model.piece_count, 512), dtype=np.float32)
        old_emb = EmbeddingMatrix.from_array(data, tokenizer.model_hash(old_model))
        old_model._rank_arrays  # the encoder's lookups, built on first use, are not adaptation's
        path = tmp_path / "emb.bin"
        _, save_peak = traced_peak(save_embeddings, old_emb, path)
        loaded, load_peak = traced_peak(load_embeddings, path)
        (new_file, report), adapt_peak = traced_peak(
            adapt_embeddings, old_model, loaded, new_model, tmp_path / "new.bin"
        )
        new_bytes = new_file.rows * new_file.dims * 4
        assert load_peak < 1.25 * data.nbytes
        # numpy's fixed 64 KB cast buffer for the float64 row sums is 7% of this 1 MB matrix
        assert save_peak < 0.1 * data.nbytes
        # A matrix's blocks are views, so only the stash is row-sized.
        assert adapt_peak < stash_bytes(old_model, new_model, report, 512) + OVERHEAD_BYTES
        assert adapt_peak < 0.25 * new_bytes

    def test_adapting_from_a_file_holds_no_old_matrix(self, tmp_path, old_model, new_model):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((old_model.piece_count, 1024), dtype=np.float32)
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingMatrix.from_array(data, tokenizer.model_hash(old_model)), path)
        old_model._rank_arrays
        old_emb = open_embeddings(path)
        block = data.nbytes // 16  # 17 blocks
        with mock.patch.object(vocab_adapt, "_READ_BLOCK_BYTES", block):
            (new_file, report), peak = traced_peak(
                adapt_embeddings, old_model, old_emb, new_model, tmp_path / "new.bin"
            )
        assert peak < block + stash_bytes(old_model, new_model, report, 1024) + OVERHEAD_BYTES
        assert peak < 0.3 * new_file.rows * new_file.dims * 4

    def test_peak_does_not_follow_the_new_vocabulary(self, tmp_path):
        # The old model knows only bytes, so every averaged row reads the rows
        # of the eight letters and the stash stays the same as the new
        # vocabulary grows fourfold. Only per-piece bookkeeping grows with it.
        old = tokenizer.train_bpe(docs_from(["xy"]), 259)
        texts = random_texts(random.Random(500), 800, 600)
        data = np.random.default_rng(13).standard_normal((old.piece_count, 2048), dtype=np.float32)
        path = tmp_path / "emb.bin"
        save_embeddings(EmbeddingMatrix.from_array(data, tokenizer.model_hash(old)), path)
        old._rank_arrays
        peaks, new_bytes = [], []
        for vocab_size in (300, 1200):
            new = tokenizer.train_bpe(docs_from(texts), vocab_size)
            with mock.patch.object(vocab_adapt, "_READ_BLOCK_BYTES", data.nbytes // 16):
                (new_file, report), peak = traced_peak(
                    adapt_embeddings, old, open_embeddings(path), new, tmp_path / "new.bin"
                )
            assert new_file.rows == vocab_size and report.averaged > vocab_size - 280
            assert stash_bytes(old, new, report, 2048) <= 8 * 2048 * 4
            peaks.append(peak)
            new_bytes.append(new_file.rows * new_file.dims * 4)
        assert peaks[1] < new_bytes[0] / 2
        assert peaks[1] - peaks[0] < 0.1 * (new_bytes[1] - new_bytes[0])
