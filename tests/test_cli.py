import errno
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from langadapt import cli, collection, corpus, metrics, tokenizer, vocab_adapt
from langadapt.cli import main
from langadapt.corpus import CorpusDocument

from oracles import counter_chrf_pp

DATA = Path(__file__).parent / "data"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(*args):
    return main([str(a) for a in args])


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture()
def toy_corpus(tmp_path):
    target = tmp_path / "toy_words.txt"
    target.write_bytes((DATA / "toy_words.txt").read_bytes())
    return target


class TestTokenizerTrain:
    def test_golden_file_from_oracle(self, tmp_path, toy_corpus):
        config = write_config(
            tmp_path / "train.json",
            {"corpus": str(toy_corpus), "language": "ind", "vocab_size": 300},
        )
        out = tmp_path / "out"
        assert run("tokenizer-train", "--config", config, "--out", out) == 0
        produced = (out / "tokenizer.json").read_bytes()
        golden = (DATA / "golden_tokenizer.json").read_bytes()
        assert produced == golden

    def test_deterministic_across_runs_and_threads(self, tmp_path, toy_corpus):
        config = write_config(
            tmp_path / "train.json",
            {"corpus": str(toy_corpus), "language": "ind", "vocab_size": 300},
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run("tokenizer-train", "--config", config, "--out", out1, "--threads", 1) == 0
        assert run("tokenizer-train", "--config", config, "--out", out2, "--threads", 8) == 0
        assert sha256(out1 / "tokenizer.json") == sha256(out2 / "tokenizer.json")

    def test_manifest_does_not_depend_on_cpu_count(self, tmp_path, toy_corpus, monkeypatch):
        config = write_config(
            tmp_path / "train.json",
            {"corpus": str(toy_corpus), "language": "ind", "vocab_size": 300},
        )
        out = tmp_path / "out"
        manifests = []
        for cpus in (2, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert run("tokenizer-train", "--config", config, "--out", out) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["config"]["threads"] == 1

    def test_repeated_config_key_keeps_its_last_value(self, tmp_path, toy_corpus):
        config = tmp_path / "train.json"
        config.write_text(
            f'{{"corpus": {json.dumps(str(toy_corpus))}, "language": "ind", '
            '"vocab_size": 100, "vocab_size": 300}',
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run("tokenizer-train", "--config", config, "--out", out) == 0
        assert (out / "tokenizer.json").read_bytes() == (DATA / "golden_tokenizer.json").read_bytes()

    def test_vocab_size_too_small_exits_nonzero(self, tmp_path, toy_corpus, capsys):
        config = write_config(
            tmp_path / "train.json",
            {"corpus": str(toy_corpus), "language": "ind", "vocab_size": 100},
        )
        out = tmp_path / "out"
        assert run("tokenizer-train", "--config", config, "--out", out) == 1
        assert "vocab_size" in capsys.readouterr().err
        assert not (out / "tokenizer.json").exists()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"vocab_size": 100},
             "vocab_size must be at least 259 (256 bytes + 3 specials), got 100"),
            ({"vocab_size": 300, "special_tokens": ["pad"]},
             "special token 'eos' is required"),
        ],
        ids=["vocab_size", "special_tokens"],
    )
    def test_rejected_training_value_names_config(self, tmp_path, toy_corpus, capsys, values, message):
        config = write_config(
            tmp_path / "train.json", {"corpus": str(toy_corpus), "language": "ind", **values}
        )
        assert run("tokenizer-train", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {config}: {message}\n"

    def test_empty_corpus_names_config(self, tmp_path, capsys):
        corpus_path = tmp_path / "empty.txt"
        corpus_path.write_text("\n  \n", encoding="utf-8")
        config = write_config(
            tmp_path / "train.json",
            {"corpus": str(corpus_path), "language": "ind", "vocab_size": 300},
        )
        assert run("tokenizer-train", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {config}: training corpus is empty\n"

    def test_manifest_contents(self, tmp_path, toy_corpus):
        config = write_config(
            tmp_path / "train.json",
            {"corpus": str(toy_corpus), "language": "ind", "vocab_size": 300},
        )
        out = tmp_path / "out"
        assert run("tokenizer-train", "--config", config, "--out", out, "--seed", 5) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "tokenizer-train"
        assert manifest["seed"] == 5
        assert manifest["inputs"] == {str(toy_corpus): sha256(toy_corpus)}
        assert "tokenizer.json" in manifest["outputs"]
        assert manifest["config"]["vocab_size"] == 300

    def test_unknown_config_key_rejected(self, tmp_path, toy_corpus, capsys):
        config = write_config(
            tmp_path / "train.json",
            {"corpus": str(toy_corpus), "language": "ind", "vocab_size": 300, "corpsu": 1},
        )
        assert run("tokenizer-train", "--config", config, "--out", tmp_path / "o") == 1
        assert "corpsu" in capsys.readouterr().err

    def test_duplicate_id_across_files_names_both(self, tmp_path, capsys):
        # Both files default to source "train"; plain-lines ids are line numbers.
        first, second = tmp_path / "a" / "train.txt", tmp_path / "b" / "train.txt"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text("aku makan nasi\n", encoding="utf-8")
        config = write_config(
            tmp_path / "train.json",
            {"corpus": [str(first), str(second)], "language": "ind", "vocab_size": 300},
        )
        assert run("tokenizer-train", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {config}: {second}: duplicate document id '0' for source 'train', "
            f"also in {first}\n"
        )


    @pytest.mark.parametrize(
        "top, entry, message",
        [
            ({"language": "ind"}, {"format": "csv"},
             "unknown corpus format 'csv'; expected one of ('plain_lines', 'json_lines')"),
            ({"language": "IND"}, {},
             "language must be a lowercase 3-letter code, got 'IND'"),
        ],
        ids=["format", "language"],
    )
    def test_bad_corpus_value_names_config(self, tmp_path, toy_corpus, capsys, top, entry, message):
        entry = {"path": str(toy_corpus), **entry}
        config = write_config(
            tmp_path / "train.json", {"corpus": [entry], "vocab_size": 300, **top}
        )
        assert run("tokenizer-train", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {config}: corpus entry {entry!r}: {message}\n"

    def test_deeply_nested_json_line_names_file_and_line(self, tmp_path, capsys):
        corpus_path = tmp_path / "train.jsonl"
        nested = "[" * 5000 + "]" * 5000
        corpus_path.write_text(f'{{"text": "aku makan"}}\n{{"text": {nested}}}\n', encoding="utf-8")
        config = write_config(
            tmp_path / "train.json",
            {
                "corpus": [{"path": str(corpus_path), "format": "json_lines"}],
                "language": "ind",
                "vocab_size": 300,
            },
        )
        assert run("tokenizer-train", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {corpus_path}: line 2: invalid JSON: nested too deeply\n"
        )

    def test_deeply_nested_config_names_file(self, tmp_path, toy_corpus, capsys):
        config = tmp_path / "train.json"
        payload = json.dumps({"corpus": str(toy_corpus), "language": "ind", "vocab_size": 300})
        nested = "[" * 5000 + "]" * 5000
        config.write_text(payload[:-1] + f', "special_tokens": {nested}}}', encoding="utf-8")
        assert run("tokenizer-train", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {config}: invalid JSON: nested too deeply\n"


class TestFertility:
    def test_same_model_twice_zero_improvement(self, tmp_path, toy_corpus):
        train_cfg = write_config(
            tmp_path / "train.json",
            {"corpus": str(toy_corpus), "language": "ind", "vocab_size": 300},
        )
        model_out = tmp_path / "model"
        assert run("tokenizer-train", "--config", train_cfg, "--out", model_out) == 0
        cfg = write_config(
            tmp_path / "fert.json",
            {
                "model_a": str(model_out / "tokenizer.json"),
                "model_b": str(model_out / "tokenizer.json"),
                "corpus": str(toy_corpus),
                "language": "ind",
            },
        )
        out = tmp_path / "fert_out"
        assert run("fertility", "--config", cfg, "--out", out) == 0
        payload = json.loads((out / "fertility.json").read_text(encoding="utf-8"))
        entry = payload["languages"]["ind"]
        assert entry["improvement_tokens_per_doc_pct"] == 0.0
        assert entry["improvement_tokens_per_word_pct"] == 0.0
        assert entry["a"]["tokens_per_doc"] == entry["b"]["tokens_per_doc"]

    def test_empty_corpus_names_config(self, tmp_path, toy_corpus, capsys):
        model = tokenizer.train_bpe(corpus.ingest(toy_corpus, language="ind", source="toy"), 260)
        model_path = tmp_path / "tok.json"
        tokenizer.save_model(model, model_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("\n", encoding="utf-8")
        cfg = write_config(
            tmp_path / "fert.json",
            {"model_a": str(model_path), "model_b": str(model_path), "corpus": str(empty),
             "language": "ind"},
        )
        assert run("fertility", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: fertility requires a non-empty document stream\n"
        )

    def test_adapted_vs_baseline_positive_improvement(self, tmp_path, toy_corpus):
        # model A learned merges on the eval corpus itself; model B is the
        # bare byte alphabet, so A must segment the corpus into fewer tokens.
        docs = list(corpus.ingest(toy_corpus, language="ind", source="toy"))
        model_a = tokenizer.train_bpe(docs, 340)
        model_b = tokenizer.train_bpe(docs, 259)  # 256 bytes + specials, no merges
        assert model_b.merges == ()
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        tokenizer.save_model(model_a, path_a)
        tokenizer.save_model(model_b, path_b)
        cfg = write_config(
            tmp_path / "fert.json",
            {
                "model_a": str(path_a),
                "model_b": str(path_b),
                "corpus": str(toy_corpus),
                "language": "ind",
            },
        )
        out = tmp_path / "out"
        assert run("fertility", "--config", cfg, "--out", out) == 0
        entry = json.loads((out / "fertility.json").read_text(encoding="utf-8"))["languages"]["ind"]
        assert entry["improvement_tokens_per_doc_pct"] > 0
        assert entry["improvement_tokens_per_word_pct"] > 0
        assert entry["a"]["tokens_per_doc"] < entry["b"]["tokens_per_doc"]

    def test_missing_model_file(self, tmp_path, toy_corpus, capsys):
        cfg = write_config(
            tmp_path / "fert.json",
            {
                "model_a": str(tmp_path / "missing_model.json"),
                "model_b": str(tmp_path / "missing_model.json"),
                "corpus": str(toy_corpus),
                "language": "ind",
            },
        )
        assert run("fertility", "--config", cfg, "--out", tmp_path / "o") == 1
        assert "missing_model.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "documents, words, min_bytes",
        [(10_000, 300, 14 * 2**20), (50_000, 2, 2**19)],
        ids=["long-documents", "many-documents"],
    )
    def test_memory_follows_distinct_words(self, tmp_path, documents, words, min_bytes):
        # Many bytes or many documents, but only 8 distinct words: the command
        # may hold its word counts, not its documents or their ids.
        rng = random.Random(4)
        vocab = ["aku", "makan", "nasi", "goreng", "minum", "teh", "manis", "sekali"]
        corpus_path = tmp_path / "big.txt"
        with open(corpus_path, "w", encoding="utf-8") as handle:
            for _ in range(documents):
                handle.write(" ".join(rng.choices(vocab, k=words)) + "\n")
        model = tokenizer.train_bpe(
            [CorpusDocument(id="0", text=" ".join(vocab * 2), language="ind", source="s")], 280
        )
        tokenizer.save_model(model, tmp_path / "model.json")
        cfg = write_config(
            tmp_path / "fert.json",
            {
                "model_a": str(tmp_path / "model.json"),
                "model_b": str(tmp_path / "model.json"),
                "corpus": str(corpus_path),
                "language": "ind",
            },
        )
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            status = run("fertility", "--config", cfg, "--out", tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        assert status == 0
        assert corpus_path.stat().st_size > min_bytes
        assert peak < 5 * 2**20


class TestAdapt:
    def prepare(self, tmp_path):
        docs = [
            CorpusDocument(id=str(i), text=text, language="ind", source="fixture")
            for i, text in enumerate(["aku makan nasi goreng", "nasi nasi makan aku"])
        ]
        model = tokenizer.train_bpe(docs, 266)
        model_path = tmp_path / "tok.json"
        tokenizer.save_model(model, model_path)
        rng = np.random.default_rng(3)
        matrix = vocab_adapt.EmbeddingMatrix.from_array(
            rng.standard_normal((model.piece_count, 4), dtype=np.float32),
            tokenizer.model_hash(model),
        )
        emb_path = tmp_path / "emb.bin"
        vocab_adapt.save_embeddings(matrix, emb_path)
        return model_path, emb_path

    def test_unbound_embeddings_name_config(self, tmp_path, capsys):
        model_path, emb_path = self.prepare(tmp_path)
        other = tokenizer.train_bpe(
            [CorpusDocument(id="0", text="kopi susu kopi", language="ind", source="x")], 262
        )
        other_path = tmp_path / "other.json"
        tokenizer.save_model(other, other_path)
        cfg = write_config(
            tmp_path / "adapt.json",
            {"old_model": str(other_path), "new_model": str(model_path),
             "old_embeddings": str(emb_path)},
        )
        assert run("adapt", "--config", cfg, "--out", tmp_path / "o") == 1
        bound = vocab_adapt.load_embeddings(emb_path).vocab_hash
        assert capsys.readouterr().err == (
            f"error: {cfg}: embedding matrix is not bound to the given old tokenizer "
            f"(vocab_hash {bound} != {tokenizer.model_hash(other)})\n"
        )

    def test_embeddings_of_another_row_count_name_config(self, tmp_path, capsys):
        model_path, _ = self.prepare(tmp_path)
        model = tokenizer.load_model(model_path)
        rows = np.ones((model.piece_count + 1, 4), dtype=np.float32)
        emb_path = tmp_path / "long.bin"
        vocab_adapt.save_embeddings(
            vocab_adapt.EmbeddingMatrix.from_array(rows, tokenizer.model_hash(model)), emb_path
        )
        cfg = write_config(
            tmp_path / "adapt.json",
            {"old_model": str(model_path), "new_model": str(model_path),
             "old_embeddings": str(emb_path)},
        )
        assert run("adapt", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: embedding rows ({model.piece_count + 1}) != old vocabulary size "
            f"({model.piece_count})\n"
        )

    def test_identity_adaptation_byte_identical(self, tmp_path):
        model_path, emb_path = self.prepare(tmp_path)
        cfg = write_config(
            tmp_path / "adapt.json",
            {
                "old_model": str(model_path),
                "new_model": str(model_path),
                "old_embeddings": str(emb_path),
            },
        )
        out = tmp_path / "out"
        assert run("adapt", "--config", cfg, "--out", out) == 0
        assert (out / "embeddings.bin").read_bytes() == emb_path.read_bytes()
        report = json.loads((out / "adaptation.json").read_text(encoding="utf-8"))
        assert report["averaged"] == 0 and report["fallback"] == 0

    def test_provenance_counts_match_hand_count(self, tmp_path):
        # old model: bare byte alphabet (259 pieces). new model: one merge
        # ("ab"). Hand count: 3 specials + 256 bytes copied, 1 averaged.
        docs = [CorpusDocument(id="0", text="xy", language="ind", source="s")]
        old = tokenizer.train_bpe(docs, 259)
        new = tokenizer.train_bpe(
            [CorpusDocument(id="0", text="ab ab", language="ind", source="s")], 260
        )
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        tokenizer.save_model(old, old_path)
        tokenizer.save_model(new, new_path)
        matrix = vocab_adapt.EmbeddingMatrix.from_array(
            np.arange(259 * 2, dtype=np.float32).reshape(259, 2),
            tokenizer.model_hash(old),
        )
        emb_path = tmp_path / "old.bin"
        vocab_adapt.save_embeddings(matrix, emb_path)
        cfg = write_config(
            tmp_path / "adapt.json",
            {
                "old_model": str(old_path),
                "new_model": str(new_path),
                "old_embeddings": str(emb_path),
            },
        )
        out = tmp_path / "out"
        assert run("adapt", "--config", cfg, "--out", out) == 0
        report = json.loads((out / "adaptation.json").read_text(encoding="utf-8"))
        assert report["copied"] == 259
        assert report["averaged"] == 1
        assert report["fallback"] == 0
        assert report["per_piece_provenance"]["259"] == "averaged:2"

    def test_non_finite_embedding_names_file_and_offset(self, tmp_path, capsys):
        # The NaN goes into column 2 of row 17 after saving, as a corrupted
        # file would hold it: 44 header bytes, then 4 float32 per row.
        model_path, emb_path = self.prepare(tmp_path)
        raw = bytearray(emb_path.read_bytes())
        offset = 44 + 17 * 4 * 4
        raw[offset + 8 : offset + 12] = np.float32(np.nan).tobytes()
        emb_path.write_bytes(bytes(raw))
        cfg = write_config(
            tmp_path / "adapt.json",
            {
                "old_model": str(model_path),
                "new_model": str(model_path),
                "old_embeddings": str(emb_path),
            },
        )
        assert run("adapt", "--config", cfg, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"error: {emb_path}: non-finite value in embedding row 17 at byte offset {offset}\n"
        )

    def test_non_finite_row_in_the_last_block_names_file_and_offset(
        self, tmp_path, monkeypatch, capsys
    ):
        # Blocks of 10 rows: the last of the model's 266 rows is in the 27th.
        model_path, emb_path = self.prepare(tmp_path)
        rows = tokenizer.load_model(model_path).piece_count
        raw = bytearray(emb_path.read_bytes())
        raw[-4:] = np.float32(np.nan).tobytes()
        emb_path.write_bytes(bytes(raw))
        cfg = write_config(
            tmp_path / "adapt.json",
            {"old_model": str(model_path), "new_model": str(model_path),
             "old_embeddings": str(emb_path)},
        )
        monkeypatch.setattr(vocab_adapt, "_READ_BLOCK_BYTES", 10 * 4 * 4)
        assert run("adapt", "--config", cfg, "--out", tmp_path / "out") == 1
        assert rows == 266
        assert capsys.readouterr().err == (
            f"error: {emb_path}: non-finite value in embedding row 265 "
            f"at byte offset {44 + 265 * 4 * 4}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_failed_write_prints_one_error_and_keeps_out(self, tmp_path, monkeypatch, capsys):
        # The header is the new file's last write; a full disk there fails the run.
        model_path, emb_path = self.prepare(tmp_path)
        full = OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(vocab_adapt, "_header", mock.Mock(side_effect=full))
        failed_run_keeps_out(
            tmp_path, "adapt",
            {"old_model": str(model_path), "new_model": str(model_path),
             "old_embeddings": str(emb_path)},
        )
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_binding_error_comes_before_a_non_finite_row(self, tmp_path, capsys):
        model_path, emb_path = self.prepare(tmp_path)
        raw = bytearray(emb_path.read_bytes())
        raw[44:48] = np.float32(np.nan).tobytes()
        emb_path.write_bytes(bytes(raw))
        other = tokenizer.train_bpe(
            [CorpusDocument(id="0", text="kopi susu kopi", language="ind", source="x")], 262
        )
        other_path = tmp_path / "other.json"
        tokenizer.save_model(other, other_path)
        cfg = write_config(
            tmp_path / "adapt.json",
            {"old_model": str(other_path), "new_model": str(model_path),
             "old_embeddings": str(emb_path)},
        )
        assert run("adapt", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: embedding matrix is not bound to the given old tokenizer"
        )

    def test_hash_mismatch_exits_nonzero(self, tmp_path, capsys):
        model_path, emb_path = self.prepare(tmp_path)
        other_docs = [
            CorpusDocument(id="0", text="kopi susu kopi", language="ind", source="x")
        ]
        other = tokenizer.train_bpe(other_docs, 262)
        other_path = tmp_path / "other.json"
        tokenizer.save_model(other, other_path)
        cfg = write_config(
            tmp_path / "adapt.json",
            {
                "old_model": str(other_path),
                "new_model": str(model_path),
                "old_embeddings": str(emb_path),
            },
        )
        out = tmp_path / "out"
        assert run("adapt", "--config", cfg, "--out", out) == 1
        assert "not bound" in capsys.readouterr().err
        assert not (out / "embeddings.bin").exists()


def collection_fixture(tmp_path, n_records, factor, source="identity"):
    templates = tmp_path / "templates.json"
    templates.write_text(
        json.dumps(
            [
                {
                    "id": "gen-identity",
                    "task_type": "generation",
                    "input_pattern": "Pertanyaan: {prompt}",
                    "target_pattern": "{answer}",
                    "language": "ind",
                }
            ]
        ),
        encoding="utf-8",
    )
    records = tmp_path / "records.jsonl"
    with open(records, "w", encoding="utf-8") as fh:
        for i in range(n_records):
            fh.write(
                json.dumps(
                    {
                        "id": f"r{i:05d}",
                        "fields": {"prompt": f"siapa {i}", "answer": f"jawab {i}"},
                        "task_type": "generation",
                    }
                )
                + "\n"
            )
    plan = tmp_path / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "per_source": {
                    source: {"upsample_factor": factor, "cap": None, "phase": "phase2"}
                },
                "seed": 7,
            }
        ),
        encoding="utf-8",
    )
    return write_config(
        tmp_path / "build.json",
        {
            "templates": str(templates),
            "records": [{"path": str(records), "source": source}],
            "plan": str(plan),
            "language": "ind",
        },
    )


@pytest.mark.parametrize(
    "command, key, extra, message",
    [
        ("tokenizer-train", "corpus", None, " has no 'path'"),
        ("build-collection", "records", None, " has no 'path'"),
        ("tokenizer-train", "corpus", {"langauge": "sun"}, ": entry has unknown keys ['langauge']"),
        ("build-collection", "records", {"format": "json_lines"},
         ": entry has unknown keys ['format']"),
    ],
    ids=["tokenizer-train-corpus", "build-collection-records", "misspelled-key", "records-format"],
)
def test_input_entry_without_path_names_key(tmp_path, capsys, command, key, extra, message):
    if command == "build-collection":
        config = json.loads(collection_fixture(tmp_path, 5, 1).read_text(encoding="utf-8"))
        path = config["records"][0]["path"]
    else:
        config = {"vocab_size": 300, "language": "ind"}
        path = tmp_path / "c.txt"
        path.write_text("aaaa abab ab\n", encoding="utf-8")
    entry = {"source": "identity", "language": "ind"}
    if extra is not None:  # a complete entry, but for one key it does not take
        entry = {"path": str(path), "source": "identity", **extra}
    config[key] = [entry]
    cfg = write_config(tmp_path / "cfg.json", config)
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    assert f"error: {cfg}: {key} entry {entry!r}{message}\n" == capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, top, extra",
    [
        ("fertility", "corpus", {"source": ""}, None),
        ("fertility", "corpus", {}, {"format": "json_lines", "source": ""}),
        ("tokenizer-train", "corpus", {}, {"source": ""}),
        ("build-collection", "records", {}, {"source": ""}),
    ],
    ids=["fertility-top-level", "json-lines-entry", "plain-lines-entry", "records-entry"],
)
def test_empty_source_names_config_entry(tmp_path, capsys, command, key, top, extra):
    # An empty source is a config value, so the config and its entry are named,
    # not the data file's first line.
    if command == "build-collection":
        config = json.loads(collection_fixture(tmp_path, 2, 1).read_text(encoding="utf-8"))
        path = config["records"][0]["path"]
    else:
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "aku makan"}\n', encoding="utf-8")
        config = {"language": "ind", "vocab_size": 300}
        if command == "fertility":
            golden = str(DATA / "golden_tokenizer.json")
            config = {"language": "ind", "model_a": golden, "model_b": golden}
    entry = str(path) if extra is None else {"path": str(path), **extra}
    cfg = write_config(tmp_path / "cfg.json", {**config, **top, key: [entry]})
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("kept\n", encoding="utf-8")
    before = snapshot(out)
    assert run(command, "--config", cfg, "--out", out) == 1
    shown = {"path": str(path)} if extra is None else entry
    assert capsys.readouterr().err == (
        f"error: {cfg}: {key} entry {shown!r}: source must be non-empty\n"
    )
    assert snapshot(out) == before


def test_empty_source_on_a_record_line_names_the_line(tmp_path, capsys):
    cfg = collection_fixture(tmp_path, 2, 1)
    records = tmp_path / "records.jsonl"
    lines = records.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:-1] + ', "source": ""}'
    records.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("build-collection", "--config", cfg, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == (
        f"error: {records}: line 2: record source must be non-empty\n"
    )


def command_configs(tmp_path):
    """command -> (a config payload it runs, the input files that config names)."""
    words, docs = tmp_path / "words.txt", tmp_path / "docs.jsonl"
    words.write_text("aku makan nasi goreng\nnasi nasi makan aku\n", encoding="utf-8")
    docs.write_text('{"text": "aku makan"}\n', encoding="utf-8")
    model = tokenizer.train_bpe(corpus.ingest(words, language="ind", source="w"), 266)
    model_path, golden = tmp_path / "tok.json", DATA / "golden_tokenizer.json"
    tokenizer.save_model(model, model_path)
    rows = np.random.default_rng(3).standard_normal((model.piece_count, 4), dtype=np.float32)
    emb = tmp_path / "emb.bin"
    vocab_adapt.save_embeddings(
        vocab_adapt.EmbeddingMatrix.from_array(rows, tokenizer.model_hash(model)), emb
    )
    preds = tmp_path / "preds.jsonl"
    preds.write_text('{"id": "1", "hypothesis": "aku", "references": ["aku"]}\n', encoding="utf-8")
    build = json.loads(collection_fixture(tmp_path, 2, 1).read_text(encoding="utf-8"))
    corpus_entries = [str(words), {"path": str(docs), "format": "json_lines", "source": "d"}]
    return {
        "tokenizer-train": (
            {"corpus": corpus_entries, "language": "ind", "vocab_size": 270}, [words, docs]
        ),
        "fertility": (
            {"model_a": str(model_path), "model_b": str(golden), "corpus": str(words),
             "language": "ind"},
            [model_path, golden, words],
        ),
        "adapt": (
            {"old_model": str(model_path), "new_model": str(golden), "old_embeddings": str(emb)},
            [model_path, golden, emb],
        ),
        "build-collection": (
            build, [tmp_path / name for name in ("templates.json", "plan.json", "records.jsonl")]
        ),
        "score": ({"metric": "rouge_l", "predictions": str(preds)}, [preds]),
    }


def failed_run_keeps_out(tmp_path, command, config):
    """Run ``command`` on ``config``; it must fail and keep ``--out``. Return the config file."""
    cfg = write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("kept\n", encoding="utf-8")
    before = snapshot(out)
    assert run(command, "--config", cfg, "--out", out) == 1
    assert snapshot(out) == before
    return cfg


@pytest.mark.parametrize(
    "command", ["tokenizer-train", "fertility", "adapt", "build-collection", "score"]
)
def test_manifest_lists_exactly_the_files_the_config_names(tmp_path, command):
    config, paths = command_configs(tmp_path)[command]
    cfg, out = write_config(tmp_path / "cfg.json", config), tmp_path / "out"
    assert run(command, "--config", cfg, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {str(path): sha256(path) for path in paths}


@pytest.mark.parametrize(
    "command, key",
    [
        ("tokenizer-train", "vocab_size"),
        ("tokenizer-train", "corpus"),
        ("fertility", "model_a"),
        ("fertility", "model_b"),
        ("fertility", "corpus"),
        ("adapt", "old_model"),
        ("adapt", "new_model"),
        ("adapt", "old_embeddings"),
        ("build-collection", "templates"),
        ("build-collection", "plan"),
        ("build-collection", "records"),
        ("score", "metric"),
        ("score", "predictions"),
    ],
)
def test_missing_required_key_names_config(tmp_path, capsys, command, key):
    config, _ = command_configs(tmp_path)[command]
    del config[key]
    cfg = failed_run_keeps_out(tmp_path, command, config)
    assert capsys.readouterr().err == f"error: {cfg}: missing required config key {key!r}\n"


@pytest.mark.parametrize("command", ["tokenizer-train", "fertility"])
def test_corpus_without_language_names_config_before_reading(tmp_path, capsys, command):
    # The rule is checked with the other entry rules, before any input is
    # opened: a missing model is not reported first.
    config, _ = command_configs(tmp_path)[command]
    del config["language"]
    if command == "fertility":
        config["model_a"] = str(tmp_path / "missing.json")
    cfg = failed_run_keeps_out(tmp_path, command, config)
    words = tmp_path / "words.txt"
    assert capsys.readouterr().err == f"error: {cfg}: no language given for corpus file {words}\n"


@pytest.mark.parametrize(
    "command", ["tokenizer-train", "fertility", "adapt", "build-collection", "score"]
)
def test_run_without_config_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as caught:
        run(command, "--out", out)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "the following arguments are required: --config" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value, entry",
    [
        ("fertility", "model_a", "", None),
        ("fertility", "model_b", "", None),
        ("adapt", "old_model", "", None),
        ("adapt", "new_model", "", None),
        ("adapt", "old_embeddings", "", None),
        ("build-collection", "templates", "", None),
        ("build-collection", "plan", "", None),
        ("score", "predictions", "", None),
        ("tokenizer-train", "corpus", "", {"path": ""}),
        ("fertility", "corpus", [{"path": "", "source": "x"}], {"path": "", "source": "x"}),
        ("build-collection", "records", [""], {"path": ""}),
        ("build-collection", "records", [{"path": "", "language": "ind"}],
         {"path": "", "language": "ind"}),
    ],
    ids=[
        "model_a", "model_b", "old_model", "new_model", "old_embeddings", "templates", "plan",
        "predictions", "corpus-string", "corpus-entry", "records-string", "records-entry",
    ],
)
def test_empty_input_path_names_config_and_key(tmp_path, capsys, command, key, value, entry):
    # The empty path is a config value: the config and its key (and entry) are
    # named, not a file the command failed to open.
    config, _ = command_configs(tmp_path)[command]
    cfg = failed_run_keeps_out(tmp_path, command, {**config, key: value})
    named = key if entry is None else f"{key} entry {entry!r}: path"
    assert capsys.readouterr().err == f"error: {cfg}: {named} must be non-empty\n"


class TestBuildCollection:
    def test_factor_one_preserves_counts(self, tmp_path):
        cfg = collection_fixture(tmp_path, n_records=37, factor=1)
        out = tmp_path / "out"
        assert run("build-collection", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "collection_manifest.json").read_text(encoding="utf-8"))
        assert manifest["per_source"] == {"identity": 37}
        assert manifest["written_per_phase"] == {"phase1": 0, "phase2": 37}

    def test_upsample_manifest_count(self, tmp_path):
        cfg = collection_fixture(tmp_path, n_records=25, factor=20)
        out = tmp_path / "out"
        assert run("build-collection", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "collection_manifest.json").read_text(encoding="utf-8"))
        assert manifest["per_source"] == {"identity": 500}

    def test_seeded_runs_byte_identical(self, tmp_path):
        cfg = collection_fixture(tmp_path, n_records=40, factor=3)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run("build-collection", "--config", cfg, "--out", out1) == 0
        assert run("build-collection", "--config", cfg, "--out", out2) == 0
        assert sha256(out1 / "phase2.jsonl") == sha256(out2 / "phase2.jsonl")
        assert sha256(out1 / "phase1.jsonl") == sha256(out2 / "phase1.jsonl")

    def test_unknown_source_exits_nonzero(self, tmp_path, capsys):
        cfg = collection_fixture(tmp_path, n_records=5, factor=1)
        payload = json.loads(cfg.read_text(encoding="utf-8"))
        payload["records"][0]["source"] = "unplanned"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        assert run("build-collection", "--config", cfg, "--out", tmp_path / "o") == 1
        assert "unplanned" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"source": "r"}, "source 'r' is not in the sampling plan"),
            (
                {"fields": {"text": "x"}, "label": "pos", "task_type": "classification"},
                "no templates registered for task type 'classification'",
            ),
        ],
        ids=["source", "task-type"],
    )
    def test_record_the_plan_cannot_place_names_config(self, tmp_path, capsys, change, message):
        cfg = collection_fixture(tmp_path, n_records=2, factor=1)
        records = json.loads(cfg.read_text(encoding="utf-8"))["records"][0]["path"]
        record = {"id": "x", "fields": {"prompt": "p", "answer": "a"}, "task_type": "generation"}
        with open(records, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**record, **change}) + "\n")
        assert run("build-collection", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"

    @pytest.mark.parametrize("named_by", ["entry", "line"])
    def test_duplicate_id_across_files_names_both(self, tmp_path, capsys, named_by):
        # The second file shares source and id with the first, named either by
        # its config entry or by the record line itself.
        cfg = collection_fixture(tmp_path, n_records=3, factor=1)
        payload = json.loads(cfg.read_text(encoding="utf-8"))
        first = payload["records"][0]["path"]
        second = tmp_path / "more.jsonl"
        record = {"id": "r00001", "fields": {"prompt": "p", "answer": "a"}}
        record["task_type"] = "generation"
        entry = {"path": str(second), "source": "identity"}
        if named_by == "line":
            record["source"], entry["source"] = "identity", "other"
        second.write_text(json.dumps(record) + "\n", encoding="utf-8")
        payload["records"].append(entry)
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        assert run("build-collection", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: {second}: duplicate record id 'r00001' for source 'identity', "
            f"also in {first}\n"
        )

    def test_bundled_human_centric_fixture(self, tmp_path):
        base = DATA / "human_centric"
        cfg = write_config(
            tmp_path / "build.json",
            {
                "templates": str(base / "templates.json"),
                "records": [
                    {"path": str(base / "identity.jsonl"), "source": "identity"},
                    {"path": str(base / "safety.jsonl"), "source": "safety"},
                    {"path": str(base / "poems.jsonl"), "source": "poems"},
                ],
                "plan": str(base / "plan.json"),
                "language": "ind",
            },
        )
        out = tmp_path / "out"
        assert run("build-collection", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "collection_manifest.json").read_text(encoding="utf-8"))
        # 5 identity x500 + 4 safety x500 + 3 poems x20
        assert manifest["per_source"] == {"identity": 2500, "safety": 2000, "poems": 60}
        assert manifest["written_per_phase"]["phase2"] == 4560

    @pytest.mark.parametrize("name", ["build.json", "templates.json", "plan.json"])
    def test_malformed_json_names_file(self, tmp_path, capsys, name):
        cfg = collection_fixture(tmp_path, n_records=5, factor=1)
        (tmp_path / name).write_text('{"a": ,}', encoding="utf-8")
        out = tmp_path / "out"
        assert run("build-collection", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"error: {tmp_path / name}: invalid JSON: Expecting value: line 1" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "templates.json",
                lambda t: [{k: v for k, v in t[0].items() if k != "target_pattern"}],
                "template 0: missing key 'target_pattern'",
            ),
            ("templates.json", lambda t: t + ["gen"], "template 1: template must be a JSON object"),
            ("templates.json", lambda t: t + t, "template 1: duplicate template id 'gen-identity'"),
            ("plan.json", lambda p: dict(p, per_source=[1, 2]), "per_source must be a JSON object"),
            (
                "plan.json",
                lambda p: {"per_source": {"identity": {"upsample_factor": "x"}}},
                "per_source['identity']: upsample_factor must be an integer, got 'x'",
            ),
            (
                "plan.json",
                lambda p: {"per_source": {"identity": {"phase": "phase3"}}},
                "per_source['identity']: 'phase3' is not a valid Phase",
            ),
            (
                "plan.json",
                lambda p: {"per_source": {"identity": {"upsample_factr": 3}}},
                "per_source['identity'] has unknown keys ['upsample_factr']",
            ),
            (
                "plan.json",
                lambda p: dict(p, target_total={"phase2": 3}),
                "sampling plan has unknown keys ['target_total']",
            ),
            (
                "templates.json",
                lambda t: [dict(t[0], langauge="ind")],
                "template 0: template has unknown keys ['langauge']",
            ),
            (
                "plan.json",
                lambda p: {"per_source": {"identity": {"upsample_factor": 0}}},
                "per_source['identity']: upsample_factor must be >= 1",
            ),
            (
                "plan.json",
                lambda p: {"per_source": {"identity": {"cap": 0}}},
                "per_source['identity']: cap must be >= 1 when set",
            ),
            ("plan.json", lambda p: dict(p, target_totals={"phase2": -1}),
             "target totals must be >= 0"),
            ("templates.json", lambda t: [dict(t[0], id="")],
             "template 0: template id must be a non-empty string"),
            ("build.json", lambda c: b'{"a": "\xff"}', "invalid UTF-8 at byte 7"),
            ("templates.json", lambda t: b'[\n"\xc3"]', "invalid UTF-8 at byte 3"),
            ("plan.json", lambda p: b"\xfe{}", "invalid UTF-8 at byte 0"),
        ],
        ids=[
            "missing-key", "entry-not-object", "duplicate-template-id", "per-source-list",
            "factor-not-int", "unknown-phase", "misspelled-source-key", "misspelled-plan-key",
            "unknown-template-key", "factor-zero", "cap-zero", "negative-target",
            "empty-template-id", "config-utf8", "templates-utf8", "plan-utf8",
        ],
    )
    def test_malformed_entry_names_file(self, tmp_path, capsys, name, edit, message):
        cfg = collection_fixture(tmp_path, n_records=5, factor=1)
        target = tmp_path / name
        edited = edit(json.loads(target.read_text(encoding="utf-8")))
        target.write_bytes(edited if isinstance(edited, bytes) else json.dumps(edited).encode())
        out = tmp_path / "out"
        assert run("build-collection", "--config", cfg, "--out", out) == 1
        assert f"error: {target}: {message}" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "n_records, factor", [(1, 2**63), (2, 2**62), (1, 10**400)],
        ids=["2**63", "two-at-2**62", "10**400"],
    )
    def test_instance_count_beyond_sys_maxsize_names_config(
        self, tmp_path, capsys, n_records, factor
    ):
        cfg = collection_fixture(tmp_path, n_records=n_records, factor=factor)
        # Targets bound what a run writes, should the count ever pass unchecked.
        plan_path = Path(json.loads(cfg.read_text(encoding="utf-8"))["plan"])
        plan = json.loads(plan_path.read_text(encoding="utf-8"))
        plan["target_totals"] = {"phase1": 0, "phase2": 10}
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        out = tmp_path / "out"
        assert run("build-collection", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: more than {sys.maxsize} instances after upsampling\n"
        )
        assert not out.exists()  # the failed run made it, so it removed it

    def test_default_plan_factors(self):
        plan = collection.SamplingPlan.from_json_file(DATA / "human_centric" / "plan.json")
        factors = {s: p.upsample_factor for s, p in plan.per_source.items()}
        assert factors == {"identity": 500, "safety": 500, "poems": 20}
        assert all(p.phase.value == "phase2" for p in plan.per_source.values())

    def test_target_totals_subsample_phase(self, tmp_path):
        cfg = collection_fixture(tmp_path, n_records=50, factor=2)
        plan_path = json.loads(cfg.read_text(encoding="utf-8"))["plan"]
        plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
        plan["target_totals"] = {"phase2": 30}
        Path(plan_path).write_text(json.dumps(plan), encoding="utf-8")
        out = tmp_path / "out"
        assert run("build-collection", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "collection_manifest.json").read_text(encoding="utf-8"))
        assert manifest["per_source"] == {"identity": 100}
        assert manifest["written_per_phase"] == {"phase1": 0, "phase2": 30}
        lines = (out / "phase2.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 30


class TestScore:
    def test_perfect_predictions_score_100(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        with open(preds, "w", encoding="utf-8") as fh:
            for i in range(4):
                text = f"kalimat nomor {i} yang sama persis"
                fh.write(json.dumps({"id": str(i), "hypothesis": text, "references": [text]}) + "\n")
        for metric in ("chrf_pp", "rouge_l", "corpus_bleu"):
            cfg = write_config(
                tmp_path / f"{metric}.json",
                {"metric": metric, "predictions": str(preds)},
            )
            out = tmp_path / f"out_{metric}"
            assert run("score", "--config", cfg, "--out", out) == 0
            payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
            assert payload["aggregate"] == pytest.approx(100.0)
            assert payload["n"] == 4

    def test_weighted_f1_fixture(self, tmp_path):
        preds = tmp_path / "labels.jsonl"
        rows = [("1", "A", "A"), ("2", "B", "A"), ("3", "B", "B")]
        with open(preds, "w", encoding="utf-8") as fh:
            for rid, pred, gold in rows:
                fh.write(json.dumps({"id": rid, "predicted_label": pred, "gold_label": gold}) + "\n")
        cfg = write_config(
            tmp_path / "f1.json", {"metric": "weighted_f1", "predictions": str(preds)}
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["aggregate"] == pytest.approx(66.67, abs=0.01)

    def test_malformed_line_names_line(self, tmp_path, capsys):
        preds = tmp_path / "broken.jsonl"
        preds.write_text(
            '{"id": "1", "hypothesis": "a", "references": ["a"]}\nnot json\n',
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path / "cfg.json", {"metric": "chrf_pp", "predictions": str(preds)}
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 1
        assert "line 2" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_options_reach_the_metric(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            json.dumps({"id": "1", "hypothesis": "kucing makan", "references": ["kucing tidur"]})
            + "\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path / "cfg.json",
            {"metric": "chrf_pp", "predictions": str(preds), "char_order": 3, "beta": 1},
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        expected = metrics.chrf_pp(metrics.read_prediction_pairs(preds), char_order=3, beta=1.0)
        assert payload["aggregate"] == expected.aggregate
        assert payload["aggregate"] != metrics.chrf_pp(metrics.read_prediction_pairs(preds)).aggregate

    def test_lone_surrogate_scores_like_the_oracle(self, tmp_path):
        # JSON allows the escape "\ud800", which decodes to a lone surrogate.
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            '{"id": "1", "hypothesis": "a\\ud800b c", "references": ["\\ud800b", "a c"]}\n'
            '{"id": "2", "hypothesis": "\\ud800", "references": ["\\ud800 \\udfff"]}\n',
            encoding="utf-8",
        )
        cfg = write_config(tmp_path / "cfg.json", {"metric": "chrf_pp", "predictions": str(preds)})
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 0
        pairs = metrics.read_prediction_pairs(preds)
        assert pairs[1].hypothesis == "\ud800"
        expected = counter_chrf_pp(pairs)
        assert json.loads((out / "report.json").read_text(encoding="utf-8")) == {
            "metric_name": "chrf_pp",
            "aggregate": math.fsum(expected.values()) / len(expected),
            "n": 2,
            "per_example": expected,
        }

    @pytest.mark.parametrize("char_order", ["3", 2.7], ids=["string", "float"])
    def test_option_of_wrong_type_names_option(self, tmp_path, capsys, char_order):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            json.dumps({"id": "1", "hypothesis": "a", "references": ["a"]}) + "\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path / "cfg.json",
            {"metric": "chrf_pp", "predictions": str(preds), "char_order": char_order},
        )
        assert run("score", "--config", cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: char_order must be an integer, got {char_order!r}" in err

    def test_option_of_another_metric_rejected(self, tmp_path, capsys):
        preds = tmp_path / "labels.jsonl"
        preds.write_text(
            json.dumps({"id": "1", "predicted_label": "A", "gold_label": "A"}) + "\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path / "cfg.json",
            {"metric": "weighted_f1", "predictions": str(preds), "beta": 2.0},
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 1
        assert "beta" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_option_value_the_metric_rejects_names_config(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            json.dumps({"id": "1", "hypothesis": "a", "references": ["a"]}) + "\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path / "cfg.json",
            {"metric": "corpus_bleu", "predictions": str(preds), "max_order": 0},
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {cfg}: max_order must be >= 1\n"
        assert not (out / "report.json").exists()

    def test_missing_key_names_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"metric": "chrf_pp"})
        assert run("score", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {cfg}: missing required config key 'predictions'\n"

    def test_empty_predictions_names_config(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {"metric": "chrf_pp", "predictions": str(preds)})
        assert run("score", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {cfg}: chrf_pp requires at least one example\n"

    def test_nan_in_config_is_invalid_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"metric": "chrf_pp", "predictions": "g.jsonl", "beta": NaN}', encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {cfg}: invalid JSON: NaN is not a JSON number\n"
        assert not (out / "report.json").exists()

    def test_infinity_in_predictions_names_line(self, tmp_path, capsys):
        preds = tmp_path / "mc1.jsonl"
        preds.write_text(
            '{"id": "1", "option_scores": [0.5, 0.1], "gold_index": 0}\n'
            '{"id": "2", "option_scores": [Infinity, 0.1], "gold_index": 0}\n',
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path / "cfg.json", {"metric": "mc1_accuracy", "predictions": str(preds)}
        )
        assert run("score", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {preds}: line 2: invalid JSON: Infinity is not a JSON number\n"
        )

    @pytest.mark.parametrize(
        "metric, valid, invalid, message",
        [
            ("mc1_accuracy", '"option_scores": [0.5, 0.1], "gold_index": 0',
             '"option_scores": [1e400, 0.1], "gold_index": 0',
             "non-finite option score for item '2'"),
            ("safety_preference", '"benign_score": -1.0, "harmful_score": -2.0',
             '"benign_score": -1e400, "harmful_score": -2.0',
             "non-finite likelihood score for pair '2'"),
        ],
        ids=["mc1-1e400", "safety-minus-1e400"],
    )
    def test_score_overflowing_a_float_names_line(
        self, tmp_path, capsys, metric, valid, invalid, message
    ):
        # 1e400 is valid JSON and reads as inf.
        preds = tmp_path / "preds.jsonl"
        preds.write_text(f'{{"id": "1", {valid}}}\n', encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {"metric": metric, "predictions": str(preds)})
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 0
        before = snapshot(out)
        with open(preds, "a", encoding="utf-8") as fh:
            fh.write(f'{{"id": "2", {invalid}}}\n')
        assert run("score", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {preds}: line 2: {message}\n"
        assert snapshot(out) == before

    def test_repeated_field_keeps_its_last_value(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            '{"id": "1", "hypothesis": "x y z", "hypothesis": "a b", "references": ["a b"]}\n',
            encoding="utf-8",
        )
        assert metrics.read_prediction_pairs(preds)[0].hypothesis == "a b"
        cfg = write_config(tmp_path / "cfg.json", {"metric": "rouge_l", "predictions": str(preds)})
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["aggregate"] == 100.0

    @pytest.mark.parametrize("metric", ["chrf_pp", "rouge_l"])
    def test_beta_whose_square_overflows_rejected(self, tmp_path, capsys, metric):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            json.dumps({"id": "1", "hypothesis": "a b", "references": ["a c"]}) + "\n",
            encoding="utf-8",
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            f'{{"metric": "{metric}", "predictions": "{preds}", "beta": 1e200}}', encoding="utf-8"
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: beta must be a number whose square is finite, got 1e+200\n"
        )
        assert not (out / "report.json").exists()

    def test_integer_too_large_for_a_float_scores(self, tmp_path):
        preds = tmp_path / "likelihood.jsonl"
        line = '{"id": "1", "benign_score": 1' + "0" * 400 + ', "harmful_score": 0.5}\n'
        preds.write_text(line, encoding="utf-8")
        cfg = write_config(
            tmp_path / "cfg.json", {"metric": "safety_preference", "predictions": str(preds)}
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["aggregate"] == 100.0

    def test_integer_too_large_for_a_float_scores_mc1(self, tmp_path):
        preds = tmp_path / "mc1.jsonl"
        line = '{"id": "1", "option_scores": [0.5, 1' + "0" * 400 + ', 0.9], "gold_index": 1}\n'
        preds.write_text(line, encoding="utf-8")
        cfg = write_config(
            tmp_path / "cfg.json", {"metric": "mc1_accuracy", "predictions": str(preds)}
        )
        out = tmp_path / "out"
        assert run("score", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["aggregate"] == 100.0

    def test_unknown_metric(self, tmp_path, capsys):
        preds = tmp_path / "p.jsonl"
        preds.write_text("", encoding="utf-8")
        cfg = write_config(
            tmp_path / "cfg.json", {"metric": "wer", "predictions": str(preds)}
        )
        assert run("score", "--config", cfg, "--out", tmp_path / "o") == 1
        assert "wer" in capsys.readouterr().err


class TestIdempotency:
    def test_score_reruns_identical(self, tmp_path):
        preds = tmp_path / "preds.jsonl"
        preds.write_text(
            json.dumps({"id": "1", "hypothesis": "a b", "references": ["a b c"]}) + "\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path / "cfg.json", {"metric": "rouge_l", "predictions": str(preds)}
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run("score", "--config", cfg, "--out", out1) == 0
        assert run("score", "--config", cfg, "--out", out2) == 0
        assert sha256(out1 / "report.json") == sha256(out2 / "report.json")


def snapshot(directory):
    """Every path under ``directory``, each file with its bytes."""
    return {
        path.relative_to(directory): path.read_bytes() if path.is_file() else None
        for path in directory.rglob("*")
    }


class TestPublish:
    BUILT = ["collection_manifest.json", "manifest.json", "phase1.jsonl", "phase2.jsonl"]

    def build_twice(self, tmp_path):
        """A complete build, then a config whose records change every artifact."""
        cfg = collection_fixture(tmp_path, n_records=5, factor=2)
        out = tmp_path / "out"
        assert run("build-collection", "--config", cfg, "--out", out) == 0
        assert sorted(os.listdir(out)) == self.BUILT  # no stage directory left
        collection_fixture(tmp_path, n_records=6, factor=2)
        return cfg, out

    def test_failed_rerun_keeps_the_earlier_run(self, tmp_path, monkeypatch, capsys):
        cfg, out = self.build_twice(tmp_path)
        before = snapshot(out)
        write = collection.write_instances_jsonl

        def write_then_fail(instances, path):
            write(instances, path)
            raise OSError("disk full")

        monkeypatch.setattr(collection, "write_instances_jsonl", write_then_fail)
        assert run("build-collection", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert snapshot(out) == before
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest["outputs"]) == [n for n in self.BUILT if n != "manifest.json"]
        for name, digest in manifest["outputs"].items():
            assert sha256(out / name) == digest

    def test_failed_publish_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        cfg, out = self.build_twice(tmp_path)
        replace, moved = os.replace, []

        def replace_once(source, target):
            if moved:
                raise OSError("disk full")
            moved.append(Path(target).name)
            replace(source, target)

        monkeypatch.setattr(cli.os, "replace", replace_once)
        assert run("build-collection", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert moved == ["collection_manifest.json"]
        assert sorted(os.listdir(out)) == [n for n in self.BUILT if n != "manifest.json"]


class TestFailedRunOut:
    """A failed run removes the ``--out`` directories it made and no others."""

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"metric": "chrf_pp"}, "cfg.json: missing required config key 'predictions'"),
            ({"metric": "chrf_pp", "predictions": "missing.jsonl"}, "missing.jsonl"),
        ],
        ids=["missing-key", "missing-predictions"],
    )
    def test_new_out_and_its_parents_removed(self, tmp_path, monkeypatch, capsys, config, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old").mkdir()
        write_config(tmp_path / "cfg.json", config)
        for out in ("new/deep/out", "old/new/out"):
            assert run("score", "--config", "cfg.json", "--out", out) == 1
            assert message in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "old"]
        assert os.listdir(tmp_path / "old") == []

    def test_existing_empty_out_kept(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_config(tmp_path / "cfg.json", {"metric": "chrf_pp", "predictions": "nope"})
        assert run("score", "--config", cfg, "--out", out) == 1
        assert out.is_dir() and os.listdir(out) == []


class TestInputChecksums:
    """Input checksums come from one background thread, joined on every exit."""

    def train_config(self, tmp_path, corpus_paths, vocab_size=270):
        return write_config(
            tmp_path / "train.json",
            {"corpus": list(map(str, corpus_paths)), "language": "ind", "vocab_size": vocab_size},
        )

    def test_empty_and_large_inputs(self, tmp_path, toy_corpus):
        # The large file spans several reads of the hashing buffer and ends
        # in a partial one.
        empty, large = tmp_path / "empty.txt", tmp_path / "large.txt"
        empty.write_bytes(b"")
        words = toy_corpus.read_bytes()
        large.write_bytes(words * (2**20 // len(words) + 1) + b"tail\n")
        assert large.stat().st_size > 2**20
        config = self.train_config(tmp_path, [empty, large])
        out = tmp_path / "out"
        assert run("tokenizer-train", "--config", config, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {
            str(empty): hashlib.sha256(b"").hexdigest(),
            str(large): hashlib.sha256(large.read_bytes()).hexdigest(),
        }

    @pytest.mark.parametrize("command", ["tokenizer-train", "score"])
    def test_missing_input_fails_as_the_reader_does(self, tmp_path, capsys, command):
        # The command's own read fails first, and its error is the one shown.
        missing = tmp_path / "missing.jsonl"
        if command == "score":
            config = write_config(
                tmp_path / "c.json", {"metric": "rouge_l", "predictions": str(missing)}
            )
        else:
            config = self.train_config(tmp_path, [missing])
        assert run(command, "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )

    @pytest.mark.parametrize("outcome", ["success", "command-error", "publish-error"])
    def test_thread_joined_on_every_exit(self, tmp_path, toy_corpus, monkeypatch, capsys, outcome):
        sha256_file, calls = cli._sha256_file, []

        def slow_sha256_file(path):
            on_main = threading.current_thread() is threading.main_thread()
            calls.append((Path(path).name, on_main))
            if not on_main:
                time.sleep(0.05)  # still running unless main joins it
            return sha256_file(path)

        def failing_replace(source, target):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_sha256_file", slow_sha256_file)
        if outcome == "publish-error":
            monkeypatch.setattr(cli.os, "replace", failing_replace)
        vocab_size = 100 if outcome == "command-error" else 270
        config = self.train_config(tmp_path, [toy_corpus], vocab_size)
        before = threading.active_count()
        code = run("tokenizer-train", "--config", config, "--out", tmp_path / "o")
        assert threading.active_count() == before
        assert code == (0 if outcome == "success" else 1)
        assert calls[0] == (toy_corpus.name, False)  # the input, off the main thread
        if outcome == "success":
            assert calls[1:] == [("tokenizer.json", True)]
        if outcome == "publish-error":
            assert capsys.readouterr().err == "error: disk full\n"

    def test_thread_error_raised_when_the_command_succeeds(
        self, tmp_path, toy_corpus, monkeypatch, capsys
    ):
        sha256_file = cli._sha256_file

        def fail_off_main_thread(path):
            if threading.current_thread() is not threading.main_thread():
                raise OSError(f"{path}: vanished")
            return sha256_file(path)

        monkeypatch.setattr(cli, "_sha256_file", fail_off_main_thread)
        config, out = self.train_config(tmp_path, [toy_corpus]), tmp_path / "o"
        assert run("tokenizer-train", "--config", config, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {toy_corpus}: vanished\n"
        assert not out.exists()  # the failed run made it, so it removed it

    def test_command_error_wins_over_thread_error(self, tmp_path, toy_corpus, monkeypatch, capsys):
        def fail(path):
            raise OSError("thread error")

        monkeypatch.setattr(cli, "_sha256_file", fail)
        config = self.train_config(tmp_path, [toy_corpus], vocab_size=100)
        assert run("tokenizer-train", "--config", config, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {config}: vocab_size must be at least 259 (256 bytes + 3 specials), got 100\n"
        )


# Cases whose surrogate sits in a whole-file JSON input: a template, a plan or a config.
WHOLE_FILE_SURROGATE_CASES = (
    "template-input_pattern",
    "template-id",
    "plan-source",
    "special-token",
)


def surrogate_case(tmp_path, case):
    """(command, config, expected error) for input holding the JSON escape ``\\ud800``."""
    if case in WHOLE_FILE_SURROGATE_CASES:
        return whole_file_surrogate_case(tmp_path, case)
    if case == "score-id":
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "\\ud800", "hypothesis": "a", "references": ["a"]}\n')
        config = {"metric": "chrf_pp", "predictions": str(path)}
        return "score", config, f"{path}: line 1: id has a lone surrogate at index 0"
    if case in ("tokenizer-train-text", "fertility-text"):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"text": "ok"}\n{"text": "a\\ud800"}\n')
        config = {"corpus": str(path), "format": "json_lines", "language": "ind"}
        error = f"{path}: line 2: text has a lone surrogate at index 1"
        if case == "tokenizer-train-text":
            return "tokenizer-train", dict(config, vocab_size=300), error
        model = tokenizer.train_bpe([CorpusDocument("0", "aku", "ind", "s")], 260)
        tokenizer.save_model(model, tmp_path / "model.json")
        config |= dict.fromkeys(("model_a", "model_b"), str(tmp_path / "model.json"))
        return "fertility", config, error
    # A third record, with the surrogate in one of the fields it writes out.
    cfg = collection_fixture(tmp_path, n_records=2, factor=1)
    path = tmp_path / "records.jsonl"
    record = dict(json.loads(path.read_text(encoding="utf-8").splitlines()[0]), id="r9")
    field = case.removeprefix("build-collection-")
    if field == "slot":
        record["fields"]["answer"], field = "a\ud800", "slot 'answer'"
    else:
        record[field] = "a\ud800"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    config = json.loads(cfg.read_text(encoding="utf-8"))
    return "build-collection", config, f"{path}: line 3: {field} has a lone surrogate at index 1"


def whole_file_surrogate_case(tmp_path, case):
    """(command, config, expected error) for a whole-file JSON input holding ``\\ud800``."""
    if case == "special-token":
        path = tmp_path / "corpus.txt"
        path.write_text("aku makan nasi\n", encoding="utf-8")
        config = {
            "corpus": str(path),
            "language": "ind",
            "vocab_size": 300,
            "special_tokens": ["pad", "eos", "unk", "a\ud800"],
        }
        error = f"{tmp_path / 'cfg.json'}: special_tokens[3] has a lone surrogate at index 1"
        return "tokenizer-train", config, error
    config = json.loads(collection_fixture(tmp_path, n_records=2, factor=1).read_text("utf-8"))
    if case == "plan-source":
        # A source no record names, so nothing but the collection manifest writes it.
        path, source = Path(config["plan"]), "x\ud800"
        plan = json.loads(path.read_text(encoding="utf-8"))
        plan["per_source"][source] = plan["per_source"]["identity"]
        path.write_text(json.dumps(plan), encoding="utf-8")
        error = f"{path}: key {source!r} in per_source has a lone surrogate at index 1"
        return "build-collection", config, error
    path = Path(config["templates"])
    templates = json.loads(path.read_text(encoding="utf-8"))
    key = case.removeprefix("template-")
    templates[0][key] = "a\ud800"
    path.write_text(json.dumps(templates), encoding="utf-8")
    return "build-collection", config, f"{path}: [0][{key!r}] has a lone surrogate at index 1"


@pytest.mark.parametrize(
    "case",
    [
        "score-id",
        "tokenizer-train-text",
        "fertility-text",
        "build-collection-slot",
        "build-collection-label",
        "build-collection-source",
        *WHOLE_FILE_SURROGATE_CASES,
    ],
)
def test_lone_surrogate_names_file_and_line(tmp_path, capsys, case):
    command, config, error = surrogate_case(tmp_path, case)
    cfg = write_config(tmp_path / "cfg.json", config)
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err == f"error: {error}\n"


# Runs each subcommand once, the later ones on the first one's tokenizer, with
# configs and paths relative to the working directory.
HASH_SEED_RUN = """
import sys
from langadapt.cli import main
for command in ("tokenizer-train", "fertility", "adapt", "build-collection", "score"):
    if main([command, "--config", command + ".json", "--out", "out/" + command]) != 0:
        sys.exit(command + " failed")
"""


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path, toy_corpus):
    base = tmp_path / "base"
    base.mkdir()
    shutil.copy(toy_corpus, base / "words.txt")
    TestAdapt().prepare(base)  # tok.json and emb.bin, bound to each other
    collection_fixture(base, n_records=12, factor=3)
    plan = json.loads((base / "plan.json").read_text(encoding="utf-8"))
    plan["target_totals"] = {"phase2": 20}
    (base / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    (base / "preds.jsonl").write_text(
        '{"id": "1", "hypothesis": "kucing makan ikan", "references": ["kucing makan"]}\n'
        '{"id": "2", "hypothesis": "anjing tidur", "references": ["anjing tidur", "x"]}\n',
        encoding="utf-8",
    )
    trained = "out/tokenizer-train/tokenizer.json"
    configs = {
        "tokenizer-train": {"corpus": "words.txt", "language": "ind", "vocab_size": 300},
        "fertility": {"model_a": trained, "model_b": "tok.json", "corpus": "words.txt",
                      "language": "ind"},
        "adapt": {"old_model": "tok.json", "new_model": trained, "old_embeddings": "emb.bin"},
        "build-collection": {"templates": "templates.json", "plan": "plan.json",
                             "records": [{"path": "records.jsonl", "source": "identity"}],
                             "language": "ind"},
        "score": {"metric": "chrf_pp", "predictions": "preds.jsonl"},
    }
    for command, config in configs.items():
        write_config(base / f"{command}.json", config)
    src = str(Path(cli.__file__).resolve().parents[1])
    trees = []
    for seed in ("0", "1"):
        cwd = tmp_path / f"seed{seed}"
        shutil.copytree(base, cwd)
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", HASH_SEED_RUN], cwd=cwd, env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        trees.append(snapshot(cwd))
    outputs = sorted(str(path) for path in trees[0] if path.name == "manifest.json")
    assert outputs == [f"out/{command}/manifest.json" for command in sorted(configs)]
    assert trees[0] == trees[1]
