import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from langadapt import collection, corpus, metrics, tokenizer, vocab_adapt
from langadapt.cli import main
from langadapt.corpus import CorpusDocument

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
    "command, key", [("tokenizer-train", "corpus"), ("build-collection", "records")]
)
def test_input_entry_without_path_names_key(tmp_path, capsys, command, key):
    config = {"vocab_size": 300}
    if command == "build-collection":
        config = json.loads(collection_fixture(tmp_path, 5, 1).read_text(encoding="utf-8"))
    config[key] = [{"source": "identity", "language": "ind"}]
    cfg = write_config(tmp_path / "cfg.json", config)
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"error: {cfg}: {key} entry {{'source': 'identity', 'language': 'ind'}} has no 'path'" in err


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
            ("build.json", lambda c: b'{"a": "\xff"}', "invalid UTF-8 at byte 7"),
            ("templates.json", lambda t: b'[\n"\xc3"]', "invalid UTF-8 at byte 3"),
            ("plan.json", lambda p: b"\xfe{}", "invalid UTF-8 at byte 0"),
        ],
        ids=[
            "missing-key", "entry-not-object", "duplicate-template-id", "per-source-list",
            "factor-not-int", "unknown-phase", "config-utf8", "templates-utf8", "plan-utf8",
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

    def test_missing_key_names_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"metric": "chrf_pp"})
        assert run("score", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {cfg}: missing required config key 'predictions'\n"

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
