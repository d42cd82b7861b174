"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The fertility-gain criterion trains two 32k vocabularies on ~50 MB
corpora and dominates the runtime (a few minutes).
"""

import hashlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from langadapt import collection, metrics, tokenizer, vocab_adapt
from langadapt.cli import main as cli_main
from langadapt.collection import (
    InstructionInstance,
    Phase,
    PromptTemplate,
    SamplingPlan,
    SourcePlan,
    TemplateRegistry,
)
from langadapt.corpus import CorpusDocument, TaskRecord, TaskType
from langadapt.metrics import LabeledPair, LikelihoodPair, MC1Item, PredictionPair

from oracles import naive_chrf, naive_encode_bytes, naive_rouge_l, naive_train_bpe
from synthdata import LANGUAGES, SyntheticLanguages

DATA = Path(__file__).parent / "data"


class criterion:
    """Prints '[criterion NN] PASS/FAIL <description>' when the block exits."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.number:02d}] {status} - {self.description}")
        return False


def docs_from(texts, language="ind"):
    return [
        CorpusDocument(id=str(i), text=t, language=language, source="acceptance")
        for i, t in enumerate(texts)
    ]


def random_utf8(rng, max_bytes):
    chars = []
    size = 0
    budget = rng.randrange(0, max_bytes + 1)
    while True:
        cp = rng.randrange(0x1, 0xD800) if rng.random() < 0.8 else rng.randrange(0xE000, 0x110000)
        ch = chr(cp)
        width = len(ch.encode("utf-8"))
        if size + width > budget:
            break
        chars.append(ch)
        size += width
    return "".join(chars)


def test_criterion_01_fertility_gain():
    with criterion(1, "dominant-corpus vocabulary is >=10% more token-efficient"):
        started = time.monotonic()
        synth = SyntheticLanguages(seed=7)
        dominant = {lang: (0.9 if lang == "ind" else 0.1 / 9) for lang in LANGUAGES}
        balanced = {lang: 0.1 for lang in LANGUAGES}
        docs_a = synth.documents(dominant, 50_000_000, seed=101, source="corpus_a")
        docs_b = synth.documents(balanced, 50_000_000, seed=202, source="corpus_b")
        model_a = tokenizer.train_bpe(docs_a, 32_000)
        model_b = tokenizer.train_bpe(docs_b, 32_000)
        # Pinned in ROADMAP.md; any change to training must reproduce them.
        assert tokenizer.model_hash(model_a) == "37df9ad82577dec2b71e1b2a45e59958"
        assert tokenizer.model_hash(model_b) == "9a1eb769c6d1f4ce5167aa66d5805973"
        held_out = tokenizer.count_words(
            synth.documents({"ind": 1.0}, 2_000_000, seed=999, source="held_out")
        )
        report_a, report_b = tokenizer.fertility([model_a, model_b], held_out)
        elapsed = time.monotonic() - started
        gain = (
            (report_b.tokens_per_word - report_a.tokens_per_word)
            / report_b.tokens_per_word
            * 100.0
        )
        print(
            f"\n    tokens/word A={report_a.tokens_per_word:.4f} "
            f"B={report_b.tokens_per_word:.4f} gain={gain:.2f}% elapsed={elapsed:.0f}s"
        )
        assert report_a.tokens_per_word <= 0.9 * report_b.tokens_per_word
        assert elapsed < 900.0


def test_criterion_02_compare_fertility_reference_arithmetic():
    with criterion(2, "compare_fertility reproduces the reference percentages"):
        def report(tokens_per_doc):
            return tokenizer.FertilityReport("ind", 1, 1, tokens_per_doc, tokens_per_doc)

        first = tokenizer.compare_fertility(report(46.34), report(58.87))
        second = tokenizer.compare_fertility(report(52.61), report(61.74))
        assert first == pytest.approx(21.28, abs=0.01)
        assert second == pytest.approx(14.79, abs=0.01)


def test_criterion_03_round_trip_and_training_determinism(tmp_path):
    with criterion(3, "10k-string round trip; thread count never changes training"):
        model = tokenizer.train_bpe(
            docs_from(["aku makan nasi goreng", "nasi goreng makan aku", "kopi susu"]), 280
        )
        rng = random.Random(2024)
        failures = 0
        for _ in range(10_000):
            text = random_utf8(rng, 512)
            if tokenizer.decode(model, tokenizer.encode(model, text)) != text:
                failures += 1
        assert failures == 0

        config = tmp_path / "train.json"
        config.write_text(
            json.dumps(
                {
                    "corpus": str(DATA / "toy_words.txt"),
                    "language": "ind",
                    "vocab_size": 300,
                }
            ),
            encoding="utf-8",
        )
        digests = []
        for threads in (1, 8):
            out = tmp_path / f"threads_{threads}"
            assert cli_main(
                ["tokenizer-train", "--config", str(config), "--out", str(out),
                 "--threads", str(threads)]
            ) == 0
            digests.append(hashlib.sha256((out / "tokenizer.json").read_bytes()).hexdigest())
        assert digests[0] == digests[1]


def test_criterion_04_bpe_oracle_equivalence():
    with criterion(4, "trainer piece list equals the naive O(n^2) oracle's"):
        text = (DATA / "toy_words.txt").read_text(encoding="utf-8").strip()
        assert len(text.split()) == 100
        expected_pieces, expected_merges = naive_train_bpe([text], 300)
        model = tokenizer.train_bpe(docs_from([text]), 300)
        assert list(model.pieces) == expected_pieces
        assert list(model.merges) == expected_merges


def test_criterion_05_adaptation_oracle(tmp_path):
    with criterion(5, "500->300 adaptation matches brute-force re-averaging"):
        rng = random.Random(500)

        def corpus_texts(n_docs, n_types, alphabet):
            types = [
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(2, 9)))
                for _ in range(n_types)
            ]
            return [
                " ".join(rng.choice(types) for _ in range(rng.randrange(4, 18)))
                for _ in range(n_docs)
            ]

        old_model = tokenizer.train_bpe(docs_from(corpus_texts(300, 120, "abcdefgh")), 500)
        new_model = tokenizer.train_bpe(docs_from(corpus_texts(200, 60, "hijklmno")), 300)
        assert old_model.piece_count == 500 and new_model.piece_count == 300
        generator = np.random.default_rng(55)
        old_emb = vocab_adapt.EmbeddingMatrix.from_array(
            generator.standard_normal((500, 8), dtype=np.float32),
            tokenizer.model_hash(old_model),
        )
        path = tmp_path / "new.bin"
        _, report = vocab_adapt.adapt_embeddings(old_model, old_emb, new_model, path)
        new_emb = vocab_adapt.load_embeddings(path)

        max_error = 0.0
        averaged_rows = 0
        for new_id, provenance in report.per_piece_provenance.items():
            if not provenance.startswith("averaged"):
                continue
            averaged_rows += 1
            piece = new_model.pieces[new_id]
            ids = naive_encode_bytes(
                list(old_model.pieces), list(old_model.merges), old_model.byte_offset, piece
            )
            sums = [0.0] * 8
            for token_id in ids:
                for d in range(8):
                    sums[d] += float(old_emb.data[token_id, d])
            expected = np.array([s / len(ids) for s in sums], dtype=np.float32)
            max_error = max(max_error, float(np.max(np.abs(new_emb.data[new_id] - expected))))
        print(f"\n    averaged rows checked: {averaged_rows}, max abs error: {max_error:.2e}")
        assert averaged_rows > 0
        assert max_error < 1e-6

        identity = tmp_path / "identity.bin"
        _, identity_report = vocab_adapt.adapt_embeddings(old_model, old_emb, old_model, identity)
        assert vocab_adapt.load_embeddings(identity).data.tobytes() == old_emb.data.tobytes()
        assert identity_report.copied == 500
        assert report.copied + report.averaged + report.fallback == 300


def _identity_fixture_records(count, source):
    return [
        TaskRecord(
            id=f"r{i:05d}",
            fields={"prompt": f"pertanyaan {i}", "answer": f"jawaban {i}"},
            label=None,
            task_type=TaskType.GENERATION,
            language="ind",
            source=source,
        )
        for i in range(count)
    ]


def _generation_registry():
    return TemplateRegistry(
        [
            PromptTemplate(
                id="gen-01",
                task_type=TaskType.GENERATION,
                input_pattern="Pertanyaan: {prompt}",
                target_pattern="{answer}",
                language="ind",
            )
        ]
    )


def test_criterion_06_collection_arithmetic(tmp_path):
    with criterion(6, "upsampling arithmetic and byte-identical seeded builds"):
        registry = _generation_registry()

        identity = _identity_fixture_records(125, "identity")
        plan = SamplingPlan(
            per_source={"identity": SourcePlan(upsample_factor=500, phase=Phase.PHASE2)},
            seed=7,
        )
        instances, per_source = collection.build_collection(registry, identity, plan)
        assert len(instances) == 62_500
        assert per_source == {"identity": 62_500}

        poems = _identity_fixture_records(7_223, "poems")
        poem_plan = SamplingPlan(
            per_source={"poems": SourcePlan(upsample_factor=20, phase=Phase.PHASE2)},
            seed=7,
        )
        poem_instances, poem_per_source = collection.build_collection(registry, poems, poem_plan)
        assert len(poem_instances) == 144_460
        assert poem_per_source == {"poems": 144_460}

        flat_plan = SamplingPlan(
            per_source={"identity": SourcePlan(upsample_factor=1, phase=Phase.PHASE2)},
            seed=7,
        )
        flat, _ = collection.build_collection(registry, identity, flat_plan)
        assert len(flat) == len(identity)

        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        rebuilt, _ = collection.build_collection(registry, identity, plan)
        collection.write_instances_jsonl(instances, first)
        collection.write_instances_jsonl(rebuilt, second)
        assert first.read_bytes() == second.read_bytes()


def test_criterion_07_stratified_subsampling():
    with criterion(7, "600/300/100 at target 100 selects exactly 60/30/10"):
        instances = []
        for source, count in (("x", 600), ("y", 300), ("z", 100)):
            for i in range(count):
                instances.append(
                    InstructionInstance(
                        input=f"{source}-{i}",
                        target="t",
                        task_type=TaskType.GENERATION,
                        language="ind",
                        source=source,
                        template_id="gen-01",
                        phase=Phase.PHASE2,
                    )
                )
        random.Random(99).shuffle(instances)
        groups = tuple(collection.CopyGroup(instance, (0,)) for instance in instances)
        selected = collection.subsample_to_target(collection.InstanceStream(groups), 100, seed=3)
        counts = {}
        for instance in selected:
            counts[instance.source] = counts.get(instance.source, 0) + 1
        assert counts == {"x": 60, "y": 30, "z": 10}
        assert len(selected) == 100


WORDS = ["kucing", "makan", "nasi", "di", "rumah", "besar", "itu", "dia", "pergi", "cepat"]


def _random_sentence(rng, max_tokens=40):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, max_tokens + 1)))


def test_criterion_08_metric_oracles():
    with criterion(8, "metric scores match naive oracles and fixed fixtures"):
        rng = random.Random(808)
        pairs = [
            PredictionPair(str(i), _random_sentence(rng), (_random_sentence(rng),))
            for i in range(50)
        ]
        chrf_report = metrics.chrf_pp(pairs)
        rouge_report = metrics.rouge_l(pairs)
        for pair in pairs:
            assert chrf_report.per_example[pair.id] == pytest.approx(
                naive_chrf(pair.hypothesis, pair.references[0]), abs=1e-4
            )
            assert rouge_report.per_example[pair.id] == pytest.approx(
                naive_rouge_l(pair.hypothesis, pair.references[0]), abs=1e-4
            )

        # Hand-counted 5-sentence fixture at max_order 2 (see test_metrics for
        # the per-sentence clipped counts): p1=16/17, p2=9/12, h=17, r=21.
        bleu_pairs = [
            PredictionPair("1", "the cat sat on the mat", ("the cat sat on the mat",)),
            PredictionPair("2", "a quick brown fox", ("the quick brown fox jumps",)),
            PredictionPair("3", "hello world", ("hello there world", "hi world")),
            PredictionPair("4", "good morning friends", ("good morning dear friends",)),
            PredictionPair("5", "it rains", ("it rains heavily today",)),
        ]
        expected_bleu = 100.0 * math.exp(1 - 21 / 17) * math.sqrt((16 / 17) * (9 / 12))
        observed = metrics.corpus_bleu(bleu_pairs, max_order=2, smoothing="none").aggregate
        assert observed == pytest.approx(expected_bleu, abs=1e-4)

        f1_pairs = [
            LabeledPair("1", "A", "A"),
            LabeledPair("2", "B", "A"),
            LabeledPair("3", "B", "B"),
        ]
        assert metrics.weighted_f1(f1_pairs).aggregate == pytest.approx(66.67, abs=0.01)

        perfect_text = [f"kalimat sempurna nomor {i} dalam bahasa" for i in range(5)]
        perfect_pairs = [
            PredictionPair(str(i), text, (text,)) for i, text in enumerate(perfect_text)
        ]
        assert metrics.chrf_pp(perfect_pairs).aggregate == pytest.approx(100.0)
        assert metrics.rouge_l(perfect_pairs).aggregate == pytest.approx(100.0)
        assert metrics.corpus_bleu(perfect_pairs).aggregate == pytest.approx(100.0)
        assert metrics.weighted_f1(
            [LabeledPair(str(i), "A", "A") for i in range(5)]
        ).aggregate == pytest.approx(100.0)
        assert metrics.mc1_accuracy(
            [MC1Item(str(i), (0.9, 0.1), 0) for i in range(5)]
        ).aggregate == pytest.approx(100.0)
        assert metrics.safety_preference(
            [LikelihoodPair(str(i), -1.0, -5.0) for i in range(5)]
        ).aggregate == pytest.approx(100.0)


def test_criterion_09_invariance_suite():
    with criterion(9, "monotone/shift/permutation invariances hold exactly"):
        rng = random.Random(909)
        items = [
            MC1Item(str(i), tuple(rng.uniform(-4.0, 4.0) for _ in range(4)), rng.randrange(4))
            for i in range(100)
        ]
        base = metrics.mc1_accuracy(items).aggregate
        linear = [
            MC1Item(i.id, tuple(2.0 * s + 1.0 for s in i.option_scores), i.gold_index)
            for i in items
        ]
        exponential = [
            MC1Item(i.id, tuple(math.exp(s) for s in i.option_scores), i.gold_index)
            for i in items
        ]
        assert metrics.mc1_accuracy(linear).aggregate == base
        assert metrics.mc1_accuracy(exponential).aggregate == base

        likelihood = [
            LikelihoodPair(str(i), rng.uniform(-6, 0), rng.uniform(-6, 0)) for i in range(100)
        ]
        safety_base = metrics.safety_preference(likelihood).aggregate
        for shift in (-3.5, 0.25, 11.0):
            shifted = [
                LikelihoodPair(p.id, p.benign_score + shift, p.harmful_score + shift)
                for p in likelihood
            ]
            assert metrics.safety_preference(shifted).aggregate == safety_base

        pairs = [
            PredictionPair(str(i), _random_sentence(rng), (_random_sentence(rng),))
            for i in range(40)
        ]
        labeled = [LabeledPair(str(i), rng.choice("ABC"), rng.choice("ABC")) for i in range(40)]
        baselines = (
            metrics.chrf_pp(pairs).aggregate,
            metrics.rouge_l(pairs).aggregate,
            metrics.corpus_bleu(pairs).aggregate,
            metrics.weighted_f1(labeled).aggregate,
            metrics.mc1_accuracy(items).aggregate,
            metrics.safety_preference(likelihood).aggregate,
        )
        for trial in range(10):
            shuffler = random.Random(trial)
            for seq in (pairs, labeled, items, likelihood):
                shuffler.shuffle(seq)
            observed = (
                metrics.chrf_pp(pairs).aggregate,
                metrics.rouge_l(pairs).aggregate,
                metrics.corpus_bleu(pairs).aggregate,
                metrics.weighted_f1(labeled).aggregate,
                metrics.mc1_accuracy(items).aggregate,
                metrics.safety_preference(likelihood).aggregate,
            )
            assert observed == baselines


def test_criterion_10_file_format_round_trips(tmp_path):
    with criterion(10, "embedding and tokenizer files round-trip exactly"):
        generator = np.random.default_rng(10)
        matrix = vocab_adapt.EmbeddingMatrix.from_array(
            generator.standard_normal((37, 16), dtype=np.float32), "c" * 32
        )
        first = tmp_path / "emb.bin"
        vocab_adapt.save_embeddings(matrix, first)
        loaded = vocab_adapt.load_embeddings(first)
        assert loaded.data.tobytes() == matrix.data.tobytes()
        assert loaded.vocab_hash == matrix.vocab_hash
        second = tmp_path / "emb2.bin"
        vocab_adapt.save_embeddings(loaded, second)
        assert first.read_bytes() == second.read_bytes()

        model = tokenizer.train_bpe(
            docs_from(["aku suka makan nasi goreng pedas", "dia suka kopi susu"]), 290
        )
        model_path = tmp_path / "tok.json"
        tokenizer.save_model(model, model_path)
        reloaded = tokenizer.load_model(model_path)
        rng = random.Random(1010)
        for _ in range(1_000):
            text = random_utf8(rng, 64)
            assert tokenizer.encode(model, text) == tokenizer.encode(reloaded, text)
