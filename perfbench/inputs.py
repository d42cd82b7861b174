"""Seeded inputs for the four benchmark workloads.

Every file a workload reads is generated here from the workload seed, using
the repository's own synthetic-language factory (``tests/synthdata.py``), so
the same seed always yields byte-identical inputs. The langadapt CLI receives
only these files. The ``fertility-adapt`` fixture tokenizers are trained once
per seed and cached, outside every timed section.

Sizes are scaled so that one job takes one to three seconds on a 2-vCPU
machine; ``tiny`` is only for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import synthdata
from langadapt import tokenizer, vocab_adapt
from synthdata import LANGUAGES, SyntheticLanguages

WORKLOADS = ("tokenizer-train", "fertility-adapt", "build-collection", "score")

# The language absent from both fixture training corpora; fertility measures
# it through the encoder's cache-miss path.
UNSEEN = "nij"

SIZES = {
    "standard": {
        "lexicon": (8_000, 3_000),
        "train_bytes": 220_000,
        "vocab": 2_000,
        "fixture_bytes": 250_000,
        "fixture_vocab": (4_000, 2_000),
        "emb_dims": 2_048,
        "heldout_bytes": 600_000,
        "cls_records": 2_500,
        "mt_records": 2_500,
        "mt_cap": 1_800,
        "hc_records": (30, 20),
        "phase_keep": (0.7071, 0.618),
        "gen_pairs": 80,
        "label_lines": 5_000,
    },
    "tiny": {
        "lexicon": (600, 200),
        "train_bytes": 20_000,
        "vocab": 400,
        "fixture_bytes": 20_000,
        "fixture_vocab": (500, 400),
        "emb_dims": 16,
        "heldout_bytes": 20_000,
        "cls_records": 60,
        "mt_records": 60,
        "mt_cap": 40,
        "hc_records": (4, 3),
        "phase_keep": (0.7071, 0.618),
        "gen_pairs": 12,
        "label_lines": 50,
    },
}

# The paper's upsampling factor for identity and safety prompts.
HUMAN_CENTRIC_FACTOR = 500


@dataclass
class Inputs:
    """One workload's generated files, CLI invocations and traffic sizes.

    Paths in ``invocations`` are relative to the run directory, which is the
    working directory of every job, so manifests are the same in every run.
    """

    invocations: list[list[str]]
    traffic: dict[str, int] = field(default_factory=dict)


def _languages(seed: int, size: dict) -> SyntheticLanguages:
    big, small = size["lexicon"]
    return SyntheticLanguages(
        seed=seed * 1000,
        lexicon_sizes={lang: big if lang == "ind" else small for lang in LANGUAGES},
    )


def _ind_heavy(exclude: str | None = None) -> dict[str, float]:
    weights = {lang: 0.6 if lang == "ind" else 0.4 / 9 for lang in LANGUAGES}
    weights.pop(exclude, None)
    return weights


def _write_lines(path: Path, lines) -> int:
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def _jsonl(records) -> list[str]:
    return [json.dumps(record, ensure_ascii=False) for record in records]


def _config(run: Path, name: str, payload) -> str:
    (run / name).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return name


def _cli(command: str, config: str, out: str, seed: int) -> list[str]:
    # --threads is fixed so the manifests do not depend on the host.
    return [command, "--config", config, "--out", out, "--threads", "1", "--seed", str(seed)]


def _distinct_words(texts) -> int:
    words: set[str] = set()
    for text in texts:
        words.update(text.split())
    return len(words)


def _tokenizer_train(run: Path, seed: int, size: dict) -> Inputs:
    langs = _languages(seed, size)
    docs = langs.documents(_ind_heavy(), size["train_bytes"], seed=seed * 1000 + 11, source="train")
    half = len(docs) // 2
    n_bytes = _write_lines(run / "inputs/train.txt", (d.text for d in docs[:half]))
    n_bytes += _write_lines(
        run / "inputs/train.jsonl",
        _jsonl({"id": d.id, "text": d.text} for d in docs[half:]),
    )
    heldout = langs.documents(
        {lang: 1.0 for lang in LANGUAGES}, 50_000, seed=seed * 1000 + 12, source="heldout"
    )
    _write_lines(run / "inputs/roundtrip.txt", (d.text for d in heldout[:200]))
    config = _config(
        run, "inputs/tokenizer-train.json",
        {
            "corpus": [
                {"path": "inputs/train.txt", "format": "plain_lines", "source": "plain"},
                {"path": "inputs/train.jsonl", "format": "json_lines", "source": "jsonl"},
            ],
            "language": "ind",
            "vocab_size": size["vocab"],
        },
    )
    return Inputs(
        [_cli("tokenizer-train", config, "out/tokenizer-train", seed)],
        {
            "input_bytes": n_bytes,
            "documents": len(docs),
            "distinct_words": _distinct_words(d.text for d in docs),
            "vocab_size": size["vocab"],
        },
    )


def _cache_key(seed: int, size_name: str) -> str:
    digest = hashlib.sha256(f"{seed}\x1f{size_name}".encode())
    for module in (sys.modules[__name__], synthdata, tokenizer):
        digest.update(Path(module.__file__).read_bytes())
    return digest.hexdigest()[:16]


def _fixtures(cache: Path, seed: int, size_name: str, size: dict) -> Path:
    """Train (or reuse) the two fixture tokenizers."""
    target = cache / f"fixtures-{_cache_key(seed, size_name)}"
    if target.is_dir():
        return target
    tmp = cache / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    langs = _languages(seed, size)
    vocab_a, vocab_b = size["fixture_vocab"]
    balanced = {lang: 1.0 for lang in LANGUAGES if lang != UNSEEN}
    corpus_a = langs.documents(
        _ind_heavy(exclude=UNSEEN), size["fixture_bytes"], seed=seed * 1000 + 21, source="a"
    )
    corpus_b = langs.documents(balanced, size["fixture_bytes"], seed=seed * 1000 + 22, source="b")
    model_a = tokenizer.train_bpe(corpus_a, vocab_a)
    model_b = tokenizer.train_bpe(corpus_b, vocab_b)
    tokenizer.save_model(model_a, tmp / "model_a.json")
    tokenizer.save_model(model_b, tmp / "model_b.json")
    try:
        tmp.rename(target)
    except OSError:  # another run cached the same fixtures first
        shutil.rmtree(tmp)
    return target


def _fertility_adapt(run: Path, seed: int, size: dict, fixtures: Path) -> Inputs:
    for name in ("model_a.json", "model_b.json"):
        shutil.copyfile(fixtures / name, run / "inputs" / name)
    model_a = tokenizer.load_model(run / "inputs/model_a.json")
    rng = np.random.default_rng([seed, 23])
    rows = rng.standard_normal((model_a.piece_count, size["emb_dims"]), dtype=np.float32)
    vocab_adapt.save_embeddings(
        vocab_adapt.EmbeddingMatrix.from_array(rows, tokenizer.model_hash(model_a)),
        run / "inputs/embeddings_a.bin",
    )
    langs = _languages(seed, size)
    docs = langs.documents(
        {lang: 1.0 for lang in LANGUAGES}, size["heldout_bytes"], seed=seed * 1000 + 31, source="h"
    )
    n_bytes = 0
    corpus = []
    for lang in LANGUAGES:
        path = f"inputs/heldout-{lang}.txt"
        n_bytes += _write_lines(run / path, (d.text for d in docs if d.language == lang))
        corpus.append({"path": path, "language": lang})
    _write_lines(run / "inputs/roundtrip.txt", (d.text for d in docs[:200]))
    fertility = _config(
        run, "inputs/fertility.json",
        {"corpus": corpus, "model_a": "inputs/model_a.json", "model_b": "inputs/model_b.json"},
    )
    adapt = _config(
        run, "inputs/adapt.json",
        {
            "old_model": "inputs/model_a.json",
            "new_model": "inputs/model_b.json",
            "old_embeddings": "inputs/embeddings_a.bin",
        },
    )
    vocab_a, vocab_b = size["fixture_vocab"]
    return Inputs(
        [
            _cli("fertility", fertility, "out/fertility", seed),
            _cli("adapt", adapt, "out/adapt", seed),
        ],
        {
            "input_bytes": n_bytes,
            "documents": len(docs),
            "distinct_words": _distinct_words(d.text for d in docs),
            "embedding_bytes": (run / "inputs/embeddings_a.bin").stat().st_size,
            "old_vocab": vocab_a,
            "new_vocab": vocab_b,
        },
    )


def _phrases(langs: SyntheticLanguages, n: int, seed: int, words: tuple[int, int]) -> list[str]:
    weights = {lang: 1.0 for lang in ("ind", "jav", "sun")}
    budget = n * (words[0] + words[1]) * 5  # about 10 bytes per word
    texts: list[str] = []
    while len(texts) < n:
        docs = langs.documents(weights, budget, seed=seed + len(texts), source="p", words_per_doc=words)
        texts.extend(d.text for d in docs)
    return texts[:n]


def _build_collection(run: Path, seed: int, size: dict) -> Inputs:
    langs = _languages(seed, size)
    rng = np.random.default_rng([seed, 41])
    labels = ("positif", "negatif", "netral")
    cls_texts = _phrases(langs, size["cls_records"], seed * 1000 + 42, (8, 20))
    mt_src = _phrases(langs, size["mt_records"], seed * 1000 + 43, (6, 14))
    mt_tgt = _phrases(langs, size["mt_records"], seed * 1000 + 44, (6, 14))
    n_identity, n_safety = size["hc_records"]
    hc_prompt = _phrases(langs, n_identity + n_safety, seed * 1000 + 45, (5, 10))
    hc_answer = _phrases(langs, n_identity + n_safety, seed * 1000 + 46, (10, 25))
    # Record ids are drawn out of order so the build's sort does real work.
    sources = {
        "cls": [
            {"id": f"c{i:06d}", "fields": {"text": text, "label": label}, "label": label,
             "task_type": "classification"}
            for i, (text, label) in enumerate(
                zip(cls_texts, (labels[k] for k in rng.integers(3, size=len(cls_texts))))
            )
        ],
        "mt": [
            {"id": f"t{i:06d}", "fields": {"src": src, "tgt": tgt}, "task_type": "translation"}
            for i, (src, tgt) in enumerate(zip(mt_src, mt_tgt))
        ],
        "identity": [
            {"id": f"id{i:04d}", "fields": {"prompt": p, "answer": a}, "task_type": "generation"}
            for i, (p, a) in enumerate(zip(hc_prompt[:n_identity], hc_answer[:n_identity]))
        ],
        "safety": [
            {"id": f"sf{i:04d}", "fields": {"prompt": p, "answer": a}, "task_type": "generation"}
            for i, (p, a) in enumerate(zip(hc_prompt[n_identity:], hc_answer[n_identity:]))
        ],
    }
    n_bytes = 0
    records = []
    for source, rows in sources.items():
        order = rng.permutation(len(rows))
        path = f"inputs/{source}.jsonl"
        n_bytes += _write_lines(run / path, _jsonl(rows[i] for i in order))
        records.append({"path": path, "source": source})
    per_source = {
        "cls": {"upsample_factor": 2, "cap": None, "phase": "phase1"},
        "mt": {"upsample_factor": 1, "cap": size["mt_cap"], "phase": "phase1"},
        "identity": {"upsample_factor": HUMAN_CENTRIC_FACTOR, "cap": None, "phase": "phase2"},
        "safety": {"upsample_factor": HUMAN_CENTRIC_FACTOR, "cap": None, "phase": "phase2"},
    }
    built = {
        phase: sum(
            min(len(sources[s]), p["cap"] or len(sources[s])) * p["upsample_factor"]
            for s, p in per_source.items()
            if p["phase"] == phase
        )
        for phase in ("phase1", "phase2")
    }
    # Keep ratios that leave remainders, so subsampling's largest-remainder
    # rounding is exercised.
    keep1, keep2 = size["phase_keep"]
    targets = {"phase1": int(built["phase1"] * keep1), "phase2": int(built["phase2"] * keep2)}
    plan = _config(
        run, "inputs/plan.json",
        {"per_source": per_source, "target_totals": targets, "seed": seed},
    )
    templates = _config(
        run, "inputs/templates.json",
        [
            {"id": "cls-a", "task_type": "classification", "language": "ind",
             "input_pattern": "Tentukan sentimen: {text}", "target_pattern": "{label}"},
            {"id": "cls-b", "task_type": "classification", "language": "ind",
             "input_pattern": "Teks: {text}\nSentimen:", "target_pattern": "{label}"},
            {"id": "mt-a", "task_type": "translation", "language": "ind",
             "input_pattern": "Terjemahkan: {src}", "target_pattern": "{tgt}"},
            {"id": "mt-b", "task_type": "translation", "language": "ind",
             "input_pattern": "{src}\nTerjemahan:", "target_pattern": "{tgt}"},
            {"id": "hc-ask", "task_type": "generation", "language": "ind",
             "input_pattern": "{prompt}", "target_pattern": "{answer}"},
            {"id": "hc-chat", "task_type": "generation", "language": "ind",
             "input_pattern": "Pengguna: {prompt}\nAsisten:", "target_pattern": "{answer}"},
        ],
    )
    config = _config(
        run, "inputs/build-collection.json",
        {"templates": templates, "plan": plan, "records": records, "language": "ind"},
    )
    return Inputs(
        [_cli("build-collection", config, "out/build-collection", seed)],
        {
            "input_bytes": n_bytes,
            "records": sum(len(rows) for rows in sources.values()),
            "upsampled_instances": built["phase1"] + built["phase2"],
            "written_instances": targets["phase1"] + targets["phase2"],
        },
    )


def _perturb(words: list[str], rng: np.random.Generator, vocab: list[str]) -> str:
    out = []
    for word in words:
        roll = rng.random()
        if roll < 0.1:
            continue
        out.append(vocab[int(rng.integers(len(vocab)))] if roll < 0.25 else word)
    return " ".join(out or words[:1])


def _score(run: Path, seed: int, size: dict) -> Inputs:
    langs = _languages(seed, size)
    rng = np.random.default_rng([seed, 51])
    refs = _phrases(langs, 2 * size["gen_pairs"], seed * 1000 + 52, (30, 80))
    vocab = langs.lexicons["ind"][:2000]
    generation = []
    for i in range(size["gen_pairs"]):
        first, second = refs[2 * i], refs[2 * i + 1]
        generation.append({
            "id": f"g{i}",
            "hypothesis": _perturb(first.split(), rng, vocab),
            "references": [first, _perturb(second.split(), rng, vocab)],
        })
    n = size["label_lines"]
    labels = ("positif", "negatif", "netral", "campuran", "lainnya")
    gold = rng.integers(len(labels), size=n)
    wrong = rng.random(n) < 0.3
    predicted = np.where(wrong, rng.integers(len(labels), size=n), gold)
    labeled = [
        {"id": f"l{i}", "predicted_label": labels[p], "gold_label": labels[g]}
        for i, (p, g) in enumerate(zip(predicted.tolist(), gold.tolist()))
    ]
    options = rng.standard_normal((n, 4)).round(6).tolist()
    mc1 = [
        {"id": f"m{i}", "option_scores": scores, "gold_index": int(g)}
        for i, (scores, g) in enumerate(zip(options, rng.integers(4, size=n).tolist()))
    ]
    pairs = rng.standard_normal((n, 2)).round(6).tolist()
    likelihood = [
        {"id": f"s{i}", "benign_score": b, "harmful_score": h}
        for i, (b, h) in enumerate(pairs)
    ]
    files = {
        "generation": generation,
        "labeled": labeled,
        "mc1": mc1,
        "likelihood": likelihood,
    }
    n_bytes = sum(
        _write_lines(run / f"inputs/{name}.jsonl", _jsonl(rows)) for name, rows in files.items()
    )
    # The langadapt metric each score call runs, and the file it reads.
    predictions = {
        "chrf_pp": "generation",
        "rouge_l": "generation",
        "corpus_bleu": "generation",
        "weighted_f1": "labeled",
        "mc1_accuracy": "mc1",
        "safety_preference": "likelihood",
    }
    invocations = [
        _cli(
            "score",
            _config(
                run, f"inputs/score-{metric}.json",
                {"metric": metric, "predictions": f"inputs/{source}.jsonl"},
            ),
            f"out/score/{metric}",
            seed,
        )
        for metric, source in predictions.items()
    ]
    return Inputs(
        invocations,
        {
            "input_bytes": n_bytes,
            "generation_pairs": len(generation),
            "label_lines": 3 * n,
        },
    )


def generate(workload: str, seed: int, size_name: str, run: Path, cache: Path) -> Inputs:
    """Write ``workload``'s inputs under ``run/inputs`` and describe its jobs."""
    size = SIZES[size_name]
    (run / "inputs").mkdir(parents=True)
    if workload == "tokenizer-train":
        return _tokenizer_train(run, seed, size)
    if workload == "fertility-adapt":
        return _fertility_adapt(run, seed, size, _fixtures(cache, seed, size_name, size))
    if workload == "build-collection":
        return _build_collection(run, seed, size)
    if workload == "score":
        return _score(run, seed, size)
    raise ValueError(f"unknown workload {workload!r}")
