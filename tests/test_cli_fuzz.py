"""Every CLI input, mutated once, still meets the failure contract.

Tiny valid inputs for all five subcommands are built once. Each example
applies one mutation to one file a config reads (or to the config itself)
and calls ``cli.main`` in process; a fixed sweep also swaps every scalar of
every config for each JSON text in ``SCALARS``. The run either exits 0, or
it exits 1 with exactly one stderr line that starts with ``error: ``, holds
no traceback and names a file, and ``--out`` keeps every byte it had before.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from langadapt import cli, tokenizer, vocab_adapt

from synthdata import SyntheticLanguages
from test_cli import snapshot

CORPUS_ENTRIES = [
    {"path": "words.txt", "source": "words"},
    {"path": "docs.jsonl", "format": "json_lines", "source": "docs"},
]
# config file -> (subcommand, config payload); every path is relative to the run directory
CONFIGS = {
    "train.json": (
        "tokenizer-train", {"corpus": CORPUS_ENTRIES, "language": "ind", "vocab_size": 270}
    ),
    "fertility.json": (
        "fertility",
        {"model_a": "old.json", "model_b": "new.json", "corpus": CORPUS_ENTRIES,
         "language": "ind"},
    ),
    "adapt.json": (
        "adapt", {"old_model": "old.json", "new_model": "new.json", "old_embeddings": "emb.bin"}
    ),
    "build.json": (
        "build-collection",
        {"templates": "templates.json", "plan": "plan.json", "language": "ind",
         "records": [{"path": "records.jsonl", "source": "identity"}]},
    ),
    "score-f1.json": ("score", {"metric": "weighted_f1", "predictions": "labeled.jsonl"}),
    "score-chrf.json": (
        "score", {"metric": "chrf_pp", "predictions": "pairs.jsonl", "beta": 2}
    ),
    "score-mc1.json": ("score", {"metric": "mc1_accuracy", "predictions": "mc1.jsonl"}),
    "score-safety.json": (
        "score", {"metric": "safety_preference", "predictions": "likelihood.jsonl"}
    ),
}
_PATH_KEYS = ("model_a", "model_b", "old_model", "new_model", "old_embeddings", "templates",
              "plan", "predictions")


def jsonl(rows):
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")


@pytest.fixture(scope="module")
def inputs():
    """Every input file's bytes, by its path relative to the run directory."""
    docs = SyntheticLanguages(seed=3, lexicon_sizes={"ind": 40}).documents(
        {"ind": 1.0}, 600, seed=4, source="fuzz", words_per_doc=(3, 8)
    )
    old, new = tokenizer.train_bpe(docs, 262), tokenizer.train_bpe(docs, 275)
    rows = np.random.default_rng(5).standard_normal((old.piece_count, 4), dtype=np.float32)
    files = {
        "words.txt": "".join(doc.text + "\n" for doc in docs[:6]).encode("utf-8"),
        "docs.jsonl": jsonl({"id": i, "text": doc.text} for i, doc in enumerate(docs[6:10])),
        "old.json": tokenizer.serialize_model(old),
        "new.json": tokenizer.serialize_model(new),
        "templates.json": json.dumps([
            {"id": "gen", "task_type": "generation", "input_pattern": "Tanya: {prompt}",
             "target_pattern": "{answer}", "language": "ind"},
            {"id": "cls", "task_type": "classification", "input_pattern": "Topik: {text}",
             "target_pattern": "{label}", "language": "ind"},
        ]).encode("utf-8"),
        "plan.json": json.dumps({
            "per_source": {"identity": {"upsample_factor": 3, "cap": 4, "phase": "phase2"}},
            "target_totals": {"phase2": 5}, "seed": 7,
        }).encode("utf-8"),
        "records.jsonl": jsonl([
            {"id": "r1", "fields": {"prompt": "siapa", "answer": "aku"},
             "task_type": "generation"},
            {"id": "r2", "fields": {"text": "nasi goreng", "label": "makan"}, "label": "makan",
             "task_type": "classification", "language": "ind"},
            {"id": 3, "fields": {"prompt": "apa", "answer": "kopi"}, "task_type": "generation",
             "source": "identity"},
        ]),
        "labeled.jsonl": jsonl(
            {"id": i, "predicted_label": p, "gold_label": g}
            for i, (p, g) in enumerate([("pos", "pos"), ("neg", "pos"), ("neg", "neg")])
        ),
        "pairs.jsonl": jsonl([
            {"id": "a", "hypothesis": "kucing makan ikan", "references": ["kucing makan"]},
            {"id": "b", "hypothesis": "anjing", "references": ["anjing tidur", "tidur"]},
        ]),
        "mc1.jsonl": jsonl([
            {"id": "q1", "option_scores": [-1.5, -0.5, 2], "gold_index": 1},
            {"id": "q2", "option_scores": [0.25], "gold_index": 0},
        ]),
        "likelihood.jsonl": jsonl([
            {"id": "p1", "benign_score": -3.0, "harmful_score": -4.5},
            {"id": "p2", "benign_score": 1, "harmful_score": 1},
        ]),
    }
    matrix = vocab_adapt.EmbeddingMatrix.from_array(rows, tokenizer.model_hash(old))
    with tempfile.TemporaryDirectory() as tmp:
        vocab_adapt.save_embeddings(matrix, Path(tmp) / "emb.bin")
        files["emb.bin"] = (Path(tmp) / "emb.bin").read_bytes()
    for name, (_, payload) in CONFIGS.items():
        files[name] = json.dumps(payload).encode("utf-8")
    return files


def named_paths(config) -> set[str]:
    """The input paths a config payload gives; none for a payload of the wrong shape."""
    if not isinstance(config, dict):
        return set()
    paths = [config.get(key) for key in _PATH_KEYS]
    for key in ("corpus", "records"):
        entries = config.get(key)
        for entry in entries if isinstance(entries, list) else [entries]:
            paths.append(entry.get("path") if isinstance(entry, dict) else entry)
    return {path for path in paths if isinstance(path, str)}


def run_in(files: dict, command: str, config: str) -> tuple[int, str, dict, dict]:
    """Run in a fresh directory holding ``files`` and an ``out`` with an earlier
    run's manifest; return the exit code, stderr and ``out`` before and after."""
    stderr, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, raw in files.items():
            (workdir / name).write_bytes(raw)
        (workdir / "out").mkdir()
        (workdir / "out" / "manifest.json").write_text('{"earlier": true}\n', encoding="utf-8")
        before = snapshot(workdir / "out")
        os.chdir(workdir)
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main([command, "--config", config, "--out", "out"])
        finally:
            os.chdir(cwd)
        return code, stderr.getvalue(), before, snapshot(workdir / "out")


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_unmutated_inputs_run(inputs, config):
    code, err, before, after = run_in(inputs, CONFIGS[config][0], config)
    assert (code, err) == (0, "")
    assert after[Path("manifest.json")] != before[Path("manifest.json")]


# One JSON scalar is swapped for one of these JSON texts; the second is a lone surrogate.
SCALARS = ['""', '"\\ud800"', "1e400", "-1e400", "9" * 400, "-0", "true", "null", "[]", "{}",
           "[" * 5000 + "]" * 5000]
_SENTINEL = "\x00fuzz\x00"


def scalar_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from scalar_paths(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from scalar_paths(item, (*path, index))
    else:
        yield path


def swap_at(text: str, path: tuple, scalar: str) -> str:
    """The JSON ``text`` with its scalar at ``path`` replaced by the JSON text ``scalar``."""
    if not path:
        return scalar
    value = json.loads(text)
    parent = value
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = _SENTINEL
    return json.dumps(value, ensure_ascii=False).replace(json.dumps(_SENTINEL), scalar)


def swap_scalar(text: str, draw) -> str:
    path = draw(st.sampled_from(list(scalar_paths(json.loads(text)))))
    return swap_at(text, path, draw(st.sampled_from(SCALARS)))


def mutate(raw: bytes, name: str, draw) -> bytes:
    kinds = ["truncate", "flip", "insert", "empty", "invalid-utf8", "duplicate-line", "crlf"]
    if name.endswith((".json", ".jsonl")):
        kinds.append("swap-scalar")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([raw[at] ^ draw(st.integers(1, 255))]) + raw[at + 1 :]
    if kind in ("insert", "invalid-utf8"):
        at = draw(st.integers(0, len(raw)))
        inserted = bytes([draw(st.integers(0, 255))]) if kind == "insert" else b"\xc3("
        return raw[:at] + inserted + raw[at:]
    if kind == "empty":
        return b""
    if kind == "crlf":
        return raw.replace(b"\n", b"\r\n")
    if name.endswith(".json") and kind == "swap-scalar":
        return swap_scalar(raw.decode("utf-8"), draw).encode("utf-8")
    lines = raw.splitlines(keepends=True)
    if kind == "duplicate-line":
        at = draw(st.integers(0, len(lines) - 1))
        return b"".join([*lines[: at + 1], *lines[at:]])
    at = draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
    lines[at] = swap_scalar(lines[at].decode("utf-8"), draw).encode("utf-8") + b"\n"
    return b"".join(lines)


def assert_runs_or_fails_by_the_contract(inputs, config, target, mutated):
    """Run ``config`` with ``target`` holding ``mutated``; it exits 0, or it
    fails by the contract in the module docstring."""
    command, payload = CONFIGS[config]
    code, err, before, after = run_in({**inputs, target: mutated}, command, config)
    if code == 0:
        return
    assert code == 1
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err, err
    # A failure names the config or the mutated file, or a path only the mutated config gives.
    names = {config, target}
    if target == config:
        try:
            names |= named_paths(json.loads(mutated)) - named_paths(payload)
        except (ValueError, RecursionError):  # the config no longer parses
            pass
    assert any(name in err if name else "''" in err for name in names), err
    assert after == before


@settings(
    max_examples=400, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_one_mutation_runs_or_fails_by_the_contract(inputs, data):
    config = data.draw(st.sampled_from(sorted(CONFIGS)), label="config")
    payload = CONFIGS[config][1]
    target = data.draw(st.sampled_from(sorted({config} | named_paths(payload))), label="file")
    mutated = mutate(inputs[target], target, data.draw)
    assert_runs_or_fails_by_the_contract(inputs, config, target, mutated)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_scalar_swap_of_a_config_runs_or_fails_by_the_contract(inputs, config):
    # The drawn examples above miss rare classes, such as an empty ``source``.
    text = inputs[config].decode("utf-8")
    for path in scalar_paths(json.loads(text)):
        for scalar in SCALARS:
            mutated = swap_at(text, path, scalar).encode("utf-8")
            assert_runs_or_fails_by_the_contract(inputs, config, config, mutated)
