"""Every loader checks the JSON type of each field it reads and converts nothing.

A field given a value of another JSON type is either rejected with the
loader's own ``ValueError`` subclass, naming the file (and the line, for JSON
lines), or kept exactly as given: same value, same Python type.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from langadapt import cli, collection, corpus, metrics, tokenizer
from langadapt.cli import ConfigError, main
from langadapt.collection import PlanError
from langadapt.corpus import CorpusDocument, IngestError, TaskType


def _model_payload():
    docs = [CorpusDocument(id="0", text="aaaa abab ab", language="ind", source="s")]
    model = tokenizer.train_bpe(docs, 256 + 3 + 3)
    return json.loads(tokenizer.serialize_model(model))


def _jsonl_loader(read, error=IngestError):
    """A JSON-lines loader: line 1 is a valid record, line 2 the edited one."""

    def write(path, record):
        first = dict(READER_RECORDS[read], id="first")
        path.write_text(json.dumps(first) + "\n" + json.dumps(record) + "\n", encoding="utf-8")

    return write, lambda result: dataclasses.asdict(result[1]), error, "line 2: "


def _json_loader(error, stored):
    def write(path, payload):
        path.write_text(json.dumps(payload), encoding="utf-8")

    return write, stored, error, ""


def _templates(registry):
    templates = [t for task in TaskType for t in registry.for_task(task)]
    return [dataclasses.asdict(t) for t in sorted(templates, key=lambda t: t.id)]


def _read_records(path):
    return list(corpus.read_task_records(path, language="ind", source="demo"))


def _ingest(path):
    return list(corpus.ingest(path, "json_lines", language="ind", source="demo"))


def _score_config(path):
    return cli._resolve_config(cli._build_parser().parse_args(["score", "--config", str(path)]))


def _train_config(path):
    args = ["tokenizer-train", "--config", str(path)]
    return cli._resolve_config(cli._build_parser().parse_args(args))


TEMPLATE = {
    "id": "t1",
    "task_type": "generation",
    "input_pattern": "{text}",
    "target_pattern": "{label}",
    "language": "ind",
}
READER_RECORDS = {
    _read_records: {
        "id": "r",
        "fields": {"text": "x"},
        "label": "pos",
        "task_type": "classification",
        "language": "ind",
        "source": "s",
    },
    _ingest: {"id": "d", "text": "halo"},
    metrics.read_prediction_pairs: {"id": "p", "hypothesis": "a", "references": ["a", "b"]},
    metrics.read_labeled_pairs: {"id": "l", "predicted_label": "A", "gold_label": "B"},
    metrics.read_likelihood_pairs: {"id": "k", "benign_score": -1.5, "harmful_score": -2.5},
    metrics.read_mc1_items: {"id": "m", "option_scores": [0.1, 0.9], "gold_index": 1},
}
# name -> (load, valid payload, edited paths, (write, stored, error, line prefix))
LOADERS = {
    "read_task_records": (
        _read_records,
        READER_RECORDS[_read_records],
        [(), ("fields",), ("fields", "text"), ("label",), ("task_type",), ("language",),
         ("source",)],
        _jsonl_loader(_read_records),
    ),
    "ingest": (_ingest, READER_RECORDS[_ingest], [(), ("text",)], _jsonl_loader(_ingest)),
    "read_prediction_pairs": (
        metrics.read_prediction_pairs,
        READER_RECORDS[metrics.read_prediction_pairs],
        [(), ("hypothesis",), ("references",), ("references", 1)],
        _jsonl_loader(metrics.read_prediction_pairs),
    ),
    "read_labeled_pairs": (
        metrics.read_labeled_pairs,
        READER_RECORDS[metrics.read_labeled_pairs],
        [(), ("predicted_label",), ("gold_label",)],
        _jsonl_loader(metrics.read_labeled_pairs),
    ),
    "read_likelihood_pairs": (
        metrics.read_likelihood_pairs,
        READER_RECORDS[metrics.read_likelihood_pairs],
        [(), ("benign_score",), ("harmful_score",)],
        _jsonl_loader(metrics.read_likelihood_pairs),
    ),
    "read_mc1_items": (
        metrics.read_mc1_items,
        READER_RECORDS[metrics.read_mc1_items],
        [(), ("option_scores",), ("option_scores", 0), ("gold_index",)],
        _jsonl_loader(metrics.read_mc1_items),
    ),
    "plan": (
        collection.SamplingPlan.from_json_file,
        {
            "per_source": {"s": {"upsample_factor": 2, "cap": 3, "phase": "phase2"}},
            "target_totals": {"phase2": 5},
            "seed": 1,
        },
        [
            (),
            ("per_source",),
            ("per_source", "s"),
            ("per_source", "s", "upsample_factor"),
            ("per_source", "s", "cap"),
            ("per_source", "s", "phase"),
            ("target_totals",),
            ("target_totals", "phase2"),
            ("seed",),
        ],
        _json_loader(PlanError, lambda plan: plan.to_json_dict()),
    ),
    "templates": (
        collection.TemplateRegistry.from_json_file,
        [TEMPLATE, dict(TEMPLATE, id="t2")],
        [(), (1,)] + [(1, key) for key in TEMPLATE],
        _json_loader(PlanError, _templates),
    ),
    "score config": (
        _score_config,
        {"metric": "chrf_pp", "predictions": "p.jsonl", "char_order": 3, "beta": 2.0, "seed": 1},
        [(), ("metric",), ("predictions",), ("char_order",), ("beta",), ("seed",)],
        _json_loader(ConfigError, lambda config: config),
    ),
    "tokenizer-train config": (
        _train_config,
        {
            "corpus": "c.txt",
            "language": "ind",
            "source": "s",
            "format": "plain_lines",
            "vocab_size": 300,
            "special_tokens": ["pad", "eos", "unk"],
            "threads": 1,
        },
        [
            ("corpus",),
            ("language",),
            ("source",),
            ("format",),
            ("vocab_size",),
            ("special_tokens",),
            ("special_tokens", 0),
            ("threads",),
        ],
        _json_loader(ConfigError, lambda config: config),
    ),
    "tokenizer model": (
        tokenizer.load_model,
        _model_payload(),
        [
            (),
            ("version",),
            ("special_tokens",),
            ("special_tokens", "pad"),
            ("pieces",),
            ("pieces", 0),
            ("merges",),
            ("merges", 0),
            ("merges", 0, 1),
        ],
        _json_loader(ValueError, lambda model: json.loads(tokenizer.serialize_model(model))),
    ),
}

_SCALARS = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-(2**53), 2**53),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=4),
}
_ANY = st.recursive(
    st.one_of(*_SCALARS.values()),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
JSON_VALUES = {
    **_SCALARS,
    list: st.lists(_ANY, max_size=3),
    dict: st.dictionaries(st.text(max_size=3), _ANY, max_size=3),
}


def _get(value, path):
    for key in path:
        value = value[key]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_other_json_type_is_rejected_or_kept(name, data):
    load, payload, paths, (write, stored, error, line) = LOADERS[name]
    path = data.draw(st.sampled_from(paths), label="path")
    original = _get(payload, path)
    kind = data.draw(st.sampled_from([t for t in JSON_VALUES if t is not type(original)]))
    value = data.draw(JSON_VALUES[kind], label="value")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "input.json"
        write(target, _replaced(payload, path, value))
        try:
            result = load(target)
        except error as exc:
            assert type(exc) is error
            assert str(exc).startswith(f"{target}: {line}"), str(exc)
            return
    kept = _get(stored(result), path)
    assert kept == value and type(kept) is type(value)


def _write_jsonl(path, *records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


@pytest.mark.parametrize(
    "read, record, message",
    [
        (metrics.read_labeled_pairs, {"predicted_label": None, "gold_label": "None"},
         "predicted_label must be a string, got None"),
        (metrics.read_mc1_items, {"option_scores": [0.1, 0.9], "gold_index": 1.9},
         "gold_index must be an integer, got 1.9"),
        (metrics.read_likelihood_pairs, {"benign_score": "1.5", "harmful_score": 0.5},
         "benign_score must be a number, got '1.5'"),
        (metrics.read_likelihood_pairs, {"benign_score": 0.5, "harmful_score": True},
         "harmful_score must be a number, got True"),
        (metrics.read_prediction_pairs, {"hypothesis": "a", "references": ["a", None]},
         "references[1] must be a string, got None"),
        (_read_records, {"fields": {"text": "x"}, "task_type": "generation", "source": None},
         "source must be a string, got None"),
    ],
    ids=["null-label", "float-gold-index", "string-score", "bool-score", "null-reference",
         "null-source"],
)
def test_coerced_record_field_names_line(tmp_path, read, record, message):
    path = tmp_path / "input.jsonl"
    _write_jsonl(path, dict(record, id="2"))
    with pytest.raises(IngestError) as caught:
        read(path)
    assert str(caught.value) == f"{path}: line 1: {message}"


@pytest.fixture()
def train_config(tmp_path):
    corpus_path = tmp_path / "c.txt"
    corpus_path.write_text("aaaa abab ab\n" * 3, encoding="utf-8")
    return {"corpus": str(corpus_path), "language": "ind", "vocab_size": 262}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"vocab_size": 300.9}, "vocab_size must be an integer, got 300.9"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 5.7}, "seed must be an integer, got 5.7"),
        ({"threads": "2"}, "threads must be an integer, got '2'"),
        ({"special_tokens": ["pad", "eos", "unk", 1]}, "special_tokens[3] must be a string, got 1"),
        ({"threads": 0}, "threads must be >= 1"),
    ],
    ids=["float-vocab-size", "bool-seed", "float-seed", "string-threads", "int-special",
         "zero-threads"],
)
def test_coerced_config_field_names_file(tmp_path, capsys, train_config, change, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(train_config, **change)), encoding="utf-8")
    assert main(["tokenizer-train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {cfg}: {message}\n" == capsys.readouterr().err
    assert not (tmp_path / "out" / "tokenizer.json").exists()


def test_threads_flag_below_one_names_flag(tmp_path, capsys, train_config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(train_config), encoding="utf-8")
    argv = ["tokenizer-train", "--config", str(cfg), "--threads", "0", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --threads must be >= 1\n"


def test_corpus_entry_source_must_be_string(tmp_path, capsys, train_config):
    cfg = tmp_path / "cfg.json"
    entry = {"path": train_config["corpus"], "source": None}
    cfg.write_text(json.dumps(dict(train_config, corpus=[entry])), encoding="utf-8")
    assert main(["tokenizer-train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: {cfg}: corpus entry {entry!r}: source must be a string, got None" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: dict(p, merges=[[float(l), r] for l, r in p["merges"]]),
         "merge[0] must be an integer, got "),
        (lambda p: dict(p, version=True), "version must be an integer, got True"),
        (lambda p: dict(p, special_tokens=dict(p["special_tokens"], pad=0.0)),
         "special_tokens['pad'] must be an integer, got 0.0"),
        (lambda p: dict(p, merges=[[3, 4, 5]] + p["merges"][1:]),
         "merge 0 must be a pair of integers, got [3, 4, 5]"),
        (lambda p: dict(p, merges=[[3]] + p["merges"][1:]),
         "merge 0 must be a pair of integers, got [3]"),
    ],
    ids=["float-merge-ids", "bool-version", "float-special-id", "three-id-merge", "one-id-merge"],
)
def test_coerced_model_field_names_file(tmp_path, edit, message):
    path = tmp_path / "tokenizer.json"
    path.write_text(json.dumps(edit(_model_payload())), encoding="utf-8")
    with pytest.raises(ValueError, match="malformed model file") as caught:
        tokenizer.load_model(path)
    assert str(caught.value).startswith(f"{path}: malformed model file: {message}")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: dict(p, version=2), "model version must be 1, got 2"),
        (lambda p: dict(p, version=0), "model version must be 1, got 0"),
        (lambda p: dict(p, special_tokens={"x": 0, "eos": 1, "unk": 2}),
         "special tokens ['pad'] are required"),
    ],
    ids=["version-above", "version-below", "pad-missing"],
)
def test_model_train_bpe_cannot_write_names_file(tmp_path, edit, message):
    path = tmp_path / "tokenizer.json"
    path.write_text(json.dumps(edit(_model_payload())), encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        tokenizer.load_model(path)
    assert str(caught.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "piece, reason",
    [
        ("YQ", "Incorrect padding"),
        ("!!", "Only base64 data is allowed"),
        ("YQ=", "Incorrect padding"),
        ("YQ==YQ==", "Excess data after padding"),
        ("Y Q==", "Only base64 data is allowed"),
        ("====", "Leading padding not allowed"),
        ("YWJjZ", "Invalid base64-encoded string: number of data characters (5) "
                  "cannot be 1 more than a multiple of 4"),
        ("Yé==", "string argument should contain only ASCII characters"),
    ],
    ids=["unpadded", "not-base64", "short-padding", "after-padding", "inner-space",
         "leading-padding", "one-char-remainder", "non-ascii"],
)
def test_model_bad_base64_piece_names_index(tmp_path, piece, reason):
    payload = _model_payload()
    payload["pieces"][0] = piece
    path = tmp_path / "tokenizer.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        tokenizer.load_model(path)
    prefix = f"{path}: malformed model file: pieces[0] is not valid base64: "
    assert str(caught.value) == prefix + reason


def test_score_options_reach_metric_unconverted(tmp_path, monkeypatch):
    preds = tmp_path / "preds.jsonl"
    _write_jsonl(preds, {"id": "1", "hypothesis": "kucing makan", "references": ["kucing tidur"]})
    seen = {}
    original = metrics.chrf_pp

    def spy(pairs, **options):
        seen.update(options)
        return original(pairs, **options)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"metric": "chrf_pp", "predictions": str(preds), "beta": 1, "char_order": 3}),
        encoding="utf-8",
    )
    monkeypatch.setattr(metrics, "chrf_pp", spy)
    assert main(["score", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert seen == {"beta": 1, "char_order": 3}
    assert type(seen["beta"]) is int
