import json

import pytest

from langadapt import corpus, metrics
from langadapt.corpus import (
    CorpusDocument,
    IngestError,
    TaskRecord,
    TaskType,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngestPlainLines:
    def test_trims_and_skips_empty(self, tmp_path):
        path = tmp_path / "corpus.txt"
        write_lines(path, ["halo", "", " dunia "])
        docs = list(corpus.ingest(path, language="ind", source="demo"))
        assert [d.text for d in docs] == ["halo", "dunia"]

    def test_ids_are_line_numbers(self, tmp_path):
        path = tmp_path / "corpus.txt"
        write_lines(path, ["a", "", "b"])
        docs = list(corpus.ingest(path, language="ind", source="demo"))
        assert [d.id for d in docs] == ["0", "2"]

    def test_deterministic(self, tmp_path):
        path = tmp_path / "corpus.txt"
        write_lines(path, ["satu dua", "tiga", "  ", "empat"])
        first = list(corpus.ingest(path, language="ind", source="demo"))
        second = list(corpus.ingest(path, language="ind", source="demo"))
        assert first == second

    def test_bare_carriage_return_stays_in_document(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"line one\rstill one\n")
        docs = list(corpus.ingest(path, language="ind", source="demo"))
        assert [d.text for d in docs] == ["line one\rstill one"]

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"satu\r\ndua\r\n")
        docs = list(corpus.ingest(path, language="ind", source="demo"))
        assert [(d.id, d.text) for d in docs] == [("0", "satu"), ("1", "dua")]

    @pytest.mark.parametrize("format", ["plain_lines", "json_lines"])
    def test_invalid_utf8_names_line(self, tmp_path, format):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b'{"text": "a"}\n{"text": "b\xff"}\n')
        with pytest.raises(IngestError, match=r"corpus\.txt: line 2: invalid UTF-8 at byte 11"):
            list(corpus.ingest(path, format, language="ind", source="demo"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError) as excinfo:
            list(corpus.ingest(tmp_path / "nope.txt", language="ind", source="demo"))
        assert "nope.txt" in str(excinfo.value)


class TestIngestJsonLines:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"text": "abc"})])
        (doc,) = corpus.ingest(path, "json_lines", language="ind", source="demo")
        assert doc.text == "abc"
        assert doc.language == "ind"
        assert doc.id == "0"

    def test_trims_and_skips_empty(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"text": " halo "}), "", json.dumps({"text": "  "})])
        docs = list(corpus.ingest(path, "json_lines", language="ind", source="demo"))
        assert [(d.id, d.text) for d in docs] == [("0", "halo")]

    def test_explicit_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"text": "abc", "id": "doc-9"})])
        (doc,) = corpus.ingest(path, "json_lines", language="ind", source="demo")
        assert doc.id == "doc-9"

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"text": "a"}), "{not json", json.dumps({"text": "b"})])
        with pytest.raises(IngestError, match="line 2"):
            list(corpus.ingest(path, "json_lines", language="ind", source="demo"))

    def test_missing_text_field(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"body": "a"})])
        with pytest.raises(IngestError, match="line 1"):
            list(corpus.ingest(path, "json_lines", language="ind", source="demo"))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_lines(path, [json.dumps({"text": "a", "id": "x"}), json.dumps({"text": "b", "id": "x"})])
        with pytest.raises(IngestError, match="duplicate"):
            list(corpus.ingest(path, "json_lines", language="ind", source="demo"))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            list(corpus.ingest(tmp_path / "x", "csv", language="ind", source="demo"))


class TestTaskRecord:
    def test_classification_requires_label(self):
        with pytest.raises(ValueError, match="label"):
            TaskRecord(id="1", fields={"text": "x"}, label=None,
                       task_type=TaskType.CLASSIFICATION, language="ind", source="s")

    def test_translation_requires_both_slots(self):
        with pytest.raises(ValueError, match="src"):
            TaskRecord(id="1", fields={"src": "x"}, label=None,
                       task_type=TaskType.TRANSLATION, language="ind", source="s")

    def test_language_code_validated(self):
        with pytest.raises(ValueError, match="language"):
            CorpusDocument(id="1", text="x", language="IND", source="s")

    def test_read_task_records(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_lines(
            path,
            [
                json.dumps({"fields": {"text": "bagus"}, "label": "pos", "task_type": "classification"}),
                json.dumps({"fields": {"src": "halo", "tgt": "hello"}, "task_type": "translation", "id": "t1"}),
            ],
        )
        records = list(corpus.read_task_records(path, language="ind", source="demo"))
        assert [r.id for r in records] == ["0", "t1"]
        assert records[0].task_type is TaskType.CLASSIFICATION
        assert records[1].fields["tgt"] == "hello"

    def test_read_task_records_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        line = json.dumps({"fields": {"text": "x"}, "label": "pos", "task_type": "classification"})
        path.write_bytes(line.encode() + b"\n\n\xff\n")
        with pytest.raises(IngestError, match=r"records\.jsonl: line 3: invalid UTF-8"):
            list(corpus.read_task_records(path, language="ind", source="demo"))

    def test_read_task_records_bad_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_lines(path, [json.dumps({"fields": {"text": "x"}, "task_type": "classification"})])
        with pytest.raises(IngestError, match="line 1"):
            list(corpus.read_task_records(path, language="ind", source="demo"))

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"fields": {"text": None}, "task_type": "generation"}, "slots must map str to str"),
            ({"fields": {"text": 7}, "task_type": "generation"}, "slots must map str to str"),
            ({"fields": {"text": "x"}, "label": 7, "task_type": "classification"}, "label must be"),
        ],
    )
    def test_read_task_records_non_string_value_names_line(self, tmp_path, record, message):
        path = tmp_path / "records.jsonl"
        ok = json.dumps({"fields": {"text": "x"}, "task_type": "generation"})
        write_lines(path, [ok, json.dumps(record)])
        with pytest.raises(IngestError, match=rf"records\.jsonl: line 2: .*{message}"):
            list(corpus.read_task_records(path, language="ind", source="demo"))


# Each JSON-lines reader that takes an "id", with a record valid apart from its id.
ID_READERS = {
    "ingest": (
        lambda path: list(corpus.ingest(path, "json_lines", language="ind", source="demo")),
        {"text": "a"},
    ),
    "read_task_records": (
        lambda path: list(corpus.read_task_records(path, language="ind", source="demo")),
        {"fields": {"text": "x"}, "task_type": "generation"},
    ),
    "metrics": (metrics.read_labeled_pairs, {"predicted_label": "A", "gold_label": "B"}),
}


@pytest.mark.parametrize("reader", sorted(ID_READERS))
@pytest.mark.parametrize(
    "bad_id", [None, 1.0, True, ""], ids=["null", "float", "bool", "empty"]
)
def test_record_id_must_be_string_or_integer(tmp_path, reader, bad_id):
    read, record = ID_READERS[reader]
    path = tmp_path / "records.jsonl"
    write_lines(path, [json.dumps(dict(record, id="a")), json.dumps(dict(record, id=bad_id))])
    kind = "a non-empty string" if bad_id == "" else "a string"
    message = rf"records\.jsonl: line 2: id must be {kind} or an integer, got {bad_id!r}"
    with pytest.raises(IngestError, match=message):
        read(path)


@pytest.mark.parametrize("reader", sorted(ID_READERS))
def test_record_ids_as_strings_and_duplicates_name_line(tmp_path, reader):
    read, record = ID_READERS[reader]
    path = tmp_path / "records.jsonl"
    write_lines(path, [json.dumps(dict(record, id=7)), json.dumps(dict(record, id="x"))])
    assert [item.id for item in read(path)] == ["7", "x"]
    write_lines(path, [json.dumps(dict(record, id=7)), json.dumps(dict(record, id="7"))])
    with pytest.raises(IngestError, match=r"records\.jsonl: line 2: duplicate"):
        read(path)


@pytest.mark.parametrize("reader", sorted(ID_READERS))
def test_blank_lines_skipped(tmp_path, reader):
    read, record = ID_READERS[reader]
    path = tmp_path / "records.jsonl"
    write_lines(path, [json.dumps(dict(record, id="a")), "", " \t", json.dumps(dict(record, id=3))])
    assert [item.id for item in read(path)] == ["a", "3"]


@pytest.mark.parametrize("reader", sorted(ID_READERS))
@pytest.mark.parametrize(
    "line, message",
    [
        ("{not json", "invalid JSON: Expecting property name enclosed in double quotes"),
        ("[1, 2]", "record must be an object"),
        ('"text"', "record must be an object"),
        ("[" * 5000 + "]" * 5000, "invalid JSON: nested too deeply"),
        ('{"id": "b", "x": NaN}', "invalid JSON: NaN is not a JSON number"),
        ('{"id": "b", "x": [Infinity]}', "invalid JSON: Infinity is not a JSON number"),
        ('{"id": "b", "x": -Infinity}', "invalid JSON: -Infinity is not a JSON number"),
        ('{"id": "b"} {"id": "c"}', "invalid JSON: Extra data"),
        # The one message raw_decode builds itself, from the scanner's StopIteration.
        ("]", "invalid JSON: Expecting value"),
    ],
    ids=[
        "invalid",
        "list",
        "string",
        "nested",
        "nan",
        "infinity",
        "minus-infinity",
        "extra-data",
        "expecting-value",
    ],
)
def test_malformed_line_fails_alike_in_every_reader(tmp_path, reader, line, message):
    read, record = ID_READERS[reader]
    path = tmp_path / "records.jsonl"
    write_lines(path, [json.dumps(dict(record, id="a")), "", "  ", line])
    with pytest.raises(IngestError) as caught:
        read(path)
    assert str(caught.value) == f"{path}: line 4: {message}"
