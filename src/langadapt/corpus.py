"""Corpus ingestion, text normalization, and JSON field types.

Raw corpora arrive either as plain text (one document per line) or as JSON
lines with a required ``"text"`` field. Documents are NFC-normalized and
trimmed on ingestion so that downstream tokenizer training and token
statistics are reproducible. Malformed records fail fast; corpus builds must
be auditable, so nothing is skipped except empty lines. Every decoded JSON
value a loader reads is checked with :func:`_typed` and kept as given;
nothing is converted. Corpora, task records and the model outputs
:mod:`metrics` scores are JSON lines read by one loop, :func:`_read_jsonl`;
its callers only build items. All JSON goes through one decoder, which
rejects ``NaN`` and ``Infinity``.
"""

from __future__ import annotations

import json
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

__all__ = [
    "CorpusDocument",
    "IngestError",
    "TaskRecord",
    "TaskType",
    "ingest",
    "read_task_records",
]

PLAIN_LINES = "plain_lines"
JSON_LINES = "json_lines"
_FORMATS = (PLAIN_LINES, JSON_LINES)


class TaskType(str, Enum):
    """Task families a dataset record can belong to."""

    CLASSIFICATION = "classification"
    TRANSLATION = "translation"
    SUMMARIZATION = "summarization"
    QUESTION_ANSWERING = "question_answering"
    PARAPHRASING = "paraphrasing"
    GENERATION = "generation"


class IngestError(ValueError):
    """Malformed corpus input; the message names the offending line."""


def _check_language(code: str) -> None:
    ascii3 = isinstance(code, str) and len(code) == 3 and code.isascii()
    if not ascii3 or not code.isalpha() or not code.islower():
        raise ValueError(f"language must be a lowercase 3-letter code, got {code!r}")


def _check_format(format: str) -> None:
    if format not in _FORMATS:
        raise ValueError(f"unknown corpus format {format!r}; expected one of {_FORMATS}")


@dataclass(frozen=True)
class CorpusDocument:
    """One unit of raw text, uniquely identified by (source, id)."""

    id: str
    text: str
    language: str
    source: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if not self.source:
            raise ValueError("document source must be non-empty")
        _check_language(self.language)


@dataclass(frozen=True)
class TaskRecord:
    """One row of a task dataset: named string slots plus an optional label.

    By convention classification records carry a ``text`` slot and a label,
    and translation records carry both a ``src`` and a ``tgt`` slot. The
    ``fields`` mapping is treated as immutable after construction.
    """

    id: str
    fields: dict[str, str]
    label: str | None
    task_type: TaskType
    language: str
    source: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("record id must be non-empty")
        if not self.source:
            raise ValueError("record source must be non-empty")
        _check_language(self.language)
        object.__setattr__(self, "task_type", TaskType(self.task_type))
        # Slots, label and source are written out, so each must encode as UTF-8.
        _encodable(self.source, "source")
        for key, value in self.fields.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError(f"record {self.id!r}: slots must map str to str")
            _encodable(value, f"slot {key!r}")
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"record {self.id!r}: label must be a string or null")
        _encodable(self.label or "", "label")
        if self.task_type is TaskType.CLASSIFICATION and not self.label:
            raise ValueError(f"classification record {self.id!r} has no label")
        if self.task_type is TaskType.TRANSLATION:
            if "src" not in self.fields or "tgt" not in self.fields:
                raise ValueError(
                    f"translation record {self.id!r} must carry 'src' and 'tgt' slots"
                )


# kind -> (the exact Python types ``json`` decodes a value of that kind to,
# and the kind of each item for a list kind).
_KINDS = {
    "a string": ({str}, None),
    "an integer": ({int}, None),
    "a number": ({int, float}, None),
    "a list": ({list}, None),
    "a JSON object": ({dict}, None),
    "a string or an integer": ({str, int}, None),
    "a string or a list": ({str, list}, None),
    "a list of strings": ({list}, "a string"),
    "a list of integers": ({list}, "an integer"),
    "a list of numbers": ({list}, "a number"),
}


def _typed(value, kind: str, what: str):
    """``value`` unchanged if its JSON type is ``kind``, a key of ``_KINDS``.

    Anything else raises ``ValueError("<what> must be <kind>, got <value!r>")``,
    naming the first bad item of a list kind as ``<what>[<index>]``; callers
    add the file (and line). Types must match exactly, so a bool is never a
    number, and one pass over the item types decides a list.
    """
    types, item_kind = _KINDS[kind]
    if type(value) not in types:
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    if item_kind is not None and not _KINDS[item_kind][0].issuperset(map(type, value)):
        for index, item in enumerate(value):
            _typed(item, item_kind, f"{what}[{index}]")
    return value


def _object(value, keys, what: str) -> dict:
    """``value`` unchanged if it is a JSON object with no key outside ``keys``."""
    unknown = sorted(_typed(value, "a JSON object", what).keys() - set(keys))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    return value


def _encodable(text: str, what: str) -> str:
    """``text`` unchanged unless it holds a lone surrogate (JSON's ``\\ud800`` escape
    decodes to one), which no UTF-8 writer or encoder accepts."""
    if not text.isascii():  # an O(1) flag test, so ASCII ids and texts cost no encode
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{what} has a lone surrogate at index {exc.start}") from None
    return text


def _invalid_utf8(path, lineno: int, exc: UnicodeDecodeError) -> IngestError:
    return IngestError(f"{path}: line {lineno}: invalid UTF-8 at byte {exc.start}: {exc.reason}")


def _read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each line of a UTF-8 file, 1-based.

    Lines end at ``"\n"`` only, so a bare ``"\r"`` stays inside its line. A
    line that is not valid UTF-8 raises :class:`IngestError` naming the file,
    the line and the byte offset within it.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _invalid_utf8(path, lineno, exc) from exc
            yield lineno, line


def _batches(items: Iterable, cost: Callable[..., int], budget: int) -> Iterator[list]:
    """Consecutive runs of ``items`` whose costs sum to at most ``budget``; an
    item above the budget is a run of its own."""
    batch: list = []
    size = 0
    for item in items:
        spent = cost(item)
        if batch and size + spent > budget:
            yield batch
            batch, size = [], 0
        batch.append(item)
        size += spent
    if batch:
        yield batch


def _no_constant(token: str):
    raise ValueError(f"invalid JSON: {token} is not a JSON number")


# The one decoder for all JSON input; json.loads with an argument makes one per call.
_JSON = json.JSONDecoder(parse_constant=_no_constant)


def _load_json(path, error: type[ValueError]):
    """Load a whole JSON file; bad UTF-8, syntax, nesting too deep for the parser
    or a lone surrogate raises ``error`` naming it."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        text = raw.decode("utf-8")
        value = _JSON.decode(text)
        # UTF-8 holds no surrogate, only an escape can: no backslash, no walk.
        if "\\" in text:
            _encodable_json(value, "")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:  # from the parser or the surrogate walk
        raise error(f"{path}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc
    return value


def _encodable_json(value, what: str) -> None:
    """:func:`_encodable` on each key and string in ``value``, at subscript path ``what``."""
    if isinstance(value, str):
        _encodable(value, what or "value")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _encodable_json(item, f"{what}[{index}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            _encodable(key, f"key {key!r} in {what}" if what else f"key {key!r}")
            _encodable_json(item, f"{what}[{key!r}]" if what else key)


def _read_jsonl(path, make, what: str | None = None) -> Iterator:
    """Yield ``make(record, id)`` for each non-blank line, a JSON object, in order.

    An ``"id"`` is a non-empty string or an integer, passed on as a string.
    Items of a kind with a source (``what``: "document" or "record") default
    it to the 0-based line number and are unique by (source, id) among those
    kept (``make`` returns ``None`` to skip one); model outputs need an id,
    unique on its own and checked before ``make``. Errors raise
    :class:`IngestError` naming the file and line; a ``KeyError`` from
    ``make`` reads ``missing key '<key>'``.
    """
    # Ids by source (None for model outputs): (source, id) tuples took 1.4x the memory.
    seen: defaultdict[str | None, set[str]] = defaultdict(set)
    output_ids = seen[None]
    scan = _JSON.scan_once  # what raw_decode calls, without its wrapper
    # Lines as _read_lines splits them, in this loop: a generator per line cost more.
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                payload = raw.decode("utf-8").strip()
                if not payload:
                    continue
                try:
                    record, end = scan(payload, 0)
                except StopIteration as exc:  # the one error raw_decode words itself
                    raise json.JSONDecodeError("Expecting value", payload, exc.value) from None
                # The payload is already stripped, so trailing data is checked here.
                if end != len(payload):
                    raise json.JSONDecodeError("Extra data", payload, end)
                if not isinstance(record, dict):
                    raise ValueError("record must be an object")
                if "id" in record:
                    record_id = record["id"]
                    if type(record_id) is not str:
                        record_id = str(_typed(record_id, "a string or an integer", "id"))
                    if not _encodable(record_id, "id"):
                        raise ValueError("id must be a non-empty string or an integer, got ''")
                elif what:
                    record_id = str(lineno - 1)
                else:
                    raise ValueError("record has no 'id'")
                if what is None:
                    if record_id in output_ids:
                        raise ValueError(f"duplicate id {record_id!r}")
                    output_ids.add(record_id)
                item = make(record, record_id)
                if item is None:
                    continue
                if what is not None:
                    ids = seen[item.source]
                    if record_id in ids:
                        where = f"for source {item.source!r}"
                        raise ValueError(f"duplicate {what} id {record_id!r} {where}")
                    ids.add(record_id)
            except UnicodeDecodeError as exc:
                raise _invalid_utf8(path, lineno, exc) from exc
            except json.JSONDecodeError as exc:
                raise IngestError(f"{path}: line {lineno}: invalid JSON: {exc.msg}") from exc
            except RecursionError as exc:
                message = "invalid JSON: nested too deeply"
                raise IngestError(f"{path}: line {lineno}: {message}") from exc
            except KeyError as exc:
                raise IngestError(f"{path}: line {lineno}: missing key {exc}") from exc
            except ValueError as exc:
                raise IngestError(f"{path}: line {lineno}: {exc}") from exc
            yield item


def ingest(
    path,
    format: str = PLAIN_LINES,
    *,
    language: str,
    source: str,
) -> Iterator[CorpusDocument]:
    """Stream documents from a corpus file, one per non-empty line or record.

    Text is NFC-normalized and trimmed; lines that are empty after trimming
    are skipped. JSON lines must be objects with a ``"text"`` field and an
    optional string or integer ``"id"``; a missing id defaults to the 0-based
    line number as a decimal string (plain lines are numbered the same way).
    Lines end at ``"\n"`` only. Invalid UTF-8 and malformed records raise
    :class:`IngestError` naming the 1-based line.
    """
    _check_format(format)
    if format == PLAIN_LINES:  # ids are line numbers, never repeated
        for lineno, line in _read_lines(path):
            text = unicodedata.normalize("NFC", line).strip()
            if not text:
                continue
            yield CorpusDocument(id=str(lineno - 1), text=text, language=language, source=source)
    else:

        def make(record: dict, doc_id: str) -> CorpusDocument | None:
            text = _encodable(_typed(record.get("text"), "a string", "text"), "text")
            text = unicodedata.normalize("NFC", text).strip()
            if not text:
                return None
            return CorpusDocument(id=doc_id, text=text, language=language, source=source)

        yield from _read_jsonl(path, make, "document")


def read_task_records(
    path,
    *,
    language: str | None = None,
    source: str,
) -> Iterator[TaskRecord]:
    """Stream task records from a JSON-lines file.

    Each line is an object with a ``"fields"`` mapping and a ``"task_type"``;
    ``"id"`` (a string or an integer), ``"label"`` and ``"language"`` are
    optional (a record-level language overrides the default passed here).
    Slot values are kept as given and must be strings; a label must be a
    string or null. (source, id) pairs must be unique within the file.
    """

    def make(record: dict, record_id: str) -> TaskRecord:
        lang = record.get("language", language)
        if lang is None:
            raise ValueError("record has no language and no default was given")
        return TaskRecord(
            id=record_id,
            fields=_typed(record.get("fields", {}), "a JSON object", "fields"),
            label=record.get("label"),
            task_type=TaskType(record.get("task_type", "")),
            language=lang,
            source=_typed(record.get("source", source), "a string", "source"),
        )

    return _read_jsonl(path, make, "record")
