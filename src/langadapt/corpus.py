"""Corpus ingestion, text normalization, and per-language counting.

Raw corpora arrive either as plain text (one document per line) or as JSON
lines with a required ``"text"`` field. Documents are NFC-normalized and
trimmed on ingestion so that downstream tokenizer training and token
statistics are reproducible. Malformed records fail fast; corpus builds must
be auditable, so nothing is silently skipped except empty lines (which are
counted).
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

__all__ = [
    "CorpusDocument",
    "IngestError",
    "IngestStats",
    "LanguageStats",
    "TaskRecord",
    "TaskType",
    "corpus_stats",
    "ingest",
    "merge_stats",
    "normalize",
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
        for key, value in self.fields.items():
            if not isinstance(key, str) or not isinstance(value, str):
                raise ValueError(f"record {self.id!r}: slots must map str to str")
        if self.label is not None and not isinstance(self.label, str):
            raise ValueError(f"record {self.id!r}: label must be a string or null")
        if self.task_type is TaskType.CLASSIFICATION and not self.label:
            raise ValueError(f"classification record {self.id!r} has no label")
        if self.task_type is TaskType.TRANSLATION:
            if "src" not in self.fields or "tgt" not in self.fields:
                raise ValueError(
                    f"translation record {self.id!r} must carry 'src' and 'tgt' slots"
                )


def normalize(text: str) -> str:
    """NFC-normalize, collapse whitespace runs to single ASCII spaces, trim.

    Idempotent, and never increases the codepoint count beyond what NFC
    composition itself does.
    """
    return " ".join(unicodedata.normalize("NFC", text).split())


def _parse_json_line(path, lineno: int, line: str) -> dict | None:
    """Parse one JSON-lines record: ``None`` for a blank line, else an object.

    Invalid JSON and non-object values raise :class:`IngestError` naming the
    file and the 1-based ``lineno``.
    """
    payload = line.strip()
    if not payload:
        return None
    try:
        record = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: line {lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(record, dict):
        raise IngestError(f"{path}: line {lineno}: record must be an object")
    return record


def _record_id(path, lineno: int, value) -> str:
    """A JSON-lines record id as a string: a string as given, an integer in decimal.

    Any other value (``null``, a float, a bool, ...) raises :class:`IngestError`
    naming the file and the 1-based ``lineno``.
    """
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise IngestError(
            f"{path}: line {lineno}: id must be a string or an integer, got {value!r}"
        )
    return str(value)


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
                raise IngestError(
                    f"{path}: line {lineno}: invalid UTF-8 at byte {exc.start}: {exc.reason}"
                ) from exc
            yield lineno, line


def _load_json(path, error: type[ValueError]):
    """Load a whole JSON file; bad UTF-8 or syntax raises ``error`` naming the file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


@dataclass
class IngestStats:
    """Mutable counters filled in while an ingest stream is consumed."""

    lines_read: int = 0
    documents: int = 0
    skipped_empty: int = 0


def ingest(
    path,
    format: str = PLAIN_LINES,
    *,
    language: str,
    source: str,
    stats: IngestStats | None = None,
) -> Iterator[CorpusDocument]:
    """Stream documents from a corpus file, one per non-empty line or record.

    Text is NFC-normalized and trimmed; lines that are empty after trimming
    are skipped and counted in ``stats``. JSON lines must be objects with a
    ``"text"`` field and an optional string or integer ``"id"``; a missing id
    defaults to the 0-based line number as a decimal string (plain lines are
    numbered the same way). Lines end at ``"\n"`` only. Invalid UTF-8 and
    malformed records raise :class:`IngestError` naming the 1-based line.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown corpus format {format!r}; expected one of {_FORMATS}")
    if stats is None:
        stats = IngestStats()
    seen: set[str] = set()
    for lineno, line in _read_lines(path):
        stats.lines_read += 1
        if format == PLAIN_LINES:
            doc_id = str(lineno - 1)
            text = line
        else:
            record = _parse_json_line(path, lineno, line)
            if record is None:
                stats.skipped_empty += 1
                continue
            text = record.get("text")
            if not isinstance(text, str):
                raise IngestError(f"{path}: line {lineno}: record has no string 'text'")
            doc_id = _record_id(path, lineno, record.get("id", lineno - 1))
        text = unicodedata.normalize("NFC", text).strip()
        if not text:
            stats.skipped_empty += 1
            continue
        if doc_id in seen:
            raise IngestError(
                f"{path}: line {lineno}: duplicate document id {doc_id!r} for source {source!r}"
            )
        seen.add(doc_id)
        stats.documents += 1
        yield CorpusDocument(id=doc_id, text=text, language=language, source=source)


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
    seen: set[tuple[str, str]] = set()
    for lineno, line in _read_lines(path):
        record = _parse_json_line(path, lineno, line)
        if record is None:
            continue
        record_id = _record_id(path, lineno, record.get("id", lineno - 1))
        try:
            fields = record.get("fields", {})
            if not isinstance(fields, dict):
                raise ValueError("'fields' must be an object")
            lang = record.get("language", language)
            if lang is None:
                raise ValueError("record has no language and no default was given")
            rec = TaskRecord(
                id=record_id,
                fields=fields,
                label=record.get("label"),
                task_type=TaskType(record.get("task_type", "")),
                language=lang,
                source=str(record.get("source", source)),
            )
        except ValueError as exc:
            raise IngestError(f"{path}: line {lineno}: {exc}") from exc
        key = (rec.source, rec.id)
        if key in seen:
            raise IngestError(
                f"{path}: line {lineno}: duplicate record id {rec.id!r} for source {rec.source!r}"
            )
        seen.add(key)
        yield rec


@dataclass(frozen=True)
class LanguageStats:
    """Exact counts for one language within a document stream."""

    doc_count: int = 0
    whitespace_word_count: int = 0
    codepoint_count: int = 0


def corpus_stats(docs: Iterable[CorpusDocument]) -> dict[str, LanguageStats]:
    """Count documents, whitespace-delimited words, and codepoints per language.

    A word is a maximal non-whitespace run. Totals are invariant under any
    permutation of the input stream.
    """
    acc: dict[str, list[int]] = {}
    for doc in docs:
        entry = acc.setdefault(doc.language, [0, 0, 0])
        entry[0] += 1
        entry[1] += len(doc.text.split())
        entry[2] += len(doc.text)
    return {lang: LanguageStats(*entry) for lang, entry in sorted(acc.items())}


def merge_stats(
    a: dict[str, LanguageStats], b: dict[str, LanguageStats]
) -> dict[str, LanguageStats]:
    """Associatively merge two partial count maps (for sharded counting)."""
    merged: dict[str, LanguageStats] = {}
    for lang in sorted(set(a) | set(b)):
        left = a.get(lang, LanguageStats())
        right = b.get(lang, LanguageStats())
        merged[lang] = LanguageStats(
            left.doc_count + right.doc_count,
            left.whitespace_word_count + right.whitespace_word_count,
            left.codepoint_count + right.codepoint_count,
        )
    return merged
