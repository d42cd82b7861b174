"""Instruction corpus compilation.

Renders prompt templates over task records, applies per-source upsampling
factors and caps, partitions instances into the two tuning phases, and
subsamples phases to target sizes by source-stratified selection. Every
step is deterministic for fixed inputs and seed; template choice and
subsampling use stable SHA-256 derived hashes rather than process-dependent
randomness.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Sequence


from .corpus import TaskRecord, TaskType, _check_language, _load_json, _object, _typed

__all__ = [
    "CopyGroup",
    "InstanceStream",
    "InstructionInstance",
    "PHASE1_TASK_TYPES",
    "Phase",
    "PlanError",
    "PromptTemplate",
    "RenderError",
    "SamplingPlan",
    "SourcePlan",
    "TemplateRegistry",
    "build_collection",
    "render_template",
    "split_phases",
    "subsample_to_target",
    "write_instances_jsonl",
]


class Phase(str, Enum):
    PHASE1 = "phase1"
    PHASE2 = "phase2"


# Phase 1 is reserved for NLP task-style instances; generation-style prompts
# (knowledge and human-centric prompts) are phase 2.
PHASE1_TASK_TYPES = frozenset(
    {
        TaskType.CLASSIFICATION,
        TaskType.TRANSLATION,
        TaskType.SUMMARIZATION,
        TaskType.QUESTION_ANSWERING,
        TaskType.PARAPHRASING,
    }
)

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _field_names(cls) -> list[str]:
    return [field.name for field in fields(cls)]


class RenderError(ValueError):
    """A template could not be rendered against a record."""


class PlanError(ValueError):
    """A plan or template file is not valid JSON, or records do not fit them."""


@dataclass(frozen=True)
class PromptTemplate:
    """A parameterized instruction pattern with ``{slot}`` placeholders."""

    id: str
    task_type: TaskType
    input_pattern: str
    target_pattern: str
    language: str

    def __post_init__(self) -> None:
        if not _typed(self.id, "a string", "template id"):
            raise ValueError("template id must be a non-empty string")
        _typed(self.input_pattern, "a string", f"template {self.id!r}: input_pattern")
        _typed(self.target_pattern, "a string", f"template {self.id!r}: target_pattern")
        object.__setattr__(self, "task_type", TaskType(self.task_type))
        _check_language(self.language)


@dataclass(frozen=True)
class InstructionInstance:
    """One rendered (input, target) training example with its metadata."""

    input: str
    target: str
    task_type: TaskType
    language: str
    source: str
    template_id: str
    phase: Phase
    copy_index: int = 0

    def __post_init__(self) -> None:
        if not self.input or not self.target:
            raise ValueError("instance input and target must be non-empty")
        object.__setattr__(self, "task_type", TaskType(self.task_type))
        object.__setattr__(self, "phase", Phase(self.phase))
        if self.copy_index < 0:
            raise ValueError("copy_index must be >= 0")
        if self.phase is Phase.PHASE1 and self.task_type not in PHASE1_TASK_TYPES:
            raise ValueError(
                f"phase1 instances must have an NLP task type, got {self.task_type.value!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "input": self.input,
            "target": self.target,
            "task_type": self.task_type.value,
            "language": self.language,
            "source": self.source,
            "template_id": self.template_id,
            "phase": self.phase.value,
            "copy_index": self.copy_index,
        }


class CopyGroup(NamedTuple):
    """One rendered record and the ascending copy indices of it in a stream."""

    instance: InstructionInstance
    copies: Sequence[int]


class InstanceStream:
    """Instances in stream order, held as copy groups.

    ``len`` counts copies, and iterating yields every copy as an instance.
    The pipeline below (:func:`split_phases`, :func:`subsample_to_target`,
    :func:`write_instances_jsonl`) works on ``groups`` and never builds the
    copies, so its memory follows the records, not the upsampled stream.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: tuple[CopyGroup, ...]):
        self.groups = groups

    def __len__(self) -> int:
        return sum(len(group.copies) for group in self.groups)

    def __iter__(self) -> Iterator[InstructionInstance]:
        for instance, copies in self.groups:
            for copy_index in copies:
                if copy_index == instance.copy_index:
                    yield instance
                else:
                    yield replace(instance, copy_index=copy_index)


class TemplateRegistry:
    """Templates grouped by task type, id-sorted within each task."""

    def __init__(self, templates: Iterable[PromptTemplate]):
        ids: set[str] = set()
        by_task: dict[TaskType, list[PromptTemplate]] = {}
        for index, template in enumerate(templates):
            if template.id in ids:
                raise ValueError(f"template {index}: duplicate template id {template.id!r}")
            ids.add(template.id)
            by_task.setdefault(template.task_type, []).append(template)
        self._by_task = {
            task: tuple(sorted(group, key=lambda t: t.id)) for task, group in by_task.items()
        }

    def for_task(self, task_type: TaskType) -> tuple[PromptTemplate, ...]:
        return self._by_task.get(task_type, ())

    @classmethod
    def from_json_file(cls, path) -> "TemplateRegistry":
        """Load a JSON array of template objects; a bad entry's error names its index."""
        entries = _load_json(path, PlanError)
        if not isinstance(entries, list):
            raise PlanError(f"{path}: template file must contain a JSON array")
        keys = _field_names(PromptTemplate)
        templates = []
        for index, entry in enumerate(entries):
            try:
                entry = _object(entry, keys, "template")
                templates.append(PromptTemplate(**{key: entry[key] for key in keys}))
            except KeyError as exc:
                raise PlanError(f"{path}: template {index}: missing key {exc}") from exc
            except ValueError as exc:
                raise PlanError(f"{path}: template {index}: {exc}") from exc
        try:
            return cls(templates)
        except ValueError as exc:
            raise PlanError(f"{path}: {exc}") from exc


def render_template(
    template: PromptTemplate,
    record: TaskRecord,
    phase: Phase = Phase.PHASE1,
) -> InstructionInstance:
    """Substitute record slots into the template patterns, verbatim.

    Slot values are inserted as-is (they are never re-scanned for
    placeholders). A referenced slot missing from the record raises
    :class:`RenderError` naming the slot and the template.
    """
    if record.task_type != template.task_type:
        raise RenderError(
            f"template {template.id!r} is for {template.task_type.value!r} records, "
            f"got {record.task_type.value!r}"
        )

    def substitute(pattern: str) -> str:
        def repl(match: re.Match) -> str:
            slot = match.group(1)
            if slot not in record.fields:
                raise RenderError(
                    f"template {template.id!r}: record {record.id!r} missing slot {slot!r}"
                )
            return record.fields[slot]

        return _PLACEHOLDER_RE.sub(repl, pattern)

    return InstructionInstance(
        input=substitute(template.input_pattern),
        target=substitute(template.target_pattern),
        task_type=record.task_type,
        language=record.language,
        source=record.source,
        template_id=template.id,
        phase=phase,
    )


@dataclass(frozen=True)
class SourcePlan:
    """Per-source replication factor, optional record cap, and phase."""

    upsample_factor: int = 1
    cap: int | None = None
    phase: Phase = Phase.PHASE1

    def __post_init__(self) -> None:
        if _typed(self.upsample_factor, "an integer", "upsample_factor") < 1:
            raise ValueError("upsample_factor must be >= 1")
        if self.cap is not None and _typed(self.cap, "an integer", "cap") < 1:
            raise ValueError("cap must be >= 1 when set")
        object.__setattr__(self, "phase", Phase(self.phase))

    def to_json_dict(self) -> dict:
        return {
            "upsample_factor": self.upsample_factor,
            "cap": self.cap,
            "phase": self.phase.value,
        }


@dataclass(frozen=True)
class SamplingPlan:
    """Upsampling and phase assignments for every source in a build."""

    per_source: dict[str, SourcePlan]
    target_totals: dict[str, int] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _typed(self.seed, "an integer", "seed")
        if self.target_totals is not None:
            totals = _typed(self.target_totals, "a JSON object", "target_totals")
            for phase, total in totals.items():
                Phase(phase)
                if _typed(total, "an integer", f"target_totals[{phase!r}]") < 0:
                    raise ValueError("target totals must be >= 0")

    @classmethod
    def from_json_file(cls, path) -> "SamplingPlan":
        """Load a plan file; any malformed entry raises :class:`PlanError` naming it."""
        payload = _load_json(path, PlanError)
        try:
            payload = _object(payload, _field_names(cls), "sampling plan")
            per_source = {}
            sources = _typed(payload.get("per_source", {}), "a JSON object", "per_source")
            for source, entry in sources.items():
                entry = _object(entry, _field_names(SourcePlan), f"per_source[{source!r}]")
                try:
                    per_source[source] = SourcePlan(**entry)
                except ValueError as exc:
                    raise ValueError(f"per_source[{source!r}]: {exc}") from exc
            return cls(**dict(payload, per_source=per_source))
        except ValueError as exc:
            raise PlanError(f"{path}: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {
            "per_source": {
                source: plan.to_json_dict()
                for source, plan in sorted(self.per_source.items())
            },
            "target_totals": dict(self.target_totals) if self.target_totals else None,
            "seed": self.seed,
        }


def _hash64(seed: int, source: str, key: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{source}\x1f{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _position_ranks(seed: int, source: str, count: int) -> Iterator[int]:
    """``_hash64(seed, source, str(pos))`` for each position in ``range(count)``."""
    prefix = f"{seed}\x1f{source}\x1f".encode("utf-8")
    sha256 = hashlib.sha256
    for pos in range(count):
        yield int.from_bytes(sha256(b"%b%d" % (prefix, pos)).digest()[:8], "big")


def build_collection(
    registry: TemplateRegistry,
    records: Iterable[TaskRecord],
    plan: SamplingPlan,
) -> tuple[InstanceStream, dict[str, int]]:
    """Render every kept record once and attach its plan's copy range.

    Returns the stream, one group ``(instance, range(upsample_factor))`` per
    kept record, and the instance count per source, source-sorted.

    The template for a record is chosen from the task type's id-sorted
    templates by a hash of (seed, source, record id), so the choice is stable
    under insertions or removals elsewhere in the stream. Caps keep the first
    ``cap`` records in (source, record id) order. The stream is ordered by
    (source, record id, copy_index).
    """
    rows: list[TaskRecord] = []
    seen: set[tuple[str, str]] = set()
    for record in records:
        if record.source not in plan.per_source:
            raise PlanError(f"source {record.source!r} is not in the sampling plan")
        key = (record.source, record.id)
        if key in seen:
            raise PlanError(f"duplicate record id {record.id!r} in source {record.source!r}")
        seen.add(key)
        rows.append(record)
    rows.sort(key=lambda r: (r.source, r.id))

    taken: Counter[str] = Counter()
    groups: list[CopyGroup] = []
    for record in rows:
        source_plan = plan.per_source[record.source]
        if source_plan.cap is not None and taken[record.source] >= source_plan.cap:
            continue
        taken[record.source] += 1
        templates = registry.for_task(record.task_type)
        if not templates:
            raise PlanError(f"no templates registered for task type {record.task_type.value!r}")
        template = templates[_hash64(plan.seed, record.source, record.id) % len(templates)]
        base = render_template(template, record, phase=source_plan.phase)
        groups.append(CopyGroup(base, range(source_plan.upsample_factor)))

    per_source = {s: n * plan.per_source[s].upsample_factor for s, n in sorted(taken.items())}
    if sum(per_source.values()) > sys.maxsize:  # the stream's len() must fit
        raise PlanError(f"more than {sys.maxsize} instances after upsampling")
    return InstanceStream(tuple(groups)), per_source


def split_phases(instances: InstanceStream) -> tuple[InstanceStream, InstanceStream]:
    """Partition the groups by phase, preserving order within each phase."""
    phase1: list[CopyGroup] = []
    phase2: list[CopyGroup] = []
    for group in instances.groups:
        (phase1 if group.instance.phase is Phase.PHASE1 else phase2).append(group)
    return InstanceStream(tuple(phase1)), InstanceStream(tuple(phase2))


def subsample_to_target(instances: InstanceStream, target: int, seed: int) -> InstanceStream:
    """Select exactly min(target, n) instances, stratified by source.

    Source quotas are proportional to source counts with largest-remainder
    rounding (ties broken by larger source, then source name). An instance's
    position within its source is its index among that source's copies in
    stream order; positions are ranked by a hash of (seed, source, position)
    and the lowest-ranked fill the quota. The selection keeps stream order.
    Deterministic for a fixed seed on any platform.
    """
    if target < 0:
        raise ValueError("target must be >= 0")
    n = len(instances)
    if target >= n:
        return instances
    if target == 0:
        return InstanceStream(())
    counts: Counter[str] = Counter()
    for instance, copies in instances.groups:
        counts[instance.source] += len(copies)
    quotas: dict[str, int] = {}
    remainders: list[tuple[int, int, str]] = []
    assigned = 0
    for source in sorted(counts):
        exact = target * counts[source]
        quotas[source] = exact // n
        assigned += exact // n
        remainders.append((-(exact % n), -counts[source], source))
    remainders.sort()
    for i in range(target - assigned):
        quotas[remainders[i][2]] += 1

    # Imported here, not at the top, so that `import langadapt.cli` loads numpy
    # only after this module (through vocab_adapt): loading it first leaves
    # 1.3 MB more resident in every CLI process (34.1 against 32.8 MB after
    # the import, Python 3.11).
    import numpy as np

    # Ascending kept positions of each source that loses some; a stable sort
    # of the ranks keeps the lower position first among ties.
    kept: dict[str, list[int]] = {}
    for source, count in counts.items():
        if quotas[source] < count:
            ranks = np.fromiter(_position_ranks(seed, source, count), np.uint64, count)
            order = np.argsort(ranks, kind="stable")
            kept[source] = np.sort(order[: quotas[source]]).tolist()
    offsets: Counter[str] = Counter()
    groups: list[CopyGroup] = []
    for group in instances.groups:
        source = group.instance.source
        start = offsets[source]
        offsets[source] += len(group.copies)
        if source not in kept:
            groups.append(group)
            continue
        positions = kept[source]
        lo = bisect_left(positions, start)
        hi = bisect_left(positions, offsets[source], lo)
        if lo < hi:
            copies = tuple(group.copies[pos - start] for pos in positions[lo:hi])
            groups.append(CopyGroup(group.instance, copies))
    return InstanceStream(tuple(groups))


def write_instances_jsonl(instances: InstanceStream, path) -> int:
    """Write instances as LF-terminated JSON lines; returns the line count.

    Each group's record is serialised once. ``copy_index`` is the last key,
    so every copy's line is that serialisation up to the index, then the
    copy's index and the closing brace.
    """
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for instance, copies in instances.groups:
            line = json.dumps(instance.to_json_dict(), ensure_ascii=False)
            head = line[: -len(str(instance.copy_index)) - 1]
            handle.writelines(f"{head}{copy_index}}}\n" for copy_index in copies)
            count += len(copies)
    return count
