"""Instruction corpus compilation.

Renders prompt templates over task records, inverts labeled datasets into
generation tasks, applies per-source upsampling factors and caps, partitions
instances into the two tuning phases, and subsamples phases to target sizes
by source-stratified selection. Every step is deterministic for fixed inputs
and seed; template choice and subsampling use stable SHA-256 derived hashes
rather than process-dependent randomness.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from . import __version__
from .corpus import TaskRecord, TaskType, _check_language, _load_json

__all__ = [
    "BuildManifest",
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
    "invert_generative",
    "render_template",
    "split_phases",
    "subsample_to_target",
    "write_instances_jsonl",
]


class Phase(str, Enum):
    PHASE1 = "phase1"
    PHASE2 = "phase2"


# Phase 1 is reserved for NLP task-style instances; generation-style prompts
# (generative inversions, knowledge and human-centric prompts) are phase 2.
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
_TEMPLATE_KEYS = ("id", "task_type", "input_pattern", "target_pattern", "language")


class RenderError(ValueError):
    """A template could not be rendered against a record."""


class PlanError(ValueError):
    """A plan or template file is not valid JSON, or records do not fit them."""


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


@dataclass(frozen=True)
class PromptTemplate:
    """A parameterized instruction pattern with ``{slot}`` placeholders."""

    id: str
    task_type: TaskType
    input_pattern: str
    target_pattern: str
    language: str

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("template id must be a non-empty string")
        if not isinstance(self.input_pattern, str) or not isinstance(self.target_pattern, str):
            raise ValueError(f"template {self.id!r}: patterns must be strings")
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
        templates = []
        for index, entry in enumerate(entries):
            try:
                entry = _json_object(entry, "template")
                templates.append(PromptTemplate(**{key: entry[key] for key in _TEMPLATE_KEYS}))
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


def invert_generative(record: TaskRecord) -> TaskRecord:
    """Swap the roles of a labeled record's text and label.

    A classification record becomes a generation record whose ``label`` slot
    (the former label) is the prompt side and whose ``text`` slot is the
    generation target; generation templates render them accordingly.
    Inverting the result restores the original (text, label) pairing.
    """
    if record.task_type is TaskType.CLASSIFICATION:
        new_type = TaskType.GENERATION
    elif record.task_type is TaskType.GENERATION:
        new_type = TaskType.CLASSIFICATION
    else:
        raise ValueError(
            f"cannot invert a {record.task_type.value!r} record; "
            "only labeled classification/generation records invert"
        )
    if not record.label:
        raise ValueError(f"record {record.id!r} has no label to invert")
    if "text" not in record.fields:
        raise ValueError(f"record {record.id!r} has no 'text' slot to invert")
    fields = dict(record.fields)
    fields["label"] = record.label
    return TaskRecord(
        id=record.id,
        fields=fields,
        label=record.label,
        task_type=new_type,
        language=record.language,
        source=record.source,
    )


def _integer(value, what: str) -> int:
    """``value`` if it is an integer; a bool, float or anything else raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SourcePlan:
    """Per-source replication factor, optional record cap, and phase."""

    upsample_factor: int = 1
    cap: int | None = None
    phase: Phase = Phase.PHASE1

    def __post_init__(self) -> None:
        if _integer(self.upsample_factor, "upsample_factor") < 1:
            raise ValueError("upsample_factor must be >= 1")
        if self.cap is not None and _integer(self.cap, "cap") < 1:
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
        _integer(self.seed, "seed")
        if self.target_totals is not None:
            for phase, total in self.target_totals.items():
                Phase(phase)
                if _integer(total, f"target_totals[{phase!r}]") < 0:
                    raise ValueError("target totals must be >= 0")

    @classmethod
    def from_json_file(cls, path) -> "SamplingPlan":
        """Load a plan file; any malformed entry raises :class:`PlanError` naming it."""
        payload = _load_json(path, PlanError)
        try:
            payload = _json_object(payload, "sampling plan")
            per_source = {}
            for source, entry in _json_object(payload.get("per_source", {}), "per_source").items():
                entry = _json_object(entry, f"per_source[{source!r}]")
                try:
                    per_source[source] = SourcePlan(
                        upsample_factor=entry.get("upsample_factor", 1),
                        cap=entry.get("cap"),
                        phase=entry.get("phase", "phase1"),
                    )
                except ValueError as exc:
                    raise ValueError(f"per_source[{source!r}]: {exc}") from exc
            totals = payload.get("target_totals")
            if totals is not None:
                totals = _json_object(totals, "target_totals")
            return cls(per_source=per_source, target_totals=totals, seed=payload.get("seed", 0))
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


@dataclass(frozen=True)
class BuildManifest:
    """Per-source instance counts plus the plan that produced them."""

    per_source: dict[str, int]
    plan: dict
    seed: int
    version: str

    def to_json_dict(self) -> dict:
        return {
            "per_source": dict(sorted(self.per_source.items())),
            "plan": self.plan,
            "seed": self.seed,
            "version": self.version,
        }


def _hash64(seed: int, source: str, key: str) -> int:
    digest = hashlib.sha256(f"{seed}\x1f{source}\x1f{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def build_collection(
    registry: TemplateRegistry,
    records: Iterable[TaskRecord],
    plan: SamplingPlan,
) -> tuple[list[InstructionInstance], BuildManifest]:
    """Render every record and apply the plan's caps and upsampling factors.

    The template for a record is chosen from the task type's id-sorted
    templates by a hash of (seed, source, record id), so the choice is stable
    under insertions or removals elsewhere in the stream. Caps keep the first
    ``cap`` records in (source, record id) order. Output is ordered by
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
    instances: list[InstructionInstance] = []
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
        instances.append(base)
        for copy_index in range(1, source_plan.upsample_factor):
            instances.append(replace(base, copy_index=copy_index))

    manifest = BuildManifest(
        per_source={s: n * plan.per_source[s].upsample_factor for s, n in sorted(taken.items())},
        plan=plan.to_json_dict(),
        seed=plan.seed,
        version=__version__,
    )
    return instances, manifest


def split_phases(
    instances: Iterable[InstructionInstance],
) -> tuple[list[InstructionInstance], list[InstructionInstance]]:
    """Partition instances by phase, preserving order within each phase."""
    phase1: list[InstructionInstance] = []
    phase2: list[InstructionInstance] = []
    for instance in instances:
        (phase1 if instance.phase is Phase.PHASE1 else phase2).append(instance)
    return phase1, phase2


def subsample_to_target(
    instances: Sequence[InstructionInstance], target: int, seed: int
) -> list[InstructionInstance]:
    """Select exactly min(target, n) instances, stratified by source.

    Source quotas are proportional to source counts with largest-remainder
    rounding (ties broken by larger source, then source name). Within a
    source, instances are ranked by a hash of (seed, source, position) and
    the lowest-ranked fill the quota; the selection is emitted in original
    stream order. Deterministic for a fixed seed on any platform.
    """
    if target < 0:
        raise ValueError("target must be >= 0")
    items = list(instances)
    if target >= len(items):
        return items
    if target == 0:
        return []
    by_source: dict[str, list[int]] = {}
    for index, instance in enumerate(items):
        by_source.setdefault(instance.source, []).append(index)
    n = len(items)
    quotas: dict[str, int] = {}
    remainders: list[tuple[int, int, str]] = []
    assigned = 0
    for source in sorted(by_source):
        count = len(by_source[source])
        exact = target * count
        quotas[source] = exact // n
        assigned += exact // n
        remainders.append((-(exact % n), -count, source))
    remainders.sort()
    for i in range(target - assigned):
        quotas[remainders[i][2]] += 1

    chosen: list[int] = []
    for source, indices in by_source.items():
        quota = quotas[source]
        if quota >= len(indices):
            chosen.extend(indices)
            continue
        ranked = sorted(
            range(len(indices)), key=lambda pos: _hash64(seed, source, str(pos))
        )
        chosen.extend(indices[pos] for pos in ranked[:quota])
    chosen.sort()
    return [items[i] for i in chosen]


def write_instances_jsonl(instances: Iterable[InstructionInstance], path) -> int:
    """Write instances as LF-terminated JSON lines; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for instance in instances:
            handle.write(json.dumps(instance.to_json_dict(), ensure_ascii=False))
            handle.write("\n")
            count += 1
    return count
