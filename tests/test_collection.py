import importlib
import json
import random
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from langadapt import collection
from langadapt.collection import (
    CopyGroup,
    InstanceStream,
    InstructionInstance,
    Phase,
    PlanError,
    PromptTemplate,
    RenderError,
    SamplingPlan,
    SourcePlan,
    TemplateRegistry,
    build_collection,
    render_template,
    split_phases,
    subsample_to_target,
    write_instances_jsonl,
)
from langadapt.corpus import TaskRecord, TaskType
from oracles import naive_collection


def singles(instances):
    """A stream of the given instances, each a group of its one copy."""
    return InstanceStream(tuple(CopyGroup(i, (i.copy_index,)) for i in instances))


def translation_record(record_id, src, tgt, source="mt"):
    return TaskRecord(
        id=record_id,
        fields={"src": src, "tgt": tgt},
        label=None,
        task_type=TaskType.TRANSLATION,
        language="ind",
        source=source,
    )


def generation_record(record_id, text, source="gen", language="ind"):
    return TaskRecord(
        id=record_id,
        fields={"text": text},
        label=None,
        task_type=TaskType.GENERATION,
        language=language,
        source=source,
    )


TRANSLATE_TEMPLATE = PromptTemplate(
    id="mt-01",
    task_type=TaskType.TRANSLATION,
    input_pattern="Terjemahkan: {src}",
    target_pattern="{tgt}",
    language="ind",
)

GENERATION_TEMPLATE = PromptTemplate(
    id="gen-01",
    task_type=TaskType.GENERATION,
    input_pattern="Tuliskan: {text}",
    target_pattern="{text}",
    language="ind",
)


class TestRenderTemplate:
    def test_substitution(self):
        record = translation_record("1", "halo", "hello")
        instance = render_template(TRANSLATE_TEMPLATE, record)
        assert instance.input == "Terjemahkan: halo"
        assert instance.target == "hello"
        assert instance.template_id == "mt-01"
        assert instance.source == "mt"

    def test_zero_placeholder_pattern(self):
        template = PromptTemplate(
            id="gen-fixed",
            task_type=TaskType.GENERATION,
            input_pattern="Buat puisi bebas.",
            target_pattern="{text}",
            language="ind",
        )
        instance = render_template(template, generation_record("1", "puisi"), phase=Phase.PHASE2)
        assert instance.input == "Buat puisi bebas."

    def test_missing_slot_names_slot_and_template(self):
        record = TaskRecord(
            id="r1",
            fields={"src": "halo", "tgt": "hello"},
            label=None,
            task_type=TaskType.TRANSLATION,
            language="ind",
            source="mt",
        )
        template = PromptTemplate(
            id="mt-02",
            task_type=TaskType.TRANSLATION,
            input_pattern="{src} ke {dialect}",
            target_pattern="{tgt}",
            language="ind",
        )
        with pytest.raises(RenderError) as excinfo:
            render_template(template, record)
        assert "dialect" in str(excinfo.value)
        assert "mt-02" in str(excinfo.value)

    def test_slot_values_inserted_verbatim(self):
        record = translation_record("1", "a {tgt} b", "x")
        instance = render_template(TRANSLATE_TEMPLATE, record)
        assert instance.input == "Terjemahkan: a {tgt} b"

    def test_task_type_mismatch(self):
        with pytest.raises(RenderError, match="translation"):
            render_template(TRANSLATE_TEMPLATE, generation_record("1", "x"))

    def test_slot_containment_invariant(self):
        rng = random.Random(4)
        for i in range(50):
            src = "kata%d" % rng.randrange(100)
            tgt = "word%d" % rng.randrange(100)
            record = translation_record(str(i), src, tgt)
            instance = render_template(TRANSLATE_TEMPLATE, record)
            assert src in instance.input + instance.target
            assert tgt in instance.input + instance.target


class TestBuildCollection:
    def registry(self):
        return TemplateRegistry([TRANSLATE_TEMPLATE, GENERATION_TEMPLATE])

    def test_identity_plan_preserves_counts(self):
        records = [translation_record(str(i), "k%d" % i, "w%d" % i) for i in range(40)]
        plan = SamplingPlan(per_source={"mt": SourcePlan()}, seed=3)
        instances, per_source = build_collection(self.registry(), records, plan)
        assert len(instances) == 40
        assert per_source == {"mt": 40}
        assert Counter((i.source, i.copy_index) for i in instances) == Counter(
            (("mt", 0), 40)
        ) or len(set((i.source,) for i in instances)) == 1

    def test_upsample_factor_and_copy_indices(self):
        records = [generation_record(str(i), "teks %d" % i) for i in range(5)]
        plan = SamplingPlan(
            per_source={"gen": SourcePlan(upsample_factor=7, phase=Phase.PHASE2)}, seed=1
        )
        instances, per_source = build_collection(self.registry(), records, plan)
        assert len(instances) == 35
        assert per_source == {"gen": 35}
        per_record = Counter(i.input for i in instances)
        assert set(per_record.values()) == {7}
        copies = [i.copy_index for i in list(instances)[:7]]
        assert copies == list(range(7))

    def test_count_law_with_cap(self):
        records = [generation_record(str(i), "teks %d" % i) for i in range(10)]
        plan = SamplingPlan(
            per_source={"gen": SourcePlan(upsample_factor=3, cap=4, phase=Phase.PHASE2)}, seed=1
        )
        instances, _ = build_collection(self.registry(), records, plan)
        assert len(instances) == min(10, 4) * 3
        kept_ids = sorted({i.input for i in instances})
        assert len(kept_ids) == 4

    def test_unknown_source(self):
        records = [generation_record("1", "x", source="mystery")]
        plan = SamplingPlan(per_source={"gen": SourcePlan()}, seed=0)
        with pytest.raises(PlanError, match="mystery"):
            build_collection(self.registry(), records, plan)

    def test_empty_registry_for_task(self):
        records = [translation_record("1", "a", "b")]
        plan = SamplingPlan(per_source={"mt": SourcePlan()}, seed=0)
        with pytest.raises(PlanError, match="translation"):
            build_collection(TemplateRegistry([GENERATION_TEMPLATE]), records, plan)

    def test_template_choice_is_stable_hash(self):
        templates = [
            PromptTemplate(
                id="gen-%02d" % i,
                task_type=TaskType.GENERATION,
                input_pattern="Variasi %d: {text}" % i,
                target_pattern="{text}",
                language="ind",
            )
            for i in range(4)
        ]
        registry = TemplateRegistry(templates)
        records = [generation_record(str(i), "teks %d" % i) for i in range(30)]
        plan = SamplingPlan(per_source={"gen": SourcePlan(phase=Phase.PHASE2)}, seed=11)
        instances, _ = build_collection(registry, records, plan)
        chosen = {i.input.split(":")[0] for i in instances}
        assert len(chosen) > 1  # the hash spreads records over templates
        again, _ = build_collection(registry, records, plan)
        assert [i.template_id for i in instances] == [i.template_id for i in again]
        # dropping unrelated records does not change survivors' choices
        subset = records[:10]
        partial, _ = build_collection(registry, subset, plan)
        by_input = {i.input: i.template_id for i in instances}
        for instance in partial:
            assert by_input[instance.input] == instance.template_id

    def test_output_ordering(self):
        records = [generation_record(str(i), "t%d" % i, source="b") for i in range(3)]
        records += [generation_record(str(i), "u%d" % i, source="a") for i in range(2)]
        plan = SamplingPlan(
            per_source={
                "a": SourcePlan(upsample_factor=2, phase=Phase.PHASE2),
                "b": SourcePlan(phase=Phase.PHASE2),
            },
            seed=0,
        )
        instances, _ = build_collection(self.registry(), records, plan)
        keys = [(i.source, i.input, i.copy_index) for i in instances]
        assert keys == sorted(keys)

    def test_phase1_requires_nlp_task(self):
        with pytest.raises(ValueError, match="phase1"):
            InstructionInstance(
                input="x",
                target="y",
                task_type=TaskType.GENERATION,
                language="ind",
                source="s",
                template_id="t",
                phase=Phase.PHASE1,
            )


class TestSplitPhases:
    def make_instances(self, phases):
        out = []
        for i, phase in enumerate(phases):
            task = TaskType.TRANSLATION if phase is Phase.PHASE1 else TaskType.GENERATION
            out.append(
                InstructionInstance(
                    input="in%d" % i,
                    target="out%d" % i,
                    task_type=task,
                    language="ind",
                    source="s%d" % (i % 3),
                    template_id="t",
                    phase=phase,
                )
            )
        return out

    def test_degenerate_partition(self):
        instances = self.make_instances([Phase.PHASE1] * 4)
        phase1, phase2 = split_phases(singles(instances))
        assert list(phase1) == instances
        assert list(phase2) == []

    def test_partition_law(self):
        instances = self.make_instances([Phase.PHASE1] * 10 + [Phase.PHASE2] * 5)
        phase1, phase2 = split_phases(singles(instances))
        assert len(phase1) == 10 and len(phase2) == 5
        assert Counter(map(id, [*phase1, *phase2])) == Counter(map(id, instances))

    def test_stable_permutation(self):
        rng = random.Random(2)
        phases = [rng.choice([Phase.PHASE1, Phase.PHASE2]) for _ in range(1000)]
        instances = self.make_instances(phases)
        phase1, phase2 = split_phases(singles(instances))
        assert sorted(map(id, [*phase1, *phase2])) == sorted(map(id, instances))
        assert [i.input for i in phase1] == [i.input for i in instances if i.phase is Phase.PHASE1]
        assert [i.input for i in phase2] == [i.input for i in instances if i.phase is Phase.PHASE2]


class TestSubsample:
    def instances_for(self, counts):
        out = []
        for source, count in counts.items():
            for i in range(count):
                out.append(
                    InstructionInstance(
                        input="%s-%d" % (source, i),
                        target="t",
                        task_type=TaskType.GENERATION,
                        language="ind",
                        source=source,
                        template_id="t",
                        phase=Phase.PHASE2,
                    )
                )
        random.Random(55).shuffle(out)
        return out

    def test_noop_when_target_large(self):
        instances = self.instances_for({"a": 5})
        assert list(subsample_to_target(singles(instances), 10, seed=1)) == instances

    def test_target_zero(self):
        assert list(subsample_to_target(singles(self.instances_for({"a": 5})), 0, seed=1)) == []

    def test_largest_remainder_exact(self):
        instances = self.instances_for({"x": 600, "y": 300, "z": 100})
        selected = subsample_to_target(singles(instances), 100, seed=9)
        counts = Counter(i.source for i in selected)
        assert counts == {"x": 60, "y": 30, "z": 10}

    def test_proportionality_within_one_and_exact_total(self):
        rng = random.Random(77)
        for trial in range(5):
            counts = {"s%d" % i: rng.randrange(5, 400) for i in range(4)}
            instances = self.instances_for(counts)
            n = len(instances)
            target = rng.randrange(1, n)
            selected = subsample_to_target(singles(instances), target, seed=trial)
            assert len(selected) == target
            chosen = Counter(i.source for i in selected)
            for source, count in counts.items():
                exact = target * count / n
                assert abs(chosen.get(source, 0) - exact) <= 1.0

    def test_deterministic_and_order_preserving(self):
        instances = self.instances_for({"a": 50, "b": 30})
        first = subsample_to_target(singles(instances), 20, seed=4)
        second = subsample_to_target(singles(instances), 20, seed=4)
        assert list(first) == list(second)
        positions = [instances.index(i) for i in first]
        assert positions == sorted(positions)


class TestPlanAndJsonl:
    def test_plan_round_trip(self, tmp_path):
        plan = SamplingPlan(
            per_source={
                "identity": SourcePlan(upsample_factor=500, phase=Phase.PHASE2),
                "tasks": SourcePlan(cap=100, phase=Phase.PHASE1),
            },
            target_totals={"phase1": 18, "phase2": 12},
            seed=5,
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json_dict()), encoding="utf-8")
        loaded = SamplingPlan.from_json_file(path)
        assert loaded == plan

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"per_source": {"identity": {"upsample_factor": 2.9}}}, "upsample_factor"),
            ({"per_source": {"identity": {"cap": 1.5}}}, "cap"),
            ({"per_source": {"identity": {"upsample_factor": True}}}, "upsample_factor"),
            ({"per_source": {}, "target_totals": {"phase1": 10.7}}, "target_totals['phase1']"),
            ({"per_source": {}, "seed": 3.2}, "seed"),
        ],
        ids=["factor-float", "cap-float", "factor-bool", "total-float", "seed-float"],
    )
    def test_plan_numbers_must_be_integers(self, tmp_path, payload, field):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(PlanError) as excinfo:
            SamplingPlan.from_json_file(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}: ")
        assert f"{field} must be an integer" in message

    def test_source_plan_rejects_non_integer_factor(self):
        with pytest.raises(ValueError, match="upsample_factor must be an integer, got 2.9"):
            SourcePlan(upsample_factor=2.9)

    def test_jsonl_schema(self, tmp_path):
        instance = InstructionInstance(
            input="Terjemahkan: halo",
            target="hello",
            task_type=TaskType.TRANSLATION,
            language="ind",
            source="mt",
            template_id="mt-01",
            phase=Phase.PHASE1,
        )
        path = tmp_path / "out.jsonl"
        assert write_instances_jsonl(singles([instance]), path) == 1
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload) == [
            "input", "target", "task_type", "language",
            "source", "template_id", "phase", "copy_index",
        ]
        assert payload["phase"] == "phase1"
        assert payload["copy_index"] == 0

    def test_registry_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            TemplateRegistry([TRANSLATE_TEMPLATE, TRANSLATE_TEMPLATE])


ORACLE_REGISTRY = TemplateRegistry(
    [
        TRANSLATE_TEMPLATE,
        PromptTemplate(
            id="mt-02", task_type=TaskType.TRANSLATION, input_pattern="{src}\nTerjemahan ✓:",
            target_pattern="{tgt}", language="ind",
        ),
        GENERATION_TEMPLATE,
        PromptTemplate(
            id="gen-02", task_type=TaskType.GENERATION, input_pattern="Ulangi «{text}»",
            target_pattern="{text}", language="ind",
        ),
    ]
)


@st.composite
def collection_cases(draw):
    """Records and a plan: 1-4 sources, factors 1-7, optional caps, any targets."""
    records, per_source, built = [], {}, {"phase1": 0, "phase2": 0}
    for k in range(draw(st.integers(1, 4))):
        source = "src%d" % k
        phase = draw(st.sampled_from([Phase.PHASE1, Phase.PHASE2]))
        factor = draw(st.integers(1, 7))
        cap = draw(st.none() | st.integers(1, 6))
        n = draw(st.integers(0, 12))
        per_source[source] = SourcePlan(upsample_factor=factor, cap=cap, phase=phase)
        built[phase.value] += min(n, cap or n) * factor
        for i in range(n):
            text = 'k%d "%d"\n%s' % (k, i, "é" * (i % 3))
            if phase is Phase.PHASE1 or i % 2:
                records.append(translation_record(str(i), text, "w%d" % i, source=source))
            else:
                records.append(generation_record(str(i), text, source=source))
    targets = {}
    for phase, count in built.items():
        choice = draw(st.sampled_from(["none", "zero", "exact", "above", "below"]))
        if choice == "zero":
            targets[phase] = 0
        elif choice == "exact":
            targets[phase] = count
        elif choice == "above":
            targets[phase] = count + draw(st.integers(1, 5))
        elif choice == "below" and count > 1:
            targets[phase] = draw(st.integers(1, count - 1))
    plan = SamplingPlan(
        per_source=per_source,
        target_totals=targets or None,
        seed=draw(st.integers(0, 2**32)),
    )
    return draw(st.permutations(records)), plan


def build_split_subsample_write(registry, records, plan, out_dir):
    """The build-collection pipeline as the CLI runs it.

    Returns the built stream, the per-source counts and the lines written per phase.
    """
    instances, per_source = build_collection(registry, records, plan)
    targets = plan.target_totals or {}
    written = {}
    for phase, selected in zip(("phase1", "phase2"), split_phases(instances)):
        if phase in targets:
            selected = subsample_to_target(selected, targets[phase], plan.seed)
        written[phase] = write_instances_jsonl(selected, out_dir / f"{phase}.jsonl")
    return instances, per_source, written


class TestPipelineOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=collection_cases())
    def test_matches_one_instance_per_copy(self, case):
        records, plan = case
        with tempfile.TemporaryDirectory() as tmp:
            naive_dir, grouped_dir = Path(tmp, "naive"), Path(tmp, "grouped")
            naive_dir.mkdir()
            grouped_dir.mkdir()
            expected = naive_collection(ORACLE_REGISTRY, records, plan, naive_dir)
            _, per_source, written = build_split_subsample_write(
                ORACLE_REGISTRY, records, plan, grouped_dir
            )
            assert per_source == expected
            for phase in ("phase1", "phase2"):
                lines = (grouped_dir / f"{phase}.jsonl").read_bytes()
                assert lines == (naive_dir / f"{phase}.jsonl").read_bytes()
                assert written[phase] == lines.count(b"\n")

    def test_stream_length_is_plan_count(self, tmp_path):
        records = [translation_record(str(i), "k%d" % i, "w%d" % i) for i in range(9)]
        records += [generation_record(str(i), "t%d" % i) for i in range(5)]
        plan = SamplingPlan(
            per_source={
                "mt": SourcePlan(upsample_factor=3, cap=7),
                "gen": SourcePlan(upsample_factor=4, phase=Phase.PHASE2),
            },
            target_totals={"phase1": 10},
            seed=2,
        )
        instances, per_source, written = build_split_subsample_write(
            ORACLE_REGISTRY, records, plan, tmp_path
        )
        assert len(instances) == sum(per_source.values()) == 7 * 3 + 5 * 4
        assert len(instances) == len(list(instances))
        for phase, count in written.items():
            assert count == len((tmp_path / f"{phase}.jsonl").read_bytes().splitlines())
        assert written == {"phase1": 10, "phase2": 20}

    def test_memory_follows_records(self, tmp_path):
        # 40 records x 5 000 copies = 200 000 instances, 60 001 kept. Building
        # one instance per copy peaks at 57.6 MB traced (Python 3.11); the
        # grouped stream peaks at 6.0 MB. subsample_to_target imports numpy
        # on first use, so numpy is loaded first and its import not counted.
        importlib.import_module("numpy")
        records = [
            generation_record("%02d" % i, "teks %d" % i, source="ab"[i % 2]) for i in range(40)
        ]
        plan = SamplingPlan(
            per_source={s: SourcePlan(upsample_factor=5000, phase=Phase.PHASE2) for s in "ab"},
            target_totals={"phase2": 60_001},
            seed=5,
        )
        tracemalloc.start()
        try:
            _, _, written = build_split_subsample_write(
                ORACLE_REGISTRY, records, plan, tmp_path
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written == {"phase1": 0, "phase2": 60_001}
        assert peak < 12 * 2**20
