"""Correctness gate applied to every benchmark job, outside the timed section.

A job passes when its CLI calls exit 0, its artifacts are byte-identical to
those of the run's first job (and, at the default seed and size, to the
checksums pinned in ``pinned.json``), and the artifacts pass checks that do
not trust the code under test: round trips, count arithmetic, bit-equal
copied embedding rows, and the naive metric oracles in ``tests/oracles.py``.
Artifacts are deterministic, so those checks run once per distinct set of
artifact digests.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from langadapt import tokenizer, vocab_adapt
from oracles import naive_chrf, naive_rouge_l
from synthdata import LANGUAGES

ORACLE_SAMPLE = 25


def artifact_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by its relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


class Gate:
    """Checks the artifacts of each job of one run."""

    def __init__(self, workload: str, pinned: dict[str, str] | None = None):
        self.workload = workload
        self.pinned = pinned
        self.reference: dict[str, str] | None = None
        self._verdicts: dict[tuple, list[str]] = {}

    def check(self, run: Path) -> list[str]:
        """Errors for the artifacts now under ``run/out``; empty when they pass."""
        digests = artifact_digests(run / "out")
        errors = []
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            errors.append(f"artifacts differ from the run's first job: {_diff(self.reference, digests)}")
        if self.pinned is not None and digests != self.pinned:
            errors.append(f"artifacts differ from pinned checksums: {_diff(self.pinned, digests)}")
        key = tuple(sorted(digests.items()))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = _manifest_errors(run / "out") + CHECKS[self.workload](run)
            except Exception as exc:  # a corrupt artifact may break any parser
                self._verdicts[key] = [f"{type(exc).__name__}: {exc}"]
        return errors + self._verdicts[key]


def _diff(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def _lines(path: Path) -> list[str]:
    """Non-empty LF-separated lines (``splitlines`` would also split on U+2028)."""
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _manifest_errors(out: Path) -> list[str]:
    errors = []
    for manifest_path in sorted(out.rglob("manifest.json")):
        manifest = _json(manifest_path)
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((manifest_path.parent / name).read_bytes()).hexdigest()
            if actual != digest:
                errors.append(f"{manifest_path}: output {name} does not match its checksum")
    return errors


def _round_trip_errors(model: tokenizer.TokenizerModel, lines: list[str], label: str) -> list[str]:
    bad = [line for line in lines if tokenizer.decode(model, tokenizer.encode(model, line)) != line]
    return [f"{label}: decode(encode(x)) != x on {len(bad)} of {len(lines)} lines"] if bad else []


def _check_tokenizer_train(run: Path) -> list[str]:
    config = _json(run / "inputs/tokenizer-train.json")
    model = tokenizer.load_model(run / "out/tokenizer-train/tokenizer.json")
    errors = []
    if model.piece_count != config["vocab_size"]:
        errors.append(f"trained {model.piece_count} pieces, asked for {config['vocab_size']}")
    return errors + _round_trip_errors(model, _lines(run / "inputs/roundtrip.txt"), "trained model")


def _check_fertility_adapt(run: Path) -> list[str]:
    errors = []
    old_tok = tokenizer.load_model(run / "inputs/model_a.json")
    new_tok = tokenizer.load_model(run / "inputs/model_b.json")
    held_out = _lines(run / "inputs/roundtrip.txt")
    errors += _round_trip_errors(old_tok, held_out, "model_a")
    errors += _round_trip_errors(new_tok, held_out, "model_b")

    languages = _json(run / "out/fertility/fertility.json")["languages"]
    if sorted(languages) != sorted(LANGUAGES):
        errors.append(f"fertility languages {sorted(languages)} != {sorted(LANGUAGES)}")
    for lang, entry in languages.items():
        docs = sum(1 for line in _lines(run / f"inputs/heldout-{lang}.txt") if line.strip())
        for side in ("a", "b"):
            if entry[side]["doc_count"] != docs:
                errors.append(f"fertility {lang}/{side}: {entry[side]['doc_count']} docs, input has {docs}")

    report = _json(run / "out/adapt/adaptation.json")
    provenance = report["per_piece_provenance"]
    total = report["copied"] + report["averaged"] + report["fallback"]
    if total != new_tok.piece_count or len(provenance) != new_tok.piece_count:
        errors.append(f"adaptation counts sum to {total}, new vocabulary has {new_tok.piece_count}")
    old = vocab_adapt.load_embeddings(run / "inputs/embeddings_a.bin")
    new = vocab_adapt.load_embeddings(run / "out/adapt/embeddings.bin")
    if new.rows != new_tok.piece_count or new.vocab_hash != tokenizer.model_hash(new_tok):
        errors.append("adapted embedding is not bound to the new tokenizer")
        return errors
    old_index = {piece: i for i, piece in enumerate(old_tok.pieces)}
    new_specials = {i: name for name, i in new_tok.special_tokens.items()}
    new_ids, old_ids = [], []
    for key, kind in provenance.items():
        if kind == "copied":
            new_id = int(key)
            new_ids.append(new_id)
            if new_id in new_specials:
                old_ids.append(old_tok.special_tokens[new_specials[new_id]])
            else:
                old_ids.append(old_index[new_tok.pieces[new_id]])
    if len(new_ids) != report["copied"]:
        errors.append("copied count does not match the provenance map")
    if not np.array_equal(new.data[new_ids].view(np.uint32), old.data[old_ids].view(np.uint32)):
        errors.append("copied embedding rows are not bit-equal to the old rows")
    return errors


def _check_build_collection(run: Path) -> list[str]:
    errors = []
    config = _json(run / "inputs/build-collection.json")
    plan = _json(run / "inputs/plan.json")
    expected = {}
    for entry in config["records"]:
        n = len(_lines(run / entry["path"]))
        source_plan = plan["per_source"][entry["source"]]
        cap = source_plan["cap"]
        expected[entry["source"]] = min(n, cap if cap is not None else n) * source_plan["upsample_factor"]
    manifest = _json(run / "out/build-collection/collection_manifest.json")
    if manifest["per_source"] != expected:
        errors.append(f"per-source counts {manifest['per_source']} != min(n, cap) x factor {expected}")
    targets = plan["target_totals"]
    if manifest["written_per_phase"] != targets:
        errors.append(f"written per phase {manifest['written_per_phase']} != targets {targets}")
    for phase, target in targets.items():
        lines = _lines(run / f"out/build-collection/{phase}.jsonl")
        if len(lines) != target:
            errors.append(f"{phase}.jsonl has {len(lines)} lines, target is {target}")
        written: dict[str, int] = {}
        for line in lines:
            instance = json.loads(line)
            if instance["phase"] != phase:
                errors.append(f"{phase}.jsonl holds a {instance['phase']} instance")
                break
            written[instance["source"]] = written.get(instance["source"], 0) + 1
        built = {s: n for s, n in expected.items() if plan["per_source"][s]["phase"] == phase}
        if written != _quotas(built, target):
            errors.append(f"{phase}.jsonl per-source lines {written} != quotas {_quotas(built, target)}")
    return errors


def _quotas(counts: dict[str, int], target: int) -> dict[str, int]:
    """Per-source shares of ``target``, proportional with largest remainders."""
    total = sum(counts.values())
    if target >= total:
        return dict(counts)
    quotas = {s: target * n // total for s, n in counts.items()}
    by_remainder = sorted(counts, key=lambda s: (-(target * counts[s] % total), -counts[s], s))
    for source in by_remainder[: target - sum(quotas.values())]:
        quotas[source] += 1
    return quotas


def _sample(rows: list, k: int) -> list:
    step = max(1, len(rows) // k)
    return rows[::step][:k]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _weighted_f1(rows: list[dict]) -> float:
    total = 0.0
    for label in {row["gold_label"] for row in rows}:
        tp = sum(1 for r in rows if r["gold_label"] == label and r["predicted_label"] == label)
        predicted = sum(1 for r in rows if r["predicted_label"] == label)
        actual = sum(1 for r in rows if r["gold_label"] == label)
        f1 = 2 * tp / (predicted + actual) if tp else 0.0
        total += actual / len(rows) * f1
    return 100.0 * total


def _check_score(run: Path) -> list[str]:
    errors = []
    reports = {}
    for config_path in sorted((run / "inputs").glob("score-*.json")):
        config = _json(config_path)
        rows = [json.loads(line) for line in _lines(run / config["predictions"])]
        report = _json(run / f"out/score/{config['metric']}/report.json")
        reports[config["metric"]] = (rows, report)
        if report["n"] != len(rows) or not math.isfinite(report["aggregate"]):
            errors.append(f"{config['metric']}: n={report['n']} for {len(rows)} lines")
    oracles = {"chrf_pp": naive_chrf, "rouge_l": naive_rouge_l}
    for metric, oracle in oracles.items():
        rows, report = reports[metric]
        for row in _sample(rows, ORACLE_SAMPLE):
            expected = max(oracle(row["hypothesis"], ref) for ref in row["references"])
            if not _close(report["per_example"][row["id"]], expected):
                errors.append(f"{metric} {row['id']}: {report['per_example'][row['id']]} != oracle {expected}")

    def independent(metric, score, aggregate=None):
        rows, report = reports[metric]
        per_example = {row["id"]: score(row) for row in rows}
        if report["per_example"] != per_example:
            errors.append(f"{metric}: per-example scores differ from an independent count")
        expected = aggregate(rows) if aggregate else 100.0 * sum(per_example.values()) / len(rows)
        if not _close(report["aggregate"], expected):
            errors.append(f"{metric}: aggregate {report['aggregate']} != independent {expected}")

    independent(
        "weighted_f1",
        lambda r: float(r["predicted_label"] == r["gold_label"]),
        _weighted_f1,
    )
    independent(
        "mc1_accuracy",
        lambda r: float(r["option_scores"].index(max(r["option_scores"])) == r["gold_index"]),
    )
    independent("safety_preference", lambda r: float(r["benign_score"] > r["harmful_score"]))
    return errors


CHECKS = {
    "tokenizer-train": _check_tokenizer_train,
    "fertility-adapt": _check_fertility_adapt,
    "build-collection": _check_build_collection,
    "score": _check_score,
}
