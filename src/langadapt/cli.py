"""Command-line pipelines wiring the toolkit modules together.

One binary with subcommands. Each command reads an optional JSON config
(flags override config values), writes its artifacts plus a ``manifest.json``
into the output directory, and exits nonzero after removing partial outputs
when anything fails. Manifests embed the resolved config, input checksums,
the seed, and the toolkit version, so identical configs and inputs produce
identical output checksums.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__, collection, corpus, metrics, tokenizer, vocab_adapt

# Config keys map to the JSON type (a ``corpus._typed`` kind) they take.
_STR, _INT, _NUM, _FILES = "a string", "an integer", "a number", "a string or a list"
_GLOBAL_KEYS = {"seed": _INT, "threads": _INT, "out": _STR}
# Keys of a ``corpus``/``records`` entry object, each a string; all but
# ``path`` may also be given once at the top level.
_ENTRY_KEYS = ("path", "format", "language", "source")
_CORPUS_KEYS = {"corpus": _FILES, **dict.fromkeys(_ENTRY_KEYS[1:], _STR)}
# metric -> (reader, {option: kind}). Both names are looked up on
# ``metrics`` at call time, so wrappers set on the module after import apply.
_SCORERS = {
    "weighted_f1": ("read_labeled_pairs", {}),
    "chrf_pp": ("read_prediction_pairs", {"char_order": _INT, "word_order": _INT, "beta": _NUM}),
    "corpus_bleu": ("read_prediction_pairs", {"max_order": _INT, "smoothing": _STR}),
    "rouge_l": ("read_prediction_pairs", {"beta": _NUM}),
    "mc1_accuracy": ("read_mc1_items", {}),
    "safety_preference": ("read_likelihood_pairs", {}),
}
_SCORE_INPUTS = {"metric": _STR, "predictions": _STR}


class ConfigError(ValueError):
    pass


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _resolve_config(args: argparse.Namespace) -> dict:
    """The config file's values, checked against their keys' kinds, then flags and defaults."""
    config: dict = {}
    if args.config is not None:
        config = corpus._load_json(args.config, ConfigError)
        kinds = _COMMANDS[args.command][2] | _GLOBAL_KEYS
        try:
            unknown = set(corpus._typed(config, "a JSON object", "config")) - set(kinds)
            if unknown:
                raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
            for key, value in config.items():
                corpus._typed(value, kinds[key], key)
        except ValueError as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
    for flag in _GLOBAL_KEYS:
        value = getattr(args, flag)
        if value is not None:
            config[flag] = value
    config.setdefault("seed", 0)
    config.setdefault("threads", os.cpu_count() or 1)
    config.setdefault("out", "out")
    if config["threads"] < 1:
        raise ConfigError("threads must be >= 1")
    return config


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing required config key {key!r}")
    return config[key]


def _input_files(config: dict, key: str) -> list[dict]:
    """Normalize a ``path | [path | {path, ...}]`` entry to per-file dicts with defaults."""
    entries = _require(config, key)
    if isinstance(entries, str):
        entries = [entries]
    files = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"path": entry}
        if not isinstance(entry, dict) or "path" not in entry:
            raise ConfigError(f"{key} entry {entry!r} has no 'path'")
        try:
            for field in _ENTRY_KEYS:
                if field in entry:
                    corpus._typed(entry[field], _STR, field)
        except ValueError as exc:
            raise ConfigError(f"{key} entry {entry!r}: {exc}") from exc
        path = entry["path"]
        resolved = {
            "path": path,
            "format": entry.get("format", config.get("format", corpus.PLAIN_LINES)),
            "language": entry.get("language", config.get("language")),
            "source": entry.get("source", config.get("source", Path(path).stem)),
        }
        files.append(resolved)
    return files


def _ingest_all(files: list[dict]):
    # (source, id) pairs must stay unique across the whole run, not just
    # within one file; collisions only happen when files share a source.
    seen: set[tuple[str, str]] = set()

    def checked(stream):
        for doc in stream:
            key = (doc.source, doc.id)
            if key in seen:
                raise corpus.IngestError(
                    f"duplicate document id {doc.id!r} for source {doc.source!r} "
                    "across corpus files"
                )
            seen.add(key)
            yield doc

    for entry in files:
        # Task records may carry their own language; corpus documents cannot.
        if entry["language"] is None:
            raise ConfigError(f"no language given for corpus file {entry['path']}")
    streams = [
        checked(
            corpus.ingest(
                entry["path"],
                entry["format"],
                language=entry["language"],
                source=entry["source"],
            )
        )
        for entry in files
    ]
    return itertools.chain.from_iterable(streams)


class _Outputs:
    """Tracks files written into the out directory so failures can clean up."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        target = self.outdir / name
        self.written.append(target)
        return target

    def write_json(self, name: str, payload: dict) -> None:
        text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
        self.path(name).write_text(text, encoding="utf-8", newline="\n")

    def cleanup(self) -> None:
        for target in self.written:
            target.unlink(missing_ok=True)

    def checksums(self) -> dict[str, str]:
        return {target.name: _sha256_file(target) for target in sorted(self.written)}


def _write_manifest(out: _Outputs, command: str, config: dict, inputs: list) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": config["seed"],
        "config": {key: config[key] for key in sorted(config)},
        "inputs": {path: _sha256_file(path) for path in sorted(set(inputs))},
        "outputs": out.checksums(),
    }
    out.write_json("manifest.json", manifest)


def _cmd_tokenizer_train(config: dict, out: _Outputs) -> list:
    vocab_size = _require(config, "vocab_size")
    specials = config.get("special_tokens", list(tokenizer.REQUIRED_SPECIALS))
    files = _input_files(config, "corpus")
    model = tokenizer.train_bpe(_ingest_all(files), vocab_size, specials)
    tokenizer.save_model(model, out.path("tokenizer.json"))
    return [entry["path"] for entry in files]


def _cmd_fertility(config: dict, out: _Outputs) -> list:
    path_a = _require(config, "model_a")
    path_b = _require(config, "model_b")
    model_a = tokenizer.load_model(path_a)
    model_b = tokenizer.load_model(path_b)
    files = _input_files(config, "corpus")
    docs = list(_ingest_all(files))
    reports_a = {r.language: r for r in tokenizer.fertility(model_a, docs)}
    reports_b = {r.language: r for r in tokenizer.fertility(model_b, docs)}
    comparison = {}
    for language in sorted(reports_a):
        a, b = reports_a[language], reports_b[language]
        entry = {
            "a": a.to_json_dict(),
            "b": b.to_json_dict(),
            "improvement_tokens_per_doc_pct": tokenizer.compare_fertility(a, b),
        }
        if b.tokens_per_word > 0:
            entry["improvement_tokens_per_word_pct"] = tokenizer.improvement_pct(
                a.tokens_per_word, b.tokens_per_word
            )
        comparison[language] = entry
    out.write_json(
        "fertility.json",
        {"model_a": path_a, "model_b": path_b, "languages": comparison},
    )
    return [path_a, path_b] + [entry["path"] for entry in files]


def _cmd_adapt(config: dict, out: _Outputs) -> list:
    old_model_path = _require(config, "old_model")
    new_model_path = _require(config, "new_model")
    old_emb_path = _require(config, "old_embeddings")
    old_tok = tokenizer.load_model(old_model_path)
    new_tok = tokenizer.load_model(new_model_path)
    old_emb = vocab_adapt.load_embeddings(old_emb_path)
    new_emb, report = vocab_adapt.adapt_embeddings(old_tok, old_emb, new_tok)
    vocab_adapt.save_embeddings(new_emb, out.path("embeddings.bin"))
    out.write_json("adaptation.json", report.to_json_dict())
    return [old_model_path, new_model_path, old_emb_path]


def _cmd_build_collection(config: dict, out: _Outputs) -> list:
    templates_path = _require(config, "templates")
    plan_path = _require(config, "plan")
    record_files = _input_files(config, "records")
    registry = collection.TemplateRegistry.from_json_file(templates_path)
    plan = collection.SamplingPlan.from_json_file(plan_path)
    records = [
        record
        for entry in record_files
        for record in corpus.read_task_records(
            entry["path"], language=entry["language"], source=entry["source"]
        )
    ]
    instances, manifest = collection.build_collection(registry, records, plan)
    targets = plan.target_totals or {}
    written = {}
    for phase, selected in zip(("phase1", "phase2"), collection.split_phases(instances)):
        if phase in targets:
            selected = collection.subsample_to_target(selected, targets[phase], plan.seed)
        written[phase] = collection.write_instances_jsonl(selected, out.path(f"{phase}.jsonl"))
    payload = manifest.to_json_dict()
    payload["written_per_phase"] = written
    out.write_json("collection_manifest.json", payload)
    return [templates_path, plan_path] + [entry["path"] for entry in record_files]


def _cmd_score(config: dict, out: _Outputs) -> list:
    metric = _require(config, "metric")
    predictions = _require(config, "predictions")
    if metric not in _SCORERS:
        raise ConfigError(f"unknown metric {metric!r}")
    reader, option_kinds = _SCORERS[metric]
    rejected = config.keys() - _GLOBAL_KEYS.keys() - _SCORE_INPUTS.keys() - option_kinds.keys()
    if rejected:
        raise ConfigError(f"metric {metric} does not take options {sorted(rejected)}")
    options = {key: config[key] for key in option_kinds if key in config}
    examples = getattr(metrics, reader)(predictions)
    report = getattr(metrics, metric)(examples, **options)
    out.write_json("report.json", report.to_json_dict())
    return [predictions]


# command -> (handler, help text, {config key: kind} besides the global keys)
_COMMANDS = {
    "tokenizer-train": (
        _cmd_tokenizer_train,
        "train a byte-level BPE vocabulary from corpus files",
        _CORPUS_KEYS | {"vocab_size": _INT, "special_tokens": "a list of strings"},
    ),
    "fertility": (
        _cmd_fertility,
        "compare token efficiency of two tokenizers on one corpus",
        _CORPUS_KEYS | {"model_a": _STR, "model_b": _STR},
    ),
    "adapt": (
        _cmd_adapt,
        "remap an embedding matrix onto a new vocabulary",
        dict.fromkeys(("old_model", "new_model", "old_embeddings"), _STR),
    ),
    "build-collection": (
        _cmd_build_collection,
        "compile an instruction corpus from records and templates",
        {"templates": _STR, "records": _FILES, "plan": _STR, "language": _STR},
    ),
    "score": (
        _cmd_score,
        "score a predictions file with one metric",
        _SCORE_INPUTS
        | {key: kind for _, options in _SCORERS.values() for key, kind in options.items()},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langadapt",
        description="Data-level language adaptation pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        sub.add_argument("--config", type=Path, help="JSON config file")
        sub.add_argument("--seed", type=int, help="seed recorded in the manifest")
        sub.add_argument("--threads", type=int, help="worker threads (never changes results)")
        sub.add_argument("--out", type=Path, help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out: _Outputs | None = None
    try:
        config = _resolve_config(args)
        outdir = Path(config["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        config["out"] = str(outdir)
        out = _Outputs(outdir)
        handler, _, _ = _COMMANDS[args.command]
        try:
            inputs = handler(config, out)
        except ConfigError as exc:  # a handler's ConfigError is about a config value
            raise ConfigError(f"{args.config}: {exc}") if args.config else exc
        _write_manifest(out, args.command, config, inputs)
    except Exception as exc:  # distilled to an exit code; partial outputs removed
        if out is not None:
            out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
