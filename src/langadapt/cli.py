"""Command-line pipelines wiring the toolkit modules together.

One binary with subcommands. Each command reads an optional JSON config
(flags override config values) and writes its artifacts into a hidden stage
directory inside the output directory. Success publishes them: the staged
files' checksums go into ``manifest.json``, the earlier manifest is removed,
and every file is renamed into the output directory, the manifest last. A
failed run leaves the output directory as it was, or without a manifest if
renaming failed; a killed run may leave a stage directory, never a truncated
artifact under its real name. Manifests embed the resolved config, input
checksums, the seed, and the toolkit version, so identical configs and
inputs produce identical output checksums. Input checksums are taken on one
background thread while the command runs; each command names its inputs
before it reads them.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

from . import __version__, collection, corpus, metrics, tokenizer, vocab_adapt

# Config keys map to the JSON type (a ``corpus._typed`` kind) they take.
_STR, _INT, _NUM, _FILES = "a string", "an integer", "a number", "a string or a list"
_GLOBAL_KEYS = {"seed": _INT, "threads": _INT, "out": _STR}
# Keys of a ``corpus``/``records`` entry object, each a string; a ``corpus``
# entry's keys but ``path`` may also be given once at the top level. Records
# are always JSON lines, so their entries take no ``format``.
_ENTRY_KEYS = {
    "corpus": ("path", "format", "language", "source"),
    "records": ("path", "language", "source"),
}
_CORPUS_KEYS = {"corpus": _FILES, **dict.fromkeys(_ENTRY_KEYS["corpus"][1:], _STR)}
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
    with open(path, "rb") as handle:  # read into one reused 256 KB buffer
        return hashlib.file_digest(handle, "sha256").hexdigest()


class _InputChecksums:
    """The SHA-256 of each of a command's input files, taken on one background
    thread while the command reads them.

    The handler passes its input paths to ``start`` before reading them.
    ``main`` always calls ``join``, and ``digests`` raises the thread's error
    only when the handler succeeded, so a handler's own error wins.
    """

    def __init__(self) -> None:
        self._thread: threading.Thread | None = None
        self._digests: dict[str, str] = {}
        self._error: Exception | None = None

    def start(self, paths: list[str]) -> None:
        self._thread = threading.Thread(target=self._run, args=(sorted(set(paths)),))
        self._thread.start()

    def _run(self, paths: list[str]) -> None:
        try:
            for path in paths:
                self._digests[path] = _sha256_file(path)
        except Exception as exc:  # raised again in the main thread by ``digests``
            self._error = exc

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()

    def digests(self) -> dict[str, str]:
        if self._error is not None:
            raise self._error
        return self._digests


def _resolve_config(args: argparse.Namespace) -> dict:
    """The config file's values, checked against their keys' kinds, then flags and defaults."""
    config: dict = {}
    if args.config is not None:
        config = corpus._load_json(args.config, ConfigError)
        kinds = _COMMANDS[args.command][2] | _GLOBAL_KEYS
        try:
            for key, value in corpus._object(config, kinds, f"{args.command} config").items():
                corpus._typed(value, kinds[key], key)
            if config.get("threads", 1) < 1:
                raise ValueError("threads must be >= 1")
        except ValueError as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
    if args.threads is not None and args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    for flag in _GLOBAL_KEYS:
        value = getattr(args, flag)
        if value is not None:
            config[flag] = value
    config.setdefault("seed", 0)
    config.setdefault("threads", 1)
    config.setdefault("out", "out")
    return config


def _combine(call, *args, **kwargs):
    """``call(*args, **kwargs)``, which combines inputs the config names; a
    ValueError naming no file is raised again as a ConfigError, naming the config."""
    try:
        return call(*args, **kwargs)
    except (ConfigError, corpus.IngestError):  # these name their files
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
            for field, value in corpus._object(entry, _ENTRY_KEYS[key], "entry").items():
                corpus._typed(value, _STR, field)
            path = entry["path"]
            resolved = {
                "path": path,
                "format": entry.get("format", config.get("format", corpus.PLAIN_LINES)),
                "language": entry.get("language", config.get("language")),
                "source": entry.get("source", config.get("source", Path(path).stem)),
            }
            corpus._check_format(resolved["format"])
            if not resolved["source"]:
                raise ValueError("source must be non-empty")
            if resolved["language"] is not None:  # records may name their own
                corpus._check_language(resolved["language"])
        except ValueError as exc:
            raise ConfigError(f"{key} entry {entry!r}: {exc}") from exc
        files.append(resolved)
    return files


def _read_all(files: list[dict], read, what: str, check_all: bool):
    """Chain ``read(entry)`` over the entries; no (source, id) may repeat across files.

    ``read`` rejects a repeat within one file, so only entries that share a
    source can collide, unless an item may name its own source (``check_all``);
    other streams are passed through unrecorded. A collision is a config error.
    """
    sources = collections.Counter(entry["source"] for entry in files)
    first_path: dict[tuple[str, str], str] = {}
    for entry in files:
        path, items = entry["path"], read(entry)
        if not check_all and sources[entry["source"]] == 1:
            yield from items
            continue
        for item in items:
            key = (item.source, item.id)
            if key in first_path:
                raise ConfigError(
                    f"{path}: duplicate {what} id {item.id!r} for source "
                    f"{item.source!r}, also in {first_path[key]}"
                )
            first_path[key] = path
            yield item


def _ingest_all(files: list[dict]):
    for entry in files:
        # Task records may carry their own language; corpus documents cannot.
        if entry["language"] is None:
            raise ConfigError(f"no language given for corpus file {entry['path']}")

    def read(entry):
        return corpus.ingest(
            entry["path"], entry["format"], language=entry["language"], source=entry["source"]
        )

    return _read_all(files, read, "document", check_all=False)


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


def _publish(stage: Path, outdir: Path, manifest: dict) -> None:
    """Checksum the staged files into ``manifest``, then rename all into ``outdir``, it last."""
    names = sorted(path.name for path in stage.iterdir())
    manifest["outputs"] = {name: _sha256_file(stage / name) for name in names}
    _write_json(stage / "manifest.json", manifest)
    (outdir / "manifest.json").unlink(missing_ok=True)  # so a failed rename leaves none
    for name in [*names, "manifest.json"]:
        os.replace(stage / name, outdir / name)


def _cmd_tokenizer_train(config: dict, out: Path, inputs) -> None:
    vocab_size = _require(config, "vocab_size")
    specials = config.get("special_tokens", list(tokenizer.REQUIRED_SPECIALS))
    files = _input_files(config, "corpus")
    inputs([entry["path"] for entry in files])
    model = _combine(tokenizer.train_bpe, _ingest_all(files), vocab_size, specials)
    tokenizer.save_model(model, out / "tokenizer.json")


def _cmd_fertility(config: dict, out: Path, inputs) -> None:
    path_a = _require(config, "model_a")
    path_b = _require(config, "model_b")
    files = _input_files(config, "corpus")
    inputs([path_a, path_b] + [entry["path"] for entry in files])
    model_a = tokenizer.load_model(path_a)
    model_b = tokenizer.load_model(path_b)
    words = tokenizer.count_words(_ingest_all(files))
    reports = _combine(tokenizer.fertility, [model_a, model_b], words)
    comparison = {}
    for a, b in zip(reports[::2], reports[1::2]):
        entry = {
            "a": a.to_json_dict(),
            "b": b.to_json_dict(),
            "improvement_tokens_per_doc_pct": tokenizer.compare_fertility(a, b),
        }
        if b.tokens_per_word > 0:
            entry["improvement_tokens_per_word_pct"] = tokenizer.improvement_pct(
                a.tokens_per_word, b.tokens_per_word
            )
        comparison[a.language] = entry
    _write_json(
        out / "fertility.json",
        {"model_a": path_a, "model_b": path_b, "languages": comparison},
    )


def _cmd_adapt(config: dict, out: Path, inputs) -> None:
    old_model_path = _require(config, "old_model")
    new_model_path = _require(config, "new_model")
    old_emb_path = _require(config, "old_embeddings")
    inputs([old_model_path, new_model_path, old_emb_path])
    old_tok = tokenizer.load_model(old_model_path)
    new_tok = tokenizer.load_model(new_model_path)
    old_emb = vocab_adapt.load_embeddings(old_emb_path)
    new_emb, report = _combine(vocab_adapt.adapt_embeddings, old_tok, old_emb, new_tok)
    vocab_adapt.save_embeddings(new_emb, out / "embeddings.bin")
    _write_json(out / "adaptation.json", report.to_json_dict())


def _cmd_build_collection(config: dict, out: Path, inputs) -> None:
    templates_path = _require(config, "templates")
    plan_path = _require(config, "plan")
    record_files = _input_files(config, "records")
    inputs([templates_path, plan_path] + [entry["path"] for entry in record_files])
    registry = collection.TemplateRegistry.from_json_file(templates_path)
    plan = collection.SamplingPlan.from_json_file(plan_path)

    def read(entry):
        return corpus.read_task_records(
            entry["path"], language=entry["language"], source=entry["source"]
        )

    records = list(_read_all(record_files, read, "record", check_all=True))
    instances, per_source = _combine(collection.build_collection, registry, records, plan)
    targets = plan.target_totals or {}
    written = {}
    for phase, selected in zip(("phase1", "phase2"), collection.split_phases(instances)):
        if phase in targets:
            selected = collection.subsample_to_target(selected, targets[phase], plan.seed)
        written[phase] = collection.write_instances_jsonl(selected, out / f"{phase}.jsonl")
    manifest = {
        "per_source": per_source,
        "plan": plan.to_json_dict(),
        "seed": plan.seed,
        "version": __version__,
        "written_per_phase": written,
    }
    _write_json(out / "collection_manifest.json", manifest)


def _cmd_score(config: dict, out: Path, inputs) -> None:
    metric = _require(config, "metric")
    predictions = _require(config, "predictions")
    if metric not in _SCORERS:
        raise ConfigError(f"unknown metric {metric!r}")
    reader, option_kinds = _SCORERS[metric]
    rejected = config.keys() - _GLOBAL_KEYS.keys() - _SCORE_INPUTS.keys() - option_kinds.keys()
    if rejected:
        raise ConfigError(f"metric {metric} does not take options {sorted(rejected)}")
    options = {key: config[key] for key in option_kinds if key in config}
    inputs([predictions])
    examples = getattr(metrics, reader)(predictions)
    report = _combine(getattr(metrics, metric), examples, **options)
    _write_json(out / "report.json", report.to_json_dict())


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
        sub.add_argument(
            "--threads", type=int, help="recorded in the manifest; no command reads it"
        )
        sub.add_argument("--out", type=Path, help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stage: Path | None = None
    try:
        config = _resolve_config(args)
        outdir = Path(config["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        config["out"] = str(outdir)
        stage = Path(tempfile.mkdtemp(prefix=".stage-", dir=outdir))
        handler, _, _ = _COMMANDS[args.command]
        checksums = _InputChecksums()
        try:
            handler(config, stage, checksums.start)
        except ConfigError as exc:  # a handler's ConfigError is about a config value
            raise ConfigError(f"{args.config}: {exc}") if args.config else exc
        finally:
            checksums.join()
        manifest = {
            "command": args.command,
            "version": __version__,
            "seed": config["seed"],
            "config": {key: config[key] for key in sorted(config)},
            "inputs": checksums.digests(),
        }
        _publish(stage, outdir, manifest)
    except Exception as exc:  # distilled to an exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
