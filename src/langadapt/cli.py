"""Command-line pipelines wiring the toolkit modules together.

One binary with subcommands. Each command reads a JSON config (flags
override config values) and writes its artifacts into a hidden stage
directory inside the output directory. Success publishes them: the staged
files' checksums go into ``manifest.json``, the earlier manifest is removed,
and every file is renamed into the output directory, the manifest last. A
failed run leaves the output directory as it was, or without a manifest if
renaming failed; an output directory it made, and the parents it made, it
removes again while they are empty. A killed run may leave a stage
directory, never a truncated artifact under its real name. Manifests embed
the resolved config, input checksums, the seed, and the toolkit version, so
identical configs and inputs produce identical output checksums. The
manifest checksums every file the command's config keys name, on one
background thread while the command runs.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import json
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

from . import __version__, collection, corpus, metrics, tokenizer, vocab_adapt

# Config keys map to the JSON type (a ``corpus._typed`` kind) they take. A
# ``_PATH`` key names one input file and is a non-empty string; a ``_FILES``
# key names input files as ``_input_files`` resolves them.
_STR, _INT, _NUM, _FILES = "a string", "an integer", "a number", "a string or a list"
_PATH = "a path"
_GLOBAL_KEYS = {"seed": _INT, "threads": _INT, "out": _STR}
# ``_FILES`` key -> (keys of its entry objects, each a string; the ``corpus``
# reader, looked up at call time and given an entry's path, then its other keys
# by name; the noun for an item; whether an item may name its own source and
# language). A ``corpus`` entry's keys but ``path`` may also be given once at
# the top level. Records are always JSON lines, so their entries take no ``format``.
_ENTRY_KEYS = {
    "corpus": (("path", "format", "language", "source"), "ingest", "document", False),
    "records": (("path", "language", "source"), "read_task_records", "record", True),
}
_CORPUS_KEYS = {"corpus": _FILES, **dict.fromkeys(_ENTRY_KEYS["corpus"][0][1:], _STR)}
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
_SCORE_INPUTS = {"metric": _STR, "predictions": _PATH}


class ConfigError(ValueError):
    pass


def _sha256_file(path) -> str:
    with open(path, "rb") as handle:  # read into one reused 256 KB buffer
        return hashlib.file_digest(handle, "sha256").hexdigest()


class _InputChecksums(threading.Thread):
    """The SHA-256 of each input file, taken on this thread while the command
    reads them. ``main`` always joins it and raises ``error`` only when the
    command succeeded, so the command's own error wins."""

    def __init__(self, paths: list[str]) -> None:
        super().__init__()
        self.paths = sorted(set(paths))
        self.digests: dict[str, str] = {}
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            for path in self.paths:
                self.digests[path] = _sha256_file(path)
        except Exception as exc:  # raised again in the main thread
            self.error = exc


def _resolve_config(args: argparse.Namespace) -> dict:
    """The config file's values, checked against their keys' kinds, then flags and defaults."""
    config = corpus._load_json(args.config, ConfigError)
    kinds = _COMMANDS[args.command][2] | _GLOBAL_KEYS
    try:
        for key, value in corpus._object(config, kinds, f"{args.command} config").items():
            kind = kinds[key]
            corpus._typed(value, _STR if kind == _PATH else kind, key)
            if kind == _PATH and not value:
                raise ValueError(f"{key} must be non-empty")
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
    except (ConfigError, corpus.IngestError, vocab_adapt.EmbeddingFormatError):
        raise  # these name their files
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _command_inputs(command: str, config: dict) -> tuple:
    """The lazy items of the command's ``_FILES`` key (None without one) and the
    paths of every input file its config names, once its required keys are present."""
    _, _, kinds, required = _COMMANDS[command]
    for key in required:
        if key not in config:
            raise ConfigError(f"missing required config key {key!r}")
    paths = [config[key] for key in kinds if kinds[key] == _PATH]
    for key in kinds:
        if kinds[key] == _FILES:  # a command has at most one
            files = _input_files(config, key)
            return _read_all(key, files), paths + [entry["path"] for entry in files]
    return None, paths


def _input_files(config: dict, key: str) -> list[dict]:
    """Normalize a ``path | [path | {path, ...}]`` entry to per-file dicts with defaults."""
    entry_keys, _, _, per_line = _ENTRY_KEYS[key]
    entries = config[key]
    if isinstance(entries, str):
        entries = [entries]
    files = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"path": entry}
        if not isinstance(entry, dict) or "path" not in entry:
            raise ConfigError(f"{key} entry {entry!r} has no 'path'")
        try:
            for field, value in corpus._object(entry, entry_keys, "entry").items():
                corpus._typed(value, _STR, field)
            path = entry["path"]
            if not path:
                raise ValueError("path must be non-empty")
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
        if resolved["language"] is None and not per_line:
            raise ConfigError(f"no language given for corpus file {path}")
        files.append(resolved)
    return files


def _read_all(key: str, files: list[dict]):
    """Chain the items of ``files``, entries of ``key``; no (source, id) may repeat across files.

    A reader rejects a repeat within one file, so only entries that share a
    source can collide, unless an item may name its own source; other streams
    are passed through unrecorded. A collision is a config error.
    """
    entry_keys, reader, what, per_line = _ENTRY_KEYS[key]
    sources = collections.Counter(entry["source"] for entry in files)
    first_path: dict[tuple[str, str], str] = {}
    for entry in files:
        path = entry["path"]
        items = getattr(corpus, reader)(path, **{field: entry[field] for field in entry_keys[1:]})
        if not per_line and sources[entry["source"]] == 1:
            yield from items
            continue
        for item in items:
            ident = (item.source, item.id)
            if ident in first_path:
                raise ConfigError(
                    f"{path}: duplicate {what} id {item.id!r} for source "
                    f"{item.source!r}, also in {first_path[ident]}"
                )
            first_path[ident] = path
            yield item


_CONTAINERS = (dict, list, tuple)


def _indented(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False)``, nested ``indent`` deep.

    ``indent`` makes ``json`` fall back to its pure-Python encoder. Here the C
    encoder writes each container that holds no other, the indentation in its
    item separator; a container that holds one is written item by item.
    """
    if not isinstance(value, _CONTAINERS) or not value:
        return json.dumps(value, ensure_ascii=False)
    inner = indent + "  "
    items = value.values() if isinstance(value, dict) else value
    if not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items))):
        text = json.dumps(value, ensure_ascii=False, separators=(",\n" + inner, ": "))
        return f"{text[0]}\n{inner}{text[1:-1]}\n{indent}{text[-1]}"
    if isinstance(value, dict):
        # The encoder words the key as it would in place: {key: null} ends in "null}".
        parts = [
            json.dumps({key: None}, ensure_ascii=False)[1:-5] + _indented(item, inner)
            for key, item in value.items()
        ]
        brackets = "{}"
    else:
        parts = [_indented(item, inner) for item in value]
        brackets = "[]"
    body = (",\n" + inner).join(parts)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _write_json(path: Path, payload: dict) -> None:
    """Write ``json.dumps(payload, indent=2, ensure_ascii=False)`` and a newline."""
    path.write_text(_indented(payload) + "\n", encoding="utf-8", newline="\n")


def _publish(stage: Path, outdir: Path, manifest: dict) -> None:
    """Checksum the staged files into ``manifest``, then rename all into ``outdir``, it last."""
    names = sorted(path.name for path in stage.iterdir())
    manifest["outputs"] = {name: _sha256_file(stage / name) for name in names}
    _write_json(stage / "manifest.json", manifest)
    (outdir / "manifest.json").unlink(missing_ok=True)  # so a failed rename leaves none
    for name in [*names, "manifest.json"]:
        os.replace(stage / name, outdir / name)


def _cmd_tokenizer_train(config: dict, docs, out: Path) -> None:
    specials = config.get("special_tokens", list(tokenizer.REQUIRED_SPECIALS))
    model = _combine(tokenizer.train_bpe, docs, config["vocab_size"], specials)
    tokenizer.save_model(model, out / "tokenizer.json")


def _cmd_fertility(config: dict, docs, out: Path) -> None:
    path_a, path_b = config["model_a"], config["model_b"]
    model_a = tokenizer.load_model(path_a)
    model_b = tokenizer.load_model(path_b)
    words = tokenizer.count_words(docs)
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


def _cmd_adapt(config: dict, items, out: Path) -> None:
    old_tok = tokenizer.load_model(config["old_model"])
    new_tok = tokenizer.load_model(config["new_model"])
    old_emb = vocab_adapt.open_embeddings(config["old_embeddings"])
    _, report = _combine(
        vocab_adapt.adapt_embeddings, old_tok, old_emb, new_tok, out / "embeddings.bin"
    )
    _write_json(out / "adaptation.json", report.to_json_dict())


def _cmd_build_collection(config: dict, records, out: Path) -> None:
    registry = collection.TemplateRegistry.from_json_file(config["templates"])
    plan = collection.SamplingPlan.from_json_file(config["plan"])
    records = list(records)  # read outside build_collection, so its time is the build's own
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


def _cmd_score(config: dict, items, out: Path) -> None:
    metric = config["metric"]
    if metric not in _SCORERS:
        raise ConfigError(f"unknown metric {metric!r}")
    reader, option_kinds = _SCORERS[metric]
    rejected = config.keys() - _GLOBAL_KEYS.keys() - _SCORE_INPUTS.keys() - option_kinds.keys()
    if rejected:
        raise ConfigError(f"metric {metric} does not take options {sorted(rejected)}")
    options = {key: config[key] for key in option_kinds if key in config}
    examples = getattr(metrics, reader)(config["predictions"])
    report = _combine(getattr(metrics, metric), examples, **options)
    _write_json(out / "report.json", report.to_json_dict())


# command -> (handler, help text, {config key: kind} besides the global keys,
# required keys in the order they are checked). ``main`` checks the input files;
# ``handler(config, items, out)`` gets the lazy items of its ``_FILES`` key, or
# None, and writes its artifacts into ``out``.
_COMMANDS = {
    "tokenizer-train": (
        _cmd_tokenizer_train,
        "train a byte-level BPE vocabulary from corpus files",
        _CORPUS_KEYS | {"vocab_size": _INT, "special_tokens": "a list of strings"},
        ("vocab_size", "corpus"),
    ),
    "fertility": (
        _cmd_fertility,
        "compare token efficiency of two tokenizers on one corpus",
        _CORPUS_KEYS | {"model_a": _PATH, "model_b": _PATH},
        ("model_a", "model_b", "corpus"),
    ),
    "adapt": (
        _cmd_adapt,
        "remap an embedding matrix onto a new vocabulary",
        dict.fromkeys(("old_model", "new_model", "old_embeddings"), _PATH),
        ("old_model", "new_model", "old_embeddings"),
    ),
    "build-collection": (
        _cmd_build_collection,
        "compile an instruction corpus from records and templates",
        {"templates": _PATH, "records": _FILES, "plan": _PATH, "language": _STR},
        ("templates", "plan", "records"),
    ),
    "score": (
        _cmd_score,
        "score a predictions file with one metric",
        _SCORE_INPUTS
        | {key: kind for _, options in _SCORERS.values() for key, kind in options.items()},
        ("metric", "predictions"),
    ),
}


@functools.cache  # built on first use, once per process: parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langadapt",
        description="Data-level language adaptation pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _, _) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        sub.add_argument("--config", type=Path, required=True, help="JSON config file")
        sub.add_argument("--seed", type=int, help="seed recorded in the manifest")
        sub.add_argument(
            "--threads", type=int, help="recorded in the manifest; no command reads it"
        )
        sub.add_argument("--out", type=Path, help="output directory (default: out)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stage: Path | None = None
    made: list[Path] = []
    try:
        config = _resolve_config(args)
        outdir = Path(config["out"])
        config["out"] = str(outdir)
        try:
            items, paths = _command_inputs(args.command, config)
            made = [path for path in (outdir, *outdir.parents) if not path.exists()]
            outdir.mkdir(parents=True, exist_ok=True)
            stage = Path(tempfile.mkdtemp(prefix=".stage-", dir=outdir))
            checksums = _InputChecksums(paths)
            checksums.start()
            try:
                _COMMANDS[args.command][0](config, items, stage)
            finally:
                checksums.join()
        except ConfigError as exc:  # a ConfigError here is about a config value
            raise ConfigError(f"{args.config}: {exc}")
        if checksums.error is not None:
            raise checksums.error
        manifest = {
            "command": args.command,
            "version": __version__,
            "seed": config["seed"],
            "config": {key: config[key] for key in sorted(config)},
            "inputs": checksums.digests,
        }
        _publish(stage, outdir, manifest)
        made = []  # a published run keeps its directories
    except Exception as exc:  # distilled to an exit code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        for path in made:  # deepest first; a failed run removes what it made, if empty
            try:
                path.rmdir()
            except OSError:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
