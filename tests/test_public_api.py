"""Each module's ``__all__`` names only what the module defines; importing
``metrics``, ``collection`` or ``tokenizer`` alone does not load numpy; the
benchmark tracer finds every layer function it wraps and the counts it reads."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import langadapt

MODULES = sorted(info.name for info in pkgutil.iter_modules(langadapt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(f"langadapt.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from langadapt.{name} import *", namespace)
    assert set(exported) <= namespace.keys()


@pytest.mark.parametrize("name", ["metrics", "collection", "tokenizer"])
def test_import_leaves_numpy_unloaded(name):
    # Each imports numpy inside the functions that use it: loaded at import
    # time, it comes before the other modules and leaves every CLI process
    # larger (see collection.subsample_to_target).
    code = f"import sys, langadapt.{name}; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(langadapt.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout == "False\n"


def test_benchmark_tracer_finds_every_layer(tmp_path):
    # perfbench/spans.py wraps layer functions by module attribute (among them
    # ``vocab_adapt.encode_bytes``) and reads what some of them return;
    # renaming one or changing its result would break traced runs only. One
    # traced ``adapt`` call checks the count read from adaptation's report.
    from langadapt import tokenizer, vocab_adapt
    from langadapt.corpus import CorpusDocument

    old = tokenizer.train_bpe([CorpusDocument("0", "xy", "ind", "s")], 259)
    new = tokenizer.train_bpe([CorpusDocument("0", "ab ab", "ind", "s")], 260)
    tokenizer.save_model(old, tmp_path / "old.json")
    tokenizer.save_model(new, tmp_path / "new.json")
    rows = np.ones((old.piece_count, 2), dtype=np.float32)
    matrix = vocab_adapt.EmbeddingMatrix.from_array(rows, tokenizer.model_hash(old))
    vocab_adapt.save_embeddings(matrix, tmp_path / "old.bin")
    config = {"old_model": "old.json", "new_model": "new.json", "old_embeddings": "old.bin"}
    (tmp_path / "adapt.json").write_text(json.dumps(config), encoding="utf-8")
    code = """
import spans
from langadapt import cli
tracer = spans.Tracer(0)
spans.install(tracer)
assert cli.main(["adapt", "--config", "adapt.json", "--out", "out"]) == 0
print([span.counts for span in tracer.spans if span.name == "vocab_adapt.adapt_embeddings"])
"""
    paths = [Path(__file__).parents[1] / "perfbench", Path(langadapt.__file__).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[{'averaged': 1}]\n"
