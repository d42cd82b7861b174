"""Each module's ``__all__`` names only what the module defines; importing
``metrics``, ``collection`` or ``tokenizer`` alone does not load numpy; the
benchmark tracer finds every layer function it wraps."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_benchmark_tracer_finds_every_layer():
    # perfbench/spans.py wraps layer functions by module attribute (among them
    # ``vocab_adapt.encode_bytes``); renaming one would break traced runs only.
    paths = [Path(__file__).parents[1] / "perfbench", Path(langadapt.__file__).parents[1]]
    code = "import spans; spans.install(spans.Tracer(0))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
