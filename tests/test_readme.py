"""The README's ``Library use`` example runs against the current API."""

import os
from pathlib import Path

import numpy as np

from langadapt import tokenizer, vocab_adapt

from synthdata import SyntheticLanguages

README = Path(__file__).parents[1] / "README.md"


def library_example() -> str:
    """The first python block under ``## Library use``, on its README line numbers."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("\n## Library use\n")) + len("```python\n")
    return "\n" * text.count("\n", 0, start) + text[start : text.index("```", start)]


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    languages = SyntheticLanguages(seed=1, lexicon_sizes={"ind": 200})
    for name, seed in (("ind", 2), ("heldout", 3)):
        docs = languages.documents({"ind": 1.0}, 4_000, seed=seed, source=name)
        (tmp_path / "data").mkdir(exist_ok=True)
        (tmp_path / "data" / f"{name}.txt").write_text(
            "".join(doc.text + "\n" for doc in docs), encoding="utf-8"
        )
    old = tokenizer.train_bpe(languages.documents({"ind": 1.0}, 2_000, seed=4, source="old"), 280)
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    tokenizer.save_model(old, tmp_path / "old" / "tokenizer.json")
    rows = np.random.default_rng(5).standard_normal((old.piece_count, 8), dtype=np.float32)
    matrix = vocab_adapt.EmbeddingMatrix.from_array(rows, tokenizer.model_hash(old))
    vocab_adapt.save_embeddings(matrix, tmp_path / "old" / "embeddings.bin")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["new_emb"].rows == namespace["model"].piece_count
    assert namespace["new_file"].rows == namespace["model"].piece_count
    assert capsys.readouterr().out.startswith("ind ")
    # The example writes only the new matrix.
    assert sorted(os.listdir(tmp_path)) == ["data", "new", "old"]
    assert os.listdir(tmp_path / "new") == ["embeddings.bin"]
