"""Every artifact loader against corrupted files, the one-reader rule and
the one-writer rule.

A corrupted artifact must either raise DataError or load an object that the
file faithfully holds: one whose saved form loads back to the same object.
A one-character edit can turn a valid file into another valid file (a digit
of a float changes, a dropped line removes one item), so "equal to the
original" cannot be asked of every edit; it is asked of the untouched file.
Objects are compared by the bytes their writer produces.
"""

import ast
import contextlib
import errno
import io
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidkit
from sidkit.catalog import (
    InteractionSequence,
    ItemCatalog,
    ItemRecord,
    SemanticId,
    SidStructure,
    load_item_catalog,
    load_sequences,
    save_item_catalog,
    save_sequences,
)
from sidkit import retrieval
from sidkit.cli import EXIT_DATA, EXIT_OK, main
from sidkit.collision import AssignmentTable, load_assignment, save_assignment
from sidkit.errors import DataError
from sidkit.quantizer import (
    RqkmeansConfig,
    RqvaeConfig,
    load_quantizer,
    save_quantizer,
    train_multivq,
    train_rqkmeans,
    train_rqvae,
)
from sidkit.retrieval import (
    load_corpus,
    load_markov_scorer,
    save_corpus,
    save_markov_scorer,
    train_markov_scorer,
)
from sidkit.sidmetrics import PairLabels, load_pair_labels, save_pair_labels

from conftest import scorer_count_dicts

STRUCTURE = SidStructure((3, 4), code_dim=2)
CORPUS = [[0, 3, 1, 4, 2, 6], [1, 5], [0, 3, 0, 3, 2, 4]]


def _embeddings() -> np.ndarray:
    return np.random.default_rng(7).standard_normal((12, 3)).round(3)


def _catalog() -> ItemCatalog:
    X = _embeddings()[:5]
    records = [
        ItemRecord("i0", X[0], related_item="i1", sid=SemanticId((2, 3)), style_group="s"),
        ItemRecord("i1", X[1], related_item="i0"),
        ItemRecord("i2", X[2], style_group="s", origin_group="o"),
        ItemRecord("i3", X[3], sid=SemanticId((0, 0))),
        ItemRecord("i4", X[4]),
    ]
    return ItemCatalog(records, d_in=3)


def _assignment() -> AssignmentTable:
    table = AssignmentTable(STRUCTURE)
    for i, codes in enumerate([(0, 1), (2, 3), (0, 1), (1, 0)]):
        table.assign(f"i{i}", SemanticId(codes))
    return table


def _rqvae_config() -> RqvaeConfig:
    return RqvaeConfig(epochs=2, warmup_epochs=1, learning_rate=1e-3,
                       batch_size=12, hidden_dims=(3,), seed=0)


# kind -> (build the object, writer, loader)
ARTIFACTS = {
    "catalog": (_catalog, save_item_catalog, lambda p: load_item_catalog(p, d_in=3)),
    "sequences": (
        lambda: [InteractionSequence("pv1", ("i0", "i1"), ("i2",)),
                 InteractionSequence("pv2", (), ("i3", "i4"), query="red tea")],
        save_sequences,
        load_sequences,
    ),
    "assignment": (_assignment, save_assignment, lambda p: load_assignment(p, STRUCTURE)),
    "model-rqkmeans": (
        lambda: train_rqkmeans(_embeddings(), STRUCTURE, RqkmeansConfig(seed=0)),
        save_quantizer,
        load_quantizer,
    ),
    "model-rqvae": (
        lambda: train_rqvae(_embeddings(), STRUCTURE, _rqvae_config()),
        save_quantizer,
        load_quantizer,
    ),
    "model-multivq": (
        lambda: train_multivq(_embeddings(), STRUCTURE, _rqvae_config()),
        save_quantizer,
        load_quantizer,
    ),
    "corpus": (lambda: CORPUS, save_corpus, load_corpus),
    "scorer": (
        lambda: train_markov_scorer(CORPUS, STRUCTURE, order=2, alpha=0.5),
        save_markov_scorer,
        load_markov_scorer,
    ),
    "labels": (
        lambda: PairLabels((("i0", "i1", "style"), ("i2", "i3", "origin"))),
        save_pair_labels,
        load_pair_labels,
    ),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifacts")


def saved_bytes(write, obj, path: Path) -> bytes:
    write(obj, path)
    return path.read_bytes()


def corrupt(data, text: str) -> str:
    """Truncate the text, drop one line, or replace one character."""
    how = data.draw(st.sampled_from(["truncate", "drop_line", "replace"]))
    if how == "truncate":
        return text[: data.draw(st.integers(0, len(text)))]
    if how == "drop_line":
        lines = text.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        return "".join(lines[:i] + lines[i + 1 :])
    pos = data.draw(st.integers(0, len(text) - 1))
    char = data.draw(st.sampled_from("\t\n\r #,[]-.e0159x") | st.characters(exclude_categories=["Cs"]))
    return text[:pos] + char + text[pos + 1 :]


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_valid_artifact_round_trips_exactly(kind, workdir):
    build, write, load = ARTIFACTS[kind]
    original = saved_bytes(write, build(), workdir / f"{kind}.orig")
    assert saved_bytes(write, load(workdir / f"{kind}.orig"), workdir / f"{kind}.again") == original


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_corrupted_artifact_raises_data_error_or_loads_faithfully(kind, data, workdir):
    build, write, load = ARTIFACTS[kind]
    original = saved_bytes(write, build(), workdir / f"{kind}.orig").decode()
    text = corrupt(data, original)
    path = workdir / f"{kind}.bad"
    path.write_text(text, encoding="utf-8")
    try:
        loaded = load(path)
    except DataError:
        return
    resaved = saved_bytes(write, loaded, workdir / f"{kind}.resaved")
    assert saved_bytes(write, load(workdir / f"{kind}.resaved"), workdir / f"{kind}.again") == resaved
    if text == original:
        assert resaved.decode() == original
    if kind == "scorer":
        for key, slot in scorer_count_dicts(loaded).items():
            assert all(count >= 1 and some_stream_emits(loaded, key, t) for t, count in slot.items())


def some_stream_emits(scorer, key: tuple, token: int) -> bool:
    """Brute force: a stream of whole SIDs holds `token` at some position
    whose last `order` predecessors (all of them, near the start) are `key`."""
    s, window = scorer.structure, key + (token,)
    levels = [next((j for j, (off, n) in enumerate(zip(s.offsets, s.level_sizes))
                    if off <= t < off + n), None) for t in window]
    return any(
        len(key) == min(scorer.order, pos)
        and all(lv == (pos - len(key) + i) % s.num_levels for i, lv in enumerate(levels))
        for pos in range(scorer.order + s.num_levels)
    )


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    """A tiny toy world taken through rqvae tokenize and train-scorer."""
    work = tmp_path_factory.mktemp("cli")
    assert main(["gen-toy", "--items", "30", "--clusters", "3", "--d-in", "4",
                 "--train-sequences", "20", "--eval-sequences", "5", "--seed", "0",
                 "--out-dir", str(work)]) == EXIT_OK
    assert main(["tokenize", "--catalog", str(work / "catalog.tsv"), "--d-in", "4",
                 "--levels", "3,3", "--code-dim", "2", "--kind", "rqvae", "--seed", "0",
                 "--epochs", "2", "--warmup-epochs", "1", "--batch-size", "30",
                 "--hidden-dims", "3", "--out-assignment", str(work / "raw.tsv"),
                 "--out-model", str(work / "model.tsv")]) == EXIT_OK
    assert main(["train-scorer", "--levels", "3,3", "--code-dim", "2",
                 "--sequences", str(work / "train_sequences.tsv"),
                 "--assignment", str(work / "raw.tsv"),
                 "--out", str(work / "scorer.tsv")]) == EXIT_OK
    return work


def cli_commands(work: Path, bad: Path, kind: str) -> list[list[str]]:
    """Commands that read the corrupted file `bad` in place of one artifact."""
    files = {name: str(work / f"{name}.tsv") for name in ("catalog", "model", "raw", "scorer")}
    files[{"assignment": "raw"}.get(kind, kind)] = str(bad)
    base = ["--catalog", files["catalog"], "--d-in", "4", "--assignment", files["raw"]]
    return [
        ["eval-sid", *base, "--model", files["model"]],
        ["collide", *base, "--model", files["model"], "--policy", "merge",
         "--merge-threshold", "2", "--out", str(work / "merged.tsv")],
        ["retrieve", "--scorer", files["scorer"], "--k", "3"],
    ]


@pytest.mark.parametrize("kind", ["model", "scorer", "assignment", "catalog"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_never_exits_1_on_a_corrupted_artifact(kind, data, cli_world):
    source = cli_world / ("raw.tsv" if kind == "assignment" else f"{kind}.tsv")
    bad = cli_world / f"bad_{kind}.tsv"
    bad.write_text(corrupt(data, source.read_text()), encoding="utf-8")
    for argv in cli_commands(cli_world, bad, kind):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_DATA), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# The one-reader and one-writer rules

READ_CALLS = {"read_text", "read_bytes", "loadtxt", "genfromtxt", "fromfile", "load", "reader"}


def _opens_for_reading(call: ast.Call) -> bool:
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name in READ_CALLS:
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax"))


def _top_level_functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node


def test_only_the_row_reader_opens_files_for_reading():
    """A file read anywhere else would be a loader that bypasses the reader's
    line numbers and its mapping of parse errors to DataError."""
    readers, loaders = [], {}
    for path in sorted(Path(sidkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in _top_level_functions(tree):
            calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
            if any(_opens_for_reading(call) for call in calls):
                readers.append(f"{path.name}:{func.name}")
            if func.name.startswith("load_"):
                loaders[func.name] = {getattr(c.func, "id", None) for c in calls}
    assert readers == ["catalog.py:read_rows"]
    assert len(loaders) == 7
    assert all("read_rows" in called for called in loaders.values()), loaders


def test_only_the_artifact_writer_opens_files_for_writing():
    """A file written anywhere else would be written in place, and an
    interrupted write would leave a prefix of it that can load."""
    writers, savers = [], {}
    for path in sorted(Path(sidkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in _top_level_functions(tree):
            calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
            if any(getattr(call.func, "id", None) == "open" and not _opens_for_reading(call)
                   for call in calls):
                writers.append(f"{path.name}:{func.name}")
            if func.name.startswith("save_") or func.name == "_write_csv":
                savers[func.name] = {getattr(c.func, "id", None) for c in calls}
    assert writers == ["catalog.py:write_artifact"]
    assert len(savers) == 8
    assert all("write_artifact" in called for called in savers.values()), savers


def test_a_save_that_fails_midway_leaves_the_old_artifact(tmp_path, monkeypatch):
    """The disk fills while the second block of a new scorer is written: the
    command exits 2 and the scorer from the run before is left as it was."""
    corpus, scorer = tmp_path / "corpus.txt", tmp_path / "scorer.tsv"
    save_corpus(CORPUS, corpus)
    argv = ["train-scorer", "--levels", "3,4", "--code-dim", "2", "--corpus", str(corpus),
            "--order", "2", "--out", str(scorer)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    old = scorer.read_bytes()
    count_row_bytes, blocks = retrieval._count_row_bytes, []

    def disk_full(rows, counts):
        blocks.append(len(rows))
        if len(blocks) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return count_row_bytes(rows, counts)

    monkeypatch.setattr(retrieval, "_SAVE_ROWS", 2)
    monkeypatch.setattr(retrieval, "_count_row_bytes", disk_full)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(argv + ["--alpha", "0.5"]) == EXIT_DATA
    assert len(blocks) == 2
    assert os.strerror(errno.ENOSPC) in err.getvalue()
    assert scorer.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "scorer.tsv"]
