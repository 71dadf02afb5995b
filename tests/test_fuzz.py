"""Mutation fuzzing of `cli.main`.

Valid subject files (run through `build`), checkpoints (through `eval`) and
--config files (through `generate`) get fields dropped, retyped or perturbed,
and a subject file may also lose its tail or have a byte replaced. Whatever
the input, the command ends in exit 0, 1 or 2, and a failure in one stderr
line of at most 200 bytes without a traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coroseg.cli import main
from coroseg.models import VARIANTS, ModelConfig, init_model, save_model

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)

#: Values a retyped field takes: every JSON type, and numbers at the edges.
RETYPED = [None, True, False, 0, -1, 1, 2**64, -(2**64), 0.5, -0.0, 1e308, -1e308, float("nan"),
           float("inf"), "", "x", "LM", "left", [], [0, 0, 0], [[0.0, 0.0, 0.0]], {}, {"id": 1}]

#: Factors and offsets a perturbed number takes.
FACTORS = [0, -1, 0.5, 2, 10, 1e6, 1e-9]
OFFSETS = [-1, 1, 1e-3, 1e3]


def _paths(doc, prefix=()):
    """The path of every value in a JSON document, the root included; in a
    list only its first two, middle and last items are entered, so that long
    point and weight lists do not crowd out the fields around them."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = [(i, doc[i]) for i in sorted({0, 1, len(doc) // 2, len(doc) - 1} & {*range(len(doc))})]
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _perturbed(value, data):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        if data.draw(st.booleans()):
            return type(value)(value * data.draw(st.sampled_from(FACTORS)))
        return value + data.draw(st.sampled_from(OFFSETS))
    if isinstance(value, str):
        return data.draw(st.sampled_from([value + "x", value[:-1], value.upper(), value * 2]))
    if isinstance(value, list):
        if value and data.draw(st.booleans()):
            return [*value, value[-1]]
        return data.draw(st.permutations(value))
    if isinstance(value, dict):
        return {**value, "extra": 1}
    return 0  # None


def _mutated(doc, data):
    """doc with one to three of its values dropped, retyped or perturbed."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        kind = data.draw(st.sampled_from(["drop", "retype", "perturb"]))
        retyped = copy.deepcopy(data.draw(st.sampled_from(RETYPED))) if kind == "retype" else None
        if not path:
            doc = retyped if kind == "retype" else doc
            continue
        *head, key = path
        parent = doc
        for step in head:
            parent = parent[step]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = retyped
        else:
            parent[key] = _perturbed(parent[key], data)
    return doc


def _assert_contract(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        text = err.getvalue()
        lines = text.splitlines()
        assert len(lines) == 1 and len(lines[0].encode()) <= 200, lines
        assert "Traceback" not in text


@pytest.fixture(scope="module")
def base():
    """A short-named directory holding a two-subject low-noise corpus."""
    with tempfile.TemporaryDirectory(prefix="fz") as tmp:
        assert main(["generate", "--subjects", "2", "--seed", "1", "--preset", "low-noise",
                     "--out", tmp, "--run-name", "c"]) == 0
        yield Path(tmp)


@FUZZ
@given(data=st.data())
def test_mutated_subject_file_keeps_the_exit_contract(base, data):
    files = sorted((base / "c" / "subjects").glob("*.json"))
    doc = json.loads(data.draw(st.sampled_from(files)).read_text())
    raw = json.dumps(_mutated(doc, data)).encode()
    edit = data.draw(st.sampled_from(["none", "none", "truncate", "byte"]))
    at = data.draw(st.integers(0, len(raw) - 1))
    if edit == "truncate":
        raw = raw[:at]
    elif edit == "byte":
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1 :]
    (base / "s.json").write_bytes(raw)
    _assert_contract(["build", str(base / "s.json"), "--out", str(base), "--run-name", "b"])


@pytest.fixture(scope="module")
def checkpoints(base):
    """A small checkpoint document per variant."""
    docs = {}
    for variant in VARIANTS:
        save_model(init_model(ModelConfig(variant, hidden_dim=4)), base / "k.json")
        docs[variant] = json.loads((base / "k.json").read_text())
    return docs


@FUZZ
@given(data=st.data())
def test_mutated_checkpoint_keeps_the_exit_contract(base, checkpoints, data):
    doc = _mutated(checkpoints[data.draw(st.sampled_from(VARIANTS))], data)
    (base / "k.json").write_text(json.dumps(doc))
    _assert_contract(["eval", "--checkpoint", str(base / "k.json"), "--corpus", str(base / "c"),
                      "--out", str(base), "--run-name", "e"])


CONFIG = {"seed": 0, "epochs": 1, "batch": 8, "lr": 1e-3, "folds": 5, "subjects": 1,
          "classes": 13, "out": "runs", "preset": "default", "model": "sage"}


@FUZZ
@given(data=st.data())
def test_mutated_config_file_keeps_the_exit_contract(base, data):
    (base / "g.json").write_text(json.dumps(_mutated(CONFIG, data)))
    # the flag keeps the corpus at one subject whatever the file's value
    _assert_contract(["generate", "--config", str(base / "g.json"), "--subjects", "1",
                      "--out", str(base), "--run-name", "g"])
