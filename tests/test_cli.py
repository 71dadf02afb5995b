import json
import multiprocessing
import os
import tempfile
from itertools import combinations
from pathlib import Path

import pytest

from coroseg import cli
from coroseg.centerline import CLASSES_11, CLASSES_13, DROPPED_IN_11, parse_subject, prepare_subject
from coroseg.cli import main
from coroseg.graph import EMBED_DIM, build_segment_graph
from coroseg.models import ModelConfig, init_model, save_model
from coroseg.pool import workers
from coroseg.training import TrainConfig, run_cv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small generated corpus shared across CLI tests."""
    base = tmp_path_factory.mktemp("corpus")
    code = run_cli(
        "generate", "--subjects", "12", "--seed", "5", "--preset", "low-noise",
        "--out", str(base), "--run-name", "gen",
    )
    assert code == 0
    return base / "gen"


def test_generate_outputs(corpus):
    files = sorted((corpus / "subjects").glob("*.json"))
    assert len(files) == 12
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 5
    assert len(manifest["artifacts"]) == 13  # subjects + corpus manifest
    census = json.loads((corpus / "corpus_manifest.json").read_text())
    assert census["n_subjects"] == 12
    doc = json.loads(files[0].read_text())
    assert {"subject_id", "voxel_spacing_mm", "branches"} <= set(doc)


def test_default_run_names_never_share_a_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda *args: "20260101-000000")
    for subjects in ("5", "3"):
        assert run_cli("generate", "--subjects", subjects, "--seed", "0", "--out", str(tmp_path)) == 0
    runs = sorted(tmp_path.iterdir())
    assert [r.name for r in runs] == ["run-20260101-000000-s0", "run-20260101-000000-s0-2"]
    for run, n in zip(runs, (5, 3)):
        manifest = json.loads((run / "manifest.json").read_text())
        files = sorted(str(p.relative_to(run)) for p in run.rglob("*") if p.is_file())
        assert files == sorted([*manifest["artifacts"], "manifest.json"])
        assert len(manifest["artifacts"]) == n + 1  # subjects + corpus manifest
    # an explicit --run-name reruns in place, here over every file of the earlier run
    for subjects in ("3", "5"):
        assert run_cli("generate", "--subjects", subjects, "--seed", "0", "--out", str(tmp_path),
                       "--run-name", "fixed") == 0
    assert len(list(tmp_path.iterdir())) == 3
    assert len(list((tmp_path / "fixed" / "subjects").iterdir())) == 5


def test_generate_refuses_to_mix_two_corpora_in_one_run(tmp_path, capsys):
    def generate(subjects, seed):
        return run_cli("generate", "--subjects", subjects, "--seed", seed, "--out", str(tmp_path),
                       "--run-name", "c")

    def tree():
        return {p: p.read_bytes() for p in sorted((tmp_path / "c").rglob("*")) if p.is_file()}

    assert generate("5", "0") == 0
    before = tree()
    # a smaller corpus would leave two of seed 0's subjects beside seed 1's
    capsys.readouterr()
    assert generate("3", "1") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "synthetic-0003.json" in err and "--run-name" in err
    assert tree() == before
    # the same configuration reruns in place, byte for byte but the manifest's duration
    assert generate("5", "0") == 0
    after = tree()
    manifest = tmp_path / "c" / "manifest.json"
    assert {p: b for p, b in after.items() if p != manifest} == {
        p: b for p, b in before.items() if p != manifest}
    assert len(list((tmp_path / "c" / "subjects").iterdir())) == 5


def test_build_graph_schema(corpus, tmp_path):
    subject = sorted((corpus / "subjects").glob("*.json"))[0]
    code = run_cli("build", str(subject), "--out", str(tmp_path), "--run-name", "b")
    assert code == 0
    graphs = list((tmp_path / "b").glob("*.graph.json"))
    assert len(graphs) == 1
    doc = json.loads(graphs[0].read_text())
    n = len(doc["nodes"])
    assert n >= 6
    for node in doc["nodes"]:
        assert len(node["features"]) == EMBED_DIM
        assert "label" in node
    for i, j in doc["edges"]:
        assert 0 <= i < j < n
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert str(subject) in manifest["input_hashes"]


def test_train_then_eval(corpus, tmp_path):
    code = run_cli(
        "train", "--corpus", str(corpus), "--model", "sage", "--classes", "13",
        "--epochs", "5", "--seed", "1", "--out", str(tmp_path), "--run-name", "t",
    )
    assert code == 0
    ckpt = tmp_path / "t" / "sage_13.checkpoint.json"
    assert ckpt.exists()
    trace = json.loads((tmp_path / "t" / "sage_13.loss_trace.json").read_text())
    assert len(trace) == 5
    code = run_cli(
        "eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
        "--out", str(tmp_path), "--run-name", "e",
    )
    assert code == 0
    metrics = json.loads((tmp_path / "e" / "metrics.json").read_text())
    assert metrics["model"] == "sage"
    assert 0.0 <= metrics["weighted_f1"] <= 1.0
    assert metrics["n_nodes"] > 0


def test_cv_all_models_report_shape(corpus, tmp_path):
    code = run_cli(
        "cv", "--corpus", str(corpus), "--model", "all", "--classes", "both",
        "--epochs", "2", "--folds", "3", "--out", str(tmp_path), "--run-name", "cv",
    )
    assert code == 0
    run = tmp_path / "cv"
    report = json.loads((run / "report.json").read_text())
    assert [r["model"] for r in report["comparison"]] == ["gcn", "gat", "gin", "sage"]
    for row in report["comparison"]:
        assert 0.0 <= row["f1_11"] <= 1.0
        assert 0.0 <= row["f1_13"] <= 1.0
    assert set(report["details"]) == {
        f"{m}_{c}" for m in ("gcn", "gat", "gin", "sage") for c in (11, 13)
    }
    table = (run / "report.txt").read_text()
    assert "Graph Model" in table and "sage" in table
    for m in ("gcn", "gat", "gin", "sage"):
        for c in (11, 13):
            csv = (run / f"confusion_{m}_{c}.csv").read_text().strip().splitlines()
            assert len(csv) == c + 1
    records = [parse_subject(f.read_bytes()) for f in sorted((corpus / "subjects").glob("*.json"))]
    ids = sorted(rec.subject_id for rec in records)
    labels = [lb for rec in records for lb in build_segment_graph(prepare_subject(rec)).labels]
    for key, d in report["details"].items():
        folds = d["fold_test_subjects"]
        # 1. the folds partition the corpus's subject ids
        assert sorted(sid for fold in folds for sid in fold) == ids
        # 2. no fold overlaps another
        assert all(not set(a) & set(b) for a, b in combinations(folds, 2))
        # 3. fold sizes differ by at most one
        assert max(map(len, folds)) - min(map(len, folds)) <= 1
        # 4. per-class weights sum to 1
        assert abs(sum(c["weight"] for c in d["per_class"].values()) - 1.0) <= 1e-12
        # 5. fold, mean and pooled F1 lie in [0, 1]
        assert all(0.0 <= f <= 1.0 for f in
                   [*d["fold_weighted_f1"], d["weighted_f1_mean"], d["weighted_f1_pooled"]])
        # 6. the 11-class confusion counts the corpus nodes outside DROPPED_IN_11,
        # the 13-class one every node, each row those of its class
        mode = int(key.rsplit("_", 1)[1])
        classes = CLASSES_11 if mode == 11 else CLASSES_13
        kept = [lb for lb in labels if mode == 13 or lb not in DROPPED_IN_11]
        assert d["classes"] == classes
        assert sum(map(sum, d["confusion"])) == len(kept)
        assert [sum(row) for row in d["confusion"]] == [kept.count(c) for c in classes]


def test_cv_builds_each_structure_once(corpus, tmp_path, monkeypatch):
    from coroseg.models import GraphStructure

    calls = []
    build = GraphStructure.from_adjacency.__func__

    def counting(cls, adj):
        calls.append(len(adj))
        return build(cls, adj)

    monkeypatch.setattr(GraphStructure, "from_adjacency", classmethod(counting))
    assert run_cli(
        "cv", "--corpus", str(corpus), "--model", "all", "--classes", "13",
        "--epochs", "1", "--folds", "3", "--out", str(tmp_path), "--run-name", "cv",
    ) == 0
    assert len(calls) == len(list((corpus / "subjects").glob("*.json")))


def test_cv_builds_each_label_index_array_once(corpus, tmp_path, monkeypatch):
    from coroseg.graph import SegmentGraph

    arrays = []
    label_indices = SegmentGraph.label_indices

    def keeping(self, classes):
        arrays.append(label_indices(self, classes))
        return arrays[-1]

    monkeypatch.setattr(SegmentGraph, "label_indices", keeping)
    assert run_cli(
        "cv", "--corpus", str(corpus), "--model", "all", "--classes", "13",
        "--epochs", "1", "--folds", "3", "--out", str(tmp_path), "--run-name", "cv",
    ) == 0
    # every train and predict call asks again; each array is built once
    assert len({id(a) for a in arrays}) == len(list((corpus / "subjects").glob("*.json")))
    assert len(arrays) > len({id(a) for a in arrays})


def test_cv_reruns_byte_identical(corpus, tmp_path):
    for name in ("r1", "r2"):
        code = run_cli(
            "cv", "--corpus", str(corpus), "--model", "gcn", "--classes", "13",
            "--epochs", "2", "--folds", "3", "--seed", "9",
            "--out", str(tmp_path), "--run-name", name,
        )
        assert code == 0
    a = (tmp_path / "r1" / "report.json").read_bytes()
    b = (tmp_path / "r2" / "report.json").read_bytes()
    assert a == b


#: The keys of a report.json `details` entry, and of each of its `per_class`
#: entries, as README.md documents them.
REPORT_KEYS = {"classes", "fold_weighted_f1", "fold_test_subjects", "weighted_f1_mean",
               "weighted_f1_pooled", "per_class", "confusion", "confusion_normalized"}
PER_CLASS_KEYS = {"precision", "recall", "f1", "weight"}


def test_cv_report_entry_is_what_run_cv_returns(corpus, tmp_path):
    assert run_cli(
        "cv", "--corpus", str(corpus), "--model", "gcn", "--classes", "both",
        "--epochs", "2", "--folds", "3", "--out", str(tmp_path), "--run-name", "cv",
    ) == 0
    details = json.loads((tmp_path / "cv" / "report.json").read_text())["details"]
    records = [parse_subject(f.read_bytes()) for f in sorted((corpus / "subjects").glob("*.json"))]
    dataset = [(rec.subject_id, build_segment_graph(prepare_subject(rec))) for rec in records]
    assert set(details) == {"gcn_11", "gcn_13"}
    for mode in (11, 13):
        entry = details[f"gcn_{mode}"]
        assert set(entry) == REPORT_KEYS
        assert all(set(c) == PER_CLASS_KEYS for c in entry["per_class"].values())
        returned = run_cv(ModelConfig("gcn", num_classes=mode, seed=0),
                          TrainConfig(epochs=2, folds=3, seed=0), dataset)
        assert json.loads(json.dumps(returned)) == entry


def test_cv_fold_without_labeled_nodes_names_the_fold(tmp_path, capsys):
    assert run_cli("generate", "--subjects", "10", "--seed", "4",
                   "--out", str(tmp_path), "--run-name", "g") == 0
    # folds at seed 0: 0004 0006 | 0002 0007 | 0003 0005 | 0009 0000 | 0008 0001,
    # so keeping the labels of 0002, 0003 and 0004 leaves fold 4 the first with none
    for f in (tmp_path / "g" / "subjects").glob("*.json"):
        if f.stem not in ("synthetic-0002", "synthetic-0003", "synthetic-0004"):
            doc = json.loads(f.read_text())
            for b in doc["branches"]:
                b.pop("label", None)
            f.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli("cv", "--corpus", str(tmp_path / "g"), "--model", "gcn", "--classes", "13",
                   "--epochs", "1", "--out", str(tmp_path), "--run-name", "cv")
    assert code == 1
    assert _one_error_line(capsys) == "error: fold 4 of 5 has no labeled nodes to evaluate"
    assert not (tmp_path / "cv" / "manifest.json").exists()


def test_config_file_and_flag_precedence(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "seed": 4}))
    code = run_cli(
        "train", "--corpus", str(corpus), "--model", "gcn", "--classes", "13",
        "--config", str(cfg), "--epochs", "2",
        "--out", str(tmp_path), "--run-name", "p",
    )
    assert code == 0
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    # flag beats config file; config file beats the built-in default
    assert manifest["config"]["epochs"] == 2
    assert manifest["config"]["seed"] == 4


def test_cv_classes_from_config_file_and_flag(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"classes": 11}))
    for name, flags in (("file", []), ("flag", ["--classes", "13"])):
        code = run_cli(
            "cv", "--corpus", str(corpus), "--model", "gcn", "--epochs", "1", "--folds", "2",
            "--config", str(cfg), *flags, "--out", str(tmp_path), "--run-name", name,
        )
        assert code == 0
    # the config file beats the built-in 13 classes; the flag beats the file
    assert set(json.loads((tmp_path / "file" / "report.json").read_text())["details"]) == {
        "gcn_11"}
    assert set(json.loads((tmp_path / "flag" / "report.json").read_text())["details"]) == {
        "gcn_13"}
    assert json.loads((tmp_path / "file" / "manifest.json").read_text())["config"][
        "classes"] == 11


def test_cv_manifest_records_classes_as_int(corpus, tmp_path):
    for name, flags in (("default", []), ("flag", ["--classes", "13"])):
        code = run_cli(
            "cv", "--corpus", str(corpus), "--model", "gcn", "--epochs", "1", "--folds", "2",
            *flags, "--out", str(tmp_path), "--run-name", name,
        )
        assert code == 0
    configs = [json.loads((tmp_path / name / "manifest.json").read_text())["config"]
               for name in ("default", "flag")]
    assert configs[0] == configs[1]
    assert configs[0]["classes"] == 13


def test_build_rejects_duplicate_subject_ids(corpus, tmp_path, capsys):
    subject = sorted((corpus / "subjects").glob("*.json"))[0]
    copy = tmp_path / "copy.json"
    copy.write_bytes(subject.read_bytes())
    code = run_cli("build", str(subject), str(copy), "--out", str(tmp_path), "--run-name", "d")
    assert code == 1
    sid = json.loads(subject.read_text())["subject_id"]
    assert _one_error_line(capsys) == f"error: {copy}: duplicate subject_id {sid!r}"
    assert not (tmp_path / "d" / "manifest.json").exists()
    # every command that reads a corpus directory reads it the same way
    subjects = tmp_path / "subjects"
    subjects.mkdir()
    for f in sorted((corpus / "subjects").glob("*.json"))[:3]:
        (subjects / f.name).write_bytes(f.read_bytes())
    copy = subjects / "zz-copy.json"   # sorts after the file it copies
    copy.write_bytes(subject.read_bytes())
    ckpt = tmp_path / "gcn.checkpoint.json"
    save_model(init_model(ModelConfig("gcn")), ckpt)
    for name, argv in (
        ("train", ["train", "--model", "gcn", "--epochs", "1"]),
        ("eval", ["eval", "--checkpoint", str(ckpt)]),
        ("cv", ["cv", "--model", "gcn", "--epochs", "1", "--folds", "2"]),
    ):
        code = run_cli(*argv, "--corpus", str(subjects), "--out", str(tmp_path), "--run-name", name)
        assert code == 1, name
        assert _one_error_line(capsys) == f"error: {copy}: duplicate subject_id {sid!r}"
        assert not (tmp_path / name / "manifest.json").exists()


def test_train_has_no_folds_flag(corpus, tmp_path, capsys):
    # train never reads the folds; only cv splits the corpus
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--corpus", str(corpus), "--folds", "2",
                "--out", str(tmp_path), "--run-name", "t")
    assert exc.value.code == 2
    assert "unrecognized arguments: --folds 2" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_generate_without_subjects_one_line_error(tmp_path, capsys, count):
    code = run_cli("generate", "--subjects", count, "--out", str(tmp_path), "--run-name", "g")
    assert code == 1
    assert _one_error_line(capsys) == f"error: n_subjects must be >= 1, not {count}"
    assert not (tmp_path / "g" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ("generate",),
    ("train", "--model", "gcn", "--epochs", "1"),
    ("cv", "--model", "gcn", "--epochs", "1", "--folds", "3"),
])
def test_negative_seed_one_line_error(corpus, tmp_path, capsys, argv):
    if argv[0] != "generate":
        argv += ("--corpus", str(corpus))
    code = run_cli(*argv, "--seed", "-1", "--out", str(tmp_path), "--run-name", "s")
    assert code == 1
    assert _one_error_line(capsys) == "error: seed must be >= 0, not -1"
    assert not (tmp_path / "s" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["train", "cv"])
def test_batch_below_one_names_the_flag(corpus, tmp_path, capsys, command):
    code = run_cli(command, "--corpus", str(corpus), "--model", "gcn", "--epochs", "1",
                   "--batch", "0", "--out", str(tmp_path), "--run-name", "b")
    assert code == 1
    assert _one_error_line(capsys) == "error: batch must be >= 1, not 0"
    assert not (tmp_path / "b" / "manifest.json").exists()


def test_validation_error_exit_code(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = run_cli(
        "train", "--corpus", str(empty), "--model", "gcn", "--epochs", "1",
        "--classes", "13", "--out", str(tmp_path), "--run-name", "x",
    )
    assert code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("build", str(bad), "--out", str(tmp_path), "--run-name", "y") == 1


GOOD_SUBJECT = {
    "subject_id": "s1",
    "voxel_spacing_mm": 0.5,
    "branches": [
        {"id": "a", "side": "left", "points": [[0, 0, 0], [0, 0, 5]]},
        {"id": "b", "side": "right", "points": [[10, 0, 0], [10, 0, 5]]},
    ],
}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("branches", [5, GOOD_SUBJECT["branches"][1]], "branch 0: must be an object"),
        ("voxel_spacing_mm", float("inf"), "voxel_spacing_mm must be finite and positive"),
        ("voxel_spacing_mm", float("nan"), "voxel_spacing_mm must be finite and positive"),
        ("voxel_spacing_mm", [0.5], "voxel_spacing_mm must be a number"),
        (
            "branches",
            [{"id": "a", "side": "left", "points": [[-1.7e308, 0, 0], [1.7e308, 0, 0]]},
             GOOD_SUBJECT["branches"][1]],
            "branch 'a': arc length overflows",
        ),
        (
            "branches",
            [{"id": "a", "side": "left", "points": [[0, 0, {}], [0, 0, 5]]},
             GOOD_SUBJECT["branches"][1]],
            "branch 0: points must be an array of numbers",
        ),
        (
            "branches",
            [{**GOOD_SUBJECT["branches"][0], "label": "XYZ"}, GOOD_SUBJECT["branches"][1]],
            "branch 0: unknown label 'XYZ'",
        ),
        (
            "branches",
            [GOOD_SUBJECT["branches"][0], {**GOOD_SUBJECT["branches"][1], "label": 7}],
            "branch 1: unknown label 7",
        ),
        (
            "branches",
            [{"id": "A", "side": "left", "points": [[0, 0, 0], [0, 0, 5], [0, 0, 10]]},
             {"id": "B", "side": "left", "points": [[0, 0, 5], [5, 0, 5], [0, 0, 0]]},
             GOOD_SUBJECT["branches"][1]],
            "not a tree: left side has 3 segments on 3 junctions",
        ),
        *(
            ("branches",
             [{"id": "a", "side": "left", "points": [[0, 0, 0], [far, 0, 5]]},
              GOOD_SUBJECT["branches"][1]],
             "branch 'a': resampling makes more than 100000 points")
            for far in (1e30, 1e12)
        ),
    ],
)
def test_build_bad_subject_one_line_error(tmp_path, capsys, field, value, message):
    subject = tmp_path / "bad.json"
    subject.write_text(json.dumps({**GOOD_SUBJECT, field: value}))
    assert run_cli("build", str(subject), "--out", str(tmp_path), "--run-name", "x") == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_build_fold_back_one_line_error(tmp_path, capsys):
    # valid input, but at 0.2 mm voxels resampling puts two equal points
    # in a row
    fold_back = {"id": "a", "side": "left", "points": [[0, 0, 0], [5, 0, 0], [0, 0, 0]]}
    subject = tmp_path / "fold.json"
    subject.write_text(json.dumps(
        {**GOOD_SUBJECT, "voxel_spacing_mm": 0.2,
         "branches": [fold_back, GOOD_SUBJECT["branches"][1]]}
    ))
    assert run_cli("build", str(subject), "--out", str(tmp_path), "--run-name", "x") == 1
    assert _one_error_line(capsys) == "error: branch 'a': consecutive duplicate points"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("cv")  # missing required --corpus
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("nonsense")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("cv", "--corpus", "c", "--check")  # a flag that was removed
    assert exc.value.code == 2
    capsys.readouterr()


def _one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def _gat(weight=None, **config):
    """Edit that swaps in a gat checkpoint: config fields changed, every weight set to weight."""
    def edit(_):
        model = init_model(ModelConfig("gat"))
        if weight is not None:
            model.values[:] = weight
        with tempfile.TemporaryDirectory() as tmp:
            save_model(model, Path(tmp) / "gat.json")
            doc = json.loads((Path(tmp) / "gat.json").read_text())
        return {**doc, "config": {**doc["config"], **config}}
    return edit


def _weight(name, index, value):
    """Edit that sets entry index of weight name's values to value."""
    def edit(doc):
        values = list(doc["weights"][name]["values"])
        values[index] = value
        return {**doc, "weights": {**doc["weights"], name: {**doc["weights"][name], "values": values}}}
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: {**d, "config": {**d["config"], "depth": 3}}, "unexpected keyword argument 'depth'"),
        (lambda d: {k: v for k, v in d.items() if k != "config"}, "needs a 'config' object"),
        (lambda d: [d], "checkpoint must be a JSON object"),
        (lambda d: {**d, "weights": {k: v for k, v in d["weights"].items() if k != "w2"}},
         "missing weights ['w2']"),
        (lambda d: {**d, "config": {**d["config"], "leaky_slope": "0.2"}},
         "config field 'leaky_slope' must be float"),
        (_gat(leaky_slope=float("nan")), "config field 'leaky_slope' must be finite"),
        (_gat(weight=1e300), "non-finite value in the forward pass"),
        # a JSON boolean or string among the weight values is not a number
        (_weight("b1", 0, True), "weight 'b1' needs numeric 'values'"),
        (_weight("w2", 3, "0.25"), "weight 'w2' needs numeric 'values'"),
        (lambda d: {**d, "format_version": True}, "unsupported checkpoint version True"),
        (lambda d: {**d, "format_version": 1.0}, "unsupported checkpoint version 1.0"),
        # refused before any weight is allocated (48 x 2**40 floats at the first layer)
        (lambda d: {**d, "config": {**d["config"], "hidden_dim": 2**40}},
         "config field 'hidden_dim' must be <= 1024, not 1099511627776"),
    ],
)
def test_eval_bad_checkpoint_one_line_error(corpus, tmp_path, capsys, edit, message):
    ckpt = tmp_path / "gcn.checkpoint.json"
    save_model(init_model(ModelConfig("gcn")), ckpt)
    ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
    code = run_cli("eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                   "--out", str(tmp_path), "--run-name", "e")
    assert code == 1
    assert message in _one_error_line(capsys)


DEEP = "[" * 100_000 + "]" * 100_000   # nested past the JSON decoder's recursion limit


@pytest.mark.parametrize(
    "command, doc, code, message",
    [
        ("build", {**GOOD_SUBJECT, "branches": "DEEP"}, 1, "error: malformed JSON: "),
        ("eval", {"format_version": 1, "config": "DEEP", "weights": {}}, 1,
         "error: malformed checkpoint: "),
        ("generate", "DEEP", 2, "error: --config "),
    ],
    ids=["subject-branches", "checkpoint-config", "config-file"],
)
def test_deeply_nested_json_ends_in_one_line(corpus, tmp_path, capsys, command, doc, code, message):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace('"DEEP"', DEEP))
    argv = {"build": [str(path)],
            "eval": ["--checkpoint", str(path), "--corpus", str(corpus)],
            "generate": ["--subjects", "1", "--config", str(path)]}[command]
    assert run_cli(command, *argv, "--out", str(tmp_path), "--run-name", "d") == code
    line = _one_error_line(capsys)
    assert line.startswith(message) and "Traceback" not in line


LONG = "x" * 1_000_000   # an input value a one-line error must not echo whole


def _long_checkpoint(edit):
    def write(corpus):
        save_model(init_model(ModelConfig("gcn")), "c.json")
        Path("c.json").write_text(json.dumps(edit(json.loads(Path("c.json").read_text()))))
        return ["eval", "--checkpoint", "c.json", "--corpus", str(corpus)]
    return write


def _long_config(doc):
    def write(corpus):
        Path("c.json").write_text(json.dumps(doc))
        return ["generate", "--subjects", "1", "--config", "c.json"]
    return write


def _long_subjects(command, *docs):
    """Subject files s0.json, ... in a directory, built or read as an eval corpus."""
    def write(corpus):
        Path("s").mkdir()
        for i, doc in enumerate(docs):
            Path(f"s/s{i}.json").write_text(json.dumps(doc))
        if command == "build":
            return ["build", *sorted(str(f) for f in Path("s").iterdir())]
        save_model(init_model(ModelConfig("gcn")), "c.json")
        return ["eval", "--checkpoint", "c.json", "--corpus", "s"]
    return write


def _branch(**edits):
    return {**GOOD_SUBJECT, "branches": [{**GOOD_SUBJECT["branches"][0], **edits},
                                         GOOD_SUBJECT["branches"][1]]}


LONG_INPUTS = {
    "checkpoint-variant": (_long_checkpoint(lambda d: {**d, "config": {**d["config"], "variant": LONG}}), 1),
    "checkpoint-field-type": (
        _long_checkpoint(lambda d: {**d, "config": {**d["config"], "hidden_dim": LONG}}), 1),
    "checkpoint-config-key": (_long_checkpoint(lambda d: {**d, "config": {**d["config"], LONG: 1}}), 1),
    "checkpoint-version": (_long_checkpoint(lambda d: {**d, "format_version": LONG}), 1),
    "checkpoint-weight-name": (
        _long_checkpoint(lambda d: {**d, "weights": {**d["weights"], LONG: d["weights"]["b1"]}}), 1),
    "config-value": (_long_config({"epochs": LONG}), 2),
    "config-key": (_long_config({LONG: 5}), 2),
    "config-choice": (_long_config({"preset": LONG}), 2),
    "branch-id": (_long_subjects("build", _branch(id=LONG, side="middle")), 1),
    "branch-id-shape": (_long_subjects("build", _branch(id=LONG, points=[[0, 0], [0, 5]])), 1),
    "side": (_long_subjects("build", _branch(side=LONG)), 1),
    "label": (_long_subjects("build", _branch(label=LONG)), 1),
    "subject-id-file-name": (_long_subjects("build", {**GOOD_SUBJECT, "subject_id": LONG + "/"}), 1),
    "subject-id-name-too-long": (_long_subjects("build", {**GOOD_SUBJECT, "subject_id": LONG}), 1),
    "duplicate-subject-id": (_long_subjects("eval", *[{**GOOD_SUBJECT, "subject_id": LONG}] * 2), 1),
}


@pytest.mark.parametrize("case", sorted(LONG_INPUTS))
def test_long_input_value_is_clipped_in_the_one_line_error(corpus, tmp_path, monkeypatch,
                                                           capsys, case):
    write, code = LONG_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    assert run_cli(*write(corpus), "--out", str(tmp_path), "--run-name", "r") == code
    line = _one_error_line(capsys)
    assert len(line.encode()) <= 200 and "xxx..." in line and "Traceback" not in line, line


def test_eval_unlabeled_corpus_names_the_cause(corpus, tmp_path, capsys):
    subjects = tmp_path / "unlabeled"
    subjects.mkdir()
    for f in sorted((corpus / "subjects").glob("*.json"))[:2]:
        doc = json.loads(f.read_text())
        for b in doc["branches"]:
            b.pop("label", None)
        (subjects / f.name).write_text(json.dumps(doc))
    ckpt = tmp_path / "gcn.checkpoint.json"
    save_model(init_model(ModelConfig("gcn")), ckpt)
    code = run_cli("eval", "--checkpoint", str(ckpt), "--corpus", str(subjects),
                   "--out", str(tmp_path), "--run-name", "e")
    assert code == 1
    assert _one_error_line(capsys) == "error: no labeled nodes to evaluate"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"epochs": "5"}', "epochs must be int, not '5'"),
        ('{"lr": true}', "lr must be float, not True"),
        ('{"epoch": 5}', "unknown key 'epoch'"),
        ("[5]", "must be a JSON object"),
        ("{not json", "Expecting property name"),
        # a value outside its flag's choices, even where a flag overrides it
        ('{"preset": "bogus"}', "preset must be one of default, low-noise, not 'bogus'"),
        ('{"classes": 12}', "classes must be one of 11, 13, not 12"),
        ('{"model": "all"}', "model must be one of gcn, gat, gin, sage, not 'all'"),
    ],
)
def test_bad_config_file_exits_2_with_one_line(corpus, tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    # --preset is a generate flag; every other key is read by train too
    argv = (["generate", "--subjects", "1"] if "preset" in text else
            ["train", "--corpus", str(corpus), "--model", "gcn", "--classes", "13"])
    code = run_cli(*argv, "--config", str(cfg), "--out", str(tmp_path), "--run-name", "c")
    assert code == 2
    assert message in _one_error_line(capsys)
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("branches",
         [{"id": "a", "side": "left", "points": [["0", "0", "0"], ["10", "0", "0"]]},
          GOOD_SUBJECT["branches"][1]],
         "branch 0: points must be an array of numbers"),
        ("voxel_spacing_mm", "0.5", "voxel_spacing_mm must be a number"),
        ("voxel_spacing_mm", True, "voxel_spacing_mm must be a number"),
        ("branches",
         [GOOD_SUBJECT["branches"][0],
          {"id": "b", "side": "right", "points": [[10, 0, 0], [10, True, 5]]}],
         "branch 1: points must be an array of numbers"),
    ],
)
def test_build_rejects_values_that_are_not_numbers(tmp_path, capsys, field, value, message):
    subject = tmp_path / "bad.json"
    subject.write_text(json.dumps({**GOOD_SUBJECT, field: value}))
    assert run_cli("build", str(subject), "--out", str(tmp_path), "--run-name", "x") == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.fixture(scope="module")
def files20(tmp_path_factory):
    """20 default-preset subject files: 3 per chunk of a 2-worker build."""
    base = tmp_path_factory.mktemp("build20")
    assert run_cli("generate", "--subjects", "20", "--seed", "8",
                   "--out", str(base), "--run-name", "gen") == 0
    return sorted((base / "gen" / "subjects").glob("*.json"))


def _build_on(cpus, files, out: Path, capsys, monkeypatch):
    """coroseg build with `cpus` CPUs visible: (exit code, stderr, graph files' bytes)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert workers(cli.BUILD_FILE_LOADS * len(files)) == cpus
    code = run_cli("build", *map(str, files), "--out", str(out), "--run-name", f"w{cpus}")
    assert multiprocessing.active_children() == []
    graphs = {p.name: p.read_bytes() for p in (out / f"w{cpus}").glob("*.graph.json")}
    return code, capsys.readouterr().err, graphs


def test_build_same_bytes_on_one_and_two_workers(files20, tmp_path, capsys, monkeypatch):
    serial = _build_on(1, files20, tmp_path, capsys, monkeypatch)
    assert serial[0] == 0 and len(serial[2]) == 20
    assert _build_on(2, files20, tmp_path, capsys, monkeypatch) == serial
    manifests = [json.loads((tmp_path / name / "manifest.json").read_text())
                 for name in ("w1", "w2")]
    assert manifests[0]["input_hashes"] == manifests[1]["input_hashes"]
    assert sorted(manifests[0]["input_hashes"]) == sorted(map(str, files20))


@pytest.mark.parametrize("fault, at", [
    ("parse", 5),        # the last of the second 3-file chunk
    ("build", 4),
    ("duplicate", 16),   # a copy of file 1, five chunks on
])
def test_build_fault_in_a_chunk_matches_serial(files20, tmp_path, capsys, monkeypatch, fault, at):
    bad = tmp_path / "bad.json"
    if fault == "parse":
        bad.write_text("{not json")
    elif fault == "build":  # parses, then fails (see test_build_fold_back_one_line_error)
        fold_back = {"id": "a", "side": "left", "points": [[0, 0, 0], [5, 0, 0], [0, 0, 0]]}
        bad.write_text(json.dumps({**GOOD_SUBJECT, "voxel_spacing_mm": 0.2,
                                   "branches": [fold_back, GOOD_SUBJECT["branches"][1]]}))
    else:
        bad.write_bytes(files20[1].read_bytes())
    files = [*files20[:at], bad, *files20[at:]]
    serial = _build_on(1, files, tmp_path, capsys, monkeypatch)
    code, err, graphs = serial
    assert code == 1 and len(err.splitlines()) == 1
    assert sorted(graphs) == sorted(f"{f.stem}.graph.json" for f in files20[:at])
    assert _build_on(2, files, tmp_path, capsys, monkeypatch) == serial
    assert not (tmp_path / "w2" / "manifest.json").exists()


@pytest.mark.parametrize("sid", ["../escaped", "", ".", "..", "a/b", "a\\b", "a\0b"])
def test_build_rejects_a_subject_id_that_cannot_name_a_file(tmp_path, capsys, sid):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_SUBJECT))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GOOD_SUBJECT, "subject_id": sid}))
    runs = tmp_path / "runs"
    code = run_cli("build", str(good), str(bad), "--out", str(runs), "--run-name", "x")
    assert code == 1
    assert _one_error_line(capsys) == f"error: {bad}: subject_id {sid!r} cannot name a file"
    assert sorted(p.name for p in runs.rglob("*")) == ["s1.graph.json", "x"]


def test_workers_fall_back_to_one_process(monkeypatch):
    # one worker per 32 subject loads, at most one per CPU; a build file counts 5
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [workers(n) for n in (1, 63, 64, 95, 96, 10**6)] == [1, 1, 2, 2, 3, 3]
    assert [workers(cli.BUILD_FILE_LOADS * n) for n in (12, 13)] == [1, 2]
    with monkeypatch.context() as m:
        m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert workers(500) == 1
    with monkeypatch.context() as m:
        m.setattr(multiprocessing.current_process(), "daemon", True)
        assert workers(500) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers(500) == 1


def test_build_worker_that_dies_one_line_error(files20, tmp_path, capsys, monkeypatch):
    prepare = cli.prepare_subject

    def die_on_3(rec):  # only in a pool worker: the parent would end the test run
        if rec.subject_id == "synthetic-0003" and multiprocessing.parent_process() is not None:
            os._exit(9)
        return prepare(rec)

    monkeypatch.setattr(cli, "prepare_subject", die_on_3)
    code, err, _ = _build_on(2, files20, tmp_path, capsys, monkeypatch)
    assert code == 1
    assert err.splitlines() == ["error: a worker process ended without a result"]
    assert not (tmp_path / "w2" / "manifest.json").exists()


def test_cv_same_report_on_one_and_two_workers(tmp_path, capsys, monkeypatch):
    assert run_cli("generate", "--subjects", "64", "--seed", "2", "--preset", "low-noise",
                   "--out", str(tmp_path), "--run-name", "gen") == 0
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert workers(64) == cpus
        assert run_cli("cv", "--corpus", str(tmp_path / "gen"), "--model", "gcn",
                       "--classes", "both", "--epochs", "2", "--folds", "3",
                       "--out", str(tmp_path), "--run-name", f"cv{cpus}") == 0
        assert multiprocessing.active_children() == []
        run = tmp_path / f"cv{cpus}"
        outputs.append({p.name: p.read_bytes() for p in run.iterdir() if p.name != "manifest.json"})
    assert sorted(outputs[0]) == ["confusion_gcn_11.csv", "confusion_gcn_13.csv",
                                  "report.json", "report.txt"]
    assert outputs[1] == outputs[0]


def test_generate_over_the_subject_cap_one_line_error(tmp_path, capsys):
    code = run_cli("generate", "--subjects", str(10**12), "--out", str(tmp_path), "--run-name", "g")
    assert code == 1
    assert _one_error_line(capsys) == "error: n_subjects must be <= 100000, not 1000000000000"
    assert not (tmp_path / "g" / "manifest.json").exists()
