"""The three workloads: inputs made in set-up, one timed pass, and its checks.

A pass is one whole round of a workload's operations, always the same for a
given seed, so every run attempts whole rounds. The benchmark reaches the
package only through public functions (looked up on their modules at call
time, so the tracer sees them) and the in-process ``coroseg.cli.main``.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from coroseg import centerline, cli, graph, models, synth
from coroseg.centerline import CLASSES_13

import oracles
from tracer import StepProbe

VARIANTS = ("gcn", "gat", "gin", "sage")
FEATURE_WIDTH = 48
INVARIANCE_TOL = 1e-9
LOGITS_TOL = 1e-9
F1_TOL = 1e-12
#: Subjects per run whose build is repeated under a random motion.
INVARIANCE_SAMPLE = 3


Span = tuple[int, int]


@dataclass
class Pass:
    """Timings of one pass as marks, the same ones in the same order every pass.

    The timed work is given as spans (first, last) of mark indices. At a
    pause the reference loop runs between two marks of its own; `refs` holds
    (mark index, reference ms) for each pause, with the samples taken just
    before and just after the pass at indices -1 and len(marks) - 1.
    """

    marks: list[float]             # perf_counter at the start, at fixed points, at the end
    ops: list[Span]                # each timed operation
    nodes: int                     # graph nodes through the timed work
    busy: list[Span]               # the time those nodes took, in parts
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    f1: dict[str, float] = field(default_factory=dict)
    timed: Span | None = None      # what pass_s covers; None for the whole pass
    refs: list[tuple[int, float]] = field(default_factory=list)

    @property
    def span(self) -> Span:
        return self.timed or (0, len(self.marks) - 1)


def _cli(argv: list[str]) -> int:
    """coroseg.cli.main in-process; its console report is not part of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write_subjects(directory: Path, docs: list[dict]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in docs:
        path = directory / f"{doc['subject_id']}.json"
        path.write_text(json.dumps(doc))
        paths.append(path)
    return paths


def _corpus(n: int, seed: int):
    records, _ = synth.generate_corpus(synth.GenParams(n_subjects=n, seed=seed))
    return records


def _file_to_graph(raw: bytes):
    return graph.build_segment_graph(
        centerline.prepare_subject(centerline.parse_subject(raw)))


def no_pause(marks: list[float]):
    """The pause of a pass run outside a measurement: nothing."""


class Build:
    """Subject files at voxel spacing converted to segment-graph JSON.

    Each pass converts every subject twice: one at a time from file bytes to
    graph JSON text (the latency samples), then all at once with
    ``coroseg build`` (the pass_s sample).
    """

    name = "build"

    def __init__(self, seed: int, subjects: int = 110):
        self.seed, self.n = seed, subjects

    def setup(self, work: Path):
        # A root start near another branch can be merged onto it, across
        # sides too, which changes the graph on a few seeds only; such
        # subjects are left out (see the FOUND line on merge_branch_origins).
        records = [rec for rec in _corpus(self.n, self.seed) if oracles.roots_clear(rec)]
        rng = np.random.default_rng([self.seed, 1])
        self.docs = [oracles.dense_doc(rec, rng) for rec in records]
        self.expected = [oracles.expected_counts(rec) for rec in records]
        self.paths = _write_subjects(work / "subjects", self.docs)
        self.raw = [p.read_bytes() for p in self.paths]
        self.out_dir = work / "runs"
        self.motion_rng = np.random.default_rng([self.seed, 2])
        self.invariance_checked = False

    def run_pass(self, pause=no_pause) -> Pass:
        marks, ops, results, failed = [perf_counter()], [], [], 0
        for raw in self.raw:
            try:
                sg = _file_to_graph(raw)
                text = graph.segment_graph_to_json(sg)
            except ValueError:
                failed += 1
                results.append(None)
                continue
            finally:
                marks.append(perf_counter())
            ops.append((len(marks) - 2, len(marks) - 1))
            results.append((sg, text))
        pause(marks)
        first = len(marks) - 1
        try:
            code = _cli(["build", *map(str, self.paths), "--out", str(self.out_dir),
                         "--run-name", "build"])
        finally:
            marks.append(perf_counter())
        failed += len(self.raw) if code else 0
        done = [r for r in results if r is not None]
        p = Pass(marks, ops, sum(sg.n_nodes for sg, _ in done), ops,
                 2 * len(self.raw), failed, timed=(first, len(marks) - 1))
        if not code:
            p.errors += self._check(results)
        return p

    def _check(self, results) -> list[str]:
        errors = []
        for doc, expected, result in zip(self.docs, self.expected, results):
            if result is None:
                continue
            sg, text = result
            sid = doc["subject_id"]
            got = (sg.n_nodes, int(sg.adjacency.sum()) // 2, dict(Counter(sg.labels)))
            if got != expected:
                errors.append(f"{sid}: nodes/edges/labels {got} != expected {expected}")
            if sg.features.shape != (sg.n_nodes, FEATURE_WIDTH):
                errors.append(f"{sid}: feature shape {sg.features.shape}")
            if not np.isfinite(sg.features).all():
                errors.append(f"{sid}: non-finite feature")
            written = self.out_dir / "build" / f"{sid}.graph.json"
            if written.read_text() != text:
                errors.append(f"{sid}: coroseg build output differs from the library's")
        if not self.invariance_checked:
            self.invariance_checked = True
            errors += self._check_invariance(results)
        return errors

    def _check_invariance(self, results) -> list[str]:
        errors = []
        for doc, result in list(zip(self.docs, results))[:INVARIANCE_SAMPLE]:
            if result is None:
                continue
            moved, scale = oracles.moved_doc(doc, self.motion_rng)
            sg = _file_to_graph(json.dumps(moved).encode())
            base = result[0].features
            if sg.features.shape != base.shape:
                errors.append(f"{doc['subject_id']}: graph changed under motion x{scale:.3f}")
                continue
            drift = float(np.abs(sg.features - base).max())
            if drift > INVARIANCE_TOL:
                errors.append(f"{doc['subject_id']}: feature drift {drift:.2e} under "
                              f"rigid motion and rescale x{scale:.3f}")
        return errors


class CV:
    """``coroseg cv --model all --classes 13`` with the CLI's 5 folds and batch 8."""

    name = "cv"

    def __init__(self, seed: int, subjects: int = 141, epochs: int = 2):
        self.seed, self.n, self.epochs = seed, subjects, epochs

    def setup(self, work: Path):
        records = _corpus(self.n, self.seed)
        self.ids = [rec.subject_id for rec in records]
        self.corpus = work / "corpus"
        _write_subjects(self.corpus / "subjects", [oracles.record_doc(r) for r in records])
        self.out_dir = work / "runs"

    def run_pass(self, pause=no_pause) -> Pass:
        probe = StepProbe(pause)
        probe.install()
        probe.mark()
        try:
            code = _cli(["cv", "--corpus", str(self.corpus), "--model", "all",
                         "--classes", "13", "--epochs", str(self.epochs),
                         "--out", str(self.out_dir), "--run-name", "cv"])
        finally:
            probe.mark()
            probe.uninstall()
        folds = len(VARIANTS) * 5
        p = Pass(probe.marks, probe.steps, probe.nodes, probe.trains, folds,
                 folds if code else 0)
        if not code:
            report = json.loads((self.out_dir / "cv" / "report.json").read_text())
            p.errors += self._check(report, p.f1)
        return p

    def _check(self, report: dict, f1: dict) -> list[str]:
        errors = []
        for v in VARIANTS:
            d = report["details"][f"{v}_13"]
            folds = d["fold_test_subjects"]
            flat = [sid for fold in folds for sid in fold]
            if len(folds) != 5 or sorted(flat) != sorted(self.ids):
                errors.append(f"{v}: folds do not partition the subjects")
            sizes = [len(f) for f in folds]
            if max(sizes) - min(sizes) > 1:
                errors.append(f"{v}: fold sizes {sizes} differ by more than one")
            pooled = oracles.weighted_f1_from_confusion(d["confusion"])
            if abs(pooled - d["weighted_f1_pooled"]) > F1_TOL:
                errors.append(f"{v}: pooled F1 {d['weighted_f1_pooled']!r} != "
                              f"recounted {pooled!r}")
            floor = oracles.majority_f1_from_confusion(d["confusion"])
            if not d["weighted_f1_mean"] > floor:
                errors.append(f"{v}: F1 {d['weighted_f1_mean']:.4f} does not beat the "
                              f"majority-class F1 {floor:.4f}")
            f1[v] = d["weighted_f1_mean"]
        return errors


class Label:
    """One trained checkpoint per variant labels held-out subjects one at a time.

    The timed path per subject and checkpoint: file bytes -> parse_subject ->
    prepare_subject -> build_segment_graph -> GraphStructure.from_adjacency
    -> model_forward -> argmax.
    """

    name = "label"

    def __init__(self, seed: int, train_subjects: int = 24, epochs: int = 5,
                 held_out: int = 30):
        self.seed, self.n_train, self.epochs, self.n_held = seed, train_subjects, epochs, held_out

    def setup(self, work: Path):
        train = _corpus(self.n_train, self.seed)
        _write_subjects(work / "train" / "subjects", [oracles.record_doc(r) for r in train])
        self.models, self.checkpoints = {}, {}
        for v in VARIANTS:
            code = _cli(["train", "--corpus", str(work / "train"), "--model", v,
                         "--classes", "13", "--epochs", str(self.epochs),
                         "--out", str(work / "ckpt"), "--run-name", v])
            if code:
                raise RuntimeError(f"coroseg train --model {v} exited {code}")
            path = work / "ckpt" / v / f"{v}_13.checkpoint.json"
            self.checkpoints[v] = json.loads(path.read_text())
            self.models[v] = models.load_model(path)
        held = _corpus(self.n_held, self.seed + 1000)
        paths = _write_subjects(work / "held_out", [oracles.record_doc(r) for r in held])
        self.raw = [p.read_bytes() for p in paths]

    def run_pass(self, pause=no_pause) -> Pass:
        marks, ops, outputs, failed, nodes = [perf_counter()], [], [], 0, 0
        for v in VARIANTS:
            if v != VARIANTS[0]:
                pause(marks)
            model = self.models[v]
            for raw in self.raw:
                first = len(marks) - 1
                try:
                    sg = _file_to_graph(raw)
                    gs = models.GraphStructure.from_adjacency(sg.adjacency)
                    logits = models.model_forward(model, sg.features, gs).data
                    pred = np.argmax(logits, axis=1)
                except ValueError:
                    failed += 1
                    continue
                finally:
                    marks.append(perf_counter())
                ops.append((first, len(marks) - 1))
                nodes += sg.n_nodes
                outputs.append((v, sg, logits, pred))
        p = Pass(marks, ops, nodes, ops, len(VARIANTS) * self.n_held, failed)
        p.errors += self._check(outputs, p.f1)
        return p

    def _check(self, outputs, f1: dict) -> list[str]:
        errors = []
        truth = {v: [] for v in VARIANTS}
        preds = {v: [] for v in VARIANTS}
        for v, sg, logits, pred in outputs:
            ref = oracles.reference_logits(self.checkpoints[v], sg.features, sg.adjacency)
            diff = float(np.abs(ref - logits).max())
            if diff > LOGITS_TOL:
                errors.append(f"{v}: logits differ from the numpy reference by {diff:.2e}")
            truth[v] += [CLASSES_13.index(lb) for lb in sg.labels]
            preds[v] += pred.tolist()
        for v in VARIANTS:
            if truth[v]:
                f1[v] = oracles.weighted_f1_from_confusion(
                    oracles.confusion(truth[v], preds[v], len(CLASSES_13)))
        return errors


WORKLOADS = {w.name: w for w in (Build, CV, Label)}
