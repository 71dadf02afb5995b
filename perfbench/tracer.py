"""Spans around coroseg's public functions, installed from outside the package.

A wrapper replaces each traced function wherever a coroseg module has bound
it (``from .x import f`` makes a second binding), so calls between modules
are seen too. Spans live in flat arrays in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from coroseg import autodiff, centerline, cli, graph, models, synth, training

AUTODIFF_OPS = (
    "matmul", "add", "mul", "transpose", "relu", "leaky_relu", "row_softmax",
    "concat_cols", "l2_normalize_rows", "row_sum_pool", "row_max_pool",
)

#: Traced functions as (module, attribute); "Class.method" for classmethods.
TRACED = [
    (centerline, "parse_subject"), (centerline, "resample_subject"),
    (centerline, "merge_branch_origins"),
    (graph, "split_into_segments"), (graph, "line_graph_adjacency"),
    (graph, "build_reference_frame"), (graph, "node_embedding"),
    (graph, "build_segment_graph"), (graph, "segment_graph_to_json"),
    (cli, "main"),
    (synth, "generate_corpus"),
    (models, "GraphStructure.block_diagonal"), (models, "GraphStructure.from_adjacency"),
    (models, "model_forward"), (models, "gcn_layer"), (models, "gat_layer"),
    (models, "gin_layer"), (models, "sage_layer"), (models, "load_model"),
    *[(autodiff, op) for op in AUTODIFF_OPS],
    (autodiff, "softmax_cross_entropy"), (autodiff, "backward"), (autodiff, "adam_step"),
    (training, "train"), (training, "predict"), (training, "run_cv"),
]

SETUP, PASS = 0, 1
#: Per-layer metric prefixes that name a module rather than its span.
SPAN_OF = {"cli": "cli.main"}


def _points(subject) -> int:
    return sum(len(cl.points) for cl in subject.centerlines)


def _train_nodes(train_cfg, dataset) -> int:
    """Nodes passed through forward and backward by one train call."""
    return train_cfg.epochs * sum(sg.n_nodes for _, sg in dataset)


def _count_resample(c, args, out):
    c["centerline.points_in"] += _points(args[0])
    c["centerline.points_out"] += _points(out)


def _count_split(c, args, out):
    c["graph.segments"] += len(out.segments)


def _count_edges(c, args, out):
    c["graph.edges"] += float(out.sum()) / 2


def _count_step(c, args, out):
    c["training.steps"] += 1


def _count_train(c, args, out):
    c["training.nodes"] += _train_nodes(args[1], args[2])


COUNTERS = {
    "centerline.resample_subject": _count_resample,
    "graph.split_into_segments": _count_split,
    "graph.line_graph_adjacency": _count_edges,
    "autodiff.adam_step": _count_step,
    "training.train": _count_train,
}


class Patches:
    """Rebinds functions in every coroseg module; undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, key: str, value):
        old = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        self._undo.append((owner, key, old))
        setattr(owner, key, value)

    def function(self, module, attr: str, make):
        """Replace module.attr (or Class.method) by make(original function)."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            self.set(cls, meth, classmethod(make(cls.__dict__[meth].__func__)))
            return
        orig = getattr(module, attr)
        new = make(orig)
        for name, mod in list(sys.modules.items()):
            if name == "coroseg" or name.startswith("coroseg."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self.set(mod, key, new)

    def undo(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class Tracer:
    """Records (name, parent, phase, start, end) per call of a traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id, self.parent, self.phase = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.counts = {SETUP: defaultdict(float), PASS: defaultdict(float)}
        self.current = SETUP
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        count = COUNTERS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.phase.append(self.current)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts[self.current], args, out)
            return out

        return traced

    def install(self):
        for module, attr in TRACED:
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._patches.function(module, attr, lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self):
        self._patches.undo()

    def totals(self) -> dict[tuple[int, str], tuple[float, float, int]]:
        """(phase, name) -> (inclusive s, self s, calls)."""
        if not len(self.start):
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        key = np.frombuffer(self.phase, dtype=np.int32) * len(self.names) + np.frombuffer(
            self.name_id, dtype=np.int32)
        size = 2 * len(self.names)
        incl = np.bincount(key, dur, size)
        excl = np.bincount(key, own, size)
        calls = np.bincount(key, minlength=size)
        out = {}
        for k in np.flatnonzero(calls):
            phase, nid = divmod(int(k), len(self.names))
            out[(phase, self.names[nid])] = (float(incl[k]), float(excl[k]), int(calls[k]))
        return out

    def write(self, path):
        """All spans as columns; times are perf_counter seconds."""
        doc = {
            "names": self.names,
            "phases": ["setup", "pass"],
            "columns": ["name", "parent", "phase", "start", "end"],
            "spans": [list(self.name_id), list(self.parent), list(self.phase),
                      list(self.start), list(self.end)],
        }
        path.write_text(json.dumps(doc))


def layer_metrics(tracer: Tracer, names: list[str], n_setups: int, n_passes: int) -> dict:
    """Per-layer figures: setup spans per set-up, everything else per traced pass.

    ``.ms`` and ``.s`` are inclusive span time, ``.self_ms`` excludes child
    spans, ``.calls`` counts spans; other names are counters.
    """
    totals = tracer.totals()
    counts = tracer.counts[PASS]
    out = {}
    for name in names:
        phase, per = (SETUP, n_setups) if name in (
            "synth.generate_corpus.s", "models.load_model.ms") else (PASS, n_passes)
        base, _, kind = name.rpartition(".")
        base = SPAN_OF.get(base, base)
        if kind in ("ms", "s", "self_ms", "calls"):
            incl, excl, calls = totals.get((phase, base), (0.0, 0.0, 0))
            value = {"ms": incl * 1e3, "s": incl, "self_ms": excl * 1e3, "calls": calls}[kind]
            out[name] = value / per
        elif name == "training.nodes_per_step":
            steps = counts["training.steps"]
            out[name] = counts["training.nodes"] / steps if steps else 0.0
        else:
            out[name] = counts[name] / per
    return out


class StepProbe:
    """Marks the training inside ``coroseg cv``.

    A mark falls at each training.train start and end and after each
    adam_step. A step is the span between consecutive adam_step marks
    within one train call: batch assembly, forward, loss, backward and the
    update. `pause(marks)` is called before each train start.
    """

    def __init__(self, pause):
        self.pause = pause
        self.marks: list[float] = []
        self.steps: list[tuple[int, int]] = []
        self.trains: list[tuple[int, int]] = []
        self.nodes = 0
        self._last = None
        self._patches = Patches()

    def mark(self) -> int:
        self.marks.append(perf_counter())
        return len(self.marks) - 1

    def install(self):
        def make_train(fn):
            def train(model_cfg, train_cfg, dataset):
                self.nodes += _train_nodes(train_cfg, dataset)
                self._last = None
                self.pause(self.marks)
                first = self.mark()
                try:
                    return fn(model_cfg, train_cfg, dataset)
                finally:
                    self.trains.append((first, self.mark()))
            return train

        def adam_step(*args, _orig=training.adam_step):
            out = _orig(*args)
            now = self.mark()
            if self._last is not None:
                self.steps.append((self._last, now))
            self._last = now
            return out

        self._patches.function(training, "train", make_train)
        self._patches.set(training, "adam_step", adam_step)

    def uninstall(self):
        self._patches.undo()
