"""coroseg benchmark: one workload per run, result as JSON on the last line.

    python3 perfbench/run.py --workload build|cv|label --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics, in reference
time (see HostSpeed); standard error shows them unscaled too. With
``--trace 1`` passes alternate between untraced and traced, and the result
holds the per-layer metrics and the tracing overhead; the spans are written
to ``perfbench/out/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One compute thread, set before numpy loads BLAS: the load is this one
# process, and BLAS worker threads waking for matrices of a few hundred rows
# on a shared two-CPU machine add noise (a slow first pass), not speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
#: Median time, in ms, of the reference loop on the host that end-to-end
#: times are scaled to (see HostSpeed).
REFERENCE_MS = 1.0
#: Reference loops per sample of the host's speed.
REFERENCE_REPEATS = 10

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "nodes_per_s": "nodes/s",
    "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
}
F1_METRICS = {f"f1_{v}": "F1" for v in ("gcn", "gat", "gin", "sage")}
TRACE_METRICS = {
    "centerline.parse_subject.ms": "ms", "centerline.resample_subject.ms": "ms",
    "centerline.merge_branch_origins.ms": "ms",
    "centerline.points_in": "count", "centerline.points_out": "count",
    "graph.split_into_segments.ms": "ms", "graph.line_graph_adjacency.ms": "ms",
    "graph.build_reference_frame.ms": "ms", "graph.node_embedding.ms": "ms",
    "graph.build_segment_graph.self_ms": "ms", "graph.segment_graph_to_json.ms": "ms",
    "graph.segments": "count", "graph.edges": "count",
    "cli.self_ms": "ms",
    "synth.generate_corpus.s": "s",
    "models.GraphStructure.block_diagonal.ms": "ms",
    "models.GraphStructure.from_adjacency.ms": "ms",
    "models.model_forward.ms": "ms", "models.gcn_layer.ms": "ms",
    "models.gat_layer.ms": "ms", "models.gin_layer.ms": "ms", "models.sage_layer.ms": "ms",
    "models.load_model.ms": "ms",
    **{f"autodiff.{op}.{k}": u
       for op in ("matmul", "add", "mul", "transpose", "relu", "leaky_relu",
                  "row_softmax", "concat_cols", "l2_normalize_rows", "row_sum_pool",
                  "row_max_pool")
       for k, u in (("calls", "count"), ("ms", "ms"))},
    "autodiff.softmax_cross_entropy.ms": "ms", "autodiff.backward.ms": "ms",
    "autodiff.adam_step.ms": "ms",
    "training.train.self_ms": "ms", "training.predict.ms": "ms", "training.run_cv.s": "s",
    "training.steps": "count", "training.nodes_per_step": "nodes",
}
PER_LAYER = {**TRACE_METRICS, **F1_METRICS, "trace.overhead_pct": "%"}


_REF_A = np.full((24, 48), 0.5)
_REF_W = np.full((48, 48), 0.01)
_REF_DOC = json.dumps({"points": [[i * 0.5, i * 0.25, 1.0] for i in range(200)]})


def _reference_loop():
    """Fixed work in the same mix as the workloads: interpreted Python, small
    numpy products and JSON parsing. It calls nothing of coroseg, so no
    change to the package changes its time; only the host's speed does."""
    counts = {}
    for i in range(4000):
        counts[i & 127] = counts.get(i & 127, 0) + i
    a = _REF_A
    for _ in range(80):
        a = np.maximum(a @ _REF_W, 0.0) + 0.01
    json.loads(_REF_DOC)


class HostSpeed:
    """The host's speed, from a fixed reference loop timed next to the work.

    On the 2-CPU VM the reference figures come from, neighbouring machines
    slow a run of a few milliseconds by half or more most of the time, and
    by how much drifts over seconds to minutes, so a whole run can fall in
    a slow stretch. A sample is the median of REFERENCE_REPEATS runs of the
    reference loop. One is taken before each set-up and pass, after the
    last, and at a few pauses inside a pass; every stretch of work is put
    in reference time by the mean of the samples on either side of it.
    """

    def __init__(self):
        self.pauses: list[tuple[int, float]] = []
        self.samples_ms: list[float] = []

    def sample(self) -> float:
        ms = []
        for _ in range(REFERENCE_REPEATS):
            t0 = perf_counter()
            _reference_loop()
            ms.append((perf_counter() - t0) * 1e3)
        self.samples_ms.append(statistics.median(ms))
        return self.samples_ms[-1]

    def pause(self, marks: list[float]):
        """A sample inside a pass, between two marks of its own."""
        marks.append(perf_counter())
        self.pauses.append((len(marks) - 1, self.sample()))
        marks.append(perf_counter())

    def run_pass(self, workload, before: float):
        """One pass of `workload` with its reference samples; `before` is the
        sample taken just before it."""
        self.pauses = []
        p = workload.run_pass(self.pause)
        after = self.sample()
        p.refs = [(-1, before), *self.pauses, (len(p.marks) - 1, after)]
        return p, after


def fresh(work: Path):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


def _stretches(p, scaled: bool = True) -> np.ndarray:
    """Seconds between consecutive marks of a pass, in reference time if
    `scaled`; a pause counts 0."""
    stretches = np.diff(p.marks)
    factor = np.zeros_like(stretches)
    for (a, r0), (b, r1) in zip(p.refs, p.refs[1:]):
        factor[a + 1:b] = 2 * REFERENCE_MS / (r0 + r1) if scaled else 1.0
    return stretches * factor


def _spans_ms(stretches, spans) -> np.ndarray:
    ends = np.concatenate([[0.0], np.cumsum(stretches)])
    return np.array([ends[j] - ends[i] for i, j in spans]) * 1e3


def _pass_s(passes, scaled: bool = True) -> float:
    """Median over passes of what a pass times."""
    return statistics.median(
        float(_stretches(p, scaled)[slice(*p.span)].sum()) for p in passes)


def _end_to_end(setups, passes, scaled: bool = True) -> dict:
    """Medians over the run's passes, in reference time if `scaled`.

    Every operation recurs once per pass and keeps its median time; p50 and
    p90 are taken across a pass's operations, so the spread over inputs
    stays in.
    """
    clean = [p for p in passes if not p.failed] or passes
    stretches = [_stretches(p, scaled) for p in clean]
    op_ms = np.median([_spans_ms(s, p.ops) for s, p in zip(stretches, clean)], axis=0)
    busy_s = statistics.median(
        _spans_ms(s, p.busy).sum() / 1e3 for s, p in zip(stretches, clean))
    return {
        "setup_s": statistics.median(setups),
        "pass_s": _pass_s(clean, scaled),
        "nodes_per_s": clean[0].nodes / busy_s,
        "op_ms_p50": float(np.percentile(op_ms, 50)),
        "op_ms_p90": float(np.percentile(op_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(workload, seconds: float, trace: bool, work: Path):
    """Set up, then run whole passes until `seconds` have gone by.

    Returns (metrics, attempted, failed, errors, notes).
    """
    from tracer import PASS, Tracer, layer_metrics

    tracer = Tracer() if trace else None
    speed = HostSpeed()
    setups, scaled_setups = [], []
    before = speed.sample()
    for _ in range(1 if trace else SETUP_REPEATS):
        fresh(work)
        if tracer:
            tracer.install()
        t0 = perf_counter()
        try:
            workload.setup(work)
        finally:
            setups.append(perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        after = speed.sample()
        scaled_setups.append(setups[-1] * 2 * REFERENCE_MS / (before + after))
        before = after

    plain, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        p, before = speed.run_pass(workload, before)
        plain.append(p)
        if tracer:
            tracer.current = PASS
            tracer.install()
            try:
                p, before = speed.run_pass(workload, before)
                traced.append(p)
            finally:
                tracer.uninstall()
        if perf_counter() >= deadline:
            break

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    notes = (f"{workload.name}: {len(plain)} untraced and {len(traced)} traced passes, "
             f"{len(plain[0].ops)} operations timed per pass, {len(setups)} set-ups; "
             f"reference loop median {statistics.median(speed.samples_ms):.4f} ms "
             f"over {len(speed.samples_ms)} samples")
    if not tracer:
        unscaled = _end_to_end(setups, plain, scaled=False)
        notes += "\nunscaled: " + json.dumps({k: round(v, 6) for k, v in unscaled.items()})
        return _end_to_end(scaled_setups, plain), attempted, failed, errors, notes

    metrics = layer_metrics(tracer, list(TRACE_METRICS), len(setups), len(traced))
    f1 = plain[-1].f1
    metrics.update({k: f1.get(k[3:], 0.0) for k in F1_METRICS})
    overhead = _pass_s(traced) / _pass_s(plain) - 1
    metrics["trace.overhead_pct"] = 100 * overhead
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{workload.seed}.json")
    return metrics, attempted, failed, errors, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["build", "cv", "label"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "coroseg" / "__init__.py").is_file():
        print("perfbench: src/coroseg not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    work = OUT / f"work-{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        metrics, attempted, failed, errors, notes = measure(
            workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    print(notes, file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
