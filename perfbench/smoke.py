"""Smoke test of the benchmark: every workload at a tiny size, every check live.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Run from the repository root. Takes about ten seconds.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "build": lambda: workloads.Build(seed=7, subjects=4),
    "cv": lambda: workloads.CV(seed=7, subjects=20, epochs=3),
    "label": lambda: workloads.Label(seed=7, train_subjects=8, epochs=2, held_out=3),
}


def _measure(name: str, trace: bool, tmp: Path):
    return run.measure(TINY[name](), 0.0, trace, tmp / f"{name}-{int(trace)}")


def _assert_clean(name, result, expected_names):
    metrics, attempted, failed, errors, _ = result
    assert errors == [], f"{name}: {errors}"
    assert attempted > 0 and failed == 0, (name, attempted, failed)
    assert set(metrics) >= set(expected_names), set(expected_names) - set(metrics)
    assert all(math.isfinite(metrics[k]) for k in expected_names), metrics


def test_every_workload_untraced(tmp_path):
    for name in TINY:
        result = _measure(name, False, tmp_path)
        _assert_clean(name, result, run.END_TO_END)
        assert all(result[0][k] > 0 for k in run.END_TO_END), result[0]


def test_every_workload_traced(tmp_path):
    layers = {
        "build": ["centerline.merge_branch_origins.ms", "graph.node_embedding.ms",
                  "cli.self_ms", "synth.generate_corpus.s"],
        "cv": ["models.GraphStructure.block_diagonal.ms", "autodiff.backward.ms",
               "training.steps", "training.run_cv.s", "f1_sage"],
        "label": ["models.GraphStructure.from_adjacency.ms", "models.gat_layer.ms",
                  "models.load_model.ms", "f1_gin"],
    }
    for name, nonzero in layers.items():
        metrics, *_ = result = _measure(name, True, tmp_path)
        _assert_clean(name, result, [k for k in run.PER_LAYER if k != "trace.overhead_pct"])
        assert all(metrics[k] > 0 for k in nonzero), {k: metrics[k] for k in nonzero}
        assert metrics["autodiff.backward.ms"] == 0 or name == "cv"


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_checks_catch_faults(tmp_path):
    """Each workload's checks fail on a deliberately wrong output."""
    build = TINY["build"]()
    run.fresh(tmp_path / "b")
    build.setup(tmp_path / "b")
    build.expected[0] = (build.expected[0][0] + 1,) + build.expected[0][1:]
    assert any("nodes/edges/labels" in e for e in build.run_pass().errors)

    cv = TINY["cv"]()
    report = {"details": {f"{v}_13": {
        "fold_test_subjects": [["a"], ["b"], ["c"], ["d"], ["e", "f", "g"]],
        "confusion": [[3.0, 1.0], [0.0, 2.0]],
        "weighted_f1_pooled": 0.5, "weighted_f1_mean": 0.1,
    } for v in workloads.VARIANTS}}
    cv.ids = list("abcdefg")
    errors = cv._check(report, {})
    assert any("differ by more than one" in e for e in errors)
    assert any("pooled F1" in e for e in errors)
    assert any("majority-class" in e for e in errors)

    label = TINY["label"]()
    run.fresh(tmp_path / "l")
    label.setup(tmp_path / "l")
    label.models["gin"].params["fc_b"].data[0, 0] += 1e-6
    assert any(e.startswith("gin: logits") for e in label.run_pass().errors)


if __name__ == "__main__":
    import tempfile

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for test in (test_every_workload_untraced, test_every_workload_traced,
                     test_metric_names_match_benchmark_json, test_checks_catch_faults):
            test(Path(tmp)) if test.__code__.co_argcount else test()
            print(f"ok {test.__name__}")
