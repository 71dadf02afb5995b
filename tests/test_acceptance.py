"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Lines are written with output capture disabled so they stay visible in the
live pytest output.
"""

import json
import time

import numpy as np
import pytest

from coroseg.centerline import prepare_subject
from coroseg.cli import main as cli_main
from coroseg.graph import (
    build_segment_graph,
    line_graph_adjacency,
    split_into_segments,
)
from coroseg.models import (
    VARIANTS,
    GraphStructure,
    ModelConfig,
    init_model,
    model_forward,
)
from coroseg.autodiff import backward, softmax_cross_entropy
from coroseg.synth import GenParams, generate_corpus
from coroseg.training import (
    TrainConfig,
    kfold_split,
    predict,
    run_cv,
    select_classes,
    train,
    weighted_f1,
)
from conftest import (
    chain_subject,
    junction_oracle,
    line_graph_oracle,
    random_rigid_motion,
    random_tree_subject,
    segment_count_oracle,
    transform_subject,
    with_points,
)


@pytest.fixture
def report(capsys):
    def _report(ok: bool, line: str):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{status}] {line}", flush=True)
        assert ok, line

    return _report


def test_criterion_1_graph_construction_oracles(report):
    rng = np.random.default_rng(1)
    started = time.time()
    ok = True
    for _ in range(200):
        subject = random_tree_subject(rng, max_branches=20)
        skel = split_into_segments(subject)
        ok &= len(skel.segments) == segment_count_oracle(subject)
        ok &= {tuple(p) for p in skel.points[skel.junction_rows]} == junction_oracle(subject)
        ok &= bool(
            np.array_equal(line_graph_adjacency(skel), line_graph_oracle(skel))
        )
        if not ok:
            break
    elapsed = time.time() - started
    ok &= elapsed < 30
    report(ok, f"criterion 1: graph construction matches oracles on 200 trees "
               f"({elapsed:.1f}s)")


def test_criterion_2_geometric_invariance(report):
    rng = np.random.default_rng(2)
    started = time.time()
    worst = 0.0
    for _ in range(20):
        subject = random_tree_subject(rng, max_branches=12)
        base = build_segment_graph(subject)
        for _ in range(50):
            rot, trans = random_rigid_motion(rng)
            moved = build_segment_graph(transform_subject(subject, rot, trans))
            worst = max(worst, float(np.max(np.abs(moved.features - base.features))))
        scale = float(rng.uniform(0.3, 4.0))
        scaled = with_points(subject, [cl.points * scale for cl in subject.centerlines])
        rescaled = build_segment_graph(scaled)
        worst = max(worst, float(np.max(np.abs(rescaled.features - base.features))))
    elapsed = time.time() - started
    ok = worst < 1e-9 and elapsed < 30
    report(ok, f"criterion 2: embeddings invariant to rigid motion and rescale "
               f"(max drift {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_gradient_correctness(report):
    started = time.time()
    h = 1e-5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        variant = VARIANTS[seed % 4]
        cfg = ModelConfig(variant, in_dim=6, hidden_dim=4, num_classes=11, seed=seed)
        model = init_model(cfg)
        n = 6
        adj = np.triu((rng.uniform(size=(n, n)) < 0.4).astype(float), 1)
        adj = adj + adj.T
        gs = GraphStructure.from_adjacency(adj)
        feats = rng.normal(size=(n, 6))
        labels = rng.integers(0, 11, size=n)

        def loss_value():
            return float(
                softmax_cross_entropy(model_forward(model, feats, gs), labels).data[0, 0]
            )

        model.grads[:] = 0.0
        backward(softmax_cross_entropy(model_forward(model, feats, gs), labels))
        mid = loss_value()
        for p in model.params.values():
            it = np.nditer(p.data, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p.data[idx]
                p.data[idx] = orig + h
                hi = loss_value()
                p.data[idx] = orig - h
                lo = loss_value()
                p.data[idx] = orig
                if abs(hi + lo - 2 * mid) > 100 * h * h:
                    # the +-h probe crossed a relu/max-pool kink; central
                    # differences are meaningless there
                    continue
                fd = (hi - lo) / (2 * h)
                worst = max(worst, abs(p.grad[idx] - fd) / (1.0 + abs(fd)))
    elapsed = time.time() - started
    ok = worst < 1e-4 and elapsed < 120
    report(ok, f"criterion 3: finite-difference gradient checks, 20 seeds, "
               f"all variants (max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_4_metric_fidelity(report):
    rng = np.random.default_rng(4)

    def counting_oracle(preds, labels, k):
        total = 0.0
        for c in range(k):
            tp = int(np.sum((preds == c) & (labels == c)))
            fp = int(np.sum((preds == c) & (labels != c)))
            fn = int(np.sum((preds != c) & (labels == c)))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            total += f1 * ((tp + fn) / len(labels))
        return total

    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 14))
        n = int(rng.integers(1, 80))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        worst = max(
            worst, abs(weighted_f1(preds, labels, k) - counting_oracle(preds, labels, k))
        )
    hand = weighted_f1(np.array([0, 0, 1, 1]), np.array([0, 0, 0, 1]), 2)
    hand_err = abs(hand - (0.75 * 0.8 + 0.25 * (2 / 3)))
    ok = worst < 1e-12 and hand_err < 1e-12 and abs(hand - 0.7667) < 5e-5
    report(ok, f"criterion 4: weighted F1 matches counting oracle "
               f"(max err {worst:.1e}) and hand case 0.7667")


def test_criterion_5_permutation_equivariance(report):
    rng = np.random.default_rng(5)
    worst = 0.0
    for variant in VARIANTS:
        cfg = ModelConfig(variant, in_dim=48, hidden_dim=8, num_classes=13, seed=3)
        model = init_model(cfg)
        for _ in range(5):
            n = int(rng.integers(6, 15))
            adj = np.triu((rng.uniform(size=(n, n)) < 0.4).astype(float), 1)
            adj = adj + adj.T
            feats = rng.normal(size=(n, 48))
            base = model_forward(model, feats, GraphStructure.from_adjacency(adj)).data
            perm = rng.permutation(n)
            out = model_forward(
                model, feats[perm],
                GraphStructure.from_adjacency(adj[np.ix_(perm, perm)]),
            ).data
            worst = max(worst, float(np.max(np.abs(out - base[perm]))))
    ok = worst < 1e-9
    report(ok, f"criterion 5: permutation equivariance for all variants "
               f"(max deviation {worst:.2e})")


def test_criterion_6_end_to_end_learnability(tmp_path, report):
    started = time.time()
    records, _ = generate_corpus(GenParams.low_noise(n_subjects=141, seed=0))
    dataset = [
        (rec.subject_id, build_segment_graph(prepare_subject(rec))) for rec in records
    ]
    sage_report = run_cv(
        ModelConfig("sage", num_classes=13, seed=0), TrainConfig(seed=0), dataset
    )
    cv_ok = sage_report["weighted_f1_mean"] >= 0.85

    # single-subject overfit: a chain-shaped subject whose line graph has no
    # structurally identical node pairs, so every variant can reach 1.0
    chain = [("chain", build_segment_graph(prepare_subject(chain_subject())))]
    overfit_ok = True
    overfit_scores = {}
    for variant in VARIANTS:
        model, _ = train(
            ModelConfig(variant, num_classes=13, seed=0),
            TrainConfig(folds=2, seed=0),
            chain,
        )
        preds, labels = predict(model, chain)
        score = weighted_f1(preds, labels, 13)
        overfit_scores[variant] = score
        # every prediction correct, and then weighted_f1 is exactly 1.0
        # (test_weighted_f1_in_unit_interval_and_one_when_perfect)
        overfit_ok &= bool(np.array_equal(preds, labels)) and abs(score - 1.0) < 1e-12

    # comparative report, all four variants and both class modes, in one run
    gen_dir = tmp_path / "corpus"
    assert cli_main([
        "generate", "--subjects", "12", "--seed", "3", "--preset", "low-noise",
        "--out", str(gen_dir), "--run-name", "g",
    ]) == 0
    assert cli_main([
        "cv", "--corpus", str(gen_dir / "g"), "--model", "all", "--classes", "both",
        "--epochs", "3", "--folds", "3", "--out", str(tmp_path), "--run-name", "cv",
    ]) == 0
    report_doc = json.loads((tmp_path / "cv" / "report.json").read_text())
    table_ok = (
        [r["model"] for r in report_doc["comparison"]] == list(VARIANTS)
        and all(
            r["f1_11"] is not None and r["f1_13"] is not None
            for r in report_doc["comparison"]
        )
        and len((tmp_path / "cv" / "report.txt").read_text().splitlines()) == 6
    )
    elapsed = time.time() - started
    ok = cv_ok and overfit_ok and table_ok and elapsed < 900
    scores = ", ".join(f"{v}={s:.6f}" for v, s in overfit_scores.items())
    report(ok, f"criterion 6: 5-fold GraphSAGE F1 "
               f"{sage_report['weighted_f1_mean']:.3f} >= 0.85, overfit {scores}, "
               f"comparative report emitted ({elapsed:.0f}s)")


def test_criterion_7_protocol_fidelity(report):
    ids = [f"s{i:03d}" for i in range(141)]
    folds = kfold_split(ids, 5, seed=0)
    sizes_ok = sorted(len(f) for f in folds) == [28, 28, 28, 28, 29]
    flat = [sid for f in folds for sid in f]
    partition_ok = sorted(flat) == ids and len(set(flat)) == 141

    # out-of-fold audit on a real CV run
    records, _ = generate_corpus(GenParams.low_noise(n_subjects=10, seed=2))
    dataset = [
        (rec.subject_id, build_segment_graph(prepare_subject(rec))) for rec in records
    ]
    rep = run_cv(
        ModelConfig("gcn", hidden_dim=8, seed=0),
        TrainConfig(epochs=2, folds=5, seed=0),
        dataset,
    )
    audit_flat = [sid for f in rep["fold_test_subjects"] for sid in f]
    audit_ok = sorted(audit_flat) == sorted(sid for sid, _ in dataset) and len(
        set(audit_flat)
    ) == len(audit_flat)

    eleven = select_classes(dataset, 11)
    purity_ok = not any(
        lb in ("L-PDA", "L-PLB") for _, sg in eleven for lb in sg.labels
    )
    ok = sizes_ok and partition_ok and audit_ok and purity_ok
    report(ok, "criterion 7: fold sizes {29,28,28,28,28}, out-of-fold audit, "
               "11-class purity")


def test_criterion_8_determinism(tmp_path, report):
    gen_dir = tmp_path / "corpus"
    assert cli_main([
        "generate", "--subjects", "8", "--seed", "6", "--preset", "low-noise",
        "--out", str(gen_dir), "--run-name", "g",
    ]) == 0
    blobs = []
    for name in ("a", "b"):
        assert cli_main([
            "cv", "--corpus", str(gen_dir / "g"), "--model", "sage",
            "--classes", "13", "--epochs", "3", "--folds", "4", "--seed", "1",
            "--out", str(tmp_path), "--run-name", name,
        ]) == 0
        blobs.append((tmp_path / name / "report.json").read_bytes())
    ok = blobs[0] == blobs[1]
    report(ok, "criterion 8: repeated runs produce byte-identical metrics JSON")
