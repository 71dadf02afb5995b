from dataclasses import replace

import numpy as np
import pytest

from coroseg.centerline import CLASSES_13, prepare_subject
from coroseg.graph import SegmentGraph, build_segment_graph
from coroseg.models import ModelConfig
from coroseg.training import (
    MetricsReport,
    TrainConfig,
    TrainingError,
    confusion_matrix,
    kfold_split,
    per_class_metrics,
    predict,
    render_comparison_table,
    run_cv,
    select_classes,
    train,
    weighted_f1,
)
from conftest import chain_subject, random_rigid_motion, transform_subject


def chain_dataset(n_subjects=10, seed=0):
    """Rigidly moved copies of the chain subject, distinct ids."""
    rng = np.random.default_rng(seed)
    base = chain_subject()
    out = []
    for i in range(n_subjects):
        rot, trans = random_rigid_motion(rng)
        moved = replace(transform_subject(base, rot, trans), subject_id=f"c{i:02d}")
        out.append((f"c{i:02d}", build_segment_graph(prepare_subject(moved))))
    return out


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainConfig(lr=-1e-3)
    with pytest.raises(TrainingError):
        TrainConfig(folds=1)
    with pytest.raises(TrainingError):
        TrainConfig(class_mode=12)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(TrainingError, match="lr must be finite"):
            TrainConfig(lr=lr)
    assert TrainConfig(lr=0.0).lr == 0.0
    assert len(TrainConfig(class_mode=11).classes) == 11
    assert TrainConfig().classes == CLASSES_13


def test_kfold_141_subjects_sizes():
    ids = [f"s{i:03d}" for i in range(141)]
    folds = kfold_split(ids, 5, seed=0)
    assert sorted(len(f) for f in folds) == [28, 28, 28, 28, 29]
    assert len(folds[0]) == 29
    flat = [sid for f in folds for sid in f]
    assert sorted(flat) == sorted(ids)
    assert len(set(flat)) == 141


def test_kfold_deterministic_and_seed_sensitive():
    ids = [f"s{i}" for i in range(30)]
    assert kfold_split(ids, 5, 7) == kfold_split(ids, 5, 7)
    assert kfold_split(ids, 5, 7) != kfold_split(ids, 5, 8)
    with pytest.raises(TrainingError, match="cannot split"):
        kfold_split(ids[:3], 5, 0)


def _graph_with_labels(labels, rng):
    n = len(labels)
    adj = np.triu((rng.uniform(size=(n, n)) < 0.5).astype(float), 1)
    adj = adj + adj.T
    return SegmentGraph(
        node_ids=tuple(f"n{i}" for i in range(n)),
        features=rng.normal(size=(n, 48)),
        adjacency=adj,
        labels=tuple(labels),
    )


def test_select_classes_drops_left_pda_plb_nodes(rng):
    sg = _graph_with_labels(["LM", "L-PDA", "LAD", "L-PLB", "RCA"], rng)
    kept = select_classes([("s", sg)], 11)[0][1]
    assert kept.labels == ("LM", "LAD", "RCA")
    idx = np.array([0, 2, 4])
    assert np.array_equal(kept.features, sg.features[idx])
    assert np.array_equal(kept.adjacency, sg.adjacency[np.ix_(idx, idx)])
    # mode 13 is the identity
    assert select_classes([("s", sg)], 13)[0][1] is sg


def test_weighted_f1_hand_case():
    labels = np.array([0, 0, 0, 1])
    preds = np.array([0, 0, 1, 1])
    # class 0: p = 1, r = 2/3, f1 = 0.8, w = 0.75; class 1: p = 0.5, r = 1,
    # f1 = 2/3, w = 0.25
    expected = 0.75 * 0.8 + 0.25 * (2 / 3)
    assert abs(weighted_f1(preds, labels, 2) - expected) < 1e-12
    assert abs(expected - 0.7667) < 5e-5


def _counting_oracle(preds, labels, num_classes):
    total = 0.0
    n = len(labels)
    for c in range(num_classes):
        tp = sum(1 for p, l in zip(preds, labels) if p == c and l == c)
        fp = sum(1 for p, l in zip(preds, labels) if p == c and l != c)
        fn = sum(1 for p, l in zip(preds, labels) if p != c and l == c)
        support = tp + fn
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / support if support else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        total += f1 * (support / n)
    return total


def test_weighted_f1_vs_counting_oracle_1000_random(rng):
    for _ in range(1000):
        k = int(rng.integers(2, 14))
        n = int(rng.integers(1, 60))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        assert abs(weighted_f1(preds, labels, k) - _counting_oracle(preds, labels, k)) < 1e-12


def test_weights_sum_and_relabeling_invariance(rng):
    labels = rng.integers(0, 5, size=40)
    preds = rng.integers(0, 5, size=40)
    _, _, _, weights = per_class_metrics(preds, labels, 5)
    assert abs(weights.sum() - 1.0) < 1e-12
    perm = rng.permutation(5)
    assert abs(
        weighted_f1(perm[preds], perm[labels], 5) - weighted_f1(preds, labels, 5)
    ) < 1e-12


def test_per_class_conventions():
    # class 2 never occurs: weight 0; class 1 never predicted or present
    labels = np.array([0, 0, 1])
    preds = np.array([0, 0, 0])
    precision, recall, f1, weights = per_class_metrics(preds, labels, 3)
    assert weights[2] == 0.0
    assert f1[1] == 0.0 and precision[1] == 0.0 and recall[1] == 0.0
    with pytest.raises(TrainingError, match="empty"):
        per_class_metrics(np.array([]), np.array([]), 3)


def test_confusion_matrix_hand_case():
    labels = [0, 0, 1, 2]
    preds = [0, 1, 1, 1]
    mat = confusion_matrix(preds, labels, 3)
    assert np.array_equal(mat, [[1, 1, 0], [0, 1, 0], [0, 1, 0]])
    norm = confusion_matrix(preds, labels, 3, normalized=True)
    assert np.allclose(norm.sum(axis=1), 1.0)
    empty_row = confusion_matrix([0], [0], 3, normalized=True)
    assert np.array_equal(empty_row[2], [0, 0, 0])


def test_train_lr_zero_leaves_weights_unchanged():
    dataset = chain_dataset(3)
    cfg = ModelConfig("gcn", hidden_dim=8, seed=1)
    model, trace = train(cfg, TrainConfig(epochs=3, lr=0.0), dataset)
    from coroseg.models import init_model

    fresh = init_model(cfg)
    for k in model.params:
        assert np.array_equal(model.params[k].data, fresh.params[k].data)
    assert len(trace) == 3
    # with frozen weights every epoch sees the same loss
    assert abs(trace[0] - trace[-1]) < 1e-12


def test_train_deterministic(rng):
    dataset = chain_dataset(4)
    cfg = ModelConfig("gin", hidden_dim=8, seed=5)
    tc = TrainConfig(epochs=4, batch_size=2, seed=3)
    m1, t1 = train(cfg, tc, dataset)
    m2, t2 = train(cfg, tc, dataset)
    assert t1 == t2
    for k in m1.params:
        assert np.array_equal(m1.params[k].data, m2.params[k].data)


def test_train_loss_decreases():
    dataset = chain_dataset(4)
    cfg = ModelConfig("sage", hidden_dim=16, seed=0)
    _, trace = train(cfg, TrainConfig(epochs=40), dataset)
    assert trace[-1] < trace[0]


def test_train_input_errors(rng):
    cfg = ModelConfig("gcn", hidden_dim=8)
    with pytest.raises(TrainingError, match="empty dataset"):
        train(cfg, TrainConfig(), [])
    unlabeled = _graph_with_labels([None, None, None], rng)
    with pytest.raises(TrainingError, match="no labeled nodes"):
        train(cfg, TrainConfig(), [("u", unlabeled)])
    with pytest.raises(TrainingError, match=r"non-finite value at epoch \d: overflow"):
        train(cfg, TrainConfig(epochs=3, lr=1e308), chain_dataset(2))


def test_predict_pools_labeled_nodes():
    dataset = chain_dataset(2)
    cfg = ModelConfig("gcn", hidden_dim=8, seed=1)
    model, _ = train(cfg, TrainConfig(epochs=2), dataset)
    preds, labels = predict(model, dataset, CLASSES_13)
    n_labeled = sum(sum(1 for lb in g.labels if lb) for _, g in dataset)
    assert preds.shape == labels.shape == (n_labeled,)
    assert np.all((preds >= 0) & (preds < 13))
    with pytest.raises(TrainingError, match="empty dataset"):
        predict(model, [], CLASSES_13)


def test_run_cv_bookkeeping():
    dataset = chain_dataset(10)
    report = run_cv(
        ModelConfig("sage", hidden_dim=8, seed=2),
        TrainConfig(epochs=3, folds=5, seed=1),
        dataset,
    )
    assert isinstance(report, MetricsReport)
    assert len(report.fold_f1) == 5
    assert sorted(sid for f in report.fold_test_ids for sid in f) == [
        f"c{i:02d}" for i in range(10)
    ]
    assert abs(report.weighted_f1_mean - np.mean(report.fold_f1)) < 1e-12
    n_labeled = sum(sum(1 for lb in g.labels if lb) for _, g in dataset)
    assert report.confusion.sum() == n_labeled
    assert abs(report.class_weights.sum() - 1.0) < 1e-12
    doc = report.to_dict()
    assert set(doc["per_class"]) == set(CLASSES_13)
    assert doc["fold_weighted_f1"] == report.fold_f1


def test_run_cv_rejects_duplicate_ids():
    dataset = chain_dataset(6)
    dataset.append(dataset[0])
    with pytest.raises(TrainingError, match="duplicate"):
        run_cv(ModelConfig("gcn", hidden_dim=8), TrainConfig(epochs=1), dataset)


def test_render_comparison_table():
    text = render_comparison_table(
        [
            {"model": "gcn", "f1_11": 0.91, "f1_13": 0.85},
            {"model": "sage", "f1_11": None, "f1_13": 0.953},
        ]
    )
    lines = text.splitlines()
    assert "Graph Model" in lines[0]
    assert "0.910" in lines[2] and "0.850" in lines[2]
    assert "-" in lines[3] and "0.953" in lines[3]
