import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coroseg.centerline import CLASSES_11, CLASSES_13, DROPPED_IN_11, prepare_subject
from coroseg.graph import SegmentGraph, build_segment_graph
from coroseg.models import VARIANTS, GraphStructure, ModelConfig
from coroseg.synth import GenParams, generate_corpus
from coroseg.training import (
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


def generated_dataset(n_subjects=6, seed=0):
    """Low-noise generator subjects with all 13 classes' labels, unselected."""
    records, _ = generate_corpus(GenParams.low_noise(n_subjects=n_subjects, seed=seed))
    return [(rec.subject_id, build_segment_graph(prepare_subject(rec))) for rec in records]


def test_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainConfig(lr=-1e-3)
    with pytest.raises(TrainingError):
        TrainConfig(folds=1)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(TrainingError, match="lr must be finite"):
            TrainConfig(lr=lr)
    assert TrainConfig(lr=0.0).lr == 0.0
    # each message names the field, its rule and the value
    for kwargs, message in (
        ({"epochs": 0}, "epochs must be >= 1, not 0"),
        ({"batch": -2}, "batch must be >= 1, not -2"),
        ({"folds": 1}, "folds must be >= 2, not 1"),
        ({"seed": -1}, "seed must be >= 0, not -1"),
        ({"lr": -1e-3}, "lr must be finite and >= 0, not -0.001"),
        ({"lr": float("nan")}, "lr must be finite and >= 0, not nan"),
    ):
        with pytest.raises(TrainingError, match=f"^{re.escape(message)}$"):
            TrainConfig(**kwargs)


def test_model_config_names_the_classes():
    assert ModelConfig("gcn").classes == CLASSES_13
    assert ModelConfig("gcn", num_classes=11).classes == CLASSES_11
    assert len(CLASSES_11) == 11 and not set(CLASSES_11) & set(DROPPED_IN_11)


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_selects_the_model_classes(variant):
    dataset = generated_dataset()
    assert any(lb in DROPPED_IN_11 for _, sg in dataset for lb in sg.labels)
    cfg = ModelConfig(variant, hidden_dim=8, num_classes=11, seed=1)
    tc = TrainConfig(epochs=3, batch=2, seed=2)
    model, trace = train(cfg, tc, dataset)
    selected, selected_trace = train(cfg, tc, select_classes(dataset, 11))
    assert trace == selected_trace
    assert np.array_equal(model.values, selected.values)


def test_predict_selects_the_model_classes():
    dataset = generated_dataset()
    for num_classes in (11, 13):
        cfg = ModelConfig("sage", hidden_dim=8, num_classes=num_classes, seed=1)
        model, _ = train(cfg, TrainConfig(epochs=2), dataset)
        preds, labels = predict(model, dataset)
        selected_preds, selected_labels = predict(model, select_classes(dataset, num_classes))
        assert np.array_equal(preds, selected_preds)
        assert np.array_equal(labels, selected_labels)
        kept = [lb for _, sg in dataset for lb in sg.labels if lb in cfg.classes]
        assert labels.tolist() == [cfg.classes.index(lb) for lb in kept]
        assert 0.0 <= weighted_f1(preds, labels, num_classes) <= 1.0


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


def test_select_classes_keeps_one_view_per_graph(monkeypatch):
    dataset = generated_dataset()
    assert select_classes(dataset, 13) is dataset
    selected = select_classes(dataset, 11)
    assert all(a is b for (_, a), (_, b) in zip(selected, select_classes(dataset, 11)))
    assert any(kept is not sg for (_, kept), (_, sg) in zip(selected, dataset))
    built = []
    from_adjacency = GraphStructure.from_adjacency.__func__

    def counting(cls, adj):
        built.append(len(adj))
        return from_adjacency(cls, adj)

    monkeypatch.setattr(GraphStructure, "from_adjacency", classmethod(counting))
    for variant in ("gcn", "sage"):
        run_cv(ModelConfig(variant, hidden_dim=8, num_classes=11, seed=1),
               TrainConfig(epochs=1, folds=2), dataset)
    # every fold's train and predict reuse the induced graphs and their structures
    assert sorted(built) == sorted(sg.n_nodes for _, sg in selected)


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
    _, _, _, weights = per_class_metrics(confusion_matrix(preds, labels, 5))
    assert abs(weights.sum() - 1.0) < 1e-12
    perm = rng.permutation(5)
    assert abs(
        weighted_f1(perm[preds], perm[labels], 5) - weighted_f1(preds, labels, 5)
    ) < 1e-12


def test_per_class_conventions():
    # class 2 never occurs: weight 0; class 1 never predicted or present
    labels = np.array([0, 0, 1])
    preds = np.array([0, 0, 0])
    precision, recall, f1, weights = per_class_metrics(confusion_matrix(preds, labels, 3))
    assert weights[2] == 0.0
    assert f1[1] == 0.0 and precision[1] == 0.0 and recall[1] == 0.0
    with pytest.raises(TrainingError, match="empty"):
        per_class_metrics(np.zeros((3, 3)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    labels=st.lists(st.integers(0, 12), min_size=1, max_size=400),
    guesses=st.lists(st.integers(0, 12), max_size=400),
)
# here the normalised class weights sum to 1 + 2**-52, so F1 weighted by them
# would score this perfect prediction above 1
@example(labels=np.repeat(np.arange(13), [0, 2, 5, 0, 3, 1, 2, 6, 7, 2, 5, 1, 3]).tolist(),
         guesses=[])
def test_weighted_f1_in_unit_interval_and_one_when_perfect(labels, guesses):
    labels = np.array(labels)
    assert weighted_f1(labels, labels, 13) == 1.0
    preds = labels.copy()
    preds[: len(guesses)] = guesses[: len(labels)]   # the first predictions replaced
    assert 0.0 <= weighted_f1(preds, labels, 13) <= 1.0


def test_confusion_matrix_hand_case():
    labels = [0, 0, 1, 2]
    preds = [0, 1, 1, 1]
    mat = confusion_matrix(preds, labels, 3)
    assert np.array_equal(mat, [[1, 1, 0], [0, 1, 0], [0, 1, 0]])


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
    tc = TrainConfig(epochs=4, batch=2, seed=3)
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


def _with_nan_row(sg, labels=None):
    """`sg` with a NaN first feature row, and `labels` in place of its own if given."""
    features = sg.features.copy()
    features[0] = np.nan
    return replace(sg, features=features, labels=labels or sg.labels)


@pytest.mark.parametrize("variant", VARIANTS)
def test_nan_feature_ends_train_and_predict_in_one_line(variant):
    # the tape does not check values: train checks the loss and the weights once
    # per step, predict the logits once per forward
    cfg, tc = ModelConfig(variant, hidden_dim=8), TrainConfig(epochs=2, batch=2)
    (sid, sg), = chain_dataset(1)
    bad = [(sid, _with_nan_row(sg))]
    with pytest.raises(TrainingError, match=r"^non-finite value at epoch 0: [^\n]*\Z"):
        train(cfg, tc, bad)
    model, _ = train(cfg, tc, [(sid, sg)])
    with pytest.raises(TrainingError, match=r"^non-finite value in the forward pass: [^\n]*\Z"):
        predict(model, bad)
    # a NaN in a graph with no labeled node leaves the loss finite, but its gradient
    # reaches the weights through the batch it shares with a labeled graph
    unlabeled = ("u", _with_nan_row(sg, (None,) * sg.n_nodes))
    with pytest.raises(TrainingError, match=r"^non-finite value at epoch 0: [^\n]*\Z"):
        train(cfg, tc, [(sid, sg), unlabeled])


def test_train_skips_a_batch_with_no_labeled_node(rng):
    # at batch 1 each unlabeled graph is a batch of its own and takes no step,
    # so training matches the labeled graph alone bit for bit
    labeled = chain_dataset(1)
    unlabeled = [(f"u{i}", _graph_with_labels([None] * 3, rng)) for i in range(3)]
    cfg, tc = ModelConfig("gcn", hidden_dim=8, seed=1), TrainConfig(epochs=3, batch=1)
    model, trace = train(cfg, tc, labeled + unlabeled)
    alone, alone_trace = train(cfg, tc, labeled)
    assert trace == alone_trace
    assert np.array_equal(model.values, alone.values)


def test_predict_pools_labeled_nodes():
    dataset = chain_dataset(2)
    cfg = ModelConfig("gcn", hidden_dim=8, seed=1)
    model, _ = train(cfg, TrainConfig(epochs=2), dataset)
    preds, labels = predict(model, dataset)
    n_labeled = sum(sum(1 for lb in g.labels if lb) for _, g in dataset)
    assert preds.shape == labels.shape == (n_labeled,)
    assert np.all((preds >= 0) & (preds < 13))
    with pytest.raises(TrainingError, match="empty dataset"):
        predict(model, [])


def test_run_cv_bookkeeping():
    dataset = chain_dataset(10)
    report = run_cv(
        ModelConfig("sage", hidden_dim=8, seed=2),
        TrainConfig(epochs=3, folds=5, seed=1),
        dataset,
    )
    assert isinstance(report, dict)
    assert len(report["fold_weighted_f1"]) == 5
    assert sorted(sid for f in report["fold_test_subjects"] for sid in f) == [
        f"c{i:02d}" for i in range(10)
    ]
    assert abs(report["weighted_f1_mean"] - np.mean(report["fold_weighted_f1"])) < 1e-12
    n_labeled = sum(sum(1 for lb in g.labels if lb) for _, g in dataset)
    assert np.sum(report["confusion"]) == n_labeled
    assert abs(sum(c["weight"] for c in report["per_class"].values()) - 1.0) < 1e-12
    assert set(report["per_class"]) == set(CLASSES_13)
    # it is the report.json entry as it is: a JSON round trip gives it back
    assert json.loads(json.dumps(report)) == report


def test_run_cv_normalizes_the_confusion_by_row():
    # a 13-class model on 11-class graphs: the L-PLB and L-PDA rows have no support
    dataset = select_classes(generated_dataset(6), 11)
    report = run_cv(ModelConfig("gcn", hidden_dim=8, seed=1), TrainConfig(epochs=2, folds=2),
                    dataset)
    confusion = np.array(report["confusion"])
    normalized = np.array(report["confusion_normalized"])
    support = confusion.sum(axis=1)
    empty = support == 0
    assert empty[[CLASSES_13.index(c) for c in DROPPED_IN_11]].all()
    assert np.array_equal(normalized[empty], np.zeros((empty.sum(), 13)))
    assert np.array_equal(normalized[~empty], confusion[~empty] / support[~empty, None])
    # the pooled F1 is the one the pooled predictions give
    labels, preds = np.nonzero(confusion)
    counts = confusion[labels, preds].astype(int)
    assert report["weighted_f1_pooled"] == weighted_f1(preds.repeat(counts),
                                                       labels.repeat(counts), 13)


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
