"""Cross-validation training harness and evaluation metrics.

Subjects are split into folds; each fold's model trains on the remaining
subjects with block-diagonal graph batching and is evaluated strictly
out-of-fold. The headline metric is support-weighted F1. `train` and
`predict` keep the nodes of `ModelConfig.classes` (`select_classes`) and
index labels by it. Overflow, invalid and divide faults, a non-finite loss
or weight after a `train` step and a non-finite `predict` logit end as a
TrainingError; a direct `model_forward` caller gets no check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import AdamState, AutodiffError, Tensor, adam_step, backward, softmax_cross_entropy
from .graph import SegmentGraph
from .models import GraphStructure, ModelConfig, TrainedModel, init_model, model_forward


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch: int = 8        # subjects per optimization step
    lr: float = 1e-3
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, least in (("epochs", 1), ("batch", 1), ("folds", 2), ("seed", 0)):
            if getattr(self, name) < least:
                raise TrainingError(f"{name} must be >= {least}, not {getattr(self, name)}")
        if not 0 <= self.lr < math.inf:
            raise TrainingError(f"lr must be finite and >= 0, not {self.lr!r}")


def kfold_split(subject_ids: list[str], k: int, seed: int) -> list[list[str]]:
    """Random partition into k folds with sizes differing by at most one."""
    ids = list(subject_ids)
    if k > len(ids):
        raise TrainingError(f"cannot split {len(ids)} subjects into {k} folds")
    order = np.random.default_rng(seed).permutation(len(ids))
    return [[ids[j] for j in fold] for fold in np.array_split(order, k)]


def select_classes(
    dataset: list[tuple[str, SegmentGraph]], mode: int
) -> list[tuple[str, SegmentGraph]]:
    """Mode 11 gives each graph's `without_dropped` view, the same on every call; 13 is identity."""
    if mode == 13:
        return dataset
    return [(sid, sg.without_dropped) for sid, sg in dataset]


#: In train and predict, overflow, invalid and divide raise FloatingPointError, not a warning.
_FP_FAULTS = {"over": "raise", "invalid": "raise", "divide": "raise"}


def _batch(graphs: list[SegmentGraph], classes: list[str]):
    """Features, class indices (-1 where unlabeled) and the disjoint union of the graphs."""
    feats = np.vstack([sg.features for sg in graphs])
    labels = np.concatenate([sg.label_indices(classes) for sg in graphs])
    gs = GraphStructure.block_diagonal([sg.structure for sg in graphs])
    return feats, labels, gs


@np.errstate(**_FP_FAULTS)
def train(
    model_cfg: ModelConfig, train_cfg: TrainConfig, dataset: list[tuple[str, SegmentGraph]]
) -> tuple[TrainedModel, list[float]]:
    """Train one model on `model_cfg.classes`; returns it with the per-epoch mean loss trace."""
    if not dataset:
        raise TrainingError("empty dataset")
    classes = model_cfg.classes
    graphs = [sg for _, sg in select_classes(dataset, model_cfg.num_classes)]
    if all((sg.label_indices(classes) < 0).all() for sg in graphs):
        raise TrainingError("dataset has no labeled nodes")
    model = init_model(model_cfg)
    state = AdamState(lr=train_cfg.lr)
    rng = np.random.default_rng(train_cfg.seed)
    trace = []
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(graphs))
        losses = []
        for start in range(0, len(graphs), train_cfg.batch):
            chunk = [graphs[i] for i in order[start : start + train_cfg.batch]]
            feats, labels, gs = _batch(chunk, classes)
            mask = labels >= 0
            if not mask.any():
                continue
            try:
                logits = model_forward(model, feats, gs)
                loss = softmax_cross_entropy(logits, np.where(mask, labels, 0), mask)
                model.grads[:] = 0.0
                backward(loss)
                adam_step(model.values, model.grads, state)
                if not (np.isfinite(loss.data).all() and np.isfinite(model.values).all()):
                    raise FloatingPointError("loss or weights not finite")
            except (AutodiffError, FloatingPointError) as exc:
                raise TrainingError(f"non-finite value at epoch {epoch}: {exc}") from exc
            losses.append(float(loss.data[0, 0]))
        trace.append(float(np.mean(losses)))
    return model, trace


@np.errstate(**_FP_FAULTS)
def predict(model: TrainedModel, dataset):
    """Pooled (preds, labels) over labeled nodes of every subject, in dataset order.

    Labels index `model.config.classes`. One forward over the block-diagonal
    batch on untracked views of the parameters, so no tape is kept.
    """
    if not dataset:
        raise TrainingError("empty dataset")
    cfg = model.config
    graphs = [sg for _, sg in select_classes(dataset, cfg.num_classes)]
    feats, labels, gs = _batch(graphs, cfg.classes)
    frozen = replace(model, params={k: Tensor(p.data) for k, p in model.params.items()})
    try:
        logits = model_forward(frozen, feats, gs).data
        if not np.isfinite(logits).all():
            raise FloatingPointError("logits not finite")
    except (AutodiffError, FloatingPointError) as exc:
        raise TrainingError(f"non-finite value in the forward pass: {exc}") from exc
    mask = labels >= 0
    return np.argmax(logits[mask], axis=1), labels[mask]


def confusion_matrix(preds, labels, num_classes: int) -> np.ndarray:
    """Entry (i, j) counts true class i predicted as j."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    mat = np.zeros((num_classes, num_classes))
    np.add.at(mat, (labels, preds), 1.0)
    return mat


def per_class_metrics(confusion: np.ndarray):
    """Precision, recall, F1, and support-fraction weight per class of a confusion matrix.

    Classes with zero precision + recall get F1 = 0; zero-support classes
    get weight 0 (synthetic folds may miss rare classes).
    """
    if not confusion.any():
        raise TrainingError("empty input")
    num_classes = len(confusion)
    tp = np.diag(confusion)
    pred_totals = confusion.sum(axis=0)
    support = confusion.sum(axis=1)
    precision = np.divide(tp, pred_totals, out=np.zeros(num_classes), where=pred_totals > 0)
    recall = np.divide(tp, support, out=np.zeros(num_classes), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros(num_classes), where=pr > 0)
    weights = support / support.sum()
    return precision, recall, f1, weights


def weighted_f1_from_confusion(confusion: np.ndarray) -> float:
    """Support-weighted mean of the per-class F1 scores of a confusion matrix.

    Each class adds its F1 times its support, at most the support itself, so
    the score is at most 1 and exactly 1.0 for a perfect prediction. The
    weights `per_class_metrics` reports can sum to 1 + 2**-52, so they are not
    used here.
    """
    _, _, f1, _ = per_class_metrics(confusion)
    support = confusion.sum(axis=1)
    return float((f1 * support).sum() / support.sum())


def weighted_f1(preds, labels, num_classes: int) -> float:
    """Support-weighted mean of per-class F1 scores."""
    return weighted_f1_from_confusion(confusion_matrix(preds, labels, num_classes))


def run_cv(
    model_cfg: ModelConfig, train_cfg: TrainConfig, dataset: list[tuple[str, SegmentGraph]]
) -> dict:
    """k-fold cross-validation with strict out-of-fold evaluation; returns this
    config's entry in the `details` of `coroseg cv`'s report.json."""
    classes = model_cfg.classes
    by_id = dict(dataset)
    if len(by_id) != len(dataset):
        raise TrainingError("duplicate subject ids")
    folds = kfold_split([sid for sid, _ in dataset], train_cfg.folds, train_cfg.seed)
    for k, test_ids in enumerate(folds, 1):
        if not any((by_id[sid].label_indices(classes) >= 0).any() for sid in test_ids):
            raise TrainingError(f"fold {k} of {len(folds)} has no labeled nodes to evaluate")
    fold_f1, confusion = [], np.zeros((len(classes), len(classes)))
    for test_ids in folds:
        test_set = set(test_ids)
        train_data = [(sid, g) for sid, g in dataset if sid not in test_set]
        model, _ = train(model_cfg, train_cfg, train_data)
        preds, labels = predict(model, [(sid, by_id[sid]) for sid in test_ids])
        fold = confusion_matrix(preds, labels, len(classes))
        fold_f1.append(weighted_f1_from_confusion(fold))
        confusion += fold  # counts, so the pooled sum is exact
    support = confusion.sum(axis=1, keepdims=True)
    normalized = np.divide(confusion, support, out=np.zeros_like(confusion), where=support > 0)
    return {
        "classes": list(classes),
        "fold_weighted_f1": fold_f1,
        "fold_test_subjects": folds,
        "weighted_f1_mean": float(np.mean(fold_f1)),
        "weighted_f1_pooled": weighted_f1_from_confusion(confusion),
        "per_class": {
            c: {"precision": float(p), "recall": float(r), "f1": float(f), "weight": float(w)}
            for c, p, r, f, w in zip(classes, *per_class_metrics(confusion))
        },
        "confusion": confusion.tolist(),
        "confusion_normalized": normalized.tolist(),
    }


def render_comparison_table(rows: list[dict]) -> str:
    """Aligned text table: one row per model, 11- and 13-class columns."""
    header = f"{'Graph Model':<12} {'F1-Score (11)':>14} {'F1-score (13)':>14}"
    lines = [header, "-" * len(header)]
    for row in rows:
        f11 = f"{row['f1_11']:.3f}" if row.get("f1_11") is not None else "-"
        f13 = f"{row['f1_13']:.3f}" if row.get("f1_13") is not None else "-"
        lines.append(f"{row['model']:<12} {f11:>14} {f13:>14}")
    return "\n".join(lines)
