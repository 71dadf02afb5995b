"""Cross-validation training harness and evaluation metrics.

Subjects are split into folds; each fold's model trains on the remaining
subjects with block-diagonal graph batching and is evaluated strictly
out-of-fold. The headline metric is support-weighted F1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import AdamState, AutodiffError, Tensor, adam_step, backward, softmax_cross_entropy
from .centerline import CLASSES_11, CLASSES_13
from .graph import SegmentGraph
from .models import GraphStructure, ModelConfig, TrainedModel, init_model, model_forward


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 8   # subjects per optimization step
    lr: float = 1e-3
    folds: int = 5
    class_mode: int = 13
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.folds) <= 0 or self.lr < 0:
            raise TrainingError("config values must be positive")
        if not math.isfinite(self.lr):
            raise TrainingError(f"lr must be finite, not {self.lr!r}")
        if self.folds < 2:
            raise TrainingError("folds must be >= 2")
        if self.class_mode not in (11, 13):
            raise TrainingError("class_mode must be 11 or 13")

    @property
    def classes(self) -> list[str]:
        return CLASSES_13 if self.class_mode == 13 else CLASSES_11


def kfold_split(subject_ids: list[str], k: int, seed: int) -> list[list[str]]:
    """Random partition into k folds with sizes differing by at most one."""
    ids = list(subject_ids)
    if k > len(ids):
        raise TrainingError(f"cannot split {len(ids)} subjects into {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    base, extra = divmod(len(ids), k)
    folds, pos = [], 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append([ids[j] for j in order[pos : pos + size]])
        pos += size
    return folds


def select_classes(
    dataset: list[tuple[str, SegmentGraph]], mode: int
) -> list[tuple[str, SegmentGraph]]:
    """Mode 11 drops all L-PDA / L-PLB nodes (induced subgraph); 13 is identity."""
    if mode == 13:
        return dataset
    drop = {"L-PDA", "L-PLB"}
    out = []
    for sid, sg in dataset:
        keep = np.array([lb not in drop for lb in sg.labels])
        if keep.all():
            out.append((sid, sg))
            continue
        idx = np.flatnonzero(keep)
        out.append(
            (
                sid,
                SegmentGraph(
                    node_ids=tuple(sg.node_ids[i] for i in idx),
                    features=sg.features[idx],
                    adjacency=sg.adjacency[np.ix_(idx, idx)],
                    labels=tuple(sg.labels[i] for i in idx),
                ),
            )
        )
    return out


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
    """Train one model; returns it with the per-epoch mean loss trace."""
    if not dataset:
        raise TrainingError("empty dataset")
    classes = train_cfg.classes
    graphs = [sg for _, sg in dataset]
    if all((sg.label_indices(classes) < 0).all() for sg in graphs):
        raise TrainingError("dataset has no labeled nodes")
    model = init_model(model_cfg)
    state = AdamState(lr=train_cfg.lr)
    rng = np.random.default_rng(train_cfg.seed)
    trace = []
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(graphs))
        losses = []
        for start in range(0, len(graphs), train_cfg.batch_size):
            chunk = [graphs[i] for i in order[start : start + train_cfg.batch_size]]
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
            except (AutodiffError, FloatingPointError) as exc:
                raise TrainingError(f"non-finite value at epoch {epoch}: {exc}") from exc
            losses.append(float(loss.data[0, 0]))
        trace.append(float(np.mean(losses)) if losses else float("nan"))
    return model, trace


@np.errstate(**_FP_FAULTS)
def predict(model: TrainedModel, dataset, classes: list[str]):
    """Pooled (preds, labels) over labeled nodes of every subject, in dataset order.

    One forward over the block-diagonal batch of the whole set, on untracked
    views of the parameters, so no tape is kept.
    """
    if not dataset:
        raise TrainingError("empty dataset")
    feats, labels, gs = _batch([sg for _, sg in dataset], classes)
    frozen = replace(model, params={k: Tensor(p.data) for k, p in model.params.items()})
    try:
        logits = model_forward(frozen, feats, gs).data
    except (AutodiffError, FloatingPointError) as exc:
        raise TrainingError(f"non-finite value in the forward pass: {exc}") from exc
    mask = labels >= 0
    return np.argmax(logits[mask], axis=1), labels[mask]


def confusion_matrix(preds, labels, num_classes: int, normalized: bool = False) -> np.ndarray:
    """Entry (i, j) counts true class i predicted as j."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    mat = np.zeros((num_classes, num_classes))
    np.add.at(mat, (labels, preds), 1.0)
    if normalized:
        sums = mat.sum(axis=1, keepdims=True)
        mat = np.divide(mat, sums, out=np.zeros_like(mat), where=sums > 0)
    return mat


def per_class_metrics(preds, labels, num_classes: int):
    """Precision, recall, F1, and support-fraction weight per class.

    Classes with zero precision + recall get F1 = 0; zero-support classes
    get weight 0 (synthetic folds may miss rare classes).
    """
    if len(labels) == 0:
        raise TrainingError("empty input")
    mat = confusion_matrix(preds, labels, num_classes)
    tp = np.diag(mat)
    pred_totals = mat.sum(axis=0)
    support = mat.sum(axis=1)
    precision = np.divide(tp, pred_totals, out=np.zeros(num_classes), where=pred_totals > 0)
    recall = np.divide(tp, support, out=np.zeros(num_classes), where=support > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros(num_classes), where=pr > 0)
    weights = support / support.sum()
    return precision, recall, f1, weights


def weighted_f1(preds, labels, num_classes: int) -> float:
    """Support-weighted mean of per-class F1 scores."""
    _, _, f1, weights = per_class_metrics(preds, labels, num_classes)
    return float((f1 * weights).sum())


@dataclass
class MetricsReport:
    classes: list[str]
    fold_f1: list[float]
    fold_test_ids: list[list[str]]
    weighted_f1_mean: float
    weighted_f1_pooled: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    class_weights: np.ndarray
    confusion: np.ndarray
    confusion_normalized: np.ndarray

    def to_dict(self) -> dict:
        return {
            "classes": self.classes,
            "fold_weighted_f1": self.fold_f1,
            "fold_test_subjects": self.fold_test_ids,
            "weighted_f1_mean": self.weighted_f1_mean,
            "weighted_f1_pooled": self.weighted_f1_pooled,
            "per_class": {
                c: {
                    "precision": float(self.precision[i]),
                    "recall": float(self.recall[i]),
                    "f1": float(self.f1[i]),
                    "weight": float(self.class_weights[i]),
                }
                for i, c in enumerate(self.classes)
            },
            "confusion": self.confusion.tolist(),
            "confusion_normalized": self.confusion_normalized.tolist(),
        }


def run_cv(
    model_cfg: ModelConfig, train_cfg: TrainConfig, dataset: list[tuple[str, SegmentGraph]]
) -> MetricsReport:
    """k-fold cross-validation with strict out-of-fold evaluation."""
    classes = train_cfg.classes
    dataset = select_classes(dataset, train_cfg.class_mode)
    by_id = dict(dataset)
    if len(by_id) != len(dataset):
        raise TrainingError("duplicate subject ids")
    folds = kfold_split([sid for sid, _ in dataset], train_cfg.folds, train_cfg.seed)
    fold_f1, all_preds, all_labels = [], [], []
    for test_ids in folds:
        test_set = set(test_ids)
        train_data = [(sid, g) for sid, g in dataset if sid not in test_set]
        test_data = [(sid, by_id[sid]) for sid in test_ids]
        model, _ = train(model_cfg, train_cfg, train_data)
        preds, labels = predict(model, test_data, classes)
        fold_f1.append(weighted_f1(preds, labels, len(classes)))
        all_preds.append(preds)
        all_labels.append(labels)
    preds = np.concatenate(all_preds)
    labels = np.concatenate(all_labels)
    precision, recall, f1, weights = per_class_metrics(preds, labels, len(classes))
    return MetricsReport(
        classes=classes,
        fold_f1=fold_f1,
        fold_test_ids=folds,
        weighted_f1_mean=float(np.mean(fold_f1)),
        weighted_f1_pooled=weighted_f1(preds, labels, len(classes)),
        precision=precision,
        recall=recall,
        f1=f1,
        class_weights=weights,
        confusion=confusion_matrix(preds, labels, len(classes)),
        confusion_normalized=confusion_matrix(preds, labels, len(classes), normalized=True),
    )


def render_comparison_table(rows: list[dict]) -> str:
    """Aligned text table: one row per model, 11- and 13-class columns."""
    header = f"{'Graph Model':<12} {'F1-Score (11)':>14} {'F1-score (13)':>14}"
    lines = [header, "-" * len(header)]
    for row in rows:
        f11 = f"{row['f1_11']:.3f}" if row.get("f1_11") is not None else "-"
        f13 = f"{row['f1_13']:.3f}" if row.get("f1_13") is not None else "-"
        lines.append(f"{row['model']:<12} {f11:>14} {f13:>14}")
    return "\n".join(lines)
