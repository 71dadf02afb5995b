"""Inputs and reference results that the benchmark computes on its own.

Nothing here calls the pipeline under test: the expected graph sizes come
from the generator's record by counting, the reference logits from the
checkpoint file by plain numpy, and F1 from a confusion matrix by counting.
"""

from __future__ import annotations

import json
from math import comb

import numpy as np

#: Points inserted per generator gap when densifying (5 mm -> 0.5 mm).
DENSIFY = 10
#: Child starts move by up to this much, below the 1.5 mm merge tolerance...
MAX_DISPLACE_MM = 0.85
#: ...and by at most this share of the distance from the attachment vertex to
#: the nearest other vertex, so the vertex stays the unique nearest point.
DISPLACE_SHARE = 1 / 8
#: A root start this close to another branch is at risk of being merged.
ROOT_CLEARANCE_MM = 2.0


def subject_doc(subject_id: str, voxel_mm: float, branches) -> dict:
    """Subject file content; branches are (id, side, points, label) tuples."""
    return {
        "subject_id": subject_id,
        "voxel_spacing_mm": voxel_mm,
        "branches": [
            {"id": bid, "side": side, "points": np.asarray(pts).tolist(),
             **({"label": label} if label else {})}
            for bid, side, pts, label in branches
        ],
    }


def record_doc(rec) -> dict:
    """Subject file content for a generator record, unchanged."""
    return subject_doc(
        rec.subject_id, rec.voxel_spacing_mm,
        [(cl.branch_id, cl.side, cl.points, cl.label) for cl in rec.centerlines],
    )


def densify(points: np.ndarray) -> np.ndarray:
    """DENSIFY - 1 evenly spaced points inserted into every gap; vertices kept."""
    frac = np.arange(DENSIFY) / DENSIFY
    gaps = points[:-1, None, :] + frac[None, :, None] * np.diff(points, axis=0)[:, None, :]
    return np.vstack([gaps.reshape(-1, 3), points[-1:]])


def _is_child(rec, i: int) -> bool:
    start = rec.centerlines[i].points[0]
    return any(
        j != i and (cl.points == start).all(axis=1).any()
        for j, cl in enumerate(rec.centerlines)
    )


def _other_points(rec, i: int) -> np.ndarray:
    return np.vstack([cl.points for j, cl in enumerate(rec.centerlines) if j != i])


def dense_doc(rec, rng: np.random.Generator) -> dict:
    """Voxel-spacing export of a generator record with child starts moved.

    Each child start is moved on the sphere through the old start centred
    on the next dense point, so the branch keeps its arc length and its own
    resampled vertices (where grandchildren attach) stay where they were.
    """
    branches = []
    for i, cl in enumerate(rec.centerlines):
        pts = densify(cl.points)
        if _is_child(rec, i):
            others = _other_points(rec, i)
            gaps = np.linalg.norm(others - cl.points[0], axis=1)
            room = DISPLACE_SHARE * gaps[gaps > 0].min()
            shift = min(rng.uniform(0.4, 1.0) * MAX_DISPLACE_MM, room)
            radius_vec = pts[0] - pts[1]
            r = np.linalg.norm(radius_vec)
            u0 = radius_vec / r
            w = rng.normal(size=3)
            w -= (w @ u0) * u0
            w /= np.linalg.norm(w)
            theta = 2 * np.arcsin(min(shift / (2 * r), 1.0))
            pts[0] = pts[1] + r * (np.cos(theta) * u0 + np.sin(theta) * w)
        branches.append((cl.branch_id, cl.side, pts, cl.label))
    return subject_doc(rec.subject_id, rec.voxel_spacing_mm, branches)


def roots_clear(rec) -> bool:
    """No root start lies within ROOT_CLEARANCE_MM of another branch's polyline."""
    for i, cl in enumerate(rec.centerlines):
        if _is_child(rec, i):
            continue
        for j, other in enumerate(rec.centerlines):
            if j == i:
                continue
            a, b = other.points[:-1], other.points[1:]
            ab = b - a
            t = np.clip(((cl.points[0] - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1), 0, 1)
            if np.linalg.norm(a + t[:, None] * ab - cl.points[0], axis=1).min() < ROOT_CLEARANCE_MM:
                return False
    return True


def expected_counts(rec) -> tuple[int, int, dict[str, int]]:
    """(nodes, edges, nodes per label) of the segment graph of a record.

    Each branch gives 1 + its distinct interior attachment points; each
    attachment point shared by k child starts joins k + 2 segments, which
    gives C(k + 2, 2) line-graph edges.
    """
    starts: dict[tuple, int] = {}
    for cl in rec.centerlines:
        key = tuple(cl.points[0])
        starts[key] = starts.get(key, 0) + 1
    nodes, edges, per_label = 0, 0, {}
    for cl in rec.centerlines:
        attach = {tuple(p) for p in cl.points[1:-1]} & set(starts)
        nodes += 1 + len(attach)
        per_label[cl.label] = per_label.get(cl.label, 0) + 1 + len(attach)
        edges += sum(comb(starts[key] + 2, 2) for key in attach)
    return nodes, edges, per_label


def moved_doc(doc: dict, rng: np.random.Generator) -> tuple[dict, float]:
    """The same subject under a random rigid motion and uniform rescale.

    The voxel spacing scales with the points, so resampling happens at the
    same places. The scale stays within [0.8, 1.25] so a moved child start
    stays inside the fixed 1.5 mm merge tolerance.
    """
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    rot = q * np.sign(np.diag(r))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    shift = rng.uniform(-50.0, 50.0, 3)
    scale = float(rng.uniform(0.8, 1.25))
    out = json.loads(json.dumps(doc))
    out["voxel_spacing_mm"] = doc["voxel_spacing_mm"] * scale
    for b in out["branches"]:
        b["points"] = (scale * (np.asarray(b["points"]) @ rot.T) + shift).tolist()
    return out, scale


# ---------------------------------------------------------------- reference
def _weights(ckpt: dict) -> dict[str, np.ndarray]:
    return {
        name: np.asarray(w["values"], dtype=np.float64).reshape(w["shape"])
        for name, w in ckpt["weights"].items()
    }


def _relu(x):
    return np.maximum(x, 0.0)


def _neighbors(adj: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(adj[i]) for i in range(len(adj))]


def _gcn(h, nbrs, w, b):
    hw = h @ w
    deg = np.array([len(n) + 1.0 for n in nbrs])
    out = np.empty((len(h), w.shape[1]))
    for i, n in enumerate(nbrs):
        acc = hw[i] / deg[i]
        for j in n:
            acc = acc + hw[j] / np.sqrt(deg[i] * deg[j])
        out[i] = acc
    return out + b


def _gat_head(h, nbrs, w, a_src, a_dst, slope):
    hw = h @ w
    f_src, f_dst = (hw @ a_src)[:, 0], (hw @ a_dst)[:, 0]
    out = np.empty_like(hw)
    for i, n in enumerate(nbrs):
        group = np.append(n, i)
        e = f_src[i] + f_dst[group]
        e = np.where(e > 0, e, slope * e)
        alpha = np.exp(e - e.max())
        alpha /= alpha.sum()
        out[i] = alpha @ hw[group]
    return out


def _gin(h, nbrs, eps, w1, b1, w2, b2):
    agg = np.array([(1.0 + eps) * h[i] + h[n].sum(axis=0) for i, n in enumerate(nbrs)])
    return _relu(agg @ w1 + b1) @ w2 + b2


def _sage(h, nbrs, pool, pool_b, out_w, out_b):
    pooled = _relu(h @ pool + pool_b)
    agg = np.array([
        pooled[n].max(axis=0) if len(n) else np.zeros(pooled.shape[1]) for n in nbrs
    ])
    out = np.hstack([h, agg]) @ out_w + out_b
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return np.where(norms > 0, out / np.where(norms > 0, norms, 1.0), 0.0)


def reference_logits(ckpt: dict, features: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Per-node class logits of a checkpoint, node by node in plain numpy."""
    cfg, p = ckpt["config"], _weights(ckpt)
    nbrs = _neighbors(adjacency)
    slope = cfg["leaky_slope"]

    def layer(h, k):
        v = cfg["variant"]
        if v == "gcn":
            return _gcn(h, nbrs, p[f"w{k}"], p[f"b{k}"])
        if v == "gat":
            if k == 1:
                heads = [
                    _gat_head(h, nbrs, p[f"w1_h{m}"], p[f"a1_src_h{m}"], p[f"a1_dst_h{m}"], slope)
                    for m in range(cfg["gat_heads"])
                ]
                return np.hstack(heads) + p["b1"]
            return _gat_head(h, nbrs, p["w2"], p["a2_src"], p["a2_dst"], slope) + p["b2"]
        if v == "gin":
            return _gin(h, nbrs, p[f"eps{k}"][0, 0], p[f"mlp{k}_w1"], p[f"mlp{k}_b1"],
                        p[f"mlp{k}_w2"], p[f"mlp{k}_b2"])
        return _sage(h, nbrs, p[f"pool{k}"], p[f"pool{k}_b"], p[f"out{k}"], p[f"out{k}_b"])

    h = _relu(layer(np.asarray(features, dtype=np.float64), 1))
    return layer(h, 2) @ p["fc_w"] + p["fc_b"]


# ------------------------------------------------------------------ metrics
def weighted_f1_from_confusion(confusion) -> float:
    """Support-weighted F1, with F1 = 2 tp / (support + predicted) per class."""
    c = np.asarray(confusion, dtype=np.float64)
    tp = np.diag(c)
    support, predicted = c.sum(axis=1), c.sum(axis=0)
    total = support.sum()
    f1 = [2 * t / (s + q) if t else 0.0 for t, s, q in zip(tp, support, predicted)]
    return float(sum(s / total * f for s, f in zip(support, f1)))


def majority_f1_from_confusion(confusion) -> float:
    """Weighted F1 of always predicting the most frequent true class."""
    support = np.asarray(confusion, dtype=np.float64).sum(axis=1)
    share = support.max() / support.sum()
    return float(share * 2 * share / (share + 1.0))


def confusion(truth, pred, n_classes: int) -> np.ndarray:
    mat = np.zeros((n_classes, n_classes))
    for t, q in zip(truth, pred):
        mat[t, q] += 1
    return mat
