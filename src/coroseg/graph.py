"""Segment-graph construction from prepared centerlines.

Branches are cut at bifurcations into segments; segments become nodes of a
line graph (edges join segments sharing a junction). Each node carries a
48-dim embedding built from a subject-specific reference frame: three
anchor points and three shape vectors, each in local Cartesian form and in
a wraparound-free spherical form (radius plus unit-circle angle pairs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .centerline import DROPPED_IN_11, LEFT, RIGHT, SubjectRecord
from .models import GraphStructure

EMBED_DIM = 48


class GraphBuildError(ValueError):
    """Raised when a valid segment graph cannot be built."""


@dataclass(frozen=True)
class ReferenceFrame:
    """Subject-specific orthonormal frame making embeddings pose-invariant."""

    origin: np.ndarray  # (3,)
    basis: np.ndarray   # (3, 3), rows = x, y, z axes, det = +1
    scale_mm: float     # bounding-box diagonal of all points, local axes

    def to_local(self, p: np.ndarray) -> np.ndarray:
        """Map world coordinates (..., 3) into the normalized local frame."""
        return self.vector_to_local(np.asarray(p) - self.origin)

    def vector_to_local(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v) @ self.basis.T / self.scale_mm


@dataclass(frozen=True)
class Segment:
    """Piece of a branch between two consecutive junctions."""

    segment_id: str
    points: np.ndarray
    start_junction: int
    end_junction: int
    label: str | None = None


@dataclass(frozen=True)
class SkeletonGraph:
    """A subject's branches cut at junctions: segment s is rows span[s, 0] to
    span[s, 1] of points and joins junctions ends[s]; junction k is row
    junction_rows[k]."""

    points: np.ndarray         # (P, 3), the subject's points
    span: np.ndarray           # (S, 2)
    ends: np.ndarray           # (S, 2)
    junction_rows: np.ndarray  # (J,)
    segment_ids: tuple[str, ...]
    labels: tuple[str | None, ...]

    @cached_property
    def segments(self) -> tuple[Segment, ...]:
        """One Segment per segment, viewing its rows; built on first read."""
        spans, ends = self.span.tolist(), self.ends.tolist()
        return tuple(Segment(sid, self.points[i : j + 1], js, je, label) for sid, label, (i, j), (js, je)
                     in zip(self.segment_ids, self.labels, spans, ends))


@dataclass(frozen=True)
class SegmentGraph:
    """Line graph of a skeleton: nodes are segments."""

    node_ids: tuple[str, ...]
    features: np.ndarray   # (N, 48)
    adjacency: np.ndarray  # (N, N) symmetric 0/1, zero diagonal
    labels: tuple[str | None, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @cached_property
    def without_dropped(self) -> SegmentGraph:
        """The 11-class view: the graph itself if no node is labelled in `DROPPED_IN_11`, else
        the induced subgraph without those nodes, kept with its own structure and label indices."""
        keep = [i for i, lb in enumerate(self.labels) if lb not in DROPPED_IN_11]
        if len(keep) == len(self.labels):
            return self
        return SegmentGraph(
            node_ids=tuple(self.node_ids[i] for i in keep),
            features=self.features[keep],
            adjacency=self.adjacency[np.ix_(keep, keep)],
            labels=tuple(self.labels[i] for i in keep),
        )

    @cached_property
    def structure(self) -> GraphStructure:
        """The graph's `GraphStructure`, built on first use and kept."""
        return GraphStructure.from_adjacency(self.adjacency)

    def label_indices(self, classes: list[str]) -> np.ndarray:
        """Class indices per node; -1 where the label is missing.

        Built once per class list and kept; the array is read-only.
        """
        key = tuple(classes)
        if key not in self._label_indices:
            lut = {c: i for i, c in enumerate(classes)}
            out = np.array([lut.get(lb, -1) if lb else -1 for lb in self.labels])
            out.flags.writeable = False
            self._label_indices[key] = out
        return self._label_indices[key]

    @cached_property
    def _label_indices(self) -> dict[tuple[str, ...], np.ndarray]:
        return {}


def split_into_segments(subject: SubjectRecord) -> SkeletonGraph:
    """Cut the branches of a resampled and merged subject at junctions.

    Two points are one when they are on the same side and their coordinates
    are equal (bit-exactly; -0.0 equals 0.0), so the left and right trees never
    share a junction. A junction sits at every branch endpoint, and a branch is
    cut where it passes one; that finds each attachment, since a child starts
    on its parent. Each side must have one root (a branch whose start lies on
    no other branch), and its segments must form one tree.
    """
    points, owner, right = subject.points, subject.owner, subject.right
    starts, n = subject.first, len(subject.first)
    ends = np.append(starts[1:], len(points)) - 1
    # one id per distinct (point, side); + 0.0 turns -0.0 into 0.0 before bytes compare
    raw = np.column_stack([points + 0.0, right[owner]]).view("V32").ravel()
    _, first_row, key = np.unique(raw, return_index=True, return_inverse=True)

    # distinct (point id, branch) pairs, counted per point id
    pairs = np.sort(key * n + owner)
    n_owners = np.bincount(pairs[np.diff(pairs, prepend=-1) > 0] // n)
    is_root = n_owners[key[starts]] == 1
    is_junction = np.zeros(len(first_row), dtype=bool)
    is_junction[key[starts]] = is_junction[key[ends]] = True
    cuts = np.flatnonzero(is_junction[key])
    same = owner[cuts[:-1]] == owner[cuts[1:]]
    span = np.stack([cuts[:-1][same], cuts[1:][same]], axis=1)  # (S, 2) point indices
    seg_owner = owner[span[:, 0]]
    junction = (np.cumsum(is_junction) - 1)[key[span]]  # (S, 2) junction ids

    ids = np.arange(is_junction.sum())
    oriented = (junction[:, :1] == ids) * 1.0 - (junction[:, 1:] == ids)  # (S, J) incidence
    on_right = right[seg_owner]
    for on, side in ((~on_right, LEFT), (on_right, RIGHT)):
        roots = [b for b, r, s in zip(subject.branch_ids, is_root, subject.sides) if r and s == side]
        if len(roots) > 1:
            raise GraphBuildError(
                f"dangling branch: {side} side has unattached branches {roots[1:]}"
            )
        # matrix-tree theorem: with one segment fewer than junctions, dropping
        # one junction column leaves det +-1 on a tree and 0 otherwise
        cols = np.flatnonzero(np.bincount(junction[on].ravel(), minlength=len(ids)))
        if len(cols) != on.sum() + 1 or abs(np.linalg.det(oriented[on][:, cols[1:]])) < 0.5:
            raise GraphBuildError(
                f"not a tree: {side} side has {on.sum()} segments on {len(cols)} junctions"
            )

    piece = np.arange(len(span)) - np.searchsorted(seg_owner, seg_owner)
    names, labels = subject.branch_ids, subject.labels
    return SkeletonGraph(
        points=points, span=span, ends=junction, junction_rows=first_row[is_junction],
        segment_ids=tuple(f"{names[o]}#{k}" for o, k in zip(seg_owner.tolist(), piece.tolist())),
        labels=tuple(labels[o] for o in seg_owner.tolist()),
    )


def line_graph_adjacency(skel: SkeletonGraph) -> np.ndarray:
    """Undirected adjacency over segments, edge iff two share a junction:
    with M the segment x junction incidence, A = (M M^T > 0) minus the diagonal."""
    incidence = np.zeros((len(skel.ends), len(skel.junction_rows)))
    incidence[np.arange(len(skel.ends))[:, None], skel.ends] = 1.0
    adj = (incidence @ incidence.T > 0).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    return adj


def build_reference_frame(subject: SubjectRecord) -> ReferenceFrame:
    """Frame from the first left-branch points and the last right-branch end.

    Origin and z-axis come from the first two points of the first left branch;
    the last point of the last right branch pins the y-z plane. Scale is the
    bounding-box diagonal along the local axes, which keeps it (and all
    embeddings) invariant to rigid motion.
    """
    points, on_right = subject.points, subject.right[subject.owner]
    start = int(np.argmin(on_right))  # the first left branch's first row
    origin = points[start]
    z = points[start + 1] - origin
    zn = np.linalg.norm(z)
    if zn < 1e-12:
        raise GraphBuildError("degenerate frame: coincident first points")
    z = z / zn
    control = points[np.flatnonzero(on_right)[-1]]  # the last right branch's last row
    w = control - origin
    wn = np.linalg.norm(w)
    y = w - (w @ z) * z
    yn = np.linalg.norm(y)
    if wn < 1e-12 or yn < 1e-9 * wn:
        raise GraphBuildError("degenerate frame: control point parallel to z-axis")
    y = y / yn
    x = np.array([y[1] * z[2] - y[2] * z[1], y[2] * z[0] - y[0] * z[2], y[0] * z[1] - y[1] * z[0]])
    basis = np.vstack([x, y, z])
    local = (basis @ (points - origin).T).T
    diag = float(np.linalg.norm(local.max(axis=0) - local.min(axis=0)))
    if diag <= 0:
        raise GraphBuildError("degenerate frame: zero extent")
    return ReferenceFrame(origin=np.array(origin), basis=basis, scale_mm=diag)


def spherical_encode(q: np.ndarray) -> np.ndarray:
    """(r, cos az, sin az, cos el, sin el) for local vectors q of shape (..., 3).

    Azimuth in the x-y plane, elevation measured from the +z axis. The
    zero vector encodes as (0, 1, 0, 1, 0) so every output is well defined.
    """
    q = np.asarray(q, dtype=np.float64)
    r = np.linalg.norm(q, axis=-1)
    rho = np.hypot(q[..., 0], q[..., 1])
    # numerically on the z-axis the azimuth is undefined and q[0] / rho
    # would amplify rounding noise, breaking pose invariance
    has_az = (r > 0) & (rho >= 1e-9 * r)
    rho_div = np.where(has_az, rho, 1.0)
    r_div = np.where(r > 0, r, 1.0)
    return np.stack([
        r,
        np.where(has_az, q[..., 0] / rho_div, 1.0),
        np.where(has_az, q[..., 1] / rho_div, 0.0),
        np.where(r > 0, q[..., 2] / r_div, 1.0),
        rho / r_div,
    ], axis=-1)


def node_embedding(skel: SkeletonGraph, frame: ReferenceFrame) -> np.ndarray:
    """(S, 48) embeddings: 6 geometric features x (3 Cartesian + 5 spherical).

    Features: first point, midpoint (middle resampled index), last point,
    tangent first->second, vector first->midpoint, vector midpoint->last.
    """
    i, j = skel.span.T
    first, second, mid, last = skel.points[np.stack([i, i + 1, i + (j - i) // 2, j])]
    q = np.concatenate([
        frame.to_local(np.stack([first, mid, last], axis=1)),
        frame.vector_to_local(np.stack([second - first, mid - first, last - mid], axis=1)),
    ], axis=1)
    return np.concatenate([q, spherical_encode(q)], axis=-1).reshape(len(i), EMBED_DIM)


def build_segment_graph(subject: SubjectRecord) -> SegmentGraph:
    """Split, line graph, embeddings and inherited labels of a resampled and
    merged subject (see prepare_subject)."""
    skel = split_into_segments(subject)
    frame = build_reference_frame(subject)
    adj = line_graph_adjacency(skel)
    return SegmentGraph(skel.segment_ids, node_embedding(skel, frame), adj, skel.labels)


def segment_graph_to_json(sg: SegmentGraph) -> str:
    """Export as {nodes: [{id, features, label?}], edges: [[i, j], ...]}, one node per line."""
    nodes = [
        json.dumps({"id": nid, "features": row.tolist(), **({"label": label} if label else {})})
        for nid, row, label in zip(sg.node_ids, sg.features, sg.labels)
    ]
    edges = json.dumps(np.argwhere(np.triu(sg.adjacency, 1)).tolist())
    return '{"nodes": [\n' + ",\n".join(nodes) + '\n],\n"edges": ' + edges + "}\n"
