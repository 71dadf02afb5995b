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

import numpy as np

from .centerline import LEFT, SubjectRecord

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
    parent_branch_id: str
    points: np.ndarray
    start_junction: str
    end_junction: str
    label: str | None = None


@dataclass(frozen=True)
class SkeletonGraph:
    junctions: dict[str, np.ndarray]
    segments: tuple[Segment, ...]


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

    def label_indices(self, classes: list[str]) -> np.ndarray:
        """Class indices per node; -1 where the label is missing."""
        lut = {c: i for i, c in enumerate(classes)}
        return np.array([lut.get(lb, -1) if lb else -1 for lb in self.labels])


def _point_key(p: np.ndarray) -> tuple[float, float, float]:
    return (float(p[0]), float(p[1]), float(p[2]))


def split_into_segments(subject: SubjectRecord) -> SkeletonGraph:
    """Cut branches at bifurcations. Requires a resampled + merged subject.

    A junction sits at every branch endpoint and at every point where a
    child branch start coincides (bit-exactly, post-merge) with a point of
    another branch. Each side must resolve to a single rooted tree.
    """
    cls = subject.centerlines
    keys = [[_point_key(p) for p in cl.points] for cl in cls]
    point_sets = [set(k) for k in keys]

    # A branch whose start lies on no other branch is a root: one per side.
    for side in ("left", "right"):
        roots = [
            cl.branch_id
            for i, cl in enumerate(cls)
            if cl.side == side
            and not any(
                keys[i][0] in point_sets[j] for j in range(len(cls)) if j != i
            )
        ]
        if len(roots) > 1:
            raise GraphBuildError(
                f"dangling branch: {side} side has unattached branches {roots[1:]}"
            )

    junction_keys = set()
    for i in range(len(cls)):
        junction_keys.add(keys[i][0])
        junction_keys.add(keys[i][-1])
        # child starts landing on this branch
        for j in range(len(cls)):
            if j != i and keys[j][0] in point_sets[i]:
                junction_keys.add(keys[j][0])

    junction_id: dict[tuple, str] = {}
    junctions: dict[str, np.ndarray] = {}

    def jid(key: tuple, p: np.ndarray) -> str:
        if key not in junction_id:
            junction_id[key] = f"j{len(junction_id):03d}"
            junctions[junction_id[key]] = np.array(p)
        return junction_id[key]

    segments = []
    for i, cl in enumerate(cls):
        cut = [0]
        cut += [k for k in range(1, len(cl.points) - 1) if keys[i][k] in junction_keys]
        cut.append(len(cl.points) - 1)
        for piece, (a, b) in enumerate(zip(cut[:-1], cut[1:])):
            pts = cl.points[a : b + 1]
            segments.append(
                Segment(
                    segment_id=f"{cl.branch_id}#{piece}",
                    parent_branch_id=cl.branch_id,
                    points=pts,
                    start_junction=jid(keys[i][a], pts[0]),
                    end_junction=jid(keys[i][b], pts[-1]),
                    label=cl.label,
                )
            )
    return SkeletonGraph(junctions=junctions, segments=tuple(segments))


def line_graph_adjacency(skel: SkeletonGraph) -> np.ndarray:
    """Undirected adjacency over segments: edge iff two segments share a junction.

    With M the segment x junction incidence matrix, A = (M M^T > 0) minus
    the diagonal.
    """
    column = {j: k for k, j in enumerate(skel.junctions)}
    rows = np.arange(len(skel.segments))
    incidence = np.zeros((len(rows), len(column)))
    for end in ("start_junction", "end_junction"):
        incidence[rows, [column[getattr(s, end)] for s in skel.segments]] = 1.0
    adj = (incidence @ incidence.T > 0).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    return adj


def build_reference_frame(subject: SubjectRecord) -> ReferenceFrame:
    """Frame from the first left-branch points and the last right-branch end.

    Origin and z-axis come from the first two points of the first left
    centerline; the last point of the last right centerline pins the y-z
    plane. Scale is the bounding-box diagonal measured along the local axes,
    which keeps it (and all embeddings) invariant to rigid motion.
    """
    left = subject.branches(LEFT)
    right = subject.branches("right")
    first_left = left[0]
    origin = first_left.points[0]
    z = first_left.points[1] - origin
    zn = np.linalg.norm(z)
    if zn < 1e-12:
        raise GraphBuildError("degenerate frame: coincident first points")
    z = z / zn
    control = right[-1].points[-1]
    w = control - origin
    wn = np.linalg.norm(w)
    y = w - (w @ z) * z
    yn = np.linalg.norm(y)
    if wn < 1e-12 or yn < 1e-9 * wn:
        raise GraphBuildError("degenerate frame: control point parallel to z-axis")
    y = y / yn
    x = np.cross(y, z)
    basis = np.vstack([x, y, z])
    all_pts = np.vstack([cl.points for cl in subject.centerlines])
    local = (basis @ (all_pts - origin).T).T
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


def node_embedding(segments: tuple[Segment, ...], frame: ReferenceFrame) -> np.ndarray:
    """(S, 48) embeddings: 6 geometric features x (3 Cartesian + 5 spherical).

    Features: first point, midpoint (middle resampled index), last point,
    tangent first->second, vector first->midpoint, vector midpoint->last.
    """
    picks = np.array([
        [p[0], p[1], p[(len(p) - 1) // 2], p[-1]] for p in (s.points for s in segments)
    ])
    first, second, mid, last = picks.transpose(1, 0, 2)
    q = np.concatenate([
        frame.to_local(np.stack([first, mid, last], axis=1)),
        frame.vector_to_local(np.stack([second - first, mid - first, last - mid], axis=1)),
    ], axis=1)
    return np.concatenate([q, spherical_encode(q)], axis=-1).reshape(len(picks), EMBED_DIM)


def build_segment_graph(subject: SubjectRecord) -> SegmentGraph:
    """Full construction: split, line graph, embeddings, inherited labels.

    The subject must already be resampled and merged (see prepare_subject).
    """
    skel = split_into_segments(subject)
    frame = build_reference_frame(subject)
    adj = line_graph_adjacency(skel)
    return SegmentGraph(
        node_ids=tuple(s.segment_id for s in skel.segments),
        features=node_embedding(skel.segments, frame),
        adjacency=adj,
        labels=tuple(s.label for s in skel.segments),
    )


def segment_graph_to_json(sg: SegmentGraph) -> str:
    """Export as {nodes: [{id, features, label?}], edges: [[i, j], ...]}."""
    nodes = []
    for i, nid in enumerate(sg.node_ids):
        node = {"id": nid, "features": sg.features[i].tolist()}
        if sg.labels[i]:
            node["label"] = sg.labels[i]
        nodes.append(node)
    edges = np.argwhere(np.triu(sg.adjacency, 1)).tolist()
    return json.dumps({"nodes": nodes, "edges": edges}, indent=1)
