"""Per-subject centerline files: parsing, validation, resampling, merging.

A subject file holds one ordered 3D polyline per vessel branch, in
millimeters, tagged with the coronary tree side it belongs to and an
optional anatomical class label.

Resampling and merging work on a whole subject at once: its branches'
points lie end to end in one array, and each step is one array operation
whatever the branch count. Every branch gets the bits a loop over branches
would give it. Errors name the first failing branch in file order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

LEFT = "left"
RIGHT = "right"

#: SCCT anatomical segment classes, left side then right side.
CLASSES_13 = [
    "LM", "LAD", "LCX", "R", "S", "OM", "D", "L-PLB", "L-PDA",
    "RCA", "AM", "R-PLB", "R-PDA",
]
#: The two rare left posterior classes that the 11-class ablation removes.
DROPPED_IN_11 = ("L-PLB", "L-PDA")
CLASSES_11 = [c for c in CLASSES_13 if c not in DROPPED_IN_11]

#: Merge tolerance: 3 voxels at a 0.5 mm voxel spacing, below the 10-voxel
#: resample spacing so merging cannot collapse distinct junctions.
DEFAULT_MERGE_TOL_MM = 1.5


class CenterlineError(ValueError):
    """Raised for malformed or invalid subject centerline data."""


@dataclass(frozen=True)
class Centerline:
    """One vessel branch: an ordered polyline with side and optional label."""

    branch_id: str
    side: str
    points: np.ndarray  # (n, 3) float64, millimeters
    label: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise CenterlineError(f"branch {self.branch_id!r}: points must be (n, 3)")
        if len(pts) < 2:
            raise CenterlineError(f"branch {self.branch_id!r}: centerline too short")
        if not np.isfinite(pts).all():
            raise CenterlineError(f"branch {self.branch_id!r}: non-finite coordinates")
        if (pts[1:] == pts[:-1]).all(axis=1).any():
            raise CenterlineError(
                f"branch {self.branch_id!r}: consecutive duplicate points"
            )
        if self.side not in (LEFT, RIGHT):
            raise CenterlineError(f"branch {self.branch_id!r}: bad side {self.side!r}")


@dataclass(frozen=True)
class SubjectRecord:
    """All centerlines of one subject, in file order."""

    subject_id: str
    voxel_spacing_mm: float
    centerlines: tuple[Centerline, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "centerlines", tuple(self.centerlines))
        if not (np.isfinite(self.voxel_spacing_mm) and self.voxel_spacing_mm > 0):
            raise CenterlineError("voxel_spacing_mm must be finite and positive")
        sides = {cl.side for cl in self.centerlines}
        if LEFT not in sides or RIGHT not in sides:
            raise CenterlineError("subject needs at least one left and one right branch")
        ids = [cl.branch_id for cl in self.centerlines]
        if len(set(ids)) != len(ids):
            raise CenterlineError("duplicate branch ids")

    def branches(self, side: str) -> list[Centerline]:
        return [cl for cl in self.centerlines if cl.side == side]


def parse_subject(raw: bytes | str) -> SubjectRecord:
    """Parse a subject JSON file into a validated SubjectRecord.

    An error names the first failing branch in file order.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CenterlineError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CenterlineError("top-level value must be an object")
    try:
        subject_id = str(doc["subject_id"])
        voxel = float(doc["voxel_spacing_mm"])
        branches = doc["branches"]
    except KeyError as exc:
        raise CenterlineError(f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise CenterlineError("voxel_spacing_mm must be a number") from exc
    if not isinstance(branches, list) or not branches:
        raise CenterlineError("branches must be a non-empty list")
    centerlines = []
    for i, b in enumerate(branches):
        try:
            centerlines.append(_parse_branch(i, b))
        except CenterlineError:
            _check_arc_lengths(centerlines)  # an earlier branch fails first
            raise
    _check_arc_lengths(centerlines)
    return SubjectRecord(subject_id, voxel, centerlines)


def _parse_branch(i: int, b) -> Centerline:
    if not isinstance(b, dict):
        raise CenterlineError(f"branch {i}: must be an object")
    if "points" not in b:
        raise CenterlineError(f"branch {i}: missing points array")
    try:
        pts = np.asarray(b["points"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise CenterlineError(f"branch {i}: points must be an array of numbers") from exc
    if pts.ndim != 2 or len(pts) < 2:
        raise CenterlineError(f"branch {i}: centerline too short")
    if b.get("label") is not None and b["label"] not in CLASSES_13:
        raise CenterlineError(f"branch {i}: unknown label {b['label']!r}")
    return Centerline(
        branch_id=str(b.get("id", f"b{i}")),
        side=str(b.get("side", "")),
        points=pts,
        label=b.get("label"),
    )


def _check_arc_lengths(centerlines: list[Centerline]) -> None:
    """Raise for the first branch whose arc length overflows to infinity."""
    # below 1e150 per coordinate no step or sum of steps can overflow
    if not centerlines or np.abs(np.concatenate([cl.points for cl in centerlines])).max() <= 1e150:
        return
    with np.errstate(over="ignore"):
        for cl in centerlines:
            if not np.isfinite(arc_lengths(cl.points)[-1]):
                raise CenterlineError(f"branch {cl.branch_id!r}: arc length overflows")


def serialize_subject(subject: SubjectRecord) -> str:
    """Canonical JSON form; parse(serialize(s)) reproduces s exactly."""
    doc = {
        "subject_id": subject.subject_id,
        "voxel_spacing_mm": subject.voxel_spacing_mm,
        "branches": [
            {
                "id": cl.branch_id,
                "side": cl.side,
                "points": cl.points.tolist(),
                **({"label": cl.label} if cl.label else {}),
            }
            for cl in subject.centerlines
        ],
    }
    return json.dumps(doc, indent=1)


def arc_lengths(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length along a polyline, starting at 0."""
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(steps)])


def resample_centerline(cl: Centerline, spacing_mm: float) -> Centerline:
    """Resample so consecutive gaps equal spacing_mm, final gap in (0, spacing].

    First and last input points are preserved exactly; interpolated points
    lie on the piecewise-linear input curve.
    """
    return resample_branches((cl,), spacing_mm)[0]


def resample_subject(subject: SubjectRecord, spacing_mm: float | None = None) -> SubjectRecord:
    """Resample every branch as resample_centerline does; default spacing is 10 voxels."""
    if spacing_mm is None:
        spacing_mm = 10 * subject.voxel_spacing_mm
    resampled = resample_branches(subject.centerlines, spacing_mm)
    return SubjectRecord(subject.subject_id, subject.voxel_spacing_mm, resampled)


def _layout(centerlines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch points end to end, each branch's first row, and each point's branch."""
    lengths = np.array([len(cl.points) for cl in centerlines])
    points = np.concatenate([cl.points for cl in centerlines])
    return points, np.cumsum(lengths) - lengths, np.repeat(np.arange(len(lengths)), lengths)


def resample_branches(centerlines, spacing_mm: float) -> list[Centerline]:
    """Resample branches as resample_centerline does, with one array operation
    per step whatever their count; no branches give an empty list.

    Temporaries are O(points + targets), apart from the arc-length table of
    branches x longest branch.
    """
    if not spacing_mm > 0:
        raise CenterlineError("spacing must be positive")
    if not centerlines:
        return []
    pts, first, owner = _layout(centerlines)
    n_branches, n_points = len(first), len(pts)
    last = np.append(first[1:], n_points) - 1
    col = np.arange(n_points) - first[owner]
    # Arc length per branch: a row-wise cumsum over a zero-padded table adds
    # each branch's steps in the order its own cumsum would.
    table = np.zeros((n_branches, col.max() + 1))
    inner = col > 0
    table[owner[inner], col[inner]] = np.linalg.norm(np.diff(pts, axis=0), axis=1)[inner[1:]]
    np.cumsum(table, axis=1, out=table)
    cum = table[owner, col]
    total = cum[last]
    ok = (total > 0) & np.isfinite(total)
    # Strictly-interior targets; relative epsilon keeps the final gap from
    # degenerating to fp noise when total is an exact multiple of spacing.
    n_interior = np.floor((total - 1e-9 * spacing_mm) / spacing_mm)
    counts = np.where(ok, np.maximum(n_interior, 0), 0).astype(np.intp)
    t_owner = np.repeat(np.arange(n_branches), counts)
    k = np.arange(len(t_owner)) - (np.cumsum(counts) - counts)[t_owner] + 1
    t = k * spacing_mm
    # Segment index as searchsorted(cum, t, side="right") - 1 within each
    # branch: one stable sort by (branch, value) puts cum values before equal
    # targets, and the cum values before a target end at its segment start.
    order = np.lexsort((np.concatenate([cum, t]), np.concatenate([owner, t_owner])))
    is_target = order >= n_points
    j = np.minimum(np.cumsum(~is_target)[is_target] - 1, last[t_owner] - 1)
    seg_len = cum[j + 1] - cum[j]
    alpha = np.divide(t - cum[j], seg_len, out=np.zeros_like(t), where=seg_len > 0)
    out_first = np.cumsum(counts + 2) - (counts + 2)
    out = np.empty((len(t) + 2 * n_branches, 3))
    out[out_first] = pts[first]
    out[out_first[t_owner] + k] = pts[j] + alpha[:, None] * (pts[j + 1] - pts[j])
    out[out_first + counts + 1] = pts[last]
    # Branches are checked in file order, so the first failing one is named.
    bounds = np.append(out_first, len(out)).tolist()
    resampled = []
    for b, cl in enumerate(centerlines):
        if not ok[b]:
            problem = "zero-length curve" if not total[b] > 0 else "arc length overflows"
            raise CenterlineError(f"branch {cl.branch_id!r}: {problem}")
        resampled.append(Centerline(cl.branch_id, cl.side, out[bounds[b]:bounds[b + 1]], cl.label))
    return resampled


def merge_branch_origins(
    subject: SubjectRecord, tol_mm: float = DEFAULT_MERGE_TOL_MM
) -> SubjectRecord:
    """Snap branch start points onto the nearest point of another branch.

    A start within tol_mm of a point on some other branch of the same side
    is set bit-exactly to that nearest point; the left and right trees never
    join. Starts are taken in file order, and each sees the moves made
    before it. Ties break to the lower branch index, then the lower point
    index. Only start points ever move.
    """
    if tol_mm <= 0:
        raise CenterlineError("merge tolerance must be positive")
    cls = subject.centerlines
    points, first, owner = _layout(cls)
    right = np.array([cl.side == RIGHT for cl in cls])
    # dist[i, m]: start i to point m, inf on i's own branch and the other side
    dist = np.linalg.norm(points - points[first][:, None], axis=2)
    dist[(owner == np.arange(len(cls))[:, None]) | (right[owner] != right[:, None])] = np.inf
    for i, start in enumerate(first.tolist()):
        # the first minimum is on the lowest branch, then the lowest point
        k = int(np.argmin(dist[i]))
        if dist[i, k] <= tol_mm:
            # Later starts see this move: point k holds the same bits, so its
            # column already holds their distances, except on k's own branch,
            # whose row masks it.
            points[start] = points[k]
            dist[i + 1:, start] = dist[i + 1:, k]
            o = owner[k]
            if o > i:
                dist[o, start] = np.linalg.norm(points[[start]] - points[first[o]], axis=1)[0]
    bounds = np.append(first, len(points)).tolist()
    return SubjectRecord(subject.subject_id, subject.voxel_spacing_mm, [
        Centerline(cl.branch_id, cl.side, points[bounds[b]:bounds[b + 1]], cl.label)
        for b, cl in enumerate(cls)
    ])


def prepare_subject(
    subject: SubjectRecord,
    spacing_mm: float | None = None,
    merge_tol_mm: float = DEFAULT_MERGE_TOL_MM,
) -> SubjectRecord:
    """Resample then merge: the canonical preprocessing before graph building."""
    return merge_branch_origins(resample_subject(subject, spacing_mm), merge_tol_mm)
