"""Per-subject centerline files: parsing, validation, resampling, merging.

A subject file holds one ordered 3D polyline per vessel branch, in
millimeters, tagged with the coronary tree side it belongs to and an
optional anatomical class label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

LEFT = "left"
RIGHT = "right"

#: SCCT anatomical segment classes, left side then right side.
CLASSES_13 = [
    "LM", "LAD", "LCX", "R", "S", "OM", "D", "L-PLB", "L-PDA",
    "RCA", "AM", "R-PLB", "R-PDA",
]
#: Ablation class set: the two rare left posterior classes removed.
CLASSES_11 = [c for c in CLASSES_13 if c not in ("L-PLB", "L-PDA")]

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
        if not np.all(np.isfinite(pts)):
            raise CenterlineError(f"branch {self.branch_id!r}: non-finite coordinates")
        if np.any(np.all(pts[1:] == pts[:-1], axis=1)):
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

    @property
    def labels(self) -> dict[str, str]:
        return {cl.branch_id: cl.label for cl in self.centerlines if cl.label}

    def branches(self, side: str) -> list[Centerline]:
        return [cl for cl in self.centerlines if cl.side == side]


def parse_subject(raw: bytes | str) -> SubjectRecord:
    """Parse a subject JSON file into a validated SubjectRecord."""
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
        cl = Centerline(
            branch_id=str(b.get("id", f"b{i}")),
            side=str(b.get("side", "")),
            points=pts,
            label=b.get("label"),
        )
        # below 1e150 per coordinate no step or sum of steps can overflow
        if np.abs(cl.points).max() > 1e150:
            with np.errstate(over="ignore"):
                if not np.isfinite(arc_lengths(cl.points)[-1]):
                    raise CenterlineError(f"branch {cl.branch_id!r}: arc length overflows")
        centerlines.append(cl)
    return SubjectRecord(subject_id, voxel, centerlines)


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
    if spacing_mm <= 0:
        raise CenterlineError("spacing must be positive")
    pts = cl.points
    cum = arc_lengths(pts)
    total = cum[-1]
    if total <= 0:
        raise CenterlineError(f"branch {cl.branch_id!r}: zero-length curve")
    # Strictly-interior targets; relative epsilon keeps the final gap from
    # degenerating to fp noise when total is an exact multiple of spacing.
    n_interior = int(np.floor((total - 1e-9 * spacing_mm) / spacing_mm))
    t = np.arange(1, n_interior + 1) * spacing_mm
    j = np.minimum(np.searchsorted(cum, t, side="right") - 1, len(pts) - 2)
    seg_len = cum[j + 1] - cum[j]
    alpha = np.divide(t - cum[j], seg_len, out=np.zeros_like(t), where=seg_len > 0)
    interior = pts[j] + alpha[:, None] * (pts[j + 1] - pts[j])
    return replace(cl, points=np.vstack([pts[0], interior, pts[-1]]))


def resample_subject(subject: SubjectRecord, spacing_mm: float | None = None) -> SubjectRecord:
    """Resample every branch; default spacing is 10 voxels."""
    if spacing_mm is None:
        spacing_mm = 10 * subject.voxel_spacing_mm
    return replace(
        subject,
        centerlines=tuple(resample_centerline(cl, spacing_mm) for cl in subject.centerlines),
    )


def merge_branch_origins(
    subject: SubjectRecord, tol_mm: float = DEFAULT_MERGE_TOL_MM
) -> SubjectRecord:
    """Snap branch start points onto the nearest point of another branch.

    A start within tol_mm of a point on some other branch of the same side
    is set bit-exactly to that nearest point; the left and right trees never
    join. Ties break to the lower branch index, then the lower point index.
    Only start points ever move.
    """
    if tol_mm <= 0:
        raise CenterlineError("merge tolerance must be positive")
    cls = subject.centerlines
    lengths = [len(cl.points) for cl in cls]
    starts = np.cumsum([0] + lengths[:-1])
    points = np.concatenate([cl.points for cl in cls])  # branch order
    owner = np.repeat(np.arange(len(cls)), lengths)
    side = np.array([cl.side for cl in cls])[owner]
    for i, first in enumerate(starts):
        d = np.linalg.norm(points - points[first], axis=1)
        d[(owner == i) | (side != side[first])] = np.inf
        # the first minimum is on the lowest branch, then the lowest point
        k = int(np.argmin(d))
        if d[k] <= tol_mm:
            points[first] = points[k]  # later starts see this move
    centerlines = tuple(
        replace(cl, points=p) for cl, p in zip(cls, np.split(points, starts[1:]))
    )
    return replace(subject, centerlines=centerlines)


def prepare_subject(
    subject: SubjectRecord,
    spacing_mm: float | None = None,
    merge_tol_mm: float = DEFAULT_MERGE_TOL_MM,
) -> SubjectRecord:
    """Resample then merge: the canonical preprocessing before graph building."""
    return merge_branch_origins(resample_subject(subject, spacing_mm), merge_tol_mm)
