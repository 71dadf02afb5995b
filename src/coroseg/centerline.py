"""Per-subject centerline files: parsing, validation, resampling, merging.

A subject file holds one ordered 3D polyline per vessel branch, in millimeters,
tagged with its coronary tree side and an optional anatomical class label. A
SubjectRecord holds a subject as arrays from parse to graph, checked once when
made; errors name the first failing branch in file order. Parsing and
resampling take a fixed number of array operations whatever the branch count,
and merging one distance pass per start; all give every branch the bits a
loop over branches would. Centerline is a read-only view of one branch's rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain

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

#: Resample spacing in voxels; the merge tolerance is 3 voxels at a 0.5 mm voxel
#: spacing, below it, so merging cannot collapse distinct junctions.
RESAMPLE_VOXELS = 10
DEFAULT_MERGE_TOL_MM = 1.5

#: Most points one resample_points call makes, checked before any is made.
#: A subject resamples to a few hundred; the cap bounds the call's peak
#: memory near 20 MB (about 190 bytes per point).
MAX_RESAMPLED_POINTS = 100_000


#: Longest echo of an input value in a one-line error message.
ECHO_CHARS = 80


def clipped(value, show=repr) -> str:
    """An input value as a one-line error echoes it: show(value), its repr
    unless told otherwise, cut to ECHO_CHARS characters and '...' when
    longer, so the line stays short whatever the file or the config holds."""
    text = show(value)
    return text if len(text) <= ECHO_CHARS else f"{text[:ECHO_CHARS]}..."


class CenterlineError(ValueError):
    """Raised for malformed or invalid subject centerline data."""


@dataclass(frozen=True)
class Centerline:
    """One vessel branch of a SubjectRecord: a view of its rows."""

    branch_id: str
    side: str
    points: np.ndarray  # (n, 3) float64, millimeters
    label: str | None


@dataclass(frozen=True, init=False, eq=False)
class SubjectRecord:
    """All branches of one subject in file order: branch b is rows first[b]
    up to the next branch's first row of the read-only points."""

    subject_id: str
    voxel_spacing_mm: float
    points: np.ndarray  # (P, 3) float64, millimeters
    first: np.ndarray   # (B,)
    branch_ids: tuple[str, ...]
    sides: tuple[str, ...]
    labels: tuple[str | None, ...]
    owner: np.ndarray = field(init=False, repr=False)  # (P,) the branch of each row
    right: np.ndarray = field(init=False, repr=False)  # (B,) True on the right side

    def __init__(self, subject_id: str, voxel_spacing_mm: float, *, points, first, branch_ids,
                 sides, labels, problems=None):
        """From arrays laid out as above. Checked once: each branch in file
        order for its entry in problems (a message or None), then its rows;
        then the subject."""
        points, bounds = np.asarray(points, np.float64), np.append(np.asarray(first, np.intp), len(points))
        points.flags.writeable = False
        sizes, n = bounds[1:] - bounds[:-1], len(bounds) - 1
        owner = np.repeat(np.arange(n), sizes)
        self.__dict__.update(
            subject_id=subject_id, voxel_spacing_mm=voxel_spacing_mm, points=points,
            first=bounds[:-1], branch_ids=tuple(branch_ids), sides=tuple(sides),
            labels=tuple(labels), owner=owner, right=np.array([s == RIGHT for s in sides], bool))
        # one pass over the arrays, and only a subject that fails it is checked
        # per branch; below 1e150 per coordinate no arc length can overflow
        if (any(problems or ()) or points.shape[1:] != (3,) or sizes.min(initial=2) < 2
                or not np.isfinite(points).all()
                or np.abs(points).max(initial=0) > 1e150
                or ((points[1:] == points[:-1]).all(axis=1) & (owner[1:] == owner[:-1])).any()
                or not {LEFT, RIGHT}.issuperset(self.sides)):
            _check_branches(self, problems or [None] * n)
        if not (np.isfinite(voxel_spacing_mm) and voxel_spacing_mm > 0):
            raise CenterlineError("voxel_spacing_mm must be finite and positive")
        if LEFT not in self.sides or RIGHT not in self.sides:
            raise CenterlineError("subject needs at least one left and one right branch")
        if len(set(self.branch_ids)) != n:
            raise CenterlineError("duplicate branch ids")

    def __setstate__(self, state):
        """Unpickled, as from a pool worker: pickling drops the read-only flag."""
        self.__dict__.update(state)
        self.points.flags.writeable = False

    def _branches(self):
        """(branch_id, side, rows, label) per branch, in file order."""
        bounds = np.append(self.first, len(self.points)).tolist()
        rows = (self.points[i:j] for i, j in zip(bounds, bounds[1:]))
        return zip(self.branch_ids, self.sides, rows, self.labels)

    @cached_property
    def centerlines(self) -> tuple[Centerline, ...]:
        """One Centerline per branch viewing its rows, built on first read."""
        return tuple(Centerline(*branch) for branch in self._branches())


def _check_branches(subject: SubjectRecord, problems) -> None:
    """Raise for the first branch in file order that fails: its entry in
    problems, else the first of its rows' checks that fails."""
    for problem, (branch_id, side, pts, _) in zip(problems, subject._branches()):
        if problem:
            raise CenterlineError(problem)
        name = f"branch {clipped(branch_id)}"
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise CenterlineError(f"{name}: points must be (n, 3)")
        if len(pts) < 2:
            raise CenterlineError(f"{name}: centerline too short")
        if not np.isfinite(pts).all():
            raise CenterlineError(f"{name}: non-finite coordinates")
        if (pts[1:] == pts[:-1]).all(axis=1).any():
            raise CenterlineError(f"{name}: consecutive duplicate points")
        if side not in (LEFT, RIGHT):
            raise CenterlineError(f"{name}: bad side {clipped(side)}")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.linalg.norm(np.diff(pts, axis=0), axis=1).cumsum()[-1]):
                raise CenterlineError(f"{name}: arc length overflows")


def parse_subject(raw: bytes | str) -> SubjectRecord:
    """Parse a subject JSON file into a validated SubjectRecord.

    All points are decoded with one np.asarray; only when that fails is each
    branch decoded alone.
    """
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, too many digits, too deep
        raise CenterlineError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CenterlineError("top-level value must be an object")
    try:
        subject_id = str(doc["subject_id"])
        voxel = _numbers(doc["voxel_spacing_mm"])
        if voxel is None or voxel.ndim:
            raise CenterlineError("voxel_spacing_mm must be a number")
        branches = doc["branches"]
    except KeyError as exc:
        raise CenterlineError(f"missing field {exc.args[0]!r}") from exc
    if not isinstance(branches, list) or not branches:
        raise CenterlineError("branches must be a non-empty list")
    docs = [b if isinstance(b, dict) else {} for b in branches]
    ids = [str(b.get("id", f"b{i}")) for i, b in enumerate(docs)]
    lists = [b.get("points") for b in docs]
    points = _numbers(list(chain.from_iterable(lists))) if all(type(p) is list for p in lists) else None
    if points is not None and points.shape[1:] == (3,):
        shapes = [(len(p), 3) for p in lists]
    else:  # some branch does not decode: decode each alone to find it
        arrays = [_numbers(p) for p in lists]
        shapes = [None if a is None else a.shape for a in arrays]
        # a branch that stops here holds two rows that are never checked
        points = np.concatenate([a if s and s[1:] == (3,) else np.zeros((2, 3))
                                 for a, s in zip(arrays, shapes)])
    sizes = [s[0] if s and s[1:] == (3,) else 2 for s in shapes]
    return SubjectRecord(
        subject_id, float(voxel), points=points, first=np.cumsum(sizes) - sizes, branch_ids=ids,
        sides=[str(b.get("side", "")) for b in docs], labels=[b.get("label") for b in docs],
        problems=[_stop(i, b, s, bid) for i, (b, s, bid) in enumerate(zip(branches, shapes, ids))],
    )


def _numbers(value) -> np.ndarray | None:
    """value as a float64 array, or None if it is not numbers. np.asarray
    reads a JSON true or false among numbers as 1 or 0, so where it decoded
    a 0 or a 1, each value's type is looked at too."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):
        return None
    if arr.dtype.kind not in "iuf" or (((arr == 0) | (arr == 1)).any()
                                       and bool in map(type, np.asarray(value, object).flat)):
        return None
    return arr.astype(np.float64)


def _stop(i: int, b, shape, branch_id: str) -> str | None:
    """What stops branch i before its point values are checked, if anything."""
    if not isinstance(b, dict):
        return f"branch {i}: must be an object"
    if "points" not in b:
        return f"branch {i}: missing points array"
    if shape is None:
        return f"branch {i}: points must be an array of numbers"
    if len(shape) != 2 or shape[0] < 2:
        return f"branch {i}: centerline too short"
    if b.get("label") is not None and b["label"] not in CLASSES_13:
        return f"branch {i}: unknown label {clipped(b['label'])}"
    if shape[1] != 3:
        return f"branch {clipped(branch_id)}: points must be (n, 3)"


def serialize_subject(subject: SubjectRecord) -> str:
    """Canonical JSON form; parse(serialize(s)) reproduces s exactly."""
    branches = [{"id": branch_id, "side": side, "points": pts.tolist(), **({"label": label} if label else {})}
                for branch_id, side, pts, label in subject._branches()]
    return json.dumps({"subject_id": subject.subject_id, "voxel_spacing_mm": subject.voxel_spacing_mm,
                       "branches": branches}, indent=1)


def resample_subject(subject: SubjectRecord, spacing_mm: float | None = None) -> SubjectRecord:
    """Resample every branch with resample_points; default spacing is RESAMPLE_VOXELS."""
    spacing_mm = RESAMPLE_VOXELS * subject.voxel_spacing_mm if spacing_mm is None else spacing_mm
    points, first, problems = resample_points(subject.points, subject.first, spacing_mm,
                                              subject.branch_ids)
    return replace(subject, points=points, first=first, problems=problems)


def resample_points(points: np.ndarray, first: np.ndarray, spacing_mm: float, branch_ids=None):
    """Resample branches laid out end to end, branch b from row first[b], so
    consecutive gaps equal spacing_mm and each final gap is in (0, spacing_mm],
    with one array operation per step whatever their count. First and last
    points are kept exactly; interpolated points lie on the piecewise-linear
    input curve. Returns the new points and first rows and, per branch, why it
    cannot be resampled or None. Such a branch keeps just its end points,
    unless it folds back: two of its resampled points coincide.
    Messages name branches by branch_ids, or by index. The output is checked
    against MAX_RESAMPLED_POINTS before it is made, and temporaries are
    O(points + targets), but for a branches x longest table."""
    if not 0 < spacing_mm < np.inf:
        raise CenterlineError("spacing must be positive and finite")
    n_branches, n_points = len(first), len(points)
    if not n_branches:
        return np.empty((0, 3)), np.empty(0, np.intp), []
    last = np.append(first[1:], n_points) - 1
    owner = np.repeat(np.arange(n_branches), last - first + 1)
    col = np.arange(n_points) - first[owner]
    # Arc length per branch: a row-wise cumsum over a zero-padded table adds
    # each branch's steps in the order its own cumsum would.
    table = np.zeros((n_branches, col.max() + 1))
    inner = col > 0
    table[owner[inner], col[inner]] = np.linalg.norm(np.diff(points, axis=0), axis=1)[inner[1:]]
    np.cumsum(table, axis=1, out=table)
    cum = table[owner, col]
    total = cum[last]
    ok = (total > 0) & np.isfinite(total)
    problems = [None if good else ("zero-length curve" if not length > 0 else "arc length overflows")
                for good, length in zip(ok.tolist(), total.tolist())]
    # Strictly-interior targets; relative epsilon keeps the final gap from
    # degenerating to fp noise when total is an exact multiple of spacing.
    with np.errstate(over="ignore"):  # an infinite count is over the cap
        n_interior = np.floor((total - 1e-9 * spacing_mm) / spacing_mm)
    counts = np.where(ok, np.maximum(n_interior, 0), 0)
    # counted as floats, so one too large for intp is over the cap too
    over = np.cumsum(counts + 2) > MAX_RESAMPLED_POINTS
    if over.any():
        b = int(over.argmax())
        problems[b] = f"resampling makes more than {MAX_RESAMPLED_POINTS} points"
        counts[b:] = 0
    counts = counts.astype(np.intp)
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
    out[out_first] = points[first]
    out[out_first[t_owner] + k] = points[j] + alpha[:, None] * (points[j + 1] - points[j])
    out[out_first + counts + 1] = points[last]
    # a curve that returns to a point it passed can put two targets, or a
    # target and its end, on that point
    same = (out[1:] == out[:-1]).all(axis=1)
    same[out_first[1:] - 1] = False
    for b in set(np.searchsorted(out_first, np.flatnonzero(same), side="right").tolist()):
        problems[b - 1] = problems[b - 1] or "curve folds back: resampled points coincide"
    ids = range(n_branches) if branch_ids is None else branch_ids
    return out, out_first, [None if p is None else f"branch {clipped(bid)}: {p}"
                            for bid, p in zip(ids, problems)]


def merge_branch_origins(subject: SubjectRecord, tol_mm: float = DEFAULT_MERGE_TOL_MM) -> SubjectRecord:
    """Snap branch start points onto the nearest point of another branch.

    A start within tol_mm of a point on some other branch of the same side
    is set bit-exactly to that nearest point; the left and right trees never
    join. Starts are taken in file order, and each sees the moves made
    before it. Ties break to the lower branch index, then the lower point
    index. Only start points ever move.
    """
    if tol_mm <= 0:
        raise CenterlineError("merge tolerance must be positive")
    points, first, owner, right = subject.points.copy(), subject.first, subject.owner, subject.right
    # masked[i, m]: point m is on start i's own branch or on the other side
    masked = (owner == np.arange(len(first))[:, None]) | (right[owner] != right[:, None])
    for i, start in enumerate(first.tolist()):
        dist = np.linalg.norm(points - points[start], axis=1)
        dist[masked[i]] = np.inf
        # the first minimum is on the lowest branch, then the lowest point
        k = int(np.argmin(dist))
        if dist[k] <= tol_mm:
            points[start] = points[k]
    return replace(subject, points=points)


def prepare_subject(subject: SubjectRecord) -> SubjectRecord:
    """Resample then merge, at their defaults: the canonical preprocessing before graph building."""
    return merge_branch_origins(resample_subject(subject))
