"""Synthetic coronary-tree generator with ground-truth labels.

Template-plus-noise construction: LM splits into LAD and LCX, RCA runs the
right side, and side branches attach at class-characteristic positions with
class-characteristic directions. Counts are calibrated so the corpus
reproduces the published per-subject branch/segment averages and class
imbalance (rare left posterior branches included).

A group of subjects is made in array passes: each subject only draws in its
draw loop (one rng call per branch for its fixed normals, one for its
wobble, plus the root or attach draw), the group's branch geometry is then
finished at once, its tangents grow in lockstep, and the manifest census
resamples the whole group with one call. Every subject is bit for bit as a
per-branch loop over its own rng makes it. generate_corpus hands whole
groups to `coroseg.pool` workers, so a corpus is bit-identical whatever the
grouping and the worker count. An axis drawn along its branch's
direction, which no real seed draws, raises one ValueError line naming the
subject and the branch, and GenParams one naming a field out of range:
n_subjects outside 1 to MAX_SUBJECTS, a negative seed or noise scale, a
non-finite noise scale, or count_probs not finite, non-negative and of
positive sum.

Emitted centerlines are pre-resampled so every child start coincides
bit-exactly with a vertex of its resampled parent. The ingestion pipeline's
resample + merge is not a no-op on them: resampling an already-resampled
curved branch shifts its interior vertices, and merge then snaps each child
start onto the shifted vertex (0.009-0.063 mm in the seed-8 default subject
synthetic-0002).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace
from functools import partial
from itertools import chain

import numpy as np

from .centerline import LEFT, RESAMPLE_VOXELS, RIGHT, SubjectRecord, merge_branch_origins, resample_points
from .graph import split_into_segments
from .pool import ordered_map


@dataclass(frozen=True)
class BranchTemplate:
    side: str
    parent: str | None          # parent class; None for ostial roots
    attach: tuple[float, float]  # fraction range along the parent
    start: tuple[float, float, float] | None
    direction: tuple[float, float, float]
    length_mm: float
    bend_rad: float


#: Canonical layout. Coordinates are in the subject's own frame: the LM
#: start is the origin and its initial direction the z-axis, so class
#: geometry maps directly onto the learned embeddings. Subjects are built in
#: this order, parents before their children.
TEMPLATES: dict[str, BranchTemplate] = {
    "LM": BranchTemplate(LEFT, None, (0, 0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 14.0, 0.15),
    "LAD": BranchTemplate(LEFT, "LM", (0.80, 0.95), None, (0.15, 0.85, 0.45), 95.0, 0.9),
    "LCX": BranchTemplate(LEFT, "LM", (0.45, 0.70), None, (0.90, 0.15, 0.30), 68.0, 0.8),
    "R": BranchTemplate(LEFT, "LAD", (0.03, 0.10), None, (0.65, 0.45, 0.00), 45.0, 0.4),
    "S": BranchTemplate(LEFT, "LAD", (0.12, 0.45), None, (-0.65, 0.45, -0.40), 24.0, 0.3),
    "OM": BranchTemplate(LEFT, "LAD", (0.50, 0.80), None, (0.75, 0.20, -0.50), 40.0, 0.5),
    "D": BranchTemplate(LEFT, "LCX", (0.25, 0.60), None, (0.45, 0.70, -0.50), 36.0, 0.5),
    "L-PLB": BranchTemplate(LEFT, "LCX", (0.66, 0.84), None, (-0.30, 0.75, -0.55), 28.0, 0.4),
    "L-PDA": BranchTemplate(LEFT, "LCX", (0.86, 0.96), None, (0.10, 0.75, -0.60), 30.0, 0.4),
    "RCA": BranchTemplate(RIGHT, None, (0, 0), (35.0, -10.0, 3.0), (0.45, -0.60, 0.65), 110.0, 1.1),
    "AM": BranchTemplate(RIGHT, "RCA", (0.30, 0.55), None, (0.85, -0.40, 0.30), 35.0, 0.4),
    "R-PLB": BranchTemplate(RIGHT, "RCA", (0.70, 0.88), None, (0.30, -0.50, -0.80), 30.0, 0.4),
    "R-PDA": BranchTemplate(RIGHT, "RCA", (0.89, 0.97), None, (-0.30, -0.40, -0.85), 35.0, 0.4),
}

#: Probability of drawing 0, 1, 2, ... instances per subject; means match
#: the published per-class branch counts over 141 subjects.
DEFAULT_COUNT_PROBS: dict[str, tuple[float, ...]] = {
    "LM": (0.0, 1.0),
    "LAD": (0.0, 1.0),
    "LCX": (0.0, 1.0),
    "RCA": (0.0, 1.0),
    "R": (0.55, 0.45),
    "S": (0.30, 0.52, 0.18),
    "OM": (0.22, 0.43, 0.35),
    "D": (0.15, 0.50, 0.26, 0.09),
    "L-PLB": (0.56, 0.44),
    "L-PDA": (0.72, 0.28),
    "AM": (0.25, 0.56, 0.19),
    "R-PLB": (0.18, 0.45, 0.37),
    "R-PDA": (0.33, 0.62, 0.05),
}

#: Subjects that generate_corpus grows together. Against groups of 16, one
#: group of all 141 default subjects ran 8% faster on one CPU and 12% pooled
#: (best of 22, 2-CPU VM), but raised the one-CPU peak from 39.4 to 50.9 MB,
#: above the 47.4 MB of a cv run that follows, and pooled a worker's peak from
#: 31.5 to 43.6 MB while the parent's stayed near 39 MB.
GROUP_SIZE = 16

#: Most subjects one corpus may hold. 100,000 default subjects take about 6
#: minutes of `coroseg generate` on one CPU of a 2-CPU VM, about 1.2 GB as its
#: files, and about 0.7 GB of memory for their records until they are written.
MAX_SUBJECTS = 100_000

#: The subject_id of a corpus's subject i, which also names its file.
SUBJECT_ID = "synthetic-{:04d}"

#: GenParams fields that scale a noise draw: each must be finite and >= 0.
_NOISE_SCALES = ("direction_jitter_rad", "length_jitter_frac", "attach_jitter_frac",
                 "bend_jitter_frac", "wobble_rad", "junction_jitter_mm", "translation_range_mm")


@dataclass(frozen=True)
class GenParams:
    n_subjects: int = 141
    seed: int = 0
    voxel_spacing_mm: float = 0.5
    direction_jitter_rad: float = 0.15
    length_jitter_frac: float = 0.12
    attach_jitter_frac: float = 0.05
    bend_jitter_frac: float = 0.3
    wobble_rad: float = 0.04      # per-step random curl of the tangent
    junction_jitter_mm: float = 1.0
    translation_range_mm: float = 40.0
    rotate: bool = True
    count_probs: dict[str, tuple[float, ...]] = field(
        default_factory=lambda: dict(DEFAULT_COUNT_PROBS)
    )

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ValueError(f"n_subjects must be >= 1, not {self.n_subjects}")
        if self.n_subjects > MAX_SUBJECTS:
            raise ValueError(f"n_subjects must be <= {MAX_SUBJECTS}, not {self.n_subjects}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        for name in _NOISE_SCALES:
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, not {value!r}")
        probs = {}
        for cls, tpl in TEMPLATES.items():
            if cls not in self.count_probs:
                raise ValueError(f"count_probs has no entry for class {cls!r}")
            probs[cls] = np.asarray(self.count_probs[cls], dtype=float).ravel()
            if not (np.isfinite(probs[cls]).all() and (probs[cls] >= 0).all()
                    and 0 < sum(probs[cls].tolist()) < np.inf):
                raise ValueError(f"count_probs[{cls!r}] must be finite and >= 0 with a "
                                 f"positive sum, not {self.count_probs[cls]!r}")
            # a child attaches to its parent's first branch, so it needs one
            if tpl.parent and probs[tpl.parent][0] > 0 and (probs[cls][1:] > 0).any():
                raise ValueError(f"count_probs[{cls!r}] can draw a branch where its parent "
                                 f"{tpl.parent!r} draws none")

    @property
    def resample_spacing_mm(self) -> float:
        return RESAMPLE_VOXELS * self.voxel_spacing_mm

    @classmethod
    def low_noise(cls, **overrides) -> "GenParams":
        """Preset with tight geometric noise: classes cleanly separable."""
        defaults = dict(
            direction_jitter_rad=0.05,
            length_jitter_frac=0.05,
            attach_jitter_frac=0.02,
            bend_jitter_frac=0.1,
            wobble_rad=0.015,
            junction_jitter_mm=0.3,
        )
        defaults.update(overrides)
        return cls(**defaults)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _skew(axes: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of axes (..., 3)."""
    x, y, z = np.moveaxis(axes, -1, 0)
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(
        axes.shape + (3,)
    )


def _rodrigues(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rotation matrices (B, 3, 3) about unit axes (B, 3) by angles (B,)."""
    k, angles = _skew(axes), angles[:, None, None]
    return np.eye(3) + np.sin(angles) * k + (1 - np.cos(angles)) * (k @ k)


def _perpendiculars(v: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit part of each row of v (B, 3) perpendicular to the unit d (B, 3),
    and whether it was long enough (norm above 1e-9) to be kept."""
    v = v - np.vecdot(v, d)[:, None] * d
    norm = np.sqrt(np.vecdot(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero norm is not kept
        return v / norm[:, None], norm > 1e-9


def _jitter(params: GenParams, axes: np.ndarray, angles: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Directions d (B, 3) turned about their jitter axes by the drawn angles."""
    turn = _rodrigues(axes, 0.0 + params.direction_jitter_rad * angles)
    return np.matmul(turn, d[:, :, None])[:, :, 0]


#: Each class's template direction as a unit vector.
_DIRECTIONS = {cls: np.asarray(tpl.direction) / np.linalg.norm(tpl.direction)
               for cls, tpl in TEMPLATES.items()}


def _attach_index(points: np.ndarray, frac: float, used: set[int]) -> int:
    """Interior vertex nearest the requested fraction, skipping used ones."""
    n = len(points)
    want = min(max(round(frac * (n - 1)), 1), n - 2)
    for offset in range(n):
        for idx in (want - offset, want + offset):
            if 1 <= idx <= n - 2 and idx not in used:
                used.add(idx)
                return idx
    used.add(want)  # all interior vertices taken; accept a shared junction
    return want


@dataclass(frozen=True)
class _Draw:
    """Everything one branch draws from the subject's rng, in draw order."""

    cls: str
    branch_id: str
    anchor: np.ndarray | float  # root start, or attach fraction along the parent
    #: standard normals: the jitter axis (3) and angle when direction_jitter_rad
    #: > 0, then length, bend, bend axis (3) and curl axis (3)
    normals: np.ndarray
    wobble: np.ndarray  # one standard normal per 1 mm step; zeros when wobble_rad is 0


def _depth(cls: str) -> int:
    """Depth of a class in the template tree: roots 0, their children 1, ..."""
    parent = TEMPLATES[cls].parent
    return 0 if parent is None else 1 + _depth(parent)


def _count_cdfs(params: GenParams) -> dict[str, np.ndarray]:
    """Per class, the cdf that rng.choice(len(p), p=p / p.sum()) searches, so
    one rng.random() and a searchsorted pick the count choice would."""
    cdfs = {}
    for cls in TEMPLATES:
        probs = np.asarray(params.count_probs[cls])
        cdf = (probs / probs.sum()).cumsum()
        cdfs[cls] = cdf / cdf[-1]
    return cdfs


def _draw_branches(rng: np.random.Generator, params: GenParams, cdfs: dict[str, np.ndarray]) -> list[_Draw]:
    """Every branch's random draws, in template order, with one rng call for
    its fixed normals and one for its wobble. rng.normal(0, s, k) is
    0.0 + s * rng.standard_normal(k) and one call of k draws is k calls of
    one, so the stream is the per-branch loop's; _finish makes the geometry
    from the normals."""
    n_fixed = 12 if params.direction_jitter_rad > 0 else 8
    spacing = params.resample_spacing_mm
    draws = []
    for cls, tpl in TEMPLATES.items():
        count = int(cdfs[cls].searchsorted(rng.random(), side="right"))
        for i in range(count):
            if tpl.parent is None:
                anchor = np.asarray(tpl.start, dtype=float)
                if cls != "LM":
                    anchor = anchor + (0.0 + params.junction_jitter_mm * rng.standard_normal(3))
            else:
                lo, hi = tpl.attach
                frac = lo + (i + 0.5) * (hi - lo) / count
                frac += 0.0 + params.attach_jitter_frac * max(hi - lo, 0.05) * rng.standard_normal()
                anchor = min(max(frac, 0.02), 0.98)
            normals = rng.standard_normal(n_fixed)
            jitter = 0.0 + params.length_jitter_frac * float(normals[-8])
            length = max(tpl.length_mm * (1 + jitter), 2.5 * spacing)
            n = max(3, int(round(length)))  # 1 mm steps
            wobble = rng.standard_normal(n) if params.wobble_rad > 0 else np.zeros(n)
            draws.append(_Draw(cls, cls if count == 1 else f"{cls}{i + 1}", anchor, normals, wobble))
    return draws


def _finish(params: GenParams, draws: list[_Draw]):
    """Each branch's direction, bend angle, bend axis and curl axis from its
    normals, in array passes over all branches; and which branches drew an
    axis along their direction, which has no perpendicular part to turn about."""
    z = np.stack([dr.normals for dr in draws])
    d = np.stack([_DIRECTIONS[dr.cls] for dr in draws])
    kept = np.ones(len(draws), bool)
    if params.direction_jitter_rad > 0:
        axes, kept = _perpendiculars(z[:, :3], d)
        d = _jitter(params, axes, z[:, 3], d)
    bend = np.array([TEMPLATES[dr.cls].bend_rad for dr in draws]) * (
        1 + (0.0 + params.bend_jitter_frac * z[:, -7]))
    bend_axes, bend_kept = _perpendiculars(z[:, -6:-3], d)
    curl_axes, curl_kept = _perpendiculars(z[:, -3:], d)
    return (d, bend, bend_axes, curl_axes), ~(kept & bend_kept & curl_kept)


def _grow_directions(params: GenParams, draws: list[_Draw], geometry) -> np.ndarray:
    """Unit tangent after each 1 mm step, (longest branch, branches, 3).

    All branches step in lockstep, whichever subject they belong to. Each
    step rotates the tangent about the bend axis by bend / n, then about the
    curl axis by that step's wobble angle, then renormalises. A zero angle
    (zero wobble, and the padding steps past a branch's end) builds the
    identity bit for bit. Each step's curl matrices are built when it runs, so
    memory is the returned tangents plus a sine and a cosine per step and
    branch, never a steps x branches x 3 x 3 stack.
    """
    d, bend_angles, bend_axes, curl_axes = geometry
    lengths = np.array([len(dr.wobble) for dr in draws])
    n_max = int(lengths.max())
    eye, bend = np.eye(3), _rodrigues(bend_axes, bend_angles / lengths)
    angles = np.zeros((len(draws), n_max))
    angles[np.arange(n_max) < lengths[:, None]] = np.concatenate([dr.wobble for dr in draws])
    angles = (0.0 + params.wobble_rad * angles).T[:, :, None, None]
    sin, one_minus_cos = np.sin(angles), 1 - np.cos(angles)
    k = _skew(curl_axes)
    kk = k @ k
    dirs = np.empty((n_max, len(draws), 3))
    for s in range(n_max):
        d = np.matmul(bend, d[:, :, None])[:, :, 0]
        d = np.matmul(eye + sin[s] * k + one_minus_cos[s] * kk, d[:, :, None])[:, :, 0]
        d /= np.sqrt(np.vecdot(d, d))[:, None]
        dirs[s] = d
    return dirs


def _draw_subject(params: GenParams, cdfs: dict[str, np.ndarray], seed):
    """A subject's branch draws and then its rigid motion, from its own rng."""
    rng = np.random.default_rng(seed)
    draws = _draw_branches(rng, params, cdfs)
    motion_t = rng.uniform(-params.translation_range_mm, params.translation_range_mm, 3)
    return draws, (_random_rotation(rng) if params.rotate else np.eye(3), motion_t)


def _generate_group(params: GenParams, seeds: list) -> list[SubjectRecord]:
    """Labeled subjects grown together, each bit for bit as it is alone.

    Four phases: each subject draws every branch's randomness from its own
    rng in template order; the branch geometry of the whole group is made
    from those draws in array passes; the tangents of all the group's
    branches grow in lockstep; then branches are placed and resampled one
    template depth at a time, with one resample_points call per depth for
    the whole group, so each child starts on a vertex of its resampled parent.
    """
    cdfs = _count_cdfs(params)
    subjects = [_draw_subject(params, cdfs, seed) for seed in seeds]
    flat = [dr for draws, _ in subjects for dr in draws]
    subject_of = [s for s, (draws, _) in enumerate(subjects) for _ in draws]
    geometry, along = _finish(params, flat)
    if along.any():  # never drawn on a real seed: about 5e-19 per axis
        b = int(np.flatnonzero(along)[0])
        raise ValueError(f"synthetic-{seeds[subject_of[b]][-1]:04d}: branch {flat[b].branch_id!r} "
                         "drew an axis along its direction")
    dirs = _grow_directions(params, flat, geometry)

    first = [{} for _ in seeds]  # children attach to their class's first instance
    used_vertices = [{} for _ in seeds]
    grown: list[np.ndarray | None] = [None] * len(flat)
    depths = [_depth(dr.cls) for dr in flat]
    for depth in range(max(depths) + 1):
        level = [b for b, d in enumerate(depths) if d == depth]
        starts = []
        for b in level:
            dr, s = flat[b], subject_of[b]
            parent_cls = TEMPLATES[dr.cls].parent
            if parent_cls is None:
                starts.append(dr.anchor)
            else:
                parent = first[s][parent_cls]
                used = used_vertices[s].setdefault(parent_cls, set())
                starts.append(parent[_attach_index(parent, dr.anchor, used)])
        # one cumsum along each walk adds its steps in the order a walk would
        steps = np.array([len(flat[b].wobble) for b in level])
        walks = np.cumsum(np.concatenate(
            [np.stack(starts)[:, None], dirs[: steps.max(), level].transpose(1, 0, 2)], axis=1
        ), axis=1)[np.arange(steps.max() + 1) <= steps[:, None]]
        # resampling preserves each first point, so attachment vertices stay
        # bit-exact on the parent
        points, rows, _ = resample_points(walks, np.cumsum(steps + 1) - (steps + 1),
                                          params.resample_spacing_mm)
        bounds = np.append(rows, len(points)).tolist()
        for n, b in enumerate(level):
            grown[b] = points[bounds[n] : bounds[n + 1]]
            first[subject_of[b]].setdefault(flat[b].cls, grown[b])

    records, lo = [], 0
    for seed, (subject, (motion_r, motion_t)) in zip(seeds, subjects):
        # File order: LM must be the first left centerline (frame origin) and
        # RCA the last right one (frame control point); the sort is stable.
        sides = [TEMPLATES[dr.cls].side for dr in subject]
        order = sorted(range(len(subject)),
                       key=lambda b: (sides[b] == RIGHT, subject[b].cls == "RCA"))
        sizes = [len(grown[lo + b]) for b in order]
        records.append(SubjectRecord(
            SUBJECT_ID.format(seed[-1]),
            params.voxel_spacing_mm,
            points=np.concatenate([grown[lo + b] for b in order]) @ motion_r.T + motion_t,
            first=np.cumsum(sizes) - sizes,
            branch_ids=[subject[b].branch_id for b in order],
            sides=[sides[b] for b in order],
            labels=[subject[b].cls for b in order],
        ))
        lo += len(subject)
    return records


def _prepared(records: list[SubjectRecord], spacing_mm: float) -> list[SubjectRecord]:
    """prepare_subject of each record, with one resample_points call for all."""
    sizes = np.array([len(rec.points) for rec in records])
    first = np.concatenate([rec.first + lo for rec, lo in zip(records, np.cumsum(sizes) - sizes)])
    points, rows, problems = resample_points(
        np.concatenate([rec.points for rec in records]), first, spacing_mm,
        [bid for rec in records for bid in rec.branch_ids])
    bounds = np.append(rows, len(points))
    out, b = [], 0
    for rec in records:
        n = len(rec.first)
        lo, hi = bounds[b], bounds[b + n]
        out.append(merge_branch_origins(replace(
            rec, points=points[lo:hi], first=rows[b : b + n] - lo, problems=problems[b : b + n])))
        b += n
    return out


def generate_subject(params: GenParams, subject_seed: list[int]) -> SubjectRecord:
    """One labeled subject, deterministic in (params, subject_seed); subject_seed
    is [corpus seed, index], and the index names it."""
    return _generate_group(params, [subject_seed])[0]


def _grown_group(params: GenParams, seeds: list) -> list[tuple[SubjectRecord, tuple]]:
    """One generate_corpus job: a group's records, each with its segments'
    labels after prepare_subject, which the census counts."""
    group = _generate_group(params, seeds)
    return [(rec, split_into_segments(ready).labels)
            for rec, ready in zip(group, _prepared(group, params.resample_spacing_mm))]


def generate_corpus(params: GenParams) -> tuple[list[SubjectRecord], dict]:
    """n_subjects independent subjects plus a per-class census manifest.

    Subjects are grown GROUP_SIZE at a time, whole groups in a
    `pool.ordered_map`; each is the same as generate_subject makes it, so the
    corpus is bit-identical whatever the grouping and the worker count. The
    census counts each subject's segments after prepare_subject, with one
    resample_points call per group.
    """
    # numpy loads numpy.random on first use: load it here, once per process,
    # not again in the pool workers of every call (12-20 ms each)
    import numpy.random  # noqa: F401

    seeds = [[params.seed, i] for i in range(params.n_subjects)]
    groups = [seeds[lo : lo + GROUP_SIZE] for lo in range(0, len(seeds), GROUP_SIZE)]
    per_class_branches: dict[str, int] = {c: 0 for c in TEMPLATES}
    per_class_segments: dict[str, int] = {c: 0 for c in TEMPLATES}
    records, subjects = [], []
    with ordered_map(partial(_grown_group, params), groups, len(seeds)) as grown:
        for rec, segment_labels in chain.from_iterable(grown):
            records.append(rec)
            for label in rec.labels:
                per_class_branches[label] += 1
            for label in segment_labels:
                per_class_segments[label] += 1
            subjects.append(
                {
                    "subject_id": rec.subject_id,
                    "n_branches": len(rec.labels),
                    "n_segments": len(segment_labels),
                }
            )
    n = len(records)
    manifest = {
        "params": asdict(replace(params, count_probs=dict(params.count_probs))),
        "n_subjects": n,
        "per_class_branches": per_class_branches,
        "per_class_segments": per_class_segments,
        "avg_branches": sum(s["n_branches"] for s in subjects) / n,
        "avg_segments": sum(s["n_segments"] for s in subjects) / n,
        "subjects": subjects,
    }
    return records, manifest
