"""Synthetic coronary-tree generator with ground-truth labels.

Template-plus-noise construction: LM splits into LAD and LCX, RCA runs the
right side, and side branches attach at class-characteristic positions with
class-characteristic directions. Counts are calibrated so the corpus
reproduces the published per-subject branch/segment averages and class
imbalance (rare left posterior branches included).

A group of subjects is made in array passes: each subject only draws in its
draw loop (one rng call per branch for its fixed normals, one for its
wobble, plus the root or attach draw), the group's branch geometry is then
finished at once, and its tangents grow in lockstep. Every subject is bit
for bit as a per-branch loop over its own rng makes it. generate_corpus hands
whole groups to `coroseg.pool` workers, so a corpus is bit-identical whatever
the grouping and the worker count. The manifest census counts each subject's
segments after prepare_subject, the preprocessing `build` runs. An axis
drawn along its branch's direction, which no real seed draws, raises one
ValueError line naming the subject and the branch, and GenParams one naming
a field out of range: n_subjects outside 1 to MAX_SUBJECTS, a negative seed
or a preset not in PRESETS.

Emitted centerlines are pre-resampled so every child start coincides
bit-exactly with a vertex of its resampled parent. The ingestion pipeline's
resample + merge is not a no-op on them: resampling an already-resampled
curved branch shifts its interior vertices, and merge then snaps each child
start onto the shifted vertex (0.009-0.063 mm in the seed-8 default subject
synthetic-0002).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import partial
from itertools import chain

import numpy as np

from .centerline import (LEFT, RESAMPLE_VOXELS, RIGHT, SubjectRecord, clipped, prepare_subject,
                         resample_points)
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
#: the published per-class branch counts over 141 subjects. Read each time
#: a group is generated, so a test can replace it; a class may draw a
#: branch only where its parent class always draws one.
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

#: Each preset's noise scales. The CLI's --preset choices are its keys.
PRESETS: dict[str, dict[str, float]] = {
    "default": dict(direction_jitter_rad=0.15, length_jitter_frac=0.12, attach_jitter_frac=0.05,
                    bend_jitter_frac=0.3, wobble_rad=0.04, junction_jitter_mm=1.0),
    # tight geometric noise: classes cleanly separable
    "low-noise": dict(direction_jitter_rad=0.05, length_jitter_frac=0.05, attach_jitter_frac=0.02,
                      bend_jitter_frac=0.1, wobble_rad=0.015, junction_jitter_mm=0.3),
}

#: Voxel spacing every subject is written with; resampling steps RESAMPLE_VOXELS of it.
VOXEL_SPACING_MM = 0.5
RESAMPLE_SPACING_MM = RESAMPLE_VOXELS * VOXEL_SPACING_MM
#: Each subject is turned by a uniform random rotation, then moved by a
#: translation uniform in +-TRANSLATION_RANGE_MM per axis.
TRANSLATION_RANGE_MM = 40.0


@dataclass(frozen=True)
class GenParams:
    """A corpus: n_subjects subjects of one preset, deterministic in seed."""

    n_subjects: int = 141
    seed: int = 0
    preset: str = "default"

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ValueError(f"n_subjects must be >= 1, not {self.n_subjects}")
        if self.n_subjects > MAX_SUBJECTS:
            raise ValueError(f"n_subjects must be <= {MAX_SUBJECTS}, not {self.n_subjects}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed}")
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {', '.join(PRESETS)}, not {clipped(self.preset)}")


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
    #: standard normals: the jitter axis (3) and angle, length, bend, bend
    #: axis (3) and curl axis (3)
    normals: np.ndarray
    wobble: np.ndarray  # one standard normal per 1 mm step


def _depth(cls: str) -> int:
    """Depth of a class in the template tree: roots 0, their children 1, ..."""
    parent = TEMPLATES[cls].parent
    return 0 if parent is None else 1 + _depth(parent)


def _count_cdfs() -> dict[str, np.ndarray]:
    """Per class, the cdf that rng.choice(len(p), p=p / p.sum()) searches, so
    one rng.random() and a searchsorted pick the count choice would. Reads
    DEFAULT_COUNT_PROBS when called."""
    cdfs = {}
    for cls in TEMPLATES:
        probs = np.asarray(DEFAULT_COUNT_PROBS[cls])
        cdf = (probs / probs.sum()).cumsum()
        cdfs[cls] = cdf / cdf[-1]
    return cdfs


def _draw_branches(rng: np.random.Generator, noise: dict[str, float],
                   cdfs: dict[str, np.ndarray]) -> list[_Draw]:
    """Every branch's random draws, in template order, with one rng call for
    its fixed normals and one for its wobble. rng.normal(0, s, k) is
    0.0 + s * rng.standard_normal(k) and one call of k draws is k calls of
    one, so the stream is the per-branch loop's; _finish makes the geometry
    from the normals."""
    draws = []
    for cls, tpl in TEMPLATES.items():
        count = int(cdfs[cls].searchsorted(rng.random(), side="right"))
        for i in range(count):
            if tpl.parent is None:
                anchor = np.asarray(tpl.start, dtype=float)
                if cls != "LM":
                    anchor = anchor + (0.0 + noise["junction_jitter_mm"] * rng.standard_normal(3))
            else:
                lo, hi = tpl.attach
                frac = lo + (i + 0.5) * (hi - lo) / count
                frac += 0.0 + noise["attach_jitter_frac"] * max(hi - lo, 0.05) * rng.standard_normal()
                anchor = min(max(frac, 0.02), 0.98)
            normals = rng.standard_normal(12)
            jitter = 0.0 + noise["length_jitter_frac"] * float(normals[4])
            length = max(tpl.length_mm * (1 + jitter), 2.5 * RESAMPLE_SPACING_MM)
            n = max(3, int(round(length)))  # 1 mm steps
            draws.append(_Draw(cls, cls if count == 1 else f"{cls}{i + 1}", anchor, normals,
                               rng.standard_normal(n)))
    return draws


def _finish(noise: dict[str, float], draws: list[_Draw]):
    """Each branch's direction, bend angle, bend axis and curl axis from its
    normals, in array passes over all branches; and which branches drew an
    axis along their direction, which has no perpendicular part to turn about."""
    z = np.stack([dr.normals for dr in draws])
    d = np.stack([_DIRECTIONS[dr.cls] for dr in draws])
    axes, kept = _perpendiculars(z[:, :3], d)
    turn = _rodrigues(axes, 0.0 + noise["direction_jitter_rad"] * z[:, 3])
    d = np.matmul(turn, d[:, :, None])[:, :, 0]
    bend = np.array([TEMPLATES[dr.cls].bend_rad for dr in draws]) * (
        1 + (0.0 + noise["bend_jitter_frac"] * z[:, 5]))
    bend_axes, bend_kept = _perpendiculars(z[:, 6:9], d)
    curl_axes, curl_kept = _perpendiculars(z[:, 9:], d)
    return (d, bend, bend_axes, curl_axes), ~(kept & bend_kept & curl_kept)


def _grow_directions(noise: dict[str, float], draws: list[_Draw], geometry) -> np.ndarray:
    """Unit tangent after each 1 mm step, (longest branch, branches, 3).

    All branches step in lockstep, whichever subject they belong to. Each
    step rotates the tangent about the bend axis by bend / n, then about the
    curl axis by that step's wobble angle, then renormalises. The zero angle
    of a padding step past a branch's end builds the identity bit for bit.
    Each step's curl matrices are built when it runs, so memory is the
    returned tangents plus a sine and a cosine per step and branch, never a
    steps x branches x 3 x 3 stack.
    """
    d, bend_angles, bend_axes, curl_axes = geometry
    lengths = np.array([len(dr.wobble) for dr in draws])
    n_max = int(lengths.max())
    eye, bend = np.eye(3), _rodrigues(bend_axes, bend_angles / lengths)
    angles = np.zeros((len(draws), n_max))
    angles[np.arange(n_max) < lengths[:, None]] = np.concatenate([dr.wobble for dr in draws])
    angles = (0.0 + noise["wobble_rad"] * angles).T[:, :, None, None]
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


def _draw_subject(noise: dict[str, float], cdfs: dict[str, np.ndarray], seed):
    """A subject's branch draws and then its rigid motion, from its own rng."""
    rng = np.random.default_rng(seed)
    draws = _draw_branches(rng, noise, cdfs)
    motion_t = rng.uniform(-TRANSLATION_RANGE_MM, TRANSLATION_RANGE_MM, 3)
    return draws, (_random_rotation(rng), motion_t)


def _generate_group(params: GenParams, seeds: list) -> list[SubjectRecord]:
    """Labeled subjects grown together, each bit for bit as it is alone.

    Four phases: each subject draws every branch's randomness from its own
    rng in template order; the branch geometry of the whole group is made
    from those draws in array passes; the tangents of all the group's
    branches grow in lockstep; then branches are placed and resampled one
    template depth at a time, with one resample_points call per depth for
    the whole group, so each child starts on a vertex of its resampled parent.
    """
    noise, cdfs = PRESETS[params.preset], _count_cdfs()
    subjects = [_draw_subject(noise, cdfs, seed) for seed in seeds]
    flat = [dr for draws, _ in subjects for dr in draws]
    subject_of = [s for s, (draws, _) in enumerate(subjects) for _ in draws]
    geometry, along = _finish(noise, flat)
    if along.any():  # never drawn on a real seed: about 5e-19 per axis
        b = int(np.flatnonzero(along)[0])
        raise ValueError(f"synthetic-{seeds[subject_of[b]][-1]:04d}: branch {flat[b].branch_id!r} "
                         "drew an axis along its direction")
    dirs = _grow_directions(noise, flat, geometry)

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
                                          RESAMPLE_SPACING_MM)
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
            VOXEL_SPACING_MM,
            points=np.concatenate([grown[lo + b] for b in order]) @ motion_r.T + motion_t,
            first=np.cumsum(sizes) - sizes,
            branch_ids=[subject[b].branch_id for b in order],
            sides=[sides[b] for b in order],
            labels=[subject[b].cls for b in order],
        ))
        lo += len(subject)
    return records


def _grown_group(params: GenParams, seeds: list) -> list[tuple[SubjectRecord, tuple]]:
    """One generate_corpus job: a group's records, each with its segments'
    labels after prepare_subject, which the census counts."""
    return [(rec, split_into_segments(prepare_subject(rec)).labels)
            for rec in _generate_group(params, seeds)]


def generate_corpus(params: GenParams) -> tuple[list[SubjectRecord], dict]:
    """n_subjects independent subjects plus a per-class census manifest.

    Subjects are grown GROUP_SIZE at a time, whole groups in a
    `pool.ordered_map`; each is bit for bit as it is grown alone, so the
    corpus is bit-identical whatever the grouping and the worker count. The
    census counts each subject's segments after prepare_subject.
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
        "params": asdict(params),
        "n_subjects": n,
        "per_class_branches": per_class_branches,
        "per_class_segments": per_class_segments,
        "avg_branches": sum(s["n_branches"] for s in subjects) / n,
        "avg_segments": sum(s["n_segments"] for s in subjects) / n,
        "subjects": subjects,
    }
    return records, manifest
