"""Synthetic coronary-tree generator with ground-truth labels.

Template-plus-noise construction: LM splits into LAD and LCX, RCA runs the
right side, and side branches attach at class-characteristic positions with
class-characteristic directions. Counts are calibrated so the corpus
reproduces the published per-subject branch/segment averages and class
imbalance (rare left posterior branches included).

Emitted centerlines are pre-resampled so every child start coincides with a
parent vertex; the ingestion pipeline's resample + merge is then a stable
no-op up to floating-point snapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .centerline import (
    LEFT,
    RIGHT,
    Centerline,
    SubjectRecord,
    prepare_subject,
    resample_centerline,
)
from .graph import split_into_segments


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

    @property
    def resample_spacing_mm(self) -> float:
        return 10 * self.voxel_spacing_mm

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


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    x, y, z = axis
    k = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


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


def _perpendicular(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    v = rng.normal(size=3)
    v -= (v @ d) * d
    n = np.linalg.norm(v)
    return v / n if n > 1e-9 else _perpendicular(rng, d)


def _jitter_direction(rng, d: np.ndarray, angle_scale: float) -> np.ndarray:
    if angle_scale <= 0:
        return d
    axis = _perpendicular(rng, d)
    return _rotation(axis, rng.normal(0.0, angle_scale)) @ d


def _grow_curve(
    rng: np.random.Generator,
    start: np.ndarray,
    direction: np.ndarray,
    length: float,
    bend: float,
    wobble: float,
    step: float = 1.0,
) -> np.ndarray:
    """Smooth polyline: tangent rotates steadily about a bend axis plus curl."""
    n = max(3, int(round(length / step)))
    bend_axis = _perpendicular(rng, direction)
    curl_axis = _perpendicular(rng, direction)
    per_step = bend / n
    pts = [start]
    d = direction.copy()
    for _ in range(n):
        d = _rotation(bend_axis, per_step) @ d
        if wobble > 0:
            d = _rotation(curl_axis, rng.normal(0.0, wobble)) @ d
        d = _unit(d)
        pts.append(pts[-1] + step * d)
    return np.asarray(pts)


def _attach_index(points: np.ndarray, frac: float, used: set[int]) -> int:
    """Interior vertex nearest the requested fraction, skipping used ones."""
    n = len(points)
    want = int(np.clip(round(frac * (n - 1)), 1, n - 2))
    for offset in range(n):
        for idx in (want - offset, want + offset):
            if 1 <= idx <= n - 2 and idx not in used:
                used.add(idx)
                return idx
    used.add(want)  # all interior vertices taken; accept a shared junction
    return want


def generate_subject(params: GenParams, subject_seed) -> SubjectRecord:
    """One labeled subject: deterministic in (params, subject_seed)."""
    rng = np.random.default_rng(subject_seed)
    spacing = params.resample_spacing_mm
    branches: dict[str, list[Centerline]] = {}
    used_vertices: dict[str, set[int]] = {}
    order: dict[str, list[Centerline]] = {LEFT: [], RIGHT: []}

    for cls, tpl in TEMPLATES.items():
        probs = np.asarray(params.count_probs[cls])
        count = int(rng.choice(len(probs), p=probs / probs.sum()))
        instances = []
        for i in range(count):
            if tpl.parent is None:
                start = np.asarray(tpl.start, dtype=float)
                if cls != "LM":
                    start = start + rng.normal(0, params.junction_jitter_mm, 3)
            else:
                parent = branches[tpl.parent][0]
                lo, hi = tpl.attach
                frac = lo + (i + 0.5) * (hi - lo) / count
                frac += rng.normal(0, params.attach_jitter_frac * max(hi - lo, 0.05))
                idx = _attach_index(
                    parent.points, float(np.clip(frac, 0.02, 0.98)),
                    used_vertices.setdefault(tpl.parent, set()),
                )
                start = parent.points[idx].copy()
            direction = _jitter_direction(
                rng, _unit(np.asarray(tpl.direction)), params.direction_jitter_rad
            )
            length = tpl.length_mm * (1 + rng.normal(0, params.length_jitter_frac))
            length = max(length, 2.5 * spacing)
            bend = tpl.bend_rad * (1 + rng.normal(0, params.bend_jitter_frac))
            raw = _grow_curve(rng, start, direction, length, bend, params.wobble_rad)
            cl = resample_centerline(
                Centerline(
                    branch_id=cls if count == 1 else f"{cls}{i + 1}",
                    side=tpl.side,
                    points=raw,
                    label=cls,
                ),
                spacing,
            )
            # resampling preserves the first point, so the attachment vertex
            # stays bit-exact on the parent
            instances.append(cl)
        branches[cls] = instances
        order[tpl.side].extend(instances)

    # File order: LM must be the first left centerline (frame origin) and
    # RCA the last right one (frame control point).
    right = [cl for cl in order[RIGHT] if cl.label != "RCA"] + branches["RCA"]
    centerlines = order[LEFT] + right

    motion_t = rng.uniform(-params.translation_range_mm, params.translation_range_mm, 3)
    motion_r = _random_rotation(rng) if params.rotate else np.eye(3)
    centerlines = [
        replace(cl, points=cl.points @ motion_r.T + motion_t) for cl in centerlines
    ]
    sid = subject_seed[-1] if isinstance(subject_seed, (list, tuple)) else subject_seed
    return SubjectRecord(
        subject_id=f"synthetic-{sid:04d}",
        voxel_spacing_mm=params.voxel_spacing_mm,
        centerlines=centerlines,
    )


def generate_corpus(params: GenParams) -> tuple[list[SubjectRecord], dict]:
    """n_subjects independent subjects plus a per-class census manifest."""
    records = [
        generate_subject(params, [params.seed, i]) for i in range(params.n_subjects)
    ]
    per_class_branches: dict[str, int] = {c: 0 for c in TEMPLATES}
    per_class_segments: dict[str, int] = {c: 0 for c in TEMPLATES}
    subjects = []
    for rec in records:
        skel = split_into_segments(prepare_subject(rec))
        for cl in rec.centerlines:
            per_class_branches[cl.label] += 1
        for seg in skel.segments:
            per_class_segments[seg.label] += 1
        subjects.append(
            {
                "subject_id": rec.subject_id,
                "n_branches": len(rec.centerlines),
                "n_segments": len(skel.segments),
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
