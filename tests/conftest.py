"""Shared fixtures: hand-built subjects, random trees, brute-force oracles."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from coroseg import autodiff as ad
from coroseg.autodiff import Edges
from coroseg.centerline import LEFT, RIGHT, SubjectRecord
from coroseg.graph import GraphBuildError, Segment
from coroseg import synth
from coroseg.synth import TEMPLATES, _random_rotation


def make_subject(branches, subject_id: str = "s", voxel_spacing_mm: float = 0.5) -> SubjectRecord:
    """A SubjectRecord from (id, side, points) or (id, side, points, label)
    tuples, in file order."""
    ids, sides, arrays, labels = zip(*[(*b, None)[:4] for b in branches])
    arrays = [np.asarray(p, dtype=np.float64) for p in arrays]
    sizes = [len(a) for a in arrays]
    return SubjectRecord(subject_id, voxel_spacing_mm, points=np.concatenate(arrays),
                         first=np.cumsum(sizes) - sizes, branch_ids=ids, sides=sides, labels=labels)


def with_points(subject: SubjectRecord, arrays) -> SubjectRecord:
    """subject with branch b's points replaced by arrays[b]."""
    return make_subject(zip(subject.branch_ids, subject.sides, arrays, subject.labels),
                        subject.subject_id, subject.voxel_spacing_mm)


def straight_line(start, direction, n_points, step=5.0) -> np.ndarray:
    start = np.asarray(start, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    return np.array([start + i * step * d for i in range(n_points)])


def random_polyline(rng: np.random.Generator, start, n_points, step=5.0) -> np.ndarray:
    """Smooth-ish random walk with fixed step length."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    pts = [np.asarray(start, dtype=float)]
    for _ in range(n_points - 1):
        d = d + 0.4 * rng.normal(size=3)
        d /= np.linalg.norm(d)
        pts.append(pts[-1] + step * d)
    return np.array(pts)


def random_tree_subject(rng: np.random.Generator, max_branches: int = 20) -> SubjectRecord:
    """Random two-sided tree with child starts placed exactly on parent vertices."""
    branches = []
    for side, origin in ((LEFT, (0.0, 0.0, 0.0)), (RIGHT, (60.0, 0.0, 0.0))):
        side_branches = [(f"{side}-root", side, random_polyline(rng, origin, rng.integers(5, 12)))]
        n_children = rng.integers(0, max(1, (max_branches - 2) // 2) + 1)
        for c in range(n_children):
            parent = side_branches[rng.integers(0, len(side_branches))][2]
            k = int(rng.integers(1, len(parent) - 1))
            pts = random_polyline(rng, parent[k], rng.integers(3, 9))
            pts[0] = parent[k]  # bit-exact attachment
            side_branches.append((f"{side}-c{c}", side, pts))
        branches.extend(side_branches)
    return make_subject(branches, "random-tree")


def segment_count_oracle(subject: SubjectRecord) -> int:
    """Per branch: 1 + number of distinct interior attachment points."""
    total = 0
    for cl in subject.centerlines:
        interior = {tuple(p) for p in cl.points[1:-1]}
        starts = {
            tuple(other.points[0])
            for other in subject.centerlines
            if other.branch_id != cl.branch_id
        }
        total += 1 + len(interior & starts)
    return total


def junction_oracle(subject: SubjectRecord) -> set[tuple]:
    """Expected junction coordinates: every branch's first and last point.

    Attachment points need no collecting of their own: a child attaches
    where its start lies on another branch, and that start is an endpoint.
    """
    out = set()
    for cl in subject.centerlines:
        out.add(tuple(cl.points[0]))
        out.add(tuple(cl.points[-1]))
    return out


def line_graph_oracle(skel) -> np.ndarray:
    """O(N^2) adjacency by junction-set intersection."""
    segs = skel.segments
    n = len(segs)
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and {segs[i].start_junction, segs[i].end_junction} & {
                segs[j].start_junction,
                segs[j].end_junction,
            }:
                adj[i, j] = 1.0
    return adj


def resample_oracle(pts: np.ndarray, spacing_mm: float) -> np.ndarray:
    """One branch's points resampled by a per-point loop: one searchsorted
    and one interpolation per target."""
    steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    total = cum[-1]
    n_interior = int(np.floor((total - 1e-9 * spacing_mm) / spacing_mm))
    out = [pts[0]]
    for k in range(1, n_interior + 1):
        t = k * spacing_mm
        j = int(np.searchsorted(cum, t, side="right")) - 1
        j = min(j, len(pts) - 2)
        seg_len = cum[j + 1] - cum[j]
        alpha = 0.0 if seg_len == 0 else (t - cum[j]) / seg_len
        out.append(pts[j] + alpha * (pts[j + 1] - pts[j]))
    out.append(pts[-1])
    return np.asarray(out)


def merge_oracle(subject: SubjectRecord, tol_mm: float) -> list[np.ndarray]:
    """Per-branch loop: each start in turn, nearest point over same-side branches."""
    sides = [cl.side for cl in subject.centerlines]
    points = [cl.points.copy() for cl in subject.centerlines]
    for i in range(len(points)):
        start = points[i][0]
        best_d = np.inf
        best = None
        for j in range(len(points)):
            if j == i or sides[j] != sides[i]:
                continue
            d = np.linalg.norm(points[j] - start, axis=1)
            k = int(np.argmin(d))
            if d[k] < best_d:
                best_d = d[k]
                best = (j, k)
        if best is not None and best_d <= tol_mm:
            j, k = best
            points[i][0] = points[j][k]
    return points


def _point_key(p: np.ndarray) -> tuple[float, float, float]:
    return (float(p[0]), float(p[1]), float(p[2]))


def split_oracle(subject: SubjectRecord) -> SimpleNamespace:
    """(side, float tuple) point keys, a pairwise attachment scan and "j%03d" junction ids.

    Cuts where a branch passes a branch endpoint or another branch's start.
    Each side must have a single root.
    """
    cls = subject.centerlines
    keys = [[(cl.side, *_point_key(p)) for p in cl.points] for cl in cls]
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
                    points=pts,
                    start_junction=jid(keys[i][a], pts[0]),
                    end_junction=jid(keys[i][b], pts[-1]),
                    label=cl.label,
                )
            )
    return SimpleNamespace(junctions=junctions, segments=tuple(segments))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    x, y, z = axis
    k = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _perpendicular(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    """A random unit vector perpendicular to d; raises when the draw lies along d."""
    v = rng.normal(size=3)
    v -= (v @ d) * d
    n = np.linalg.norm(v)
    if n <= 1e-9:
        raise ValueError("drew an axis along its direction")
    return v / n


def _jitter_direction(rng, d: np.ndarray, angle_scale: float) -> np.ndarray:
    axis = _perpendicular(rng, d)
    return _rotation(axis, rng.normal(0.0, angle_scale)) @ d


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
        d = _rotation(curl_axis, rng.normal(0.0, wobble)) @ d
        d = _unit(d)
        pts.append(pts[-1] + step * d)
    return np.asarray(pts)


def generate_subject_oracle(params, subject_seed) -> SubjectRecord:
    """The generator as a per-branch, per-step loop: one rng call per draw,
    each perpendicular checked as it is drawn, one Rodrigues matrix per
    bend and curl step, one resample per branch. Same rng stream and bits.
    Reads synth.DEFAULT_COUNT_PROBS when called, as the generator does."""
    rng = np.random.default_rng(subject_seed)
    noise = SimpleNamespace(**synth.PRESETS[params.preset])
    spacing = synth.RESAMPLE_SPACING_MM
    branches: dict[str, list[tuple]] = {}  # (id, side, points, label) per branch
    used_vertices: dict[str, set[int]] = {}
    order: dict[str, list[tuple]] = {LEFT: [], RIGHT: []}

    for cls, tpl in TEMPLATES.items():
        probs = np.asarray(synth.DEFAULT_COUNT_PROBS[cls])
        count = int(rng.choice(len(probs), p=probs / probs.sum()))
        instances = []
        for i in range(count):
            if tpl.parent is None:
                start = np.asarray(tpl.start, dtype=float)
                if cls != "LM":
                    start = start + rng.normal(0, noise.junction_jitter_mm, 3)
            else:
                parent = branches[tpl.parent][0][2]
                lo, hi = tpl.attach
                frac = lo + (i + 0.5) * (hi - lo) / count
                frac += rng.normal(0, noise.attach_jitter_frac * max(hi - lo, 0.05))
                idx = _attach_index(
                    parent, float(np.clip(frac, 0.02, 0.98)),
                    used_vertices.setdefault(tpl.parent, set()),
                )
                start = parent[idx].copy()
            direction = _jitter_direction(
                rng, _unit(np.asarray(tpl.direction)), noise.direction_jitter_rad
            )
            length = tpl.length_mm * (1 + rng.normal(0, noise.length_jitter_frac))
            length = max(length, 2.5 * spacing)
            bend = tpl.bend_rad * (1 + rng.normal(0, noise.bend_jitter_frac))
            raw = _grow_curve(rng, start, direction, length, bend, noise.wobble_rad)
            # resampling preserves the first point, so the attachment vertex
            # stays bit-exact on the parent
            branch_id = cls if count == 1 else f"{cls}{i + 1}"
            instances.append((branch_id, tpl.side, resample_oracle(raw, spacing), cls))
        branches[cls] = instances
        order[tpl.side].extend(instances)

    # File order: LM must be the first left centerline (frame origin) and
    # RCA the last right one (frame control point).
    right = [b for b in order[RIGHT] if b[3] != "RCA"] + branches["RCA"]

    motion_t = rng.uniform(-synth.TRANSLATION_RANGE_MM, synth.TRANSLATION_RANGE_MM, 3)
    motion_r = _random_rotation(rng)
    sid = subject_seed[-1] if isinstance(subject_seed, (list, tuple)) else subject_seed
    return make_subject(
        [(bid, side, pts @ motion_r.T + motion_t, label) for bid, side, pts, label in order[LEFT] + right],
        f"synthetic-{sid:04d}", synth.VOXEL_SPACING_MM,
    )


def init_model_oracle(cfg) -> dict[str, np.ndarray]:
    """One if-branch per variant: every parameter drawn in one place, layer by layer."""

    def _glorot(rng, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def _zeros(rows, cols):
        return np.zeros((rows, cols))

    rng = np.random.default_rng(cfg.seed)
    d_in, d_h, d_out = cfg.in_dim, cfg.hidden_dim, cfg.num_classes
    p: dict[str, np.ndarray] = {}
    if cfg.variant == "gcn":
        p["w1"], p["b1"] = _glorot(rng, d_in, d_h), _zeros(1, d_h)
        p["w2"], p["b2"] = _glorot(rng, d_h, d_h), _zeros(1, d_h)
    elif cfg.variant == "gat":
        per_head = d_h // cfg.gat_heads
        for h in range(cfg.gat_heads):
            p[f"w1_h{h}"] = _glorot(rng, d_in, per_head)
            p[f"a1_src_h{h}"] = _glorot(rng, per_head, 1)
            p[f"a1_dst_h{h}"] = _glorot(rng, per_head, 1)
        p["b1"] = _zeros(1, d_h)
        p["w2"] = _glorot(rng, d_h, d_h)
        p["a2_src"] = _glorot(rng, d_h, 1)
        p["a2_dst"] = _glorot(rng, d_h, 1)
        p["b2"] = _zeros(1, d_h)
    elif cfg.variant == "gin":
        p["eps1"] = np.full((1, 1), cfg.gin_eps_init)
        p["eps2"] = np.full((1, 1), cfg.gin_eps_init)
        p["mlp1_w1"], p["mlp1_b1"] = _glorot(rng, d_in, d_h), _zeros(1, d_h)
        p["mlp1_w2"], p["mlp1_b2"] = _glorot(rng, d_h, d_h), _zeros(1, d_h)
        p["mlp2_w1"], p["mlp2_b1"] = _glorot(rng, d_h, d_h), _zeros(1, d_h)
        p["mlp2_w2"], p["mlp2_b2"] = _glorot(rng, d_h, d_h), _zeros(1, d_h)
    elif cfg.variant == "sage":
        p["pool1"], p["pool1_b"] = _glorot(rng, d_in, d_h), _zeros(1, d_h)
        p["out1"], p["out1_b"] = _glorot(rng, d_in + d_h, d_h), _zeros(1, d_h)
        p["pool2"], p["pool2_b"] = _glorot(rng, d_h, d_h), _zeros(1, d_h)
        p["out2"], p["out2_b"] = _glorot(rng, d_h + d_h, d_h), _zeros(1, d_h)
    p["fc_w"] = _glorot(rng, d_h, d_out)
    p["fc_b"] = _zeros(1, d_out)
    return p


def structure_oracle(adj: np.ndarray) -> tuple[Edges, Edges, np.ndarray]:
    """Both edge sets built separately: (neighbors, with loops, GCN weight column)."""
    n = len(adj)
    dst, src = np.nonzero(adj)
    nodes = np.arange(n)
    loop_src, loop_dst = np.concatenate([src, nodes]), np.concatenate([dst, nodes])
    order = np.lexsort((loop_src, loop_dst))   # by destination, then source
    loop_src, loop_dst = loop_src[order], loop_dst[order]
    d_inv_sqrt = 1.0 / np.sqrt(np.bincount(dst, minlength=n) + 1.0)
    weight = d_inv_sqrt[loop_dst] * d_inv_sqrt[loop_src]
    return Edges(src, dst, n), Edges(loop_src, loop_dst, n), weight[:, None]


def adam_oracle(params: dict, grads: dict, state: dict, lr: float = 1e-3,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """Per-parameter Adam, one update per array; state holds t and moments by name."""
    state["t"] = state.get("t", 0) + 1
    t = state["t"]
    for name, p in params.items():
        g = grads[name]
        m = state.setdefault(("m", name), np.zeros_like(p))
        v = state.setdefault(("v", name), np.zeros_like(p))
        m += (1 - beta1) * (g - m)
        v += (1 - beta2) * (g * g - v)
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _slot_reduce(ufunc, x: np.ndarray, table: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """ufunc over the rows of x listed in each column of table, slot after slot; -1 picks fill."""
    rows = np.concatenate([x, np.full((1, x.shape[1]), fill)])
    out = rows.take(table[0], axis=0)
    for slot in table[1:]:
        ufunc(out, rows.take(slot, axis=0), out=out)
    return out


def gather_oracle(a, edges: Edges, weight=None):
    """Edge-row pools, step 1: one copy of row src[k] per edge, times a constant weight[k]."""
    a = ad._as_tensor(a)
    data = a.data[edges.src]
    if weight is not None:
        data *= weight

    def backward(g):
        return (_slot_reduce(np.add, g if weight is None else g * weight, edges.by_src),)

    return ad._result(data, (a,), backward)


def sum_pool_oracle(a, edges: Edges):
    """Edge-row pools, step 2: row i sums the edge rows into node i."""
    a = ad._as_tensor(a)
    return ad._result(_slot_reduce(np.add, a.data, edges.by_dst), (a,),
                      lambda g: (g[edges.dst],))


def max_pool_oracle(a, edges: Edges):
    """Edge-row pools, step 2: row i is the max over the edge rows into node i, 0 if none;
    the gradient goes to the first edge in slot order that holds the max."""
    a = ad._as_tensor(a)
    table = edges.by_dst
    best = _slot_reduce(np.maximum, a.data, table, -np.inf)
    data = best.copy()
    data[table[0] < 0] = 0.0

    def backward(g):
        rows = np.concatenate([a.data, np.full((1, a.shape[1]), -np.inf)])
        ga = np.empty_like(rows)
        taken = np.zeros(best.shape, dtype=bool)
        for slot in table:
            win = rows.take(slot, axis=0) == best
            win &= ~taken
            taken |= win
            ga[slot] = g * win
        return (ga[:-1],)

    return ad._result(data, (a,), backward)


def backward_oracle(loss):
    """Reverse pass that copies the first gradient reaching every tape node:
    all nodes reachable from loss are collected, then taken in one sort,
    newest first by creation index."""
    loss._done = True
    reachable, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in reachable:
            reachable[id(node)] = node
            stack.extend(node._parents)
    grads = {id(loss): np.ones((1, 1))}
    for node in sorted(reachable.values(), key=lambda t: t._index, reverse=True):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if id(parent) in grads:
                grads[id(parent)] += pg
            else:
                grads[id(parent)] = np.array(pg, dtype=np.float64, copy=True)


def chain_subject() -> SubjectRecord:
    """Two chains whose line graph has no symmetric node pairs.

    Every junction has exactly one segment with a bare far end, so no two
    nodes share a closed neighborhood and all model variants can separate
    every node.
    """
    lm = straight_line((0, 0, 0), (0, 0, 1), 4)
    lad = straight_line(lm[-1], (0.2, 0.9, 0.3), 8)
    s = straight_line(lad[-1], (-0.6, 0.4, -0.5), 5)
    rca = straight_line((35, -10, 3), (0.4, -0.6, 0.6), 9)
    am = straight_line(rca[-1], (0.8, -0.4, 0.3), 6)
    rpda = straight_line(am[-1], (-0.3, -0.4, -0.8), 5)
    return make_subject(
        [
            ("LM", LEFT, lm, "LM"),
            ("LAD", LEFT, lad, "LAD"),
            ("S", LEFT, s, "S"),
            ("RCA", RIGHT, rca, "RCA"),
            ("AM", RIGHT, am, "AM"),
            ("R-PDA", RIGHT, rpda, "R-PDA"),
        ],
        "chain",
    )


def two_branch_subject() -> SubjectRecord:
    """Branch A with child B at A's interior plus a lone right branch."""
    a = straight_line((0, 0, 0), (0, 0, 1), 5)
    b = straight_line(a[2], (1, 0, 0), 4)
    b[0] = a[2]
    r = straight_line((50, 0, 0), (0, 1, 0), 4)
    return make_subject(
        [("A", LEFT, a, "LM"), ("B", LEFT, b, "LAD"), ("R", RIGHT, r, "RCA")], "two-branch"
    )


def random_rigid_motion(rng: np.random.Generator):
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    rot = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    trans = rng.uniform(-50, 50, 3)
    return rot, trans


def transform_subject(subject: SubjectRecord, rot: np.ndarray, trans) -> SubjectRecord:
    return with_points(
        subject, [cl.points @ rot.T + np.asarray(trans) for cl in subject.centerlines]
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
