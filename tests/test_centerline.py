import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coroseg.centerline import (
    CLASSES_13,
    DEFAULT_MERGE_TOL_MM,
    MAX_RESAMPLED_POINTS,
    CenterlineError,
    SubjectRecord,
    merge_branch_origins,
    parse_subject,
    prepare_subject,
    resample_points,
    resample_subject,
    serialize_subject,
)
from coroseg.graph import build_segment_graph
from coroseg.synth import GenParams, generate_corpus
from conftest import (
    make_subject,
    merge_oracle,
    random_tree_subject,
    resample_oracle,
    straight_line,
    with_points,
)

MINIMAL = {
    "subject_id": "s1",
    "voxel_spacing_mm": 0.5,
    "branches": [
        {"id": "a", "side": "left", "points": [[0, 0, 0], [0, 0, 5]]},
        {"id": "b", "side": "right", "points": [[10, 0, 0], [10, 0, 5]]},
    ],
}


def test_parse_minimal():
    rec = parse_subject(json.dumps(MINIMAL))
    assert len(rec.centerlines) == 2
    assert rec.centerlines[0].side == "left"
    assert rec.voxel_spacing_mm == 0.5


@pytest.mark.parametrize("label", ["XYZ", 7, "", ["LM"]])
def test_parse_rejects_unknown_label(label):
    doc = json.loads(json.dumps(MINIMAL))
    doc["branches"][1]["label"] = label
    with pytest.raises(CenterlineError, match="branch 1: unknown label"):
        parse_subject(json.dumps(doc))


def test_parse_accepts_known_or_null_label():
    doc = json.loads(json.dumps(MINIMAL))
    doc["branches"][0]["label"] = "L-PDA"
    doc["branches"][1]["label"] = None
    rec = parse_subject(json.dumps(doc))
    assert [cl.label for cl in rec.centerlines] == ["L-PDA", None]


def test_parse_one_point_branch():
    doc = dict(MINIMAL)
    doc["branches"] = [dict(MINIMAL["branches"][0], points=[[0, 0, 0]]), MINIMAL["branches"][1]]
    with pytest.raises(CenterlineError, match="too short"):
        parse_subject(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("voxel_spacing_mm"), "missing field"),
        (lambda d: d["branches"][0].pop("points"), "missing points"),
        (lambda d: d.update(voxel_spacing_mm=0.0), "positive"),
        (lambda d: d["branches"].pop(1), "left and one right"),
        (lambda d: d.update(branches=[]), "^branches must be a non-empty list$"),
        (lambda d: d["branches"][1].update(id="a"), "^duplicate branch ids$"),
    ],
)
def test_parse_invalid(mutate, message):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(CenterlineError, match=message):
        parse_subject(json.dumps(doc))


def test_parse_top_level_array():
    with pytest.raises(CenterlineError, match="^top-level value must be an object$"):
        parse_subject(json.dumps([MINIMAL]))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["branches"][0].update(points=[["0", "0", "0"], ["10", "0", "0"]]),
         "branch 0: points must be an array of numbers"),
        (lambda d: d["branches"][1].update(points=[[0, 0, None], [0, 0, 5]]),
         "branch 1: points must be an array of numbers"),
        (lambda d: d.update(voxel_spacing_mm="0.5"), "voxel_spacing_mm must be a number"),
        (lambda d: d.update(voxel_spacing_mm=True), "voxel_spacing_mm must be a number"),
        (lambda d: d["branches"][0].update(points=[[0, 0, 0], [True, 0, 5]]),
         "branch 0: points must be an array of numbers"),
        (lambda d: d["branches"][1].update(points=[[10.5, 0, 0], [10, False, 5]]),
         "branch 1: points must be an array of numbers"),
    ],
)
def test_parse_rejects_values_that_are_not_numbers(mutate, message):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(CenterlineError, match=f"^{message}$"):
        parse_subject(json.dumps(doc))


def test_parse_accepts_zeros_and_ones_that_are_numbers():
    # a decoded 0 or 1 may have been a JSON boolean, so these points take
    # the type check
    doc = json.loads(json.dumps(MINIMAL))
    doc["subject_id"], doc["branches"][0]["id"] = "true", "false"
    doc["branches"][0]["points"] = [[0, 1, 0.0], [1.0, 0, 5]]
    rec = parse_subject(json.dumps(doc))
    assert rec.subject_id == "true" and rec.centerlines[0].branch_id == "false"
    assert rec.centerlines[0].points.tolist() == [[0, 1, 0], [1, 0, 5]]


def test_parse_malformed_json():
    # not JSON, not UTF-8, an int past Python's digit limit, nesting past the recursion limit
    for raw in (b"{not json", b"\xff\xfe", b"1" * 5000, b"[" * 100_000 + b"]" * 100_000):
        with pytest.raises(CenterlineError, match="^malformed JSON: "):
            parse_subject(raw)


def test_duplicate_consecutive_points_rejected():
    with pytest.raises(CenterlineError, match="duplicate"):
        make_subject([("a", "left", [[0, 0, 0], [0, 0, 0], [0, 0, 1]])])


def test_record_rejects_points_that_are_not_rows_of_three():
    # the one-pass check took (P, 2) points, and resampling then failed
    # with a numpy shape mismatch
    with pytest.raises(CenterlineError, match=r"^branch 'a': points must be \(n, 3\)$"):
        make_subject([("a", "left", [[0, 0], [0, 5]]), ("b", "right", [[9, 0], [9, 5]])])


def _random_record(rng, idx):
    branches = []
    for side in ("left", "right"):
        for b in range(rng.integers(1, 4)):
            pts = np.cumsum(rng.uniform(0.5, 3.0, size=(rng.integers(2, 8), 3)), axis=0)
            label = rng.choice(["LM", "LAD", "RCA", None])
            branches.append((f"{side}{b}", side, pts, label))
    return make_subject(branches, f"r{idx}", float(rng.uniform(0.2, 1.0)))


def test_serialize_roundtrip_100_random(rng):
    for i in range(100):
        rec = _random_record(rng, i)
        back = parse_subject(serialize_subject(rec))
        assert back.subject_id == rec.subject_id
        assert back.voxel_spacing_mm == rec.voxel_spacing_mm
        for a, b in zip(rec.centerlines, back.centerlines):
            assert a.branch_id == b.branch_id
            assert a.side == b.side
            assert a.label == b.label
            assert np.array_equal(a.points, b.points)


def _resample(points, spacing_mm: float, branch_id: str = "a") -> np.ndarray:
    """One branch through resample_points; raises why it cannot be resampled."""
    out, _, problems = resample_points(np.asarray(points, np.float64), np.zeros(1, np.intp),
                                       spacing_mm, [branch_id])
    if problems[0]:
        raise CenterlineError(problems[0])
    return out


def test_resample_straight_line():
    out = _resample([[0, 0, 0], [0, 0, 10]], 5.0)
    assert np.allclose(out, [[0, 0, 0], [0, 0, 5], [0, 0, 10]])


def test_default_spacing_is_ten_voxels():
    # 10 voxels at 0.5 mm spacing = 5.0 mm
    assert 10 * 0.5 == 5.0


def test_resample_quarter_circle_against_dense_oracle():
    theta = np.linspace(0, np.pi / 2, 100_000)
    pts = np.column_stack([20 * np.cos(theta), 20 * np.sin(theta), np.zeros_like(theta)])
    out = _resample(pts, 5.0)

    # independent oracle: pure-python cumulative arc-length lookup
    cum = [0.0]
    for i in range(1, len(pts)):
        cum.append(cum[-1] + float(np.linalg.norm(pts[i] - pts[i - 1])))
    total = cum[-1]

    def at_arc(t):
        j = int(np.searchsorted(cum, t)) - 1
        j = max(0, min(j, len(pts) - 2))
        a = (t - cum[j]) / (cum[j + 1] - cum[j])
        return pts[j] + a * (pts[j + 1] - pts[j])

    for k, p in enumerate(out[:-1]):
        assert np.linalg.norm(p - at_arc(k * 5.0)) < 1e-9
    gaps = np.diff([cum[0]] + [k * 5.0 for k in range(1, len(out) - 1)] + [total])
    assert np.all(np.abs(gaps[:-1] - 5.0) < 1e-9)
    assert 0 < gaps[-1] <= 5.0 + 1e-9


def test_resample_short_curve_keeps_endpoints():
    pts = [[0, 0, 0], [0, 0, 2]]
    out = _resample(pts, 5.0)
    assert np.array_equal(out, pts)


def test_resample_idempotent_exact_on_straight_curves(rng):
    # On collinear polylines arc length equals chord length, so a second
    # resample reproduces the first bit-for-bit (up to fp interpolation).
    for _ in range(30):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        stations = np.cumsum(rng.uniform(0.5, 4.0, size=rng.integers(3, 20)))
        pts = np.array([i * d for i in np.concatenate([[0.0], stations])])
        once = _resample(pts, 5.0)
        twice = _resample(once, 5.0)
        assert len(once) == len(twice)
        g1 = np.linalg.norm(np.diff(once, axis=0), axis=1)
        g2 = np.linalg.norm(np.diff(twice, axis=0), axis=1)
        assert np.allclose(g1, g2, atol=1e-9)


def test_resample_idempotent_on_smooth_curves(rng):
    # Curved inputs: chords are shorter than the arcs they replace, so a
    # second pass can only agree up to the curvature-induced deficit. Count
    # and interior gaps stay fixed; the final gap absorbs the deficit.
    for _ in range(30):
        theta = rng.uniform(0.2, 1.0)
        n = 200
        t = np.linspace(0, theta, n)
        r = rng.uniform(30, 80)
        pts = np.column_stack([r * np.cos(t), r * np.sin(t), rng.uniform(0.1, 1) * t])
        once = _resample(pts, 5.0)
        twice = _resample(once, 5.0)
        assert abs(len(once) - len(twice)) <= 1
        for p in twice:
            assert _point_to_polyline_distance(p, once) < 1e-9
        g1 = np.linalg.norm(np.diff(once, axis=0), axis=1)
        g2 = np.linalg.norm(np.diff(twice, axis=0), axis=1)
        assert np.all(np.abs(g2[: len(g1) - 1] - g1[: len(g2) - 1]) < 0.05)


def _point_to_polyline_distance(p, pts):
    best = np.inf
    for a, b in zip(pts[:-1], pts[1:]):
        ab = b - a
        t = np.clip((p - a) @ ab / (ab @ ab), 0, 1)
        best = min(best, np.linalg.norm(p - (a + t * ab)))
    return best


def test_resampled_points_lie_on_input_curve(rng):
    for _ in range(10):
        pts = np.cumsum(rng.uniform(0.3, 2.0, size=(20, 3)), axis=0)
        out = _resample(pts, 5.0)
        for p in out:
            assert _point_to_polyline_distance(p, pts) < 1e-9


#: A right tree far from every left branch used below.
FAR_RIGHT = ("r", "right", straight_line((100, 0, 0), (1, 0, 0), 3))


def test_merge_attached_child_unchanged():
    subject = make_subject([
        ("a", "left", straight_line((0, 0, 0), (0, 0, 1), 5)),
        ("b", "left", straight_line((0, 0, 10), (1, 0, 0), 4)),
        FAR_RIGHT,
    ])
    merged = merge_branch_origins(subject, 1.0)
    assert np.array_equal(merged.centerlines[1].points[0], [0, 0, 10])


def test_merge_snaps_nearby_start():
    parent = straight_line((0, 0, 0), (0, 0, 1), 5)
    child = straight_line((0.3, 0, 10), (1, 0, 0), 4)
    subject = make_subject([("a", "left", parent), ("b", "left", child), FAR_RIGHT])
    merged = merge_branch_origins(subject, 1.0)
    assert np.array_equal(merged.centerlines[1].points[0], parent[2])
    # only the start point moved
    assert np.array_equal(merged.centerlines[1].points[1:], child[1:])
    assert np.array_equal(merged.centerlines[0].points, parent)
    with pytest.raises(CenterlineError, match="^merge tolerance must be positive$"):
        merge_branch_origins(subject, 0)


def test_merge_later_start_ignores_an_earlier_start_s_old_position():
    a = ("a", "left", straight_line((0, 0, 0), (0, 0, 1), 5))
    # b's start is 1 mm from a[1] and moves there; c's start was 1.2 mm from
    # b's old start, and 2.2 mm from every point after the move
    b = ("b", "left", straight_line((1, 0, 5), (1, 0, 0), 3))
    c = ("c", "left", straight_line((2.2, 0, 5), (0, 1, 0), 3))
    subject = make_subject([a, b, c, FAR_RIGHT])
    merged = merge_branch_origins(subject, 1.5)
    assert np.array_equal(merged.centerlines[1].points[0], [0, 0, 5])
    assert np.array_equal(merged.centerlines[2].points, c[2])
    expected = merge_oracle(subject, 1.5)
    assert all(np.array_equal(cl.points, e) for cl, e in zip(merged.centerlines, expected))


def test_merge_start_moved_onto_a_later_branch_is_seen_by_its_start():
    # a's start moves 0.71 mm onto b[3]; b's start, 2.12 mm from a's old
    # start, is then 1.41 mm from a's moved start, the same bits as b[3]
    a = ("a", "left", straight_line((1.5, 1.5, 0), (0, 0, 1), 3))
    b = ("b", "left", [[0, 0, 0], [5, 0, 0], [5, 5, 0], [1, 1, 0]])
    subject = make_subject([a, b, FAR_RIGHT])
    merged = merge_branch_origins(subject, 1.5)
    assert np.array_equal(merged.centerlines[0].points[0], [1, 1, 0])
    assert np.array_equal(merged.centerlines[1].points, [[1, 1, 0], [5, 0, 0], [5, 5, 0], [1, 1, 0]])
    expected = merge_oracle(subject, 1.5)
    assert all(np.array_equal(cl.points, e) for cl, e in zip(merged.centerlines, expected))


def test_merge_never_joins_sides():
    left = straight_line((0, 0, 0), (0, 0, 1), 5)
    right = straight_line((0.3, 0, 10), (1, 0, 0), 4)
    subject = make_subject([("a", "left", left), ("b", "right", right)])
    merged = merge_branch_origins(subject, 1.0)
    assert np.array_equal(merged.centerlines[1].points, right)


def test_merge_keeps_synthetic_right_root_off_left_tree():
    # this subject's RCA root starts 1.44 mm from LCX vertex 7; snapping it
    # there joined the trees into 19 nodes and 27 edges
    rec = generate_corpus(GenParams(n_subjects=3, seed=8))[0][2]
    merged = merge_branch_origins(resample_subject(rec))
    rca = [cl.label for cl in rec.centerlines].index("RCA")
    assert np.array_equal(merged.centerlines[rca].points[0], rec.centerlines[rca].points[0])
    sg = build_segment_graph(merged)
    assert (sg.n_nodes, int(sg.adjacency.sum()) // 2) == (18, 24)


def test_merge_random_jittered_trees(rng):
    for _ in range(50):
        subject = random_tree_subject(rng, max_branches=10)
        # jitter every child start by < tol
        jittered = []
        for cl in subject.centerlines:
            pts = cl.points.copy()
            if not cl.branch_id.endswith("root"):
                pts[0] = pts[0] + rng.uniform(-0.5, 0.5, 3)
            jittered.append((cl.branch_id, cl.side, pts, cl.label))
        merged = merge_branch_origins(make_subject(jittered), 1.5)
        all_points = {
            (cl.branch_id, tuple(p)) for cl in merged.centerlines for p in cl.points
        }
        for cl in merged.centerlines:
            if cl.branch_id.endswith("root"):
                continue
            start = tuple(cl.points[0])
            # exhaustive O(n^2) scan: the start must coincide bit-exactly
            # with a point of some other branch
            assert any(
                bid != cl.branch_id and pt == start for bid, pt in all_points
            ), f"unattached child {cl.branch_id}"


def _oracle_subjects(rng) -> list[SubjectRecord]:
    """Random trees, and synthetic subjects raw and densified to 0.5 mm."""
    records, _ = generate_corpus(GenParams(n_subjects=8, seed=3))
    dense = [with_points(rec, [resample_oracle(cl.points, 0.5) for cl in rec.centerlines])
             for rec in records]
    return [random_tree_subject(rng, max_branches=14) for _ in range(30)] + records + dense


def test_resample_bit_identical_to_loop_oracle(rng):
    for subject in _oracle_subjects(rng):
        for spacing in (0.5, 5.0, 7.3):
            expected = [resample_oracle(cl.points, spacing) for cl in subject.centerlines]
            whole = resample_subject(subject, spacing).centerlines
            assert all(np.array_equal(cl.points, e) for cl, e in zip(whole, expected))
            for cl, e in zip(subject.centerlines, expected):
                assert np.array_equal(_resample(cl.points, spacing), e)


def test_resample_points_takes_no_branches():
    points, first, length = resample_points(np.empty((0, 3)), np.empty(0, np.intp), 5.0)
    assert points.shape == (0, 3) and len(first) == len(length) == 0
    for spacing in (0.0, float("inf"), float("nan")):
        with pytest.raises(CenterlineError, match="spacing must be positive"):
            resample_points(np.empty((0, 3)), np.empty(0, np.intp), spacing)


def test_merge_bit_identical_to_loop_oracle(rng):
    for subject in _oracle_subjects(rng):
        # every start moved by up to 0.5 mm per axis, so merges happen and
        # later starts can land on earlier moved ones
        jittered = with_points(subject, [
            np.vstack([cl.points[:1] + rng.uniform(-0.5, 0.5, 3), cl.points[1:]])
            for cl in subject.centerlines
        ])
        for tol in (0.5, 1.5, 4.0):
            merged = merge_branch_origins(jittered, tol)
            expected = merge_oracle(jittered, tol)
            assert all(np.array_equal(cl.points, e)
                       for cl, e in zip(merged.centerlines, expected))


def test_merge_tie_breaks_to_lower_branch_then_lower_point():
    b = ("b", "left", straight_line((2, 0, 0), (0, 0, 1), 5))
    a = ("a", "left", straight_line((0, 0, 0), (0, 0, 1), 5))
    # 1 mm from b[1] and a[1]; 2.5 mm from both neighbours along each line
    c = ("c", "left", straight_line((1, 0, 5), (1, 0, 0), 3))
    subject = make_subject([b, a, c, FAR_RIGHT])
    merged = merge_branch_origins(subject, 1.5)
    assert np.array_equal(merged.centerlines[2].points[0], b[2][1])
    assert np.array_equal(merged.centerlines[2].points[0], merge_oracle(subject, 1.5)[2][0])
    # within one branch: equidistant from a[1] and a[2], b out of reach
    d = ("d", "left", straight_line((-0.5, 0, 7.5), (-1, 0, 0), 3))
    merged = merge_branch_origins(make_subject([b, a, d, FAR_RIGHT]), 2.6)
    assert np.array_equal(merged.centerlines[2].points[0], a[2][1])


def _grid_subject(draw) -> SubjectRecord:
    """Branches of axis-aligned integer steps: arc lengths, targets and
    distances tie exactly, and a step back along its axis folds a branch.

    A 1e-200 step, taken only where it changes the point, has zero length,
    so a target can fall on a segment of length 0.
    """
    step = st.tuples(st.integers(0, 2), st.sampled_from([-3, -2, -1, 1, 2, 3, 1e-200]))
    branches = []
    for b in range(draw(st.integers(2, 7))):
        side = ("left", "right")[b] if b < 2 else draw(st.sampled_from(["left", "right"]))
        same_side = [pts for _, s, pts in branches if s == side]
        if same_side and draw(st.booleans()):
            parent = draw(st.sampled_from(same_side))
            start = parent[draw(st.integers(0, len(parent) - 1))]
            start = start + draw(st.sampled_from([0.0, 0.25, 0.5])) * np.array([1.0, 1.0, 0.0])
        else:
            start = np.array([40.0 * (side == "right"), 0.0, 0.0])
        pts = [start, start + (draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), 0, 0)]
        for axis, length in draw(st.lists(step, max_size=6)):
            p = pts[-1].copy()
            p[axis] += length
            if not np.array_equal(p, pts[-1]):
                pts.append(p)
        branches.append((f"{side}{b}", side, np.array(pts)))
    return make_subject(branches, "grid")


def _branch_oracle(branch_id: str, side: str, points) -> np.ndarray:
    """points as float64, or the error of the first per-branch check they
    fail, each check a loop of its own."""
    pts = np.asarray(points, dtype=np.float64)
    name = f"branch {branch_id!r}"
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise CenterlineError(f"{name}: points must be (n, 3)")
    if len(pts) < 2:
        raise CenterlineError(f"{name}: centerline too short")
    if not all(np.isfinite(x) for x in pts.flat):
        raise CenterlineError(f"{name}: non-finite coordinates")
    if any(np.array_equal(p, q) for p, q in zip(pts[:-1], pts[1:])):
        raise CenterlineError(f"{name}: consecutive duplicate points")
    if side not in ("left", "right"):
        raise CenterlineError(f"{name}: bad side {side!r}")
    return pts


def _fold_oracle(branch_id: str, points: np.ndarray) -> np.ndarray:
    """Resampled points, or the fold-back error when two in a row are equal."""
    if any(np.array_equal(p, q) for p, q in zip(points[:-1], points[1:])):
        raise CenterlineError(f"branch {branch_id!r}: curve folds back: resampled points coincide")
    return points


def _oracle_outcome(subject: SubjectRecord, arrays: list[np.ndarray], resampled: bool = False):
    """The oracle's (id, side, points, label) branches, or the error the
    first invalid branch raises; resampled arrays are checked for a fold-back first."""
    try:
        return [(cl.branch_id, cl.side,
                 _branch_oracle(cl.branch_id, cl.side, _fold_oracle(cl.branch_id, a) if resampled else a),
                 cl.label)
                for cl, a in zip(subject.centerlines, arrays)]
    except CenterlineError as exc:
        return str(exc)


def _outcome(fn, *args):
    """fn's record, or the message of the error it raises."""
    try:
        return fn(*args)
    except CenterlineError as exc:
        return str(exc)


def _same(got, expected) -> bool:
    if isinstance(got, str) or isinstance(expected, str):
        return got == expected
    return all(np.array_equal(cl.points, b[2]) for cl, b in zip(got.centerlines, expected))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    data=st.data(),
    spacing=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 0.7, 3.3]),
    tol=st.sampled_from([0.5, 1.0, 1.5, 4.0]),
)
def test_whole_subject_kernel_matches_loop_oracles(data, spacing, tol):
    subject = _grid_subject(data.draw)
    resampled = _outcome(resample_subject, subject, spacing)
    expected = _oracle_outcome(
        subject, [resample_oracle(cl.points, spacing) for cl in subject.centerlines], resampled=True
    )
    assert _same(resampled, expected)
    if isinstance(resampled, str):
        return
    assert _same(
        _outcome(merge_branch_origins, resampled, tol),
        _oracle_outcome(resampled, merge_oracle(resampled, tol)),
    )


#: Folds back on itself: at 0.2 mm voxels (2 mm spacing) the targets 4 and
#: 6 mm both land on (4, 0, 0).
FOLD_BACK = {"id": "a", "side": "left", "points": [[0, 0, 0], [5, 0, 0], [0, 0, 0]]}
#: Valid, but its one step squares to 0: zero arc length.
UNDERFLOW = {"id": "z", "side": "left", "points": [[0, 0, 0], [1e-200, 0, 0]]}
OVERFLOW = {"id": "o", "side": "left", "points": [[-1.7e308, 0, 0], [1.7e308, 0, 0]]}
#: Valid, but at 2 mm spacing it would resample to 5e11 points.
FAR = {"id": "f", "side": "left", "points": [[0, 0, 0], [1e12, 0, 5]]}


def _subject(*branches) -> SubjectRecord:
    """The branches plus a right one, at 0.2 mm voxels."""
    return parse_subject(json.dumps({
        "subject_id": "s", "voxel_spacing_mm": 0.2,
        "branches": [*branches, MINIMAL["branches"][1]],
    }))


def test_fold_back_resamples_onto_equal_consecutive_points():
    with pytest.raises(CenterlineError, match=r"^branch 'a': curve folds back: resampled points coincide$"):
        prepare_subject(_subject(FOLD_BACK))


@pytest.mark.parametrize(
    "branches, message",
    [
        ((FOLD_BACK, UNDERFLOW), "branch 'a': curve folds back: resampled points coincide"),
        ((UNDERFLOW, FOLD_BACK), "branch 'z': zero-length curve"),
        ((UNDERFLOW, FAR), "branch 'z': zero-length curve"),
        ((FAR, UNDERFLOW), f"branch 'f': resampling makes more than {MAX_RESAMPLED_POINTS} points"),
        ((FOLD_BACK, FAR), "branch 'a': curve folds back: resampled points coincide"),
    ],
)
def test_resample_names_first_bad_branch(branches, message):
    with pytest.raises(CenterlineError, match=f"^{message}$"):
        resample_subject(_subject(*branches))


@pytest.mark.parametrize("far", [1e30, 1e12])
def test_resampling_is_bounded_before_it_allocates(far):
    # 1e30 mm overflows an intp count of targets; 1e12 mm would ask for
    # 5e11 points
    branch = {"id": "f", "side": "left", "points": [[0, 0, 0], [far, 0, 5]]}
    message = f"^branch 'f': resampling makes more than {MAX_RESAMPLED_POINTS} points$"
    tracemalloc.start()
    try:
        with pytest.raises(CenterlineError, match=message):
            prepare_subject(_subject(MINIMAL["branches"][0], branch))
        with pytest.raises(CenterlineError, match=message):
            _resample(branch["points"], 2.0, "f")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_resampling_count_that_overflows_is_over_the_cap():
    points = np.array([[0.0, 0, 0], [1e10, 0, 0]])
    _, _, problems = resample_points(points, np.zeros(1, np.intp), 1e-299)
    assert problems == [f"branch 0: resampling makes more than {MAX_RESAMPLED_POINTS} points"]


@pytest.mark.parametrize("over", [0, 1])
def test_resampling_cap_counts_the_whole_subject(over):
    # at 2 mm spacing the other two branches resample to 4 points each, and
    # f to its interior targets plus its two end points; the error names the
    # branch at which the running total in file order passes the cap, the last
    interior = MAX_RESAMPLED_POINTS - 8 - 2 + over
    branch = {"id": "f", "side": "left", "points": [[0, 0, 0], [2 * interior + 1, 0, 0]]}
    subject = _subject(MINIMAL["branches"][0], branch)
    if over:
        with pytest.raises(CenterlineError, match="^branch 'b': resampling makes more than"):
            resample_subject(subject)
    else:
        assert len(resample_subject(subject).points) == MAX_RESAMPLED_POINTS


@pytest.mark.parametrize(
    "branches, message",
    [
        ((OVERFLOW, {**FOLD_BACK, "label": "XYZ"}), "branch 'o': arc length overflows"),
        (({**FOLD_BACK, "label": "XYZ"}, OVERFLOW), "branch 0: unknown label 'XYZ'"),
        ((FOLD_BACK, OVERFLOW, {**UNDERFLOW, "points": [[0, 0, 0]]}),
         "branch 'o': arc length overflows"),
    ],
)
def test_parse_names_first_bad_branch(branches, message):
    with pytest.raises(CenterlineError, match=f"^{message}$"):
        _subject(*branches)


#: Changes to a valid branch "x" that fail each per-branch check, in the order
#: they are checked, with the message when it is branch 1 of the file.
BRANCH_FAILURES = [
    ({"label": "XYZ"}, "branch 1: unknown label 'XYZ'"),
    ({"points": [[0, 0], [0, 5]]}, "branch 'x': points must be (n, 3)"),
    ({"points": [[0, 0, 0]]}, "branch 1: centerline too short"),
    ({"points": [[0, 0, 0], [0, float("nan"), 5]]}, "branch 'x': non-finite coordinates"),
    ({"points": [[0, 0, 0], [0, 0, 5], [0, 0, 5]]}, "branch 'x': consecutive duplicate points"),
    ({"side": "middle"}, "branch 'x': bad side 'middle'"),
    ({"points": OVERFLOW["points"]}, "branch 'x': arc length overflows"),
]


@pytest.mark.parametrize("k", range(len(BRANCH_FAILURES)),
                         ids=[m.split(": ", 1)[1] for _, m in BRANCH_FAILURES])
def test_parse_bytes_name_first_failing_branch_in_file_order(k):
    # branch 1 fails check k; later branches fail every other check, the
    # earlier checks last, so file order and not check order picks the message
    change, message = BRANCH_FAILURES[k]
    others = [c for j, (c, _) in enumerate(BRANCH_FAILURES) if j != k]
    ok = {"side": "left", "points": [[0, 0, 0], [0, 0, 5], [5, 0, 5]]}
    later = [{**ok, "id": f"y{j}", **c} for j, c in enumerate(reversed(others))]
    raw = json.dumps({
        "subject_id": "s", "voxel_spacing_mm": 0.5,
        "branches": [MINIMAL["branches"][0], {**ok, "id": "x", **change}, *later,
                     MINIMAL["branches"][1]],
    }).encode()
    with pytest.raises(CenterlineError) as exc:
        parse_subject(raw)
    assert str(exc.value) == message


def test_merge_names_first_bad_branch():
    # each child's start snaps onto the parent vertex equal to its own
    # second point
    parent = ("p", "left", straight_line((0, 0, 0), (1, 0, 0), 4))
    first = ("c1", "left", [[5.5, 0, 0], [5, 0, 0], [5, 5, 0]])
    second = ("c2", "left", [[10.5, 0, 0], [10, 0, 0], [10, 5, 0]])
    subject = make_subject([parent, second, first, FAR_RIGHT])
    with pytest.raises(CenterlineError, match=r"^branch 'c2': consecutive duplicate points$"):
        merge_branch_origins(subject, 1.0)
    subject = make_subject([parent, first, second, FAR_RIGHT])
    with pytest.raises(CenterlineError, match=r"^branch 'c1': consecutive duplicate points$"):
        merge_branch_origins(subject, 1.0)


def _parse_oracle(doc: dict) -> list[tuple]:
    """Each branch decoded alone and checked as (id, side, points, label), in file order."""
    branches = []
    for i, b in enumerate(doc["branches"]):
        try:
            pts = np.asarray(b["points"])
        except (TypeError, ValueError):
            pts = None
        if (pts is None or pts.dtype.kind not in "iuf"
                or any(isinstance(x, bool) for row in b["points"] for x in row)):
            raise CenterlineError(f"branch {i}: points must be an array of numbers")
        if pts.ndim != 2 or len(pts) < 2:
            raise CenterlineError(f"branch {i}: centerline too short")
        if b.get("label") is not None and b["label"] not in CLASSES_13:
            raise CenterlineError(f"branch {i}: unknown label {b['label']!r}")
        bid, side = str(b["id"]), str(b["side"])
        pts = _branch_oracle(bid, side, pts)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))[-1]):
                raise CenterlineError(f"branch {bid!r}: arc length overflows")
        branches.append((bid, side, pts, b.get("label")))
    return branches


def _prepare_oracle(branches: list[tuple], voxel: float) -> list[tuple]:
    """Resample and merge one branch at a time, checking every branch again."""
    resampled, made = [], 0
    for bid, side, pts, label in branches:
        total = np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))[-1]
        if not 0 < total < np.inf:
            problem = "zero-length curve" if not total > 0 else "arc length overflows"
            raise CenterlineError(f"branch {bid!r}: {problem}")
        made += max(np.floor((total - 1e-9 * 10 * voxel) / (10 * voxel)), 0) + 2
        if made > MAX_RESAMPLED_POINTS:
            raise CenterlineError(
                f"branch {bid!r}: resampling makes more than {MAX_RESAMPLED_POINTS} points")
        points = _branch_oracle(bid, side, _fold_oracle(bid, resample_oracle(pts, 10 * voxel)))
        resampled.append((bid, side, points, label))
    merged = merge_oracle(make_subject(resampled, "s", voxel), DEFAULT_MERGE_TOL_MM)
    return [(bid, side, _branch_oracle(bid, side, p), label)
            for (bid, side, _, label), p in zip(resampled, merged)]


#: Out 7.5 mm and back: at a 5 mm spacing, targets 5 and 10 mm meet.
FOLD_BACK_5MM = [[300, 0, 0], [307.5, 0, 0], [300, 0, 0]]


#: Mutations of one branch's points, side or label, given a point index k.
MUTATIONS = {
    "nan": lambda b, k: b["points"][k].__setitem__(k % 3, float("nan")),
    "inf": lambda b, k: b["points"][k].__setitem__(k % 3, float("-inf")),
    "repeat": lambda b, k: b["points"].insert(k, list(b["points"][k])),
    "side": lambda b, k: b.update(side="middle"),
    "one point": lambda b, k: b.update(points=b["points"][k:k + 1]),
    "label": lambda b, k: b.update(label="XYZ"),
    "span": lambda b, k: b.update(points=[[-1.7e308, 0, 0], [1.7e308, 0, 0]]),
    "fold back": lambda b, k: b.update(points=[list(p) for p in FOLD_BACK_5MM]),
    "string": lambda b, k: b["points"][k].__setitem__(0, "1"),
    "boolean": lambda b, k: b["points"][k].__setitem__(k % 3, k % 2 == 0),
    "far": lambda b, k: b["points"][-1].__setitem__(k % 3, 1e12),
}
_VALID = [json.loads(serialize_subject(rec)) for rec in generate_corpus(GenParams(n_subjects=3, seed=11))[0]]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    subject=st.sampled_from(range(len(_VALID))),
    mutations=st.lists(
        st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, 99), st.integers(0, 99)),
        max_size=3,
    ),
)
def test_array_path_errors_match_per_branch_oracle(subject, mutations):
    doc = json.loads(json.dumps(_VALID[subject]))
    for name, branch, point in mutations:
        b = doc["branches"][branch % len(doc["branches"])]
        MUTATIONS[name](b, point % len(b["points"]))
    raw = json.dumps(doc)
    parsed, expected = _outcome(parse_subject, raw), _raised(_parse_oracle, json.loads(raw))
    assert _same(parsed, expected)
    if isinstance(parsed, str):
        return
    assert _same(_outcome(prepare_subject, parsed),
                 _raised(_prepare_oracle, expected, parsed.voxel_spacing_mm))


def _raised(oracle, *args):
    """The oracle's branches, or the message of the error it raises."""
    try:
        return oracle(*args)
    except CenterlineError as exc:
        return str(exc)
