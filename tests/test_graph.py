import json

import numpy as np
import pytest

from coroseg.centerline import prepare_subject
from coroseg.graph import (
    EMBED_DIM,
    GraphBuildError,
    build_reference_frame,
    build_segment_graph,
    line_graph_adjacency,
    node_embedding,
    segment_graph_to_json,
    spherical_encode,
    split_into_segments,
)
from coroseg.synth import GenParams, generate_corpus
from conftest import (
    junction_oracle,
    line_graph_oracle,
    make_subject,
    random_rigid_motion,
    random_tree_subject,
    resample_oracle,
    segment_count_oracle,
    split_oracle,
    straight_line,
    transform_subject,
    two_branch_subject,
    with_points,
)


def test_split_two_branch_subject():
    skel = split_into_segments(two_branch_subject())
    ids = [s.segment_id for s in skel.segments]
    # branch A is cut once where B attaches, B and R stay whole
    assert ids == ["A#0", "A#1", "B#0", "R#0"]
    assert len(skel.junction_rows) == 6
    a0, a1, b0, _ = skel.segments
    assert a0.end_junction == a1.start_junction == b0.start_junction
    assert np.array_equal(np.vstack([a0.points, a1.points[1:]]), two_branch_subject().centerlines[0].points)


def test_split_counts_vs_oracle_random_trees(rng):
    for _ in range(100):
        subject = random_tree_subject(rng, max_branches=12)
        skel = split_into_segments(subject)
        assert len(skel.segments) == segment_count_oracle(subject)
        expected = {tuple(np.asarray(p)) for p in junction_oracle(subject)}
        got = {tuple(p) for p in skel.points[skel.junction_rows]}
        assert got == expected


def test_split_rejects_dangling_branch():
    subject = make_subject([
        ("a", "left", straight_line((0, 0, 0), (0, 0, 1), 4)),
        ("floater", "left", straight_line((99, 99, 0), (1, 0, 0), 4)),
        ("r", "right", straight_line((50, 0, 0), (0, 1, 0), 4)),
    ])
    with pytest.raises(GraphBuildError, match="dangling"):
        split_into_segments(subject)


def _assert_same_split(subject):
    new, old = split_into_segments(subject), split_oracle(subject)
    junctions = new.points[new.junction_rows]
    assert [s.segment_id for s in new.segments] == [s.segment_id for s in old.segments]
    assert [s.label for s in new.segments] == [s.label for s in old.segments]
    for s, o in zip(new.segments, old.segments):
        assert np.array_equal(s.points, o.points)
        assert tuple(junctions[s.start_junction]) == tuple(old.junctions[o.start_junction])
        assert tuple(junctions[s.end_junction]) == tuple(old.junctions[o.end_junction])
    assert len(junctions) == len(old.junctions)
    assert {tuple(p) for p in junctions} == {
        tuple(p) for p in old.junctions.values()}
    assert np.array_equal(line_graph_adjacency(new), line_graph_oracle(old))


def test_split_matches_loop_oracle(rng):
    records, _ = generate_corpus(GenParams(n_subjects=8, seed=3))
    dense = [with_points(rec, [resample_oracle(cl.points, 0.5) for cl in rec.centerlines])
             for rec in records]
    trees = [random_tree_subject(rng, max_branches=14) for _ in range(30)]
    for subject in trees + [prepare_subject(rec) for rec in records + dense]:
        _assert_same_split(subject)


def test_split_treats_negative_zero_as_zero():
    a = straight_line((0, 0, -5), (0, 0, 1), 3)  # a[1] is (0.0, 0.0, 0.0)
    b = straight_line((0, 0, 0), (1, 0, 0), 3)
    b[0] = [-0.0, 0.0, -0.0]
    r = straight_line((50, 0, 0), (0, 1, 0), 3)
    subject = make_subject([("A", "left", a), ("B", "left", b), ("R", "right", r)], "negzero")
    skel = split_into_segments(subject)
    assert [s.segment_id for s in skel.segments] == ["A#0", "A#1", "B#0", "R#0"]
    assert skel.segments[0].end_junction == skel.segments[2].start_junction
    _assert_same_split(subject)


TRIANGLE = [
    ("A", "left", [[0, 0, 0], [0, 0, 5], [0, 0, 10]]),
    ("B", "left", [[0, 0, 5], [5, 0, 5], [0, 0, 0]]),
]
RIGHT_TREE = ("R", "right", straight_line((50, 0, 0), (0, 1, 0), 4))


@pytest.mark.parametrize(
    "branches, message",
    [
        # each start lies on the other branch: three segments, three junctions
        (TRIANGLE, "not a tree: left side has 3 segments on 3 junctions"),
        # the same cycle beside a separate branch: counts fit, connectivity fails
        (TRIANGLE + [("F", "left", [[99, 99, 0], [99, 99, 5]])],
         "not a tree: left side has 4 segments on 5 junctions"),
    ],
)
def test_split_rejects_side_that_is_not_one_tree(branches, message):
    subject = make_subject([*branches, RIGHT_TREE])
    with pytest.raises(GraphBuildError, match=message):
        split_into_segments(subject)


def test_split_keeps_sides_apart_at_a_shared_point():
    # R starts exactly on a vertex of L: the two trees must still not meet
    subject = make_subject([
        ("L", "left", [[0, 0, 0], [0, 0, 5], [0, 0, 10], [0, 0, 15]]),
        ("R", "right", [[0, 0, 10], [5, 0, 10], [10, 0, 10]]),
    ], "cross")
    skel = split_into_segments(subject)
    assert [s.segment_id for s in skel.segments] == ["L#0", "R#0"]
    assert np.array_equal(line_graph_adjacency(skel), [[0, 0], [0, 0]])
    _assert_same_split(subject)
    sg = build_segment_graph(prepare_subject(subject))
    assert sg.node_ids == ("L#0", "R#0")
    assert not sg.adjacency.any()


def test_split_two_branches_sharing_an_ostium():
    lad = straight_line((0, 0, 0), (0, 0, 1), 4)
    lcx = straight_line((0, 0, 0), (1, 0, 0), 4)
    subject = make_subject([("LAD", "left", lad), ("LCX", "left", lcx), RIGHT_TREE], "ostium")
    skel = split_into_segments(subject)
    assert [s.segment_id for s in skel.segments] == ["LAD#0", "LCX#0", "R#0"]
    assert np.array_equal(line_graph_adjacency(skel), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def test_line_graph_vs_pairwise_oracle(rng):
    for _ in range(50):
        skel = split_into_segments(random_tree_subject(rng, max_branches=14))
        adj = line_graph_adjacency(skel)
        assert np.array_equal(adj, line_graph_oracle(skel))
        assert np.array_equal(adj, adj.T)
        assert not np.any(np.diag(adj))


def test_line_graph_edge_count_by_junction_degree(rng):
    # independent counting oracle: a junction touched by m segments
    # contributes m*(m-1)/2 edges; in a tree no pair shares two junctions
    for _ in range(50):
        skel = split_into_segments(random_tree_subject(rng, max_branches=14))
        incidence = {}
        for s in skel.segments:
            for j in (s.start_junction, s.end_junction):
                incidence[j] = incidence.get(j, 0) + 1
        expected = sum(m * (m - 1) // 2 for m in incidence.values())
        assert line_graph_adjacency(skel).sum() == 2 * expected


def test_reference_frame_hand_case():
    subject = two_branch_subject()
    frame = build_reference_frame(subject)
    assert np.array_equal(frame.origin, [0, 0, 0])
    # z from the first two points of branch A
    assert np.allclose(frame.basis[2], [0, 0, 1])
    # control = last point of R at (50, 15, 0); projected out of z it points +x-ish
    control = subject.centerlines[2].points[-1]
    w = control - frame.origin
    y = w - (w @ frame.basis[2]) * frame.basis[2]
    assert np.allclose(frame.basis[1], y / np.linalg.norm(y))
    assert np.allclose(frame.basis[0], np.cross(frame.basis[1], frame.basis[2]))


def test_reference_frame_orthonormal_right_handed(rng):
    for _ in range(30):
        frame = build_reference_frame(random_tree_subject(rng))
        b = frame.basis
        assert np.allclose(b @ b.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(b) > 0.999999
        assert frame.scale_mm > 0


def test_reference_frame_degenerate_control():
    # control point along the z-axis leaves the y-axis undefined
    subject = make_subject([
        ("a", "left", straight_line((0, 0, 0), (0, 0, 1), 4)),
        ("r", "right", [[0, 0, 40], [1, 0, 41], [0, 0, 90]]),
    ])
    with pytest.raises(GraphBuildError, match="degenerate"):
        build_reference_frame(subject)


HAND_VALUES = [
    ([1.0, 0, 0], [1, 1, 0, 0, 1]),
    ([0, 0, 2.0], [2, 1, 0, 1, 0]),
    ([0, 0, -2.0], [2, 1, 0, -1, 0]),
    ([1e-12, 0, 2.0], [2, 1, 0, 1, 5e-13]),  # rho below 1e-9 r: no azimuth
    ([0, 0, 0], [0, 1, 0, 1, 0]),
]


def test_spherical_encode_hand_values():
    for q, expected in HAND_VALUES:
        assert np.allclose(spherical_encode(np.array(q)), expected, rtol=0, atol=1e-15)
    assert np.array_equal(spherical_encode(np.zeros(3)), [0, 1, 0, 1, 0])


def test_spherical_encode_batched_hand_values():
    qs = np.array([q for q, _ in HAND_VALUES])
    out = spherical_encode(qs)
    assert out.shape == (len(HAND_VALUES), 5)
    assert np.allclose(out, [e for _, e in HAND_VALUES], rtol=0, atol=1e-15)
    assert np.array_equal(out[-1], [0, 1, 0, 1, 0])
    # any leading shape: (2, 5, 3) -> (2, 5, 5), rows as in the flat batch
    stacked = spherical_encode(np.stack([qs, -qs]))
    assert stacked.shape == (2, len(HAND_VALUES), 5)
    assert np.array_equal(stacked[0], out)


def test_spherical_encode_reconstructs_vector(rng):
    for _ in range(200):
        q = rng.normal(size=3) * rng.uniform(0.01, 10)
        r, ca, sa, ce, se = spherical_encode(q)
        assert abs(ca * ca + sa * sa - 1) < 1e-12
        assert abs(ce * ce + se * se - 1) < 1e-12
        back = r * np.array([se * ca, se * sa, ce])
        assert np.allclose(back, q, atol=1e-12)


def test_node_embedding_layout():
    subject = two_branch_subject()
    frame = build_reference_frame(subject)
    skel = split_into_segments(subject)
    segments = skel.segments
    emb = node_embedding(skel, frame)
    assert emb.shape == (len(segments), EMBED_DIM)

    # one batched product per subject rounds differently from one per point
    def close(a, b):
        return np.allclose(a, b, rtol=0, atol=16 * np.finfo(np.float64).eps)

    for seg, row in zip(segments, emb):
        pts = seg.points
        mid = pts[(len(pts) - 1) // 2]
        assert close(row[0:3], frame.to_local(pts[0]))
        assert close(row[3:8], spherical_encode(frame.to_local(pts[0])))
        assert close(row[8:11], frame.to_local(mid))
        assert close(row[16:19], frame.to_local(pts[-1]))
        assert close(row[24:27], frame.vector_to_local(pts[1] - pts[0]))
        assert close(row[32:35], frame.vector_to_local(mid - pts[0]))
        assert close(row[40:43], frame.vector_to_local(pts[-1] - mid))
        assert close(row[43:48], spherical_encode(frame.vector_to_local(pts[-1] - mid)))


def test_embeddings_invariant_to_rigid_motion(rng):
    for _ in range(20):
        subject = random_tree_subject(rng, max_branches=10)
        base = build_segment_graph(subject)
        rot, trans = random_rigid_motion(rng)
        moved = build_segment_graph(transform_subject(subject, rot, trans))
        assert moved.node_ids == base.node_ids
        assert np.max(np.abs(moved.features - base.features)) < 1e-9
        assert np.array_equal(moved.adjacency, base.adjacency)


def test_embeddings_invariant_to_uniform_rescale(rng):
    subject = random_tree_subject(rng, max_branches=10)
    base = build_segment_graph(subject)
    scaled = with_points(subject, [cl.points * 3.0 for cl in subject.centerlines])
    out = build_segment_graph(scaled)
    assert np.max(np.abs(out.features - base.features)) < 1e-9


def test_build_segment_graph_labels_inherited():
    sg = build_segment_graph(two_branch_subject())
    assert sg.labels == ("LM", "LM", "LAD", "RCA")
    assert list(sg.label_indices(["LM", "LAD", "RCA"])) == [0, 0, 1, 2]
    assert list(sg.label_indices(["LAD"])) == [-1, -1, 0, -1]


def test_full_pipeline_from_raw_subject(rng):
    # raw (unresampled, jittered starts) subject through prepare + build
    subject = random_tree_subject(rng, max_branches=8)
    sg = build_segment_graph(prepare_subject(subject))
    assert sg.features.shape == (sg.n_nodes, EMBED_DIM)
    assert np.all(np.isfinite(sg.features))


def test_segment_graph_json_schema():
    sg = build_segment_graph(two_branch_subject())
    doc = json.loads(segment_graph_to_json(sg))
    assert {n["id"] for n in doc["nodes"]} == set(sg.node_ids)
    assert all(len(n["features"]) == EMBED_DIM for n in doc["nodes"])
    assert doc["nodes"][0]["label"] == "LM"
    rebuilt = np.zeros_like(sg.adjacency)
    for i, j in doc["edges"]:
        rebuilt[i, j] = rebuilt[j, i] = 1.0
    assert np.array_equal(rebuilt, sg.adjacency)


def test_segment_graph_json_one_node_per_line():
    sg = build_segment_graph(two_branch_subject())
    text = segment_graph_to_json(sg)
    doc = json.loads(text)
    lines = text.splitlines()
    assert lines[0] == '{"nodes": ['
    assert [json.loads(line.rstrip(",")) for line in lines[1 : 1 + sg.n_nodes]] == doc["nodes"]
    assert lines[1 + sg.n_nodes :] == ["],", '"edges": ' + json.dumps(doc["edges"]) + "}"]
    assert [n["features"] for n in doc["nodes"]] == sg.features.tolist()


def test_labelling_reaches_each_stage_through_its_module_binding(monkeypatch):
    # perfbench's tracer times each stage by rebinding these module names; a
    # stage reached any other way would read zero in its per-layer metric
    from coroseg import centerline, graph
    from coroseg.centerline import parse_subject, serialize_subject
    from coroseg.synth import generate_subject

    stages = [
        (centerline, "resample_subject"), (centerline, "merge_branch_origins"),
        (graph, "split_into_segments"), (graph, "line_graph_adjacency"),
        (graph, "build_reference_frame"), (graph, "node_embedding"),
    ]
    calls = {name: 0 for _, name in stages}
    for module, name in stages:
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    raw = serialize_subject(generate_subject(GenParams(), [5, 0]))
    graph.build_segment_graph(centerline.prepare_subject(parse_subject(raw)))
    assert calls == {name: 1 for _, name in stages}
