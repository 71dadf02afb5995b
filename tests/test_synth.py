from dataclasses import asdict, replace

import numpy as np
import pytest

from coroseg.centerline import CLASSES_13, prepare_subject, serialize_subject
from coroseg.graph import build_segment_graph, split_into_segments
from coroseg.synth import (
    DEFAULT_COUNT_PROBS,
    GROUP_SIZE,
    TEMPLATES,
    GenParams,
    generate_corpus,
    generate_subject,
)
from conftest import (
    _jitter_direction,
    generate_subject_oracle,
    segment_count_oracle,
    split_oracle,
)

SMALL = GenParams(n_subjects=20, seed=7)
#: No level-2 class: LAD and LCX get no children, so that level is empty.
NO_LEVEL_2 = dict(DEFAULT_COUNT_PROBS, **{
    c: (1.0,) for c, tpl in TEMPLATES.items() if tpl.parent in ("LAD", "LCX")
})


def test_templates_cover_all_classes():
    assert set(TEMPLATES) == set(CLASSES_13)
    assert set(DEFAULT_COUNT_PROBS) == set(CLASSES_13)
    order = list(TEMPLATES)
    for cls, tpl in TEMPLATES.items():
        if tpl.parent is not None:
            # subjects are built in TEMPLATES order: parents before their children
            assert order.index(tpl.parent) < order.index(cls)


def test_generate_subject_deterministic():
    a = generate_subject(SMALL, [7, 3])
    b = generate_subject(SMALL, [7, 3])
    assert a.subject_id == b.subject_id == "synthetic-0003"
    assert len(a.centerlines) == len(b.centerlines)
    for ca, cb in zip(a.centerlines, b.centerlines):
        assert ca.branch_id == cb.branch_id
        assert np.array_equal(ca.points, cb.points)
    c = generate_subject(SMALL, [7, 4])
    assert not np.array_equal(a.centerlines[0].points, c.centerlines[0].points)


def test_main_vessels_always_present_and_ordered():
    for i in range(15):
        rec = generate_subject(SMALL, [7, i])
        labels = [cl.label for cl in rec.centerlines]
        for main in ("LM", "LAD", "LCX", "RCA"):
            assert labels.count(main) == 1
        left = [cl for cl in rec.centerlines if cl.side == "left"]
        right = [cl for cl in rec.centerlines if cl.side == "right"]
        assert left[0].label == "LM"
        assert right[-1].label == "RCA"
        # file order is all left branches then all right branches
        sides = [cl.side for cl in rec.centerlines]
        assert sides == ["left"] * len(left) + ["right"] * len(right)


def test_children_attach_bit_exactly():
    roots = {"LM", "RCA"}
    for i in range(15):
        rec = generate_subject(SMALL, [7, i])
        point_sets = {
            cl.branch_id: {tuple(p) for p in cl.points} for cl in rec.centerlines
        }
        for cl in rec.centerlines:
            if cl.label in roots:
                continue
            start = tuple(cl.points[0])
            assert any(
                start in pts
                for bid, pts in point_sets.items()
                if bid != cl.branch_id
            ), f"{cl.branch_id} start not on any parent"


def test_subjects_survive_full_pipeline():
    for i in range(10):
        rec = generate_subject(SMALL, [7, i])
        sg = build_segment_graph(prepare_subject(rec))
        assert sg.n_nodes >= 6
        assert all(lb in CLASSES_13 for lb in sg.labels)
        assert np.all(np.isfinite(sg.features))
        # connected line graph per side implies no isolated labeled node
        # beyond single-segment sides
        assert sg.adjacency.sum() > 0


def test_manifest_recount_oracle():
    records, manifest = generate_corpus(SMALL)
    assert manifest["n_subjects"] == len(records) == 20
    branches = {c: 0 for c in TEMPLATES}
    for rec in records:
        for cl in rec.centerlines:
            branches[cl.label] += 1
    assert branches == manifest["per_class_branches"]
    for rec, entry in zip(records, manifest["subjects"]):
        assert entry["subject_id"] == rec.subject_id
        assert entry["n_branches"] == len(rec.centerlines)
        prepared = prepare_subject(rec)
        assert entry["n_segments"] == segment_count_oracle(prepared)
        assert entry["n_segments"] == len(split_into_segments(prepared).segments)
    total_segments = sum(manifest["per_class_segments"].values())
    assert total_segments == sum(e["n_segments"] for e in manifest["subjects"])


def test_corpus_calibration_against_published_averages():
    # published cohort: 11.36 branches and 22.87 segments per subject
    _, manifest = generate_corpus(GenParams(n_subjects=141, seed=0))
    assert abs(manifest["avg_branches"] - 11.36) <= 0.15 * 11.36
    assert abs(manifest["avg_segments"] - 22.87) <= 0.15 * 22.87
    # every class, including the rare left posterior vessels, is represented
    assert all(n > 0 for n in manifest["per_class_branches"].values())


def test_low_noise_preset():
    params = GenParams.low_noise(n_subjects=5, seed=1)
    assert params.direction_jitter_rad < GenParams().direction_jitter_rad
    assert params.junction_jitter_mm < GenParams().junction_jitter_mm
    assert params.n_subjects == 5
    records, _ = generate_corpus(params)
    for rec in records:
        build_segment_graph(prepare_subject(rec))


def test_rotation_can_be_disabled():
    params = replace(SMALL, rotate=False, translation_range_mm=0.0)
    rec = generate_subject(params, [7, 0])
    lm = next(cl for cl in rec.centerlines if cl.label == "LM")
    # without the rigid motion the LM root starts at the canonical origin
    assert np.allclose(lm.points[0], [0.0, 0.0, 0.0])


def test_generator_bit_identical_to_loop_oracle():
    # no level-2 class: LAD and LCX get no children, so that level is empty
    no_level_2 = dict(DEFAULT_COUNT_PROBS, **{
        c: (1.0,) for c, tpl in TEMPLATES.items() if tpl.parent in ("LAD", "LCX")
    })
    cases = [(preset, seed, 6) for preset in (GenParams(), GenParams.low_noise())
             for seed in (0, 3, 8)]
    cases += [(params, 5, 4) for params in (
        GenParams(wobble_rad=0.0),
        GenParams(direction_jitter_rad=0.0),
        GenParams.low_noise(rotate=False),
        GenParams(wobble_rad=0.0, rotate=False),
        GenParams(count_probs=no_level_2),
    )]
    for params, seed, n in cases:
        for i in range(n):
            got = serialize_subject(generate_subject(params, [seed, i]))
            assert got == serialize_subject(generate_subject_oracle(params, [seed, i]))
    rec = generate_subject(GenParams(count_probs=no_level_2), [5, 0])
    assert [cl.label for cl in rec.centerlines][:3] == ["LM", "LAD", "LCX"]
    assert len([cl for cl in rec.centerlines if cl.side == "left"]) == 3
    # two LADs and an LCX on an LM of two interior vertices: once every interior
    # vertex is used, a child shares a junction (subjects 0-2; subject 3's LM has three)
    two_lads = GenParams(count_probs=dict(DEFAULT_COUNT_PROBS, LAD=(0, 0, 1)))
    for i in range(4):
        rec = generate_subject(two_lads, [1, i])
        assert serialize_subject(rec) == serialize_subject(generate_subject_oracle(two_lads, [1, i]))
        lm, lad1, _, lcx = rec.centerlines[:4]
        assert (len(lm.points) == 4) == np.array_equal(lad1.points[0], lcx.points[0])


def _census_oracle(params, records) -> dict:
    """The corpus manifest, counted subject by subject with the split oracle."""
    branches, segments, subjects = dict.fromkeys(TEMPLATES, 0), dict.fromkeys(TEMPLATES, 0), []
    for rec in records:
        pieces = split_oracle(prepare_subject(rec)).segments
        for cl in rec.centerlines:
            branches[cl.label] += 1
        for seg in pieces:
            segments[seg.label] += 1
        subjects.append({"subject_id": rec.subject_id, "n_branches": len(rec.centerlines),
                         "n_segments": len(pieces)})
    n = len(records)
    return {"params": asdict(params), "n_subjects": n, "per_class_branches": branches,
            "per_class_segments": segments,
            "avg_branches": sum(s["n_branches"] for s in subjects) / n,
            "avg_segments": sum(s["n_segments"] for s in subjects) / n, "subjects": subjects}


def test_corpus_equals_loop_oracle_across_groups():
    # one whole group and a part-filled one
    n = GROUP_SIZE + 3
    for params in (
        GenParams(n_subjects=n, seed=4),
        GenParams.low_noise(n_subjects=n, seed=4),
        GenParams(n_subjects=n, seed=4, wobble_rad=0.0),
        GenParams(n_subjects=n, seed=4, rotate=False),
        GenParams(n_subjects=n, seed=4, count_probs=NO_LEVEL_2),
    ):
        records, manifest = generate_corpus(params)
        expected = [generate_subject_oracle(params, [4, i]) for i in range(n)]
        assert [serialize_subject(r) for r in records] == [serialize_subject(e) for e in expected]
        assert manifest == _census_oracle(params, expected)


@pytest.mark.parametrize("name", ["direction_jitter_rad", "length_jitter_frac",
                                  "attach_jitter_frac", "bend_jitter_frac",
                                  "wobble_rad", "junction_jitter_mm",
                                  "translation_range_mm"])
@pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
def test_params_reject_bad_noise_scales(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0, not {value!r}$"):
        GenParams(**{name: value})
    GenParams(**{name: 0.0})


def test_params_reject_a_negative_seed():
    # numpy's default_rng stopped on it with "expected non-negative integer"
    with pytest.raises(ValueError, match="^seed must be >= 0, not -1$"):
        GenParams(seed=-1)
    with pytest.raises(ValueError, match="^seed must be >= 0, not -1$"):
        GenParams.low_noise(seed=-1)


@pytest.mark.parametrize("probs", [(0.0, 0.0), (), (-0.5, 1.5), (float("nan"), 1.0),
                                   (float("inf"), 1.0), (1e308, 1e308)])
def test_params_reject_bad_count_probs(probs):
    with pytest.raises(ValueError) as err:
        GenParams(count_probs=dict(DEFAULT_COUNT_PROBS, S=probs))
    assert str(err.value).startswith("count_probs['S'] must be finite and >= 0 with a positive sum")
    assert "\n" not in str(err.value)
    missing = {c: p for c, p in DEFAULT_COUNT_PROBS.items() if c != "AM"}
    with pytest.raises(ValueError, match="^count_probs has no entry for class 'AM'$"):
        GenParams(count_probs=missing)


@pytest.mark.parametrize("cls, probs, child", [("LAD", (0.5, 0.5), "R"), ("LM", (1.0, 0.0), "LAD")])
def test_params_reject_a_child_that_can_outlive_its_parent(cls, probs, child):
    # generate_corpus stopped with a bare KeyError on these
    message = f"^count_probs\\[{child!r}\\] can draw a branch where its parent {cls!r} draws none$"
    with pytest.raises(ValueError, match=message):
        GenParams(count_probs=dict(DEFAULT_COUNT_PROBS, **{cls: probs}))
    # a parent that can draw no branch is fine when none of its children can
    no_children = {c: (1.0,) for c, tpl in TEMPLATES.items() if tpl.parent == "LAD"}
    generate_corpus(GenParams(n_subjects=4, count_probs=dict(DEFAULT_COUNT_PROBS, LAD=(0.5, 0.5),
                                                             **no_children)))
    GenParams(), GenParams.low_noise()


class _ForcedNormals:
    """A Generator whose standard normals at chosen stream positions take
    given values; normal() is loc + scale * standard_normal(), as numpy's."""

    def __init__(self, rng, forced):
        self._rng, self._forced, self._n = rng, forced, 0

    def standard_normal(self, size=None):
        z = np.array(self._rng.standard_normal(size), dtype=float)
        flat = z.reshape(-1)
        for k in range(flat.size):
            flat[k] = self._forced.get(self._n + k, flat[k])
        self._n += flat.size
        return z if size is not None else float(z)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return loc + scale * self.standard_normal(size)

    def random(self, size=None):
        return self._rng.random(size)

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)


def test_axis_drawn_along_the_direction_raises_as_the_loop_does(monkeypatch):
    # No real seed draws such an axis (about 5e-19 per axis). LM comes first
    # and draws no anchor, so its normals start the stream: with jitter, the
    # jitter axis (0-2), angle, length, bend, bend axis (6-8) and curl axis
    # (9-11); without, length, bend, bend axis (2-4) and curl axis (5-7). Each
    # case forces an axis along LM's direction, so the loop oracle raises too.
    # LM's direction after its jitter in subject [2, 1], replayed by the oracle:
    replay = np.random.default_rng([2, 1])
    replay.random()  # LM's count
    jittered = _jitter_direction(replay, np.array([0.0, 0.0, 1.0]), GenParams().direction_jitter_rad)
    cases = [
        (GenParams(n_subjects=3, seed=2), {0: 0.0, 1: 0.0, 2: 1.5}),
        (GenParams(n_subjects=3, seed=2), dict(zip((6, 7, 8), 2.0 * jittered))),
        (GenParams(n_subjects=3, seed=2, direction_jitter_rad=0.0), {2: 0.0, 3: 0.0, 4: 3.0}),
    ]
    message = "^synthetic-0001: branch 'LM' drew an axis along its direction$"
    default_rng = np.random.default_rng
    for params, forced in cases:
        # only the middle subject of the group draws a parallel axis
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _ForcedNormals(
            default_rng(seed), forced if list(seed) == [2, 1] else {}))
        with pytest.raises(ValueError, match=message):
            generate_corpus(params)
        with pytest.raises(ValueError, match="drew an axis along its direction"):
            generate_subject_oracle(params, [2, 1])
        monkeypatch.undo()
