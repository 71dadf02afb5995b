"""A subject's outputs depend only on that subject: properties over generated
corpora, hypothesis-derandomized and bounded.

- densification: a midpoint inserted between every two consecutive points
  of every branch traces the same curves, so the graph keeps its node ids,
  labels and adjacency, and its features move only by rounding;
- batch company: a subject's logits are the same, bit for bit, whether
  `model_forward` sees it alone or inside a block-diagonal batch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coroseg.centerline import SubjectRecord, prepare_subject
from coroseg.graph import build_segment_graph
from coroseg.models import ModelConfig, init_model, model_forward
from coroseg.synth import PRESETS, GenParams, generate_corpus
from coroseg.training import _batch


def _densified(rec: SubjectRecord) -> SubjectRecord:
    """rec with the midpoint of every two consecutive points of a branch inserted."""
    pieces = []
    for lo, hi in zip(rec.first, np.append(rec.first[1:], len(rec.points))):
        p = rec.points[lo:hi]
        out = np.empty((2 * len(p) - 1, 3))
        out[0::2], out[1::2] = p, (p[:-1] + p[1:]) / 2
        pieces.append(out)
    sizes = np.array([len(p) for p in pieces])
    return replace(rec, points=np.concatenate(pieces), first=np.cumsum(sizes) - sizes)


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(preset=st.sampled_from(list(PRESETS)), seed=st.integers(0, 2**16))
def test_densified_branches_build_the_same_graph(preset, seed):
    for rec in generate_corpus(GenParams(n_subjects=6, seed=seed, preset=preset))[0]:
        sg = build_segment_graph(prepare_subject(rec))
        dense = build_segment_graph(prepare_subject(_densified(rec)))
        assert dense.node_ids == sg.node_ids, rec.subject_id
        assert dense.labels == sg.labels, rec.subject_id
        assert np.array_equal(dense.adjacency, sg.adjacency), rec.subject_id
        assert np.abs(dense.features - sg.features).max() <= 1e-9, rec.subject_id


@pytest.fixture(scope="module")
def graphs():
    """30 default-preset subjects as segment graphs."""
    records, _ = generate_corpus(GenParams(n_subjects=30, seed=0))
    return [build_segment_graph(prepare_subject(rec)) for rec in records]


@pytest.mark.parametrize("variant", [
    "gcn",
    pytest.param("gat", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 16: gat_head's (n, 32) @ (32, 1) score products round "
        "a row differently with the row count"))),
    "gin",
    "sage",
])
def test_a_subjects_logits_do_not_depend_on_its_batch(graphs, variant):
    model = init_model(ModelConfig(variant))
    feats, _, gs = _batch(graphs, model.config.classes)
    batched = model_forward(model, feats, gs).data
    lo = 0
    for i, sg in enumerate(graphs):
        feats, _, gs = _batch([sg], model.config.classes)
        alone = model_forward(model, feats, gs).data
        assert np.array_equal(alone, batched[lo : lo + sg.n_nodes]), f"subject {i}"
        lo += sg.n_nodes
