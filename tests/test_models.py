import numpy as np
import pytest
from conftest import init_model_oracle, structure_oracle

from coroseg import models
from coroseg.autodiff import Edges, Tensor, backward, softmax_cross_entropy
from coroseg.models import (
    VARIANTS,
    GraphStructure,
    ModelConfig,
    ModelError,
    gat_head,
    gcn_layer,
    gin_layer,
    init_model,
    load_model,
    model_forward,
    sage_layer,
    save_model,
)

PATH3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)


def _random_adjacency(rng, n):
    adj = np.triu((rng.uniform(size=(n, n)) < 0.4).astype(float), 1)
    return adj + adj.T


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"variant": "mlp"}, "unknown variant"),
        ({"variant": "gcn", "hidden_dim": 0}, "positive"),
        ({"variant": "gcn", "num_classes": 12}, "11 or 13"),
        ({"variant": "gat", "hidden_dim": 9, "gat_heads": 2}, "divide evenly"),
        ({"variant": "gcn", "seed": -1}, "^seed must be >= 0, not -1$"),
        ({"variant": "gcn", "in_dim": 1025}, "^config field 'in_dim' must be <= 1024, not 1025$"),
    ],
)
def test_config_validation(kwargs, message):
    with pytest.raises(ModelError, match=message):
        ModelConfig(**kwargs)


def test_gcn_layer_hand_case_path_graph():
    gs = GraphStructure.from_adjacency(PATH3)
    # degrees with self-loop: 2, 3, 2
    expected = np.array(
        [
            [1 / 2, 1 / np.sqrt(6), 0],
            [1 / np.sqrt(6), 1 / 3, 1 / np.sqrt(6)],
            [0, 1 / np.sqrt(6), 1 / 2],
        ]
    )
    params = {"w1": Tensor(np.eye(3)), "b1": Tensor(np.zeros((1, 3)))}
    cfg = ModelConfig("gcn", in_dim=3, hidden_dim=3)
    out = gcn_layer(Tensor(np.eye(3)), gs, params, 1, cfg).data
    assert np.allclose(out, expected, atol=1e-12)


def _assert_same_edges(edges, oracle):
    for name in ("src", "dst", "dst_slot", "src_slot", "by_dst", "by_src"):
        assert np.array_equal(getattr(edges, name), getattr(oracle, name)), name
    assert edges.n_nodes == oracle.n_nodes


def test_structure_derives_neighbors_and_weights_like_two_edge_set_oracle(rng):
    adjs = [np.zeros((1, 1)), np.zeros((3, 3)), PATH3]
    adjs += [_random_adjacency(rng, n) for n in rng.integers(1, 12, size=20)]
    batches = [[adjs[i] for i in rng.choice(len(adjs), size=k)] for k in range(2, 9)]
    cases = [(GraphStructure.from_adjacency(a), [a]) for a in adjs]
    cases += [
        (GraphStructure.block_diagonal([GraphStructure.from_adjacency(a) for a in b]), b)
        for b in batches
    ]
    for gs, parts in cases:
        oracles = [structure_oracle(a) for a in parts]
        neighbors, with_loops = (Edges.disjoint_union([o[i] for o in oracles]) for i in (0, 1))
        _assert_same_edges(gs, with_loops)
        _assert_same_edges(gs.neighbors, neighbors)
        weight = np.concatenate([o[2] for o in oracles])
        assert gs.gcn_weight.tobytes() == weight.tobytes()
    # GAT reads only the self-looped edges, so it builds neither derived view
    gs = GraphStructure.block_diagonal([GraphStructure.from_adjacency(a) for a in batches[-1]])
    model_forward(init_model(ModelConfig("gat", in_dim=4, hidden_dim=4)),
                  rng.normal(size=(gs.n_nodes, 4)), gs)
    assert not {"neighbors", "gcn_weight"} & set(vars(gs))


@pytest.mark.parametrize("variant", VARIANTS)
def test_block_diagonal_batch_matches_per_graph_forward(variant, rng):
    cfg = ModelConfig(variant, in_dim=48, hidden_dim=8, num_classes=13, seed=5)
    model = init_model(cfg)
    with_isolated = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 0]])
    adjs = [PATH3, _random_adjacency(rng, 6), with_isolated, np.zeros((1, 1))]
    feats = [rng.normal(size=(len(a), 48)) for a in adjs]
    structures = [GraphStructure.from_adjacency(a) for a in adjs]
    batched = model_forward(
        model, np.vstack(feats), GraphStructure.block_diagonal(structures)
    ).data
    single = [model_forward(model, f, gs).data for f, gs in zip(feats, structures)]
    assert np.allclose(batched, np.vstack(single), rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_init_model_matches_if_chain_oracle(variant):
    for seed in range(5):
        for heads in (1, 2, 4):
            cfg = ModelConfig(variant, gat_heads=heads, seed=seed)
            params = init_model(cfg).params
            expected = init_model_oracle(cfg)
            assert set(params) == set(expected)
            for name, value in expected.items():
                assert params[name].shape == value.shape, name
                assert np.array_equal(params[name].data, value), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_model_forward_looks_up_layer_per_call(variant, monkeypatch, rng):
    """A layer rebound on the module, as the benchmark tracer does, is the one called."""
    calls = []
    layer = getattr(models, f"{variant}_layer")

    def counting(*args):
        calls.append(args[3])
        return layer(*args)

    monkeypatch.setattr(models, f"{variant}_layer", counting)
    model = init_model(ModelConfig(variant, in_dim=48, hidden_dim=8, seed=1))
    gs = GraphStructure.from_adjacency(_random_adjacency(rng, 5))
    model_forward(model, rng.normal(size=(5, 48)), gs)
    assert calls == [1, 2]


def test_gcn_layer_vs_node_loop_oracle(rng):
    n, d_in, d_out = 7, 5, 4
    adj = _random_adjacency(rng, n)
    gs = GraphStructure.from_adjacency(adj)
    h = rng.normal(size=(n, d_in))
    w = rng.normal(size=(d_in, d_out))
    b = rng.normal(size=(1, d_out))
    cfg = ModelConfig("gcn", in_dim=d_in, hidden_dim=d_out)
    out = gcn_layer(Tensor(h), gs, {"w1": Tensor(w), "b1": Tensor(b)}, 1, cfg).data
    deg = adj.sum(axis=1) + 1
    for i in range(n):
        acc = np.zeros(d_out)
        for j in list(np.flatnonzero(adj[i])) + [i]:
            acc += (h[j] @ w) / np.sqrt(deg[i] * deg[j])
        assert np.allclose(out[i], acc + b[0], atol=1e-12)


def test_gat_head_vs_numpy_oracle(rng):
    n, d_in, d_out = 6, 5, 3
    adj = _random_adjacency(rng, n)
    gs = GraphStructure.from_adjacency(adj)
    h = rng.normal(size=(n, d_in))
    w = rng.normal(size=(d_in, d_out))
    a_src = rng.normal(size=(d_out, 1))
    a_dst = rng.normal(size=(d_out, 1))
    out = gat_head(Tensor(h), gs, Tensor(w), Tensor(a_src), Tensor(a_dst), 0.2).data

    hw = h @ w
    e = (hw @ a_src) + (hw @ a_dst).T
    e = np.where(e > 0, e, 0.2 * e)
    mask = (adj + np.eye(n)) > 0
    alpha = np.zeros((n, n))
    for i in range(n):
        logits = e[i, mask[i]]
        ex = np.exp(logits - logits.max())
        alpha[i, mask[i]] = ex / ex.sum()
    assert np.allclose(out, alpha @ hw, atol=1e-12)


def test_gin_layer_vs_node_loop_oracle(rng):
    cfg = ModelConfig("gin", in_dim=5, hidden_dim=6, num_classes=11, seed=3)
    model = init_model(cfg)
    p = {k: t.data for k, t in model.params.items()}
    n = 7
    adj = _random_adjacency(rng, n)
    gs = GraphStructure.from_adjacency(adj)
    h = rng.normal(size=(n, 5))
    out = gin_layer(Tensor(h), gs, model.params, 1, cfg).data
    eps = p["eps1"][0, 0]
    for i in range(n):
        agg = (1 + eps) * h[i] + h[np.flatnonzero(adj[i])].sum(axis=0)
        hid = np.maximum(agg @ p["mlp1_w1"] + p["mlp1_b1"][0], 0)
        assert np.allclose(out[i], hid @ p["mlp1_w2"] + p["mlp1_b2"][0], atol=1e-12)


def test_sage_layer_vs_node_loop_oracle(rng):
    cfg = ModelConfig("sage", in_dim=5, hidden_dim=6, num_classes=11, seed=4)
    model = init_model(cfg)
    p = {k: t.data for k, t in model.params.items()}
    n = 7
    adj = _random_adjacency(rng, n)
    gs = GraphStructure.from_adjacency(adj)
    h = rng.normal(size=(n, 5))
    out = sage_layer(Tensor(h), gs, model.params, 1, cfg).data
    pooled_src = np.maximum(h @ p["pool1"] + p["pool1_b"][0], 0)
    for i in range(n):
        nbrs = np.flatnonzero(adj[i])
        agg = pooled_src[nbrs].max(axis=0) if len(nbrs) else np.zeros(6)
        row = np.concatenate([h[i], agg]) @ p["out1"] + p["out1_b"][0]
        norm = np.linalg.norm(row)
        assert np.allclose(out[i], row / norm if norm > 0 else row, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_shape_and_determinism(variant, rng):
    cfg = ModelConfig(variant, in_dim=48, hidden_dim=8, num_classes=13, seed=9)
    model = init_model(cfg)
    gs = GraphStructure.from_adjacency(_random_adjacency(rng, 9))
    feats = rng.normal(size=(9, 48))
    a = model_forward(model, feats, gs).data
    b = model_forward(model, feats, gs).data
    assert a.shape == (9, 13)
    assert np.array_equal(a, b)
    again = init_model(cfg)
    for k in model.params:
        assert np.array_equal(model.params[k].data, again.params[k].data)


def test_forward_rejects_wrong_feature_dim(rng):
    model = init_model(ModelConfig("gcn", in_dim=48, hidden_dim=8))
    gs = GraphStructure.from_adjacency(PATH3)
    with pytest.raises(ModelError, match="feature dim"):
        model_forward(model, rng.normal(size=(3, 40)), gs)


@pytest.mark.parametrize("variant", VARIANTS)
def test_permutation_equivariance(variant, rng):
    cfg = ModelConfig(variant, in_dim=48, hidden_dim=8, num_classes=13, seed=2)
    model = init_model(cfg)
    n = 10
    adj = _random_adjacency(rng, n)
    feats = rng.normal(size=(n, 48))
    base = model_forward(model, feats, GraphStructure.from_adjacency(adj)).data
    perm = rng.permutation(n)
    permuted = model_forward(
        model, feats[perm], GraphStructure.from_adjacency(adj[np.ix_(perm, perm)])
    ).data
    assert np.max(np.abs(permuted - base[perm])) < 1e-9


@pytest.mark.parametrize("variant", VARIANTS)
def test_full_model_gradients_vs_finite_differences(variant, rng):
    cfg = ModelConfig(variant, in_dim=6, hidden_dim=4, num_classes=11, seed=7)
    model = init_model(cfg)
    n = 6
    gs = GraphStructure.from_adjacency(_random_adjacency(rng, n))
    feats = rng.normal(size=(n, 6))
    labels = rng.integers(0, 11, size=n)

    def loss_value():
        return float(
            softmax_cross_entropy(model_forward(model, feats, gs), labels).data[0, 0]
        )

    model.grads[:] = 0.0
    backward(softmax_cross_entropy(model_forward(model, feats, gs), labels))
    h = 1e-5
    for name, p in model.params.items():
        it = np.nditer(p.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p.data[idx]
            p.data[idx] = orig + h
            hi = loss_value()
            p.data[idx] = orig - h
            lo = loss_value()
            p.data[idx] = orig
            fd = (hi - lo) / (2 * h)
            err = abs(p.grad[idx] - fd) / (1.0 + abs(fd))
            assert err < 1e-4, f"{variant} {name}{idx}: {p.grad[idx]} vs {fd}"


def test_checkpoint_roundtrip(tmp_path, rng):
    for variant in VARIANTS:
        cfg = ModelConfig(variant, in_dim=48, hidden_dim=8, num_classes=13, seed=11)
        model = init_model(cfg)
        for p in model.params.values():
            p.data += rng.normal(size=p.shape) * 0.1
        path = tmp_path / f"{variant}.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == cfg
        assert set(loaded.params) == set(model.params)
        for k in model.params:
            assert np.array_equal(loaded.params[k].data, model.params[k].data)
        gs = GraphStructure.from_adjacency(PATH3)
        feats = rng.normal(size=(3, 48))
        assert np.array_equal(
            model_forward(model, feats, gs).data,
            model_forward(loaded, feats, gs).data,
        )


def test_checkpoint_roundtrip_keeps_flat_parameter_buffers(tmp_path, rng):
    from coroseg.autodiff import AdamState, adam_step

    model = init_model(ModelConfig("gat", in_dim=48, hidden_dim=8, seed=3))
    model.values += rng.normal(size=model.values.size) * 0.1
    save_model(model, tmp_path / "a.json")
    loaded = load_model(tmp_path / "a.json")
    save_model(loaded, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # the loaded weights are still views of one buffer, so Adam can update them
    assert np.array_equal(loaded.values, model.values)
    loaded.grads[:] = 1.0
    adam_step(loaded.values, loaded.grads, AdamState(lr=0.5))
    assert np.allclose(loaded.params["fc_b"].data, model.params["fc_b"].data - 0.5)


def test_checkpoint_version_and_weight_guards(tmp_path):
    import json

    model = init_model(ModelConfig("gcn", hidden_dim=8))
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="version"):
        load_model(path)
    doc["format_version"] = 1
    doc["weights"]["bogus"] = {"shape": [1, 1], "values": [0.0]}
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelError, match="unexpected weight"):
        load_model(path)
    del doc["weights"]["bogus"]
    for values, message in (("x", "needs numeric 'values'"), ([float("nan")] * 8, "non-finite")):
        path.write_text(json.dumps({**doc, "weights": {
            **doc["weights"], "b1": {"shape": [1, 8], "values": values}}}))
        with pytest.raises(ModelError, match=message):
            load_model(path)
    path.write_text(json.dumps({**doc, "weights": {
        **doc["weights"], "b1": {**doc["weights"]["b1"], "shape": [8, 1]}}}))
    with pytest.raises(ModelError, match="^shape mismatch for weight 'b1'$"):
        load_model(path)
    for raw in (b"not JSON", b"\xff\xfe", b"1" * 5000, b"[" * 100_000 + b"]" * 100_000):
        with pytest.raises(ModelError, match="^malformed checkpoint: "):
            load_model(raw)
    with pytest.raises(ModelError, match="must be positive"):
        ModelConfig("gat", gat_heads=0)
