import numpy as np
import pytest

from coroseg import autodiff as ad
from coroseg.autodiff import (
    AdamState,
    AutodiffError,
    Edges,
    Tensor,
    adam_step,
    backward,
    softmax_cross_entropy,
)
from conftest import backward_oracle, gather_oracle, max_pool_oracle, sum_pool_oracle


def sum_all(a) -> Tensor:
    """Sum of every entry as a 1x1 tensor: turns any tensor into a scalar loss."""
    a = ad._as_tensor(a)
    return ad._result(
        np.array([[a.data.sum()]]), (a,), lambda g, a=a: (np.full(a.shape, g[0, 0]),)
    )


def fd_gradient(f, x, h=1e-6):
    """Central finite differences of scalar f with respect to array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        hi = f()
        x[idx] = orig - h
        lo = f()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
    return g


def edges_of(adj):
    """Edges j -> i for every nonzero adj[i, j], grouped by destination i."""
    dst, src = np.nonzero(adj)
    return Edges(src, dst, len(adj))


def random_adjacency(rng, n, p):
    adj = (rng.uniform(size=(n, n)) < p).astype(float)
    np.fill_diagonal(adj, 0)
    return adj


def check_gradients(build, arrays, tol=1e-6, h=1e-6):
    """Compare tape gradients of build(*tensors) against finite differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build(*tensors)
    backward(loss)
    for t in tensors:
        fd = fd_gradient(lambda: float(build(*tensors).data[0, 0]), t.data, h)
        err = np.max(np.abs(t.grad - fd)) / (1.0 + np.max(np.abs(fd)))
        assert err < tol, f"gradient mismatch {err}"


def test_tensor_basics():
    t = Tensor(3.0, requires_grad=True)
    assert t.shape == (1, 1)
    with pytest.raises(AutodiffError, match="2-D"):
        Tensor(np.zeros((2, 2, 2)))


def test_matmul_gradients(rng):
    check_gradients(
        lambda a, b: sum_all(ad.matmul(a, b)),
        [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
    )
    with pytest.raises(AutodiffError, match="matmul"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_add_mul_broadcast_gradients(rng):
    check_gradients(
        lambda a, b: sum_all(ad.mul(ad.add(a, b), ad.add(a, b))),
        [rng.normal(size=(4, 3)), rng.normal(size=(1, 3))],
    )
    check_gradients(
        lambda a, s: sum_all(ad.mul(a, s)),
        [rng.normal(size=(4, 3)), rng.normal(size=(1, 1))],
    )
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
    with pytest.raises(AutodiffError, match=r"^add shape mismatch \(2, 3\) \+ \(3, 2\)$"):
        ad.add(a, b)
    with pytest.raises(AutodiffError, match=r"^mul shape mismatch \(2, 3\) \* \(3, 2\)$"):
        ad.mul(a, b)


def test_bias_row_gradient_is_column_sum(rng):
    a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    backward(sum_all(ad.add(a, b)))
    assert np.array_equal(b.grad, np.full((1, 3), 5.0))


def test_unary_op_gradients(rng):
    x = rng.normal(size=(3, 4))
    check_gradients(lambda a: sum_all(ad.transpose(a)), [x.copy()])
    check_gradients(lambda a: sum_all(ad.mul(ad.relu(a), a)), [x.copy()])
    check_gradients(lambda a: sum_all(ad.mul(ad.leaky_relu(a, 0.2), a)), [x.copy()])
    check_gradients(lambda a: sum_all(ad.l2_normalize_rows(a)), [x.copy() + 2.0])


def test_row_softmax_gradient(rng):
    # edges into nodes 0, 0, 0, 2, 2: node 1 has none
    edges = Edges([0, 1, 2, 0, 1], [0, 0, 0, 2, 2], 3)
    w = rng.normal(size=(5, 4))
    check_gradients(
        lambda a, w_: sum_all(ad.mul(ad.row_softmax(a, edges), w_)),
        [rng.normal(size=(5, 4)), w],
    )
    y = ad.row_softmax(Tensor(rng.normal(size=(5, 4)) * 30), edges).data
    # the softmax weights of each column, summed per node: row_sum_pool of ones weighted by them
    sums = np.hstack([ad.row_sum_pool(Tensor(np.ones((3, 1))), edges, y[:, [c]]).data
                      for c in range(4)])
    assert np.allclose(sums, [[1.0] * 4, [0.0] * 4, [1.0] * 4])


def test_row_softmax_vs_loop_oracle(rng):
    for _ in range(30):
        n, d = rng.integers(2, 10), rng.integers(1, 4)
        adj = random_adjacency(rng, n, 0.4)
        edges = edges_of(adj)
        x = rng.normal(size=(len(edges.dst), d))
        out = ad.row_softmax(Tensor(x), edges).data
        for i in np.unique(edges.dst):
            rows = edges.dst == i
            e = np.exp(x[rows] - x[rows].max(axis=0))
            assert np.allclose(out[rows], e / e.sum(axis=0), atol=1e-12)


def test_concat_cols_gradient(rng):
    check_gradients(
        lambda a, b: sum_all(ad.mul(ad.concat_cols([a, b]), ad.concat_cols([a, b]))),
        [rng.normal(size=(3, 2)), rng.normal(size=(3, 4))],
    )
    with pytest.raises(AutodiffError, match="row mismatch"):
        ad.concat_cols([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))])


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([[0.0, -1.0, 2.0]]), requires_grad=True)
    backward(sum_all(ad.relu(x)))
    assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])


def test_l2_normalize_zero_row():
    x = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True)
    y = ad.l2_normalize_rows(x)
    assert np.array_equal(y.data[0], [0.0, 0.0])
    assert np.allclose(y.data[1], [0.6, 0.8])
    backward(sum_all(y))
    assert np.array_equal(x.grad[0], [0.0, 0.0])


def test_backward_guards(rng):
    x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(AutodiffError, match="1x1"):
        backward(ad.relu(x))
    loss = sum_all(x)
    backward(loss)
    with pytest.raises(AutodiffError, match="already run"):
        backward(loss)


def test_gradient_accumulates_over_reuse(rng):
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    backward(sum_all(ad.add(x, x)))
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


#: Expressions whose backward returns views of the incoming gradient: add
#: returning it to both parents, _unbroadcast returning it whole, concat_cols
#: splits and transpose. In the add cases a later += into one parent's
#: gradient would change the other's if it were not copied.
ALIAS_CASES = {
    "add(x, x)": lambda x, b, w: ad.add(ad.add(x, x), ad.mul(x, x)),
    "broadcast add": lambda x, b, w: ad.add(ad.add(ad.add(x, b), ad.mul(x, x)), ad.mul(b, x)),
    "concat_cols": lambda x, b, w: ad.matmul(
        ad.concat_cols([x, ad.add(x, x), x]), ad.transpose(ad.concat_cols([ad.transpose(w)] * 3))
    ),
    "parameter used twice": lambda x, b, w: ad.matmul(
        ad.relu(ad.matmul(x, w)), ad.transpose(w)
    ),
}


@pytest.mark.parametrize("name", sorted(ALIAS_CASES))
def test_backward_bit_identical_to_copy_always_oracle(name, rng):
    x, b, w = rng.normal(size=(4, 3)), rng.normal(size=(1, 3)), rng.normal(size=(3, 3))
    labels = rng.integers(0, 3, size=4)
    grads = []
    for reverse in (backward, backward_oracle):
        leaves = [Tensor(v.copy(), requires_grad=True) for v in (x, b, w)]
        reverse(softmax_cross_entropy(ALIAS_CASES[name](*leaves), labels))
        grads.append([t.grad for t in leaves])
    for new, old in zip(*grads):
        assert np.array_equal(new, old)


def test_random_compositions_bit_identical_to_copy_always_oracle(rng):
    for _ in range(200):
        x = rng.normal(size=(2, 3))
        seed = int(rng.integers(0, 2**31))
        grads = []
        for reverse in (backward, backward_oracle):
            t = Tensor(x.copy(), requires_grad=True)
            reverse(_random_expression(np.random.default_rng(seed), [t]))
            grads.append(t.grad)
        assert np.array_equal(grads[0], grads[1])


def test_edges_from_adjacency():
    adj = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    edges = edges_of(adj)
    assert edges.n_nodes == 3
    assert list(edges.src) == [1, 2, 0, 0]
    assert list(edges.dst) == [0, 0, 1, 2]
    # column i lists the edges into (by_dst) or out of (by_src) node i; -1 pads
    assert edges.by_dst.tolist() == [[0, 2, 3], [1, -1, -1]]
    assert edges.by_src.tolist() == [[2, 0, 1], [3, -1, -1]]
    with pytest.raises(AutodiffError, match="sorted by destination"):
        Edges([0, 1], [1, 0], 2)
    # the composed tables name source and destination nodes; n_nodes pads
    assert edges.src_by_dst.tolist() == [[1, 0, 0], [2, 3, 3]]
    assert edges.dst_by_src.tolist() == [[1, 0, 0], [2, 3, 3]]
    with pytest.raises(AutodiffError, match="4 rows for 3 nodes"):
        ad.row_sum_pool(Tensor(np.zeros((4, 2))), edges)
    with pytest.raises(AutodiffError, match="3 rows for 4 edges"):
        ad.row_softmax(Tensor(np.zeros((3, 2))), edges)


def test_row_sum_pool_vs_loop_oracle(rng):
    for _ in range(30):
        n, d = rng.integers(2, 10), rng.integers(1, 6)
        adj = random_adjacency(rng, n, 0.4)
        edges = edges_of(adj)
        x = rng.normal(size=(n, d))
        out = ad.row_sum_pool(Tensor(x), edges).data
        expected = np.array([x[np.flatnonzero(adj[i])].sum(axis=0) for i in range(n)])
        assert np.allclose(out, expected, atol=1e-12)


def test_row_max_pool_vs_loop_oracle(rng):
    for _ in range(30):
        n, d = rng.integers(2, 10), rng.integers(1, 6)
        adj = random_adjacency(rng, n, 0.4)
        edges = edges_of(adj)
        x = rng.normal(size=(n, d))
        out = ad.row_max_pool(Tensor(x), edges).data
        for i in range(n):
            nbrs = np.flatnonzero(adj[i])
            expected = x[nbrs].max(axis=0) if len(nbrs) else np.zeros(d)
            assert np.allclose(out[i], expected, atol=1e-12)


def test_pool_gradients(rng):
    edges = edges_of(random_adjacency(rng, 6, 0.5))
    w = rng.normal(size=(6, 4))
    check_gradients(
        lambda a: sum_all(ad.mul(ad.row_sum_pool(a, edges), w)),
        [rng.normal(size=(6, 4))],
    )
    check_gradients(
        lambda a: sum_all(ad.mul(ad.row_max_pool(a, edges), w)),
        [rng.normal(size=(6, 4))],
    )
    weight = rng.uniform(0.1, 1.0, size=(len(edges.src), 1))
    check_gradients(
        lambda a: sum_all(ad.mul(ad.row_sum_pool(a, edges, weight), w)),
        [rng.normal(size=(6, 4))],
    )
    # a weight tensor gets its gradient too
    check_gradients(
        lambda a, wt: sum_all(ad.mul(ad.row_sum_pool(a, edges, wt), w)),
        [rng.normal(size=(6, 4)), rng.uniform(-1.0, 1.0, size=(len(edges.src), 1))],
    )


def test_max_pool_tie_routes_to_lowest_index():
    # rows 1 and 2 tie; the gradient must go entirely to row 1
    x = Tensor(np.array([[9.0], [5.0], [5.0]]), requires_grad=True)
    edges = Edges([1, 2], [0, 0], 3)
    backward(sum_all(ad.row_max_pool(x, edges)))
    assert np.array_equal(x.grad, [[0.0], [1.0], [0.0]])
    # per column: of two tied edges into node 0, the first (from node 0) wins
    e = Tensor(np.array([[5.0, 1.0], [5.0, 2.0]]), requires_grad=True)
    backward(sum_all(ad.row_max_pool(e, Edges([0, 1], [0, 0], 2))))
    assert np.array_equal(e.grad, [[1.0, 0.0], [0.0, 1.0]])


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 13)), requires_grad=True)
    loss = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
    assert abs(float(loss.data[0, 0]) - np.log(13)) < 1e-12


def test_cross_entropy_gradient_closed_form(rng):
    z = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    mask = np.array([True, False, True, True, False])
    logits = Tensor(z, requires_grad=True)
    backward(softmax_cross_entropy(logits, labels, mask))
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(5), labels] -= 1.0
    p[~mask] = 0.0
    assert np.allclose(logits.grad, p / mask.sum(), atol=1e-12)
    assert np.allclose(logits.grad.sum(axis=1), 0.0, atol=1e-12)


def test_cross_entropy_finite_difference(rng):
    labels = rng.integers(0, 3, size=6)
    check_gradients(
        lambda a: softmax_cross_entropy(a, labels), [rng.normal(size=(6, 3))]
    )


def test_cross_entropy_errors():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(AutodiffError, match="empty selection"):
        softmax_cross_entropy(logits, np.zeros(2, dtype=int), np.zeros(2, bool))
    with pytest.raises(AutodiffError, match="out of range"):
        softmax_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(AutodiffError, match="one class index"):
        softmax_cross_entropy(logits, np.zeros(3, dtype=int))


#: both rows of a (2, 3) tensor are edges into node 0; node 1 has none
PAIR = Edges([0, 1], [0, 0], 2)


def _random_expression(rng, leaves):
    """Random composition of tracked ops ending in a scalar."""
    pool = list(leaves)
    for _ in range(rng.integers(3, 8)):
        op = rng.integers(0, 6)
        a = pool[rng.integers(0, len(pool))]
        b = pool[rng.integers(0, len(pool))]
        if op == 0:
            pool.append(ad.add(a, b))
        elif op == 1:
            pool.append(ad.mul(a, b))
        elif op == 2:
            # (2,3) @ (3,2) @ (2,3): shape-preserving, hits both matmul args
            pool.append(ad.matmul(ad.matmul(a, ad.transpose(b)), b))
        elif op == 3:
            pool.append(ad.relu(ad.add(a, Tensor(np.full(a.shape, 0.05)))))
        elif op == 4:
            pool.append(ad.row_softmax(a, PAIR))
        else:
            pool.append(ad.mul(ad.leaky_relu(a, 0.2), b))
    total = pool[len(leaves)]
    for t in pool[len(leaves) + 1 :]:
        total = ad.add(sum_all(total), sum_all(t))
    return sum_all(total)


def test_500_random_compositions_vs_finite_differences(rng):
    failures = 0
    for _ in range(500):
        x = rng.normal(size=(2, 3))
        t = Tensor(x.copy(), requires_grad=True)
        seed = int(rng.integers(0, 2**31))
        loss = _random_expression(np.random.default_rng(seed), [t])
        backward(loss)
        fd = fd_gradient(
            lambda: float(_random_expression(np.random.default_rng(seed), [t]).data[0, 0]),
            t.data,
        )
        err = np.max(np.abs(t.grad - fd)) / (1.0 + np.max(np.abs(fd)))
        if err > 1e-5:
            failures += 1
    assert failures == 0


def test_backward_deterministic_bit_identical(rng):
    x = rng.normal(size=(5, 4))
    edges = edges_of(random_adjacency(rng, 5, 0.5))
    w = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=5)

    def run():
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        h = ad.relu(ad.matmul(ad.row_sum_pool(xt, edges), wt))
        backward(softmax_cross_entropy(h, labels))
        return xt.grad.copy(), wt.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)


def test_adam_vs_textbook_oracle(rng):
    p = rng.normal(size=(3, 2))
    state = AdamState(lr=0.01)
    # independent transcription of the published update rule
    ref = p.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 51):
        g = rng.normal(size=(3, 2))
        adam_step(p, g, state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert np.allclose(p, ref, atol=1e-12)


def test_adam_shape_mismatch():
    with pytest.raises(AutodiffError, match="shape mismatch"):
        adam_step(np.zeros((2, 2)), np.zeros((3, 2)), AdamState())


def _star(n_leaves: int) -> np.ndarray:
    adj = np.zeros((n_leaves + 1, n_leaves + 1))
    adj[0, 1:] = adj[1:, 0] = 1.0
    return adj


def _table_cases():
    """(name, edges) for the slot-table oracles."""
    isolated = np.zeros((5, 5))
    isolated[0, 1] = isolated[1, 0] = isolated[1, 2] = isolated[2, 1] = 1.0  # 3, 4 alone
    return [
        ("isolated nodes", edges_of(isolated)),
        ("star of degree 7", edges_of(_star(7))),
        ("empty edge set", Edges([], [], 4)),
        ("two edges into one of two nodes", PAIR),
    ]


def _pool_oracle(x, edges):
    """Per-node loops over edge rows x: sum, max (0 if no edges) and the lowest-index max edge."""
    n, d = edges.n_nodes, x.shape[1]
    total, best, winner = np.zeros((n, d)), np.zeros((n, d)), np.full((n, d), -1)
    for i in range(n):
        for k in range(len(edges.dst)):
            if edges.dst[k] != i:
                continue
            total[i] += x[k]
            for c in range(d):
                if winner[i, c] < 0 or x[k, c] > best[i, c]:
                    best[i, c], winner[i, c] = x[k, c], k
    return total, best, winner


@pytest.mark.parametrize("case", range(4))
def test_table_pools_and_softmax_vs_loop_oracle(case, rng):
    name, edges = _table_cases()[case]
    # small integers make max ties common
    x = rng.integers(-2, 3, size=(edges.n_nodes, 3)).astype(float)
    g = rng.normal(size=(edges.n_nodes, 3))
    total, best, winner = _pool_oracle(x[edges.src], edges)

    # each edge's gradient g[dst] lands on its source row, in edge order
    a = Tensor(x, requires_grad=True)
    backward(sum_all(ad.mul(ad.row_sum_pool(a, edges), Tensor(g))))
    assert np.array_equal(ad.row_sum_pool(Tensor(x), edges).data, total), name
    expected = np.zeros_like(x)
    for k in range(len(edges.dst)):
        expected[edges.src[k]] += g[edges.dst[k]]
    assert np.array_equal(a.grad, expected), name

    a = Tensor(x, requires_grad=True)
    out = ad.row_max_pool(a, edges)
    backward(sum_all(ad.mul(out, Tensor(g))))
    assert np.array_equal(out.data, best), name
    expected = np.zeros_like(x)
    for i, c in zip(*np.nonzero(winner >= 0)):
        expected[edges.src[winner[i, c]], c] += g[i, c]
    assert np.array_equal(a.grad, expected), name

    z = rng.normal(size=(len(edges.dst), 3))
    w = rng.normal(size=z.shape)
    a = Tensor(z, requires_grad=True)
    y = ad.row_softmax(a, edges)
    backward(sum_all(ad.mul(y, Tensor(w))))
    y_ref, grad_ref = np.zeros_like(z), np.zeros_like(z)
    for i in range(edges.n_nodes):
        rows = edges.dst == i
        if rows.any():
            e = np.exp(z[rows] - z[rows].max(axis=0))
            y_ref[rows] = e / e.sum(axis=0)
            grad_ref[rows] = y_ref[rows] * (w[rows] - (w[rows] * y_ref[rows]).sum(axis=0))
    assert np.allclose(y.data, y_ref, rtol=0, atol=1e-12), name
    assert np.allclose(a.grad, grad_ref, rtol=0, atol=1e-12), name


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("end", ["src", "dst"])
def test_gather_rows_backward_vs_loop_oracle(case, end, rng):
    name, edges = _table_cases()[case]
    index = edges.src if end == "src" else edges.dst
    x = rng.normal(size=(edges.n_nodes, 3))
    g = rng.normal(size=(len(index), 3))
    a = Tensor(x, requires_grad=True)
    out = ad.gather_rows(a, edges, end=end)
    backward(sum_all(ad.mul(out, Tensor(g))))
    assert np.array_equal(out.data, x[index]), name
    expected = np.zeros_like(x)
    for k, j in enumerate(index):
        expected[j] += g[k]
    assert np.allclose(a.grad, expected, rtol=0, atol=1e-12), name
    with pytest.raises(AutodiffError, match="rows for"):
        ad.gather_rows(Tensor(np.zeros((edges.n_nodes + 1, 3))), edges, end=end)


def _oracle_cases(rng):
    """The slot-table cases, then random block-diagonal batches with loops."""
    cases = [edges for _, edges in _table_cases()]
    for _ in range(6):
        parts = [edges_of(random_adjacency(rng, n, 0.4) + np.eye(n))
                 for n in rng.integers(1, 9, size=rng.integers(1, 5))]
        cases.append(Edges.disjoint_union(parts))
    return cases


def _grads(out: Tensor, leaves, g: np.ndarray) -> list[np.ndarray]:
    backward(sum_all(ad.mul(out, Tensor(g))))
    return [t.grad for t in leaves]


def test_node_row_pools_bit_identical_to_edge_row_oracle(rng):
    for edges in _oracle_cases(rng):
        n, e = edges.n_nodes, len(edges.dst)
        # small integers make max ties common
        x = rng.integers(-2, 3, size=(n, 3)).astype(float) + rng.normal(size=(n, 3)) * 0.5
        x[rng.uniform(size=x.shape) < 0.3] = 1.0
        g = rng.normal(size=(n, 3))
        weight = rng.uniform(-1.0, 1.0, size=(e, 1))
        pairs = [
            (lambda a, w: ad.row_sum_pool(a, edges),
             lambda a, w: sum_pool_oracle(gather_oracle(a, edges), edges)),
            (lambda a, w: ad.row_sum_pool(a, edges, weight),
             lambda a, w: sum_pool_oracle(gather_oracle(a, edges, weight), edges)),
            (lambda a, w: ad.row_sum_pool(a, edges, w),
             lambda a, w: sum_pool_oracle(ad.mul(gather_oracle(a, edges), w), edges)),
            (lambda a, w: ad.row_max_pool(a, edges),
             lambda a, w: max_pool_oracle(gather_oracle(a, edges), edges)),
        ]
        for new, old in pairs:
            results = []
            for pool in (new, old):
                a, w = Tensor(x.copy(), requires_grad=True), Tensor(weight, requires_grad=True)
                out = pool(a, w)
                results.append([out.data, *_grads(out, (a, w), g)])
            for got, want in zip(*results):
                assert np.array_equal(got, want)


def test_pool_weight_must_be_one_column_per_edge(rng):
    edges = edges_of(random_adjacency(rng, 5, 0.5) + np.eye(5))
    e = len(edges.dst)
    for shape in ((e, 2), (e - 1, 1), (1, e)):
        with pytest.raises(AutodiffError, match=rf"^weight shape \({shape[0]}, {shape[1]}\) "
                                                rf"is not \({e}, 1\)$"):
            ad.row_sum_pool(Tensor(np.zeros((5, 3))), edges, np.ones(shape))


def test_max_pool_same_on_and_off_the_tape(rng):
    """Off the tape the pool records no source rows; its output is the same."""
    for edges in _oracle_cases(rng):
        x = rng.integers(-2, 3, size=(edges.n_nodes, 3)).astype(float)
        off = ad.row_max_pool(Tensor(x), edges)
        on = ad.row_max_pool(Tensor(x, requires_grad=True), edges)
        assert off._backward is None and on._backward is not None
        assert np.array_equal(off.data, on.data)


def test_disjoint_union_matches_tables_built_from_scratch(rng):
    parts = [edges_of(random_adjacency(rng, n, 0.5)) for n in (3, 1, 6)]
    parts += [edges_of(_star(7)), Edges([], [], 2)]
    union = Edges.disjoint_union(parts)
    fresh = Edges(union.src, union.dst, union.n_nodes)
    assert np.array_equal(union.by_dst, fresh.by_dst)
    assert np.array_equal(union.by_src, fresh.by_src)
    with pytest.raises(AutodiffError, match="not below n_nodes"):
        Edges([0, 1], [0, 0], 1)
    for src, dst in (([-1], [0]), ([0], [-1])):
        with pytest.raises(AutodiffError, match="edge end -1 is negative"):
            Edges(src, dst, 2)


def test_flat_adam_bit_identical_to_per_parameter_oracle(rng):
    from conftest import adam_oracle

    arrays = {"w": rng.normal(size=(4, 3)), "b": np.zeros((1, 3)), "s": np.ones((1, 1))}
    params, values, flat_grads = ad.parameters(arrays)
    grads = {k: p.grad for k, p in params.items()}
    ref = {k: a.copy() for k, a in arrays.items()}
    state, ref_state = AdamState(lr=0.01), {}
    for _ in range(50):
        for k, g in grads.items():
            g[:] = rng.normal(size=g.shape)
        adam_step(values, flat_grads, state)
        adam_oracle(ref, grads, ref_state, lr=0.01)
        for k in arrays:
            assert np.array_equal(params[k].data, ref[k]), k


def test_parameters_are_views_of_two_flat_buffers(rng):
    params, values, grads = ad.parameters(
        {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(1, 3))})
    assert values.shape == grads.shape == (9,)
    values[:] = 7.0
    grads[:] = 1.0
    assert (params["b"].data == 7.0).all() and (params["a"].grad == 1.0).all()
