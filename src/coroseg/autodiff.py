"""Dense 2-D tensors with a reverse-mode differentiation tape.

Just the operations the message-passing layers need, in float64. No op
checks its values: a NaN or an inf flows on, and `training` checks once per
step. Gradients use fixed subgradient conventions (relu'(0) = 0, max-pool
ties to the lowest index) so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


class AutodiffError(RuntimeError):
    """Shape mismatch, bad edge or label index, or tape misuse."""


class Tensor:
    """A rows x cols float64 array, optionally recorded on the tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2:
            raise AutodiffError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._done = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _tracked(*parents):
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[1] != b.shape[0]:
        raise AutodiffError(f"matmul shape mismatch {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g, a=a, b=b):
        return (g @ b.data.T, a.data.T @ g)

    return _result(data, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise AutodiffError(f"add shape mismatch {a.shape} + {b.shape}") from exc

    def backward(g, a=a, b=b):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise AutodiffError(f"mul shape mismatch {a.shape} * {b.shape}") from exc

    def backward(g, a=a, b=b):
        return (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape))

    return _result(data, (a, b), backward)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    return _result(a.data.T.copy(), (a,), lambda g: (g.T,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    # maximum gives +0.0 for -0.0 too, as a masked select would, and is faster
    return _result(np.maximum(a.data, 0.0), (a,), lambda g, m=mask: (g * m,))


def leaky_relu(a, slope: float = 0.2) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    data = np.where(mask, a.data, slope * a.data)
    return _result(data, (a,), lambda g, m=mask: (g * np.where(m, 1.0, slope),))


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    rows = {t.shape[0] for t in ts}
    if len(rows) != 1:
        raise AutodiffError("concat_cols row mismatch")
    data = np.concatenate([t.data for t in ts], axis=1)
    widths = [t.shape[1] for t in ts]
    splits = np.cumsum(widths)[:-1]

    def backward(g, splits=splits):
        return tuple(np.split(g, splits, axis=1))

    return _result(data, tuple(ts), backward)


def l2_normalize_rows(a) -> Tensor:
    """Rows scaled to unit l2 norm; zero rows stay zero with zero gradient."""
    a = _as_tensor(a)
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    safe = np.where(norms > 0, norms, 1.0)
    y = a.data / safe

    def backward(g, a=a, y=y, safe=safe, norms=norms):
        dot = (g * y).sum(axis=1, keepdims=True)
        grad = (g - y * dot) / safe
        return (np.where(norms > 0, grad, 0.0),)

    return _result(y, (a,), backward)


class Edges:
    """Directed edges src -> dst sorted by dst, with a padded slot table per end.

    Edge-wise ops take one row per edge, in this order. ``by_dst`` is a
    (width, n) table whose column i lists the edges into node i in ascending
    order, and ``by_src`` lists the edges out of each node the same way; an
    edge's row in a table is its slot (``dst_slot``, ``src_slot``). Empty
    slots hold -1, which picks the fill row a reduction appends after the E
    edge rows. ``src_by_dst`` and ``dst_by_src`` are those tables composed
    with the other end's node, so the pools read node rows directly; their
    empty slots hold ``n_nodes``, the fill row appended after the node rows.
    An edge end below 0 or at or past ``n_nodes`` raises AutodiffError.
    """

    def __init__(self, src, dst, n_nodes: int, slots=None):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if np.any(np.diff(self.dst) < 0):
            raise AutodiffError("edges must be sorted by destination")
        ends = np.concatenate([self.src, self.dst])
        if ends.size and not 0 <= ends.min() <= ends.max() < n_nodes:
            bad = ends.min() if ends.min() < 0 else ends.max()
            raise AutodiffError(f"edge end {bad} is negative or not below n_nodes {n_nodes}")
        self.n_nodes = n_nodes
        self.dst_slot, self.src_slot = slots or (_slots(self.dst), _slots(self.src))
        self.by_dst = _table(self.dst_slot, self.dst, n_nodes)
        self.by_src = _table(self.src_slot, self.src, n_nodes)

    @classmethod
    def disjoint_union(cls, parts: list["Edges"]) -> "Edges":
        """Each part's nodes and edges shifted past the previous parts'.

        Slots stay as they are, so nothing is sorted again: the union's tables
        are the parts' tables side by side, padded to the widest.
        """
        sizes = [p.n_nodes for p in parts]
        shift = np.repeat(np.cumsum([0] + sizes[:-1]), [len(p.dst) for p in parts])

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(p, name) for p in parts])

        return cls(joined("src") + shift, joined("dst") + shift, sum(sizes),
                   (joined("dst_slot"), joined("src_slot")))

    @cached_property
    def src_by_dst(self) -> np.ndarray:
        """``by_dst`` with each edge replaced by its source node."""
        return np.append(self.src, self.n_nodes)[self.by_dst]

    @cached_property
    def dst_by_src(self) -> np.ndarray:
        """``by_src`` with each edge replaced by its destination node."""
        return np.append(self.dst, self.n_nodes)[self.by_src]


def _slots(end: np.ndarray) -> np.ndarray:
    """Each edge's rank among the edges at the same node of this end, by edge index."""
    order = np.argsort(end, kind="stable")
    counts = np.bincount(end)
    slot = np.empty(len(end), dtype=np.int64)
    slot[order] = np.arange(len(end)) - (np.cumsum(counts) - counts)[end[order]]
    return slot


def _table(slot: np.ndarray, end: np.ndarray, n_nodes: int) -> np.ndarray:
    """(width >= 1, n_nodes) table with edge k at [slot[k], end[k]]; -1 pads."""
    table = np.full((slot.max(initial=0) + 1, n_nodes), -1)
    table[slot, end] = np.arange(len(end))
    return table


def _edge_rows(a, edges: Edges) -> Tensor:
    a = _as_tensor(a)
    if a.shape[0] != len(edges.dst):
        raise AutodiffError(f"{a.shape[0]} rows for {len(edges.dst)} edges")
    return a


def _node_rows(a, edges: Edges) -> Tensor:
    a = _as_tensor(a)
    if a.shape[0] != edges.n_nodes:
        raise AutodiffError(f"{a.shape[0]} rows for {edges.n_nodes} nodes")
    return a


def _padded(x: np.ndarray, fill: float) -> np.ndarray:
    """x with one fill row appended, the row that a table's padding picks."""
    return np.concatenate([x, np.full((1, x.shape[1]), fill)])


def _reduce(ufunc, x: np.ndarray, table: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """ufunc over the rows of x listed in each column of table, slot after slot.

    That is the order of ``ufunc.reduce`` over the slot axis, with (n, cols)
    temporaries only: a (width, n, cols) gather is slower here.
    """
    rows = _padded(x, fill)
    out = rows.take(table[0], axis=0)
    for slot in table[1:]:
        ufunc(out, rows.take(slot, axis=0), out=out)
    return out


def _weighted_sum(x: np.ndarray, table: np.ndarray, w: np.ndarray | None,
                  w_table: np.ndarray) -> np.ndarray:
    """`_reduce` of np.add, each row taken from x first times the row of the
    (E, 1) column w at the same place of w_table (the edge's weight)."""
    if w is None:
        return _reduce(np.add, x, table)
    rows, w = _padded(x, 0.0), _padded(w, 0.0)
    out = rows.take(table[0], axis=0) * w.take(w_table[0], axis=0)
    for slot, w_slot in zip(table[1:], w_table[1:]):
        out += rows.take(slot, axis=0) * w.take(w_slot, axis=0)
    return out


def gather_rows(a, edges: Edges, end: str = "src") -> Tensor:
    """Row k of the output is row src[k] of a (dst[k] for end="dst").

    The gradient of a sums over each node's edges through that end's slot table.
    """
    if end not in ("src", "dst"):
        raise AutodiffError(f"end must be 'src' or 'dst', not {end!r}")
    a = _node_rows(a, edges)
    index, table = (edges.src, edges.by_src) if end == "src" else (edges.dst, edges.by_dst)
    return _result(a.data.take(index, axis=0), (a,), lambda g, t=table: (_reduce(np.add, g, t),))


def row_sum_pool(a, edges: Edges, weight=None) -> Tensor:
    """Row i of the output sums row j of a over the edges j -> i, each times its weight.

    a holds node rows, read slot after slot through ``edges.src_by_dst``, so
    no row is copied out per edge and each sum runs in edge order. weight is
    None, a constant (E, 1) array, or an (E, 1) tensor, which gets its
    gradient too.
    """
    a = _node_rows(a, edges)
    w = None if weight is None else _as_tensor(weight)
    if w is not None and w.shape != (len(edges.dst), 1):
        raise AutodiffError(f"weight shape {w.shape} is not ({len(edges.dst)}, 1)")
    w_data = None if w is None else w.data
    data = _weighted_sum(a.data, edges.src_by_dst, w_data, edges.by_dst)
    parents = (a, w) if w is not None and _tracked(w) else (a,)

    def backward(g, x=a.data, w=w_data, edges=edges, both=len(parents) == 2):
        ga = _weighted_sum(g, edges.dst_by_src, w, edges.by_src)
        if not both:
            return (ga,)
        messages = g.take(edges.dst, axis=0) * x.take(edges.src, axis=0)
        return ga, messages.sum(axis=1, keepdims=True)

    return _result(data, parents, backward)


def row_max_pool(a, edges: Edges) -> Tensor:
    """Row i is the elementwise max of row j of a over the edges j -> i; none -> 0.

    a holds node rows, read slot after slot through ``edges.src_by_dst``. On
    the tape each maximum's source row is recorded, the first in slot order
    winning, so ties route the gradient to the lowest edge index.
    """
    a = _node_rows(a, edges)
    n, table = edges.n_nodes, edges.src_by_dst
    rows = _padded(a.data, -np.inf)
    best = rows.take(table[0], axis=0)
    src = np.repeat(table[0][:, None], a.shape[1], axis=1) if _tracked(a) else None
    for slot in table[1:]:
        candidate = rows.take(slot, axis=0)
        if src is not None:   # a new maximum takes this slot's source (faster than a masked copy)
            src += (candidate > best) * (slot[:, None] - src)
        np.maximum(best, candidate, out=best)
    best[table[0] == n] = 0.0

    def backward(g, src=src, n=n):
        cols = g.shape[1]
        ga = np.bincount((src * cols + np.arange(cols)).ravel(), g.ravel(), (n + 1) * cols)
        return (ga.reshape(n + 1, cols)[:n],)

    return _result(best, (a,), backward)


def row_softmax(a, edges: Edges) -> Tensor:
    """Softmax per column over the edge rows into each node, max-stabilized."""
    a = _edge_rows(a, edges)
    table, dst = edges.by_dst, edges.dst
    e = np.exp(a.data - _reduce(np.maximum, a.data, table, -np.inf)[dst])
    y = e / _reduce(np.add, e, table)[dst]

    def backward(g, y=y, table=table, dst=dst):
        return (y * (g - _reduce(np.add, g * y, table)[dst]),)

    return _result(y, (a,), backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, mask=None) -> Tensor:
    """Mean -log softmax(logits)[label] over selected rows (fused op)."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.shape[0],):
        raise AutodiffError("labels must be one class index per row")
    if np.any((labels < 0) | (labels >= logits.shape[1])):
        raise AutodiffError("label out of range")
    sel = np.ones(len(labels), dtype=bool) if mask is None else np.asarray(mask, bool)
    if not sel.any():
        raise AutodiffError("empty selection")
    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    n_sel = int(sel.sum())
    loss = -logp[sel, labels[sel]].mean()

    def backward(g, logits=logits, labels=labels, sel=sel, logp=logp, n_sel=n_sel):
        p = np.exp(logp)
        p[np.arange(len(labels)), labels] -= 1.0
        p[~sel] = 0.0
        return (g[0, 0] * p / n_sel,)

    return _result(np.array([[loss]]), (logits,), backward)


def backward(loss: Tensor):
    """Reverse pass from a scalar loss; populates .grad on parameter tensors."""
    if loss.shape != (1, 1):
        raise AutodiffError("loss must be a 1x1 tensor")
    if loss._done:
        raise AutodiffError("backward already run for this tape; re-record first")
    loss._done = True

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(topo):
        g = grads.pop(id(node))
        if node.requires_grad:
            node.grad += g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg  # out of place: pg may be a view
            else:
                grads[id(parent)] = pg


def parameters(arrays: dict[str, np.ndarray]) -> tuple[dict[str, Tensor], np.ndarray, np.ndarray]:
    """Trainable tensors, with the two flat buffers their values and gradients view.

    The views lie end to end in dict order, so `adam_step` updates every
    parameter in one vectorised pass over the buffers.
    """
    values = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
    grads = np.zeros_like(values)
    out, at = {}, 0
    for name, a in arrays.items():
        shape, size = np.shape(a), np.size(a)
        t = Tensor(values[at : at + size].reshape(shape))
        t.requires_grad, t.grad = True, grads[at : at + size].reshape(shape)
        out[name] = t
        at += size
    return out, values, grads


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments, flat in the order of the parameters."""

    lr: float = 1e-3
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(values: np.ndarray, grads: np.ndarray, state: AdamState):
    """One Adam update, in place on values, as one vectorised pass."""
    if grads.shape != values.shape:
        raise AutodiffError(f"gradient shape mismatch {grads.shape} for {values.shape}")
    if state.m is None:
        state.m, state.v = np.zeros_like(values), np.zeros_like(values)
    state.t += 1
    t, m, v, g = state.t, state.m, state.v, grads
    m += (1 - ADAM_BETA1) * (g - m)
    v += (1 - ADAM_BETA2) * (g * g - v)
    values -= state.lr * (m / (1 - ADAM_BETA1**t)) / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS)
