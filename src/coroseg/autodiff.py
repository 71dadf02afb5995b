"""Dense 2-D tensors with a reverse-mode differentiation tape.

Just the operations the message-passing layers need, in float64. Any op
producing a non-finite value raises immediately; gradients use fixed
subgradient conventions (relu'(0) = 0, max-pool ties to the lowest index)
so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class AutodiffError(RuntimeError):
    """Shape mismatch, non-finite value, or tape misuse."""


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

    def zero_grad(self):
        if self.grad is not None:
            self.grad[:] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise AutodiffError("non-finite result")
    out = Tensor(data)
    if _tracked(*parents):
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if g.shape == shape:
        return g
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
    return _result(np.where(mask, a.data, 0.0), (a,), lambda g, m=mask: (g * m,))


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
    """Directed edges src -> dst sorted by dst: a graph in CSR layout.

    Edge-wise ops take one row per edge, in this order, and reduce the rows
    that share a destination into that node's output row.
    """

    def __init__(self, src, dst, n_nodes: int):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        if np.any(np.diff(self.dst) < 0):
            raise AutodiffError("edges must be sorted by destination")
        self.n_nodes = n_nodes
        self.starts = np.flatnonzero(np.diff(self.dst, prepend=-1))  # first edge per group
        self.groups = self.dst[self.starts]                           # node of each group


def _edge_rows(a, edges: Edges) -> Tensor:
    a = _as_tensor(a)
    if a.shape[0] != len(edges.dst):
        raise AutodiffError(f"{a.shape[0]} rows for {len(edges.dst)} edges")
    return a


def _reduce(ufunc, x: np.ndarray, edges: Edges) -> np.ndarray:
    """ufunc over the edge rows into each node; 0 for nodes with none."""
    out = np.zeros((edges.n_nodes, x.shape[1]), dtype=x.dtype)
    out[edges.groups] = ufunc.reduceat(x, edges.starts, axis=0)
    return out


def gather_rows(a, index, weight=None) -> Tensor:
    """Row k of the output is row index[k] of a, times weight[k] if given.

    weight is a constant (len(index), 1) array; only a gets a gradient.
    """
    a = _as_tensor(a)
    index = np.asarray(index, dtype=np.int64)
    data = a.data[index]
    if weight is not None:
        data *= weight

    def backward(g, n=a.shape[0], index=index, weight=weight):
        # scatter-add as a grouped sum over output rows sorted by source row;
        # faster than np.add.at and summed in the same order every run
        order = np.argsort(index, kind="stable")
        g = g[order]
        if weight is not None:
            g *= weight[order]
        return (_reduce(np.add, g, Edges(order, index[order], n)),)

    return _result(data, (a,), backward)


def row_sum_pool(a, edges: Edges) -> Tensor:
    """Row i of the output is the sum of the edge rows into node i."""
    a = _edge_rows(a, edges)
    return _result(_reduce(np.add, a.data, edges), (a,), lambda g, d=edges.dst: (g[d],))


def row_max_pool(a, edges: Edges) -> Tensor:
    """Row i is the elementwise max over the edge rows into node i; none -> 0.

    Gradient routes to the contributing edge with the lowest index, so
    tie-breaking is deterministic.
    """
    a = _edge_rows(a, edges)
    data = _reduce(np.maximum, a.data, edges)
    cand = np.where(a.data == data[edges.dst], np.arange(a.shape[0])[:, None], a.shape[0])
    winners = np.minimum.reduceat(cand, edges.starts, axis=0)  # (groups, cols) edge index

    def backward(g, shape=a.shape, winners=winners, groups=edges.groups):
        ga = np.zeros(shape)
        ga[winners, np.arange(shape[1])] = g[groups]
        return (ga,)

    return _result(data, (a,), backward)


def row_softmax(a, edges: Edges) -> Tensor:
    """Softmax per column over the edge rows into each node, max-stabilized."""
    a = _edge_rows(a, edges)
    e = np.exp(a.data - _reduce(np.maximum, a.data, edges)[edges.dst])
    y = e / _reduce(np.add, e, edges)[edges.dst]

    def backward(g, y=y, edges=edges):
        return (y * (g - _reduce(np.add, g * y, edges)[edges.dst]),)

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


@dataclass
class AdamState:
    """Bias-corrected Adam moments keyed by parameter name."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState):
    """One Adam update, in place on the parameter tensors."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise AutodiffError(f"gradient shape mismatch for {name!r}")
        m = state.m.setdefault(name, np.zeros_like(p.data))
        v = state.v.setdefault(name, np.zeros_like(p.data))
        m += (1 - state.beta1) * (g - m)
        v += (1 - state.beta2) * (g * g - v)
        m_hat = m / (1 - state.beta1**t)
        v_hat = v / (1 - state.beta2**t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
