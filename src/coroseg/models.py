"""Message-passing network variants for node-level segment labeling.

All four variants share one architecture: two graph layers with a ReLU
between them, then a fully-connected head producing per-node class logits.
Graph layers pass messages along edges: each pool reads its source node
rows through the slot tables of `autodiff.Edges` composed into node
indices, and sums or max-pools them per destination node, so no layer copies
node rows out to one row per edge. GAT scores each node once per side and
gathers only those (E, 1) scores to the edges. Each variant is one pair:
``_<variant>_params`` and ``<variant>_layer`` for layer k.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Edges, Tensor
from .centerline import CLASSES_11, CLASSES_13, _numbers, clipped

VARIANTS = ("gcn", "gat", "gin", "sage")

CHECKPOINT_VERSION = 1

#: Largest in_dim and hidden_dim, 16x the default width: at 1024 and 1024 the
#: largest model, sage, holds 6,308,877 parameters, 48 MiB per flat buffer.
MAX_WIDTH = 1024

#: Accepted value types per ModelConfig annotation; bool is never a number.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    in_dim: int = 48
    hidden_dim: int = 64
    num_classes: int = 13
    gat_heads: int = 2          # hidden layer; output layer always 1 head
    gin_eps_init: float = 0.0   # learnable
    leaky_slope: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ModelError(f"config field {f.name!r} must be {f.type}, "
                                 f"not {clipped(value)}")
            if f.type == "float" and not math.isfinite(value):
                raise ModelError(f"config field {f.name!r} must be finite, not {value!r}")
        if self.seed < 0:
            raise ModelError(f"seed must be >= 0, not {self.seed}")
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown variant {clipped(self.variant)}")
        if min(self.in_dim, self.hidden_dim, self.gat_heads) <= 0:
            raise ModelError("dims and gat_heads must be positive")
        for name in ("in_dim", "hidden_dim"):
            if (value := getattr(self, name)) > MAX_WIDTH:
                raise ModelError(f"config field {name!r} must be <= {MAX_WIDTH}, not {value}")
        if self.num_classes not in (11, 13):
            raise ModelError("num_classes must be 11 or 13")
        if self.variant == "gat" and self.hidden_dim % self.gat_heads:
            raise ModelError("hidden_dim must divide evenly across gat_heads")

    @property
    def classes(self) -> list[str]:
        """The class list the model predicts, in logit order."""
        return CLASSES_13 if self.num_classes == 13 else CLASSES_11


class GraphStructure(Edges):
    """A graph's edges j -> i plus a loop i -> i per node; other views are built on first use."""

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "GraphStructure":
        """From an (N, N) 0/1 symmetric adjacency with zero diagonal."""
        dst, src = np.nonzero(adj + np.eye(len(adj)))   # row-major: by destination, then source
        return cls(src, dst, len(adj))

    @classmethod
    def block_diagonal(cls, structures: list["GraphStructure"]) -> "GraphStructure":
        """Disjoint union: each graph's nodes and edges shifted past the previous graphs'."""
        return cls.disjoint_union(structures)

    @cached_property
    def neighbors(self) -> Edges:
        """The same edges without the loops, for GIN and SAGE."""
        keep = self.src != self.dst
        return Edges(self.src[keep], self.dst[keep], self.n_nodes)

    @cached_property
    def gcn_weight(self) -> np.ndarray:
        """(E, 1) constant 1 / sqrt(deg_i deg_j), each degree counting the loop."""
        d_inv_sqrt = 1.0 / np.sqrt(np.bincount(self.dst, minlength=self.n_nodes))
        return (d_inv_sqrt[self.dst] * d_inv_sqrt[self.src])[:, None]


@dataclass
class TrainedModel:
    """Named parameters whose values and gradients are views of the flat values and grads."""

    config: ModelConfig
    params: dict[str, Tensor]
    values: np.ndarray
    grads: np.ndarray


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols))


def _variant(name: str):
    """(params, layer) of a variant, looked up per call so rebound layer names are used."""
    return {"gcn": (_gcn_params, gcn_layer), "gat": (_gat_params, gat_layer),
            "gin": (_gin_params, gin_layer), "sage": (_sage_params, sage_layer)}[name]


def init_model(cfg: ModelConfig) -> TrainedModel:
    """Fresh parameters, as views of two flat buffers (see `autodiff.parameters`)."""
    rng = np.random.default_rng(cfg.seed)
    params, _ = _variant(cfg.variant)
    d_h = cfg.hidden_dim
    p = {**params(rng, cfg, cfg.in_dim, d_h, 1), **params(rng, cfg, d_h, d_h, 2)}
    p["fc_w"] = _glorot(rng, d_h, cfg.num_classes)
    p["fc_b"] = _zeros(1, cfg.num_classes)
    return TrainedModel(cfg, *ad.parameters(p))


def _gcn_params(rng, cfg, d_in, d_out, k):
    return {f"w{k}": _glorot(rng, d_in, d_out), f"b{k}": _zeros(1, d_out)}


def gcn_layer(h: Tensor, gs: GraphStructure, params, k: int, cfg: ModelConfig) -> Tensor:
    """Symmetric-normalized propagation: D^-1/2 (A+I) D^-1/2 H W + b."""
    pooled = ad.row_sum_pool(ad.matmul(h, params[f"w{k}"]), gs, gs.gcn_weight)
    return ad.add(pooled, params[f"b{k}"])


def _gat_suffixes(cfg: ModelConfig, k: int) -> list[str]:
    """Head name suffixes: gat_heads heads in layer 1, one unnamed head in layer 2."""
    return [f"_h{m}" for m in range(cfg.gat_heads)] if k == 1 else [""]


def _gat_params(rng, cfg, d_in, d_out, k):
    suffixes = _gat_suffixes(cfg, k)
    per_head = d_out // len(suffixes)
    p = {}
    for s in suffixes:
        p[f"w{k}{s}"] = _glorot(rng, d_in, per_head)
        p[f"a{k}_src{s}"] = _glorot(rng, per_head, 1)
        p[f"a{k}_dst{s}"] = _glorot(rng, per_head, 1)
    p[f"b{k}"] = _zeros(1, d_out)
    return p


def gat_head(h: Tensor, gs: GraphStructure, w, a_src, a_dst, slope: float) -> Tensor:
    """One attention head: softmax over N(i) u {i} of leaky-relu logits.

    The logit of edge j -> i is a_src . hw_i + a_dst . hw_j, two scores per
    node gathered to the edges as (E, 1) columns.
    """
    hw = ad.matmul(h, w)
    logits = ad.add(ad.gather_rows(ad.matmul(hw, a_src), gs, end="dst"),
                    ad.gather_rows(ad.matmul(hw, a_dst), gs))
    return ad.row_sum_pool(hw, gs, ad.row_softmax(ad.leaky_relu(logits, slope), gs))


def gat_layer(h: Tensor, gs: GraphStructure, params, k: int, cfg: ModelConfig) -> Tensor:
    """Attention heads side by side (concatenated when more than one), plus a bias."""
    heads = [
        gat_head(h, gs, params[f"w{k}{s}"], params[f"a{k}_src{s}"], params[f"a{k}_dst{s}"],
                 cfg.leaky_slope)
        for s in _gat_suffixes(cfg, k)
    ]
    return ad.add(ad.concat_cols(heads) if len(heads) > 1 else heads[0], params[f"b{k}"])


def _gin_params(rng, cfg, d_in, d_out, k):
    return {
        f"eps{k}": np.full((1, 1), cfg.gin_eps_init),
        f"mlp{k}_w1": _glorot(rng, d_in, d_out), f"mlp{k}_b1": _zeros(1, d_out),
        f"mlp{k}_w2": _glorot(rng, d_out, d_out), f"mlp{k}_b2": _zeros(1, d_out),
    }


def gin_layer(h: Tensor, gs: GraphStructure, params, k: int, cfg: ModelConfig) -> Tensor:
    """MLP((1 + eps) h + sum of neighbor rows), eps learnable."""
    scaled = ad.mul(h, ad.add(params[f"eps{k}"], Tensor([[1.0]])))
    agg = ad.add(scaled, ad.row_sum_pool(h, gs.neighbors))
    hidden = ad.relu(ad.add(ad.matmul(agg, params[f"mlp{k}_w1"]), params[f"mlp{k}_b1"]))
    return ad.add(ad.matmul(hidden, params[f"mlp{k}_w2"]), params[f"mlp{k}_b2"])


def _sage_params(rng, cfg, d_in, d_out, k):
    return {
        f"pool{k}": _glorot(rng, d_in, d_out), f"pool{k}_b": _zeros(1, d_out),
        f"out{k}": _glorot(rng, d_in + d_out, d_out), f"out{k}_b": _zeros(1, d_out),
    }


def sage_layer(h: Tensor, gs: GraphStructure, params, k: int, cfg: ModelConfig) -> Tensor:
    """Max-pool aggregation over neighbors, concat with self, l2-normalized.

    Empty neighborhoods aggregate to the zero vector.
    """
    pooled_src = ad.relu(ad.add(ad.matmul(h, params[f"pool{k}"]), params[f"pool{k}_b"]))
    agg = ad.row_max_pool(pooled_src, gs.neighbors)
    out = ad.add(ad.matmul(ad.concat_cols([h, agg]), params[f"out{k}"]), params[f"out{k}_b"])
    return ad.l2_normalize_rows(out)


def model_forward(model: TrainedModel, features, gs: GraphStructure) -> Tensor:
    """Two graph layers (ReLU between) then the FC head; raw logits, not checked for NaN or inf."""
    cfg, p = model.config, model.params
    h = features if isinstance(features, Tensor) else Tensor(features)
    if h.shape[1] != cfg.in_dim:
        raise ModelError(f"feature dim {h.shape[1]} != config in_dim {cfg.in_dim}")
    _, layer = _variant(cfg.variant)
    h = ad.relu(layer(h, gs, p, 1, cfg))
    h = layer(h, gs, p, 2, cfg)
    return ad.add(ad.matmul(h, p["fc_w"]), p["fc_b"])


def save_model(model: TrainedModel, path: str | Path):
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "weights": {
            name: {"shape": list(t.shape), "values": t.data.ravel().tolist()}
            for name, t in model.params.items()
        },
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_model(source: str | Path | bytes) -> TrainedModel:
    """Read a checkpoint from its path or its bytes; every malformed or
    incomplete one raises ModelError."""
    try:
        doc = json.loads(source.decode("utf-8") if isinstance(source, bytes)
                         else Path(source).read_text())
    except (ValueError, RecursionError) as exc:  # bad UTF-8, too many digits, too deep
        raise ModelError(f"malformed checkpoint: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("checkpoint must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ModelError(f"unsupported checkpoint version {clipped(version)}")
    config, weights = doc.get("config"), doc.get("weights")
    if not isinstance(config, dict) or not isinstance(weights, dict):
        raise ModelError("checkpoint needs a 'config' object and a 'weights' object")
    try:
        model = init_model(ModelConfig(**config))
    except TypeError as exc:
        raise ModelError(f"bad checkpoint config: {clipped(exc, str)}") from exc
    missing = sorted(set(model.params) - set(weights))
    if missing:
        raise ModelError(f"missing weights {missing}")
    for name, w in weights.items():
        if name not in model.params:
            raise ModelError(f"unexpected weight {clipped(name)}")
        try:  # _numbers gives None for values that are not all numbers
            arr = _numbers(w["values"]).reshape(w["shape"])
        except (AttributeError, TypeError, KeyError, ValueError) as exc:
            raise ModelError(f"weight {name!r} needs numeric 'values' and a 'shape'") from exc
        if arr.shape != model.params[name].shape:
            raise ModelError(f"shape mismatch for weight {name!r}")
        if not np.all(np.isfinite(arr)):
            raise ModelError(f"non-finite values in weight {name!r}")
        model.params[name].data[:] = arr
    return model
