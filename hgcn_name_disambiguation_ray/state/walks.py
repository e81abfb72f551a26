"""Seeded metapath random walks with alias sampling (per-block, in-actor).

Reimplements the reference walk semantics (SURVEY.md O1/O2; reference
`name_disambiguation.py:29-58` alias method, `:439-532`/`:1035-1127`
walks) on numpy adjacency matrices with an explicit
`np.random.Generator`, making every walk a pure function of the block
seed — the reference draws from the unseeded global `np.random` (§2.10
nondeterminism, intentionally not replicated).

Semantics preserved:
  * per-layer neighbor samplers ∝ edge weight;
  * negative samplers over the *combined* graph with hop-distance
    weights (unreachable -> 6, self -> 0, distance <= 1 -> 0);
  * numwalks=4 walks per node, walk j entering the metapath
    [coauthor, cotitle, coauthor, covenue] at offset j;
  * each step: one positive (start, neighbor), `negative_num` negatives,
    a 2-hop lookahead positive in the next metapath layer with its own
    negatives, then advance; dead-end layers emit negatives only.

Pooled uniforms. The walk loop makes tens of thousands of alias draws per
block, two uniforms each, so it never calls the generator per draw. It
draws uniforms in `rng.random(65536)` chunks, the first one on entry and
each further one only when the loop reads past the last, and reads a
chunk through 1024-value `tolist()` slices: Python floats are the same
doubles, and the alias tables are Python lists too, so a draw is a few
list reads and no numpy call. A whole chunk is not converted at once,
because most web blocks read only a few of its values. The generator
thus makes the same calls, in the same order, as a walk that read one
chunk value per uniform, and the `draw_many` negatives and the final
permutation that follow it see the same stream;
`tests/test_walks.py` pins the triples by digest.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from hgcn_name_disambiguation_ray.config import LinkageConfig


class AliasTable:
    """Walker's alias method: O(n) build, O(1) draws. Public algorithm.

    The table is built over Python floats (the same IEEE doubles numpy
    holds) and kept as lists, which the walk loop reads directly."""

    __slots__ = ("n", "idx", "prob", "alias")

    def __init__(self, weights: np.ndarray, idx: np.ndarray):
        p = weights / weights.sum()
        n = len(p)
        scaled = (p * n).tolist()
        prob = [1.0] * n
        alias = list(range(n))
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s, l = small.pop(), large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            (small if scaled[l] < 1.0 else large).append(l)
        self.n = n
        self.idx = idx.tolist()
        self.prob = prob
        self.alias = alias

    def draw_many(self, rng: np.random.Generator, k: int) -> np.ndarray:
        i = rng.integers(0, self.n, size=k)
        take_alias = rng.random(k) >= np.asarray(self.prob)[i]
        j = np.where(take_alias, np.asarray(self.alias)[i], i)
        return np.asarray(self.idx, dtype=np.int64)[j]


def bfs_hop_distances(adj: np.ndarray) -> np.ndarray:
    """All-pairs hop distance over the unweighted version of `adj`.

    Returns float matrix with np.inf for unreachable pairs. Uses
    repeated boolean frontier expansion (vectorized, O(diameter) matmuls).
    """
    n = adj.shape[0]
    reach = adj > 0
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    cur = reach.copy()
    d = 1
    while d <= n:
        newly = cur & np.isinf(dist)
        if not newly.any():
            break
        dist[newly] = d
        cur = cur @ reach  # boolean matmul: next frontier superset
        d += 1
    return dist


def build_samplers(
    layers: list[np.ndarray],
    used_layers: set[int] | None = None,
) -> tuple[list[list[AliasTable | None]], list[AliasTable | None]]:
    """Neighbor samplers per (layer, node) and negative samplers over the
    last (combined) layer's hop-distance distribution. `used_layers`
    restricts neighbor-table construction to the layers the metapath
    actually indexes — the combined layer (the densest) only feeds the
    negative samplers, so building its per-node tables is pure waste in
    the hot per-block path. Construction consumes no RNG, so skipping
    unused layers changes no outputs."""
    neighbor: list[list[AliasTable | None]] = []
    for li, adj in enumerate(layers):
        if used_layers is not None and li not in used_layers:
            neighbor.append([])
            continue
        per_node: list[AliasTable | None] = []
        for i in range(adj.shape[0]):
            w = adj[i]
            nz = np.nonzero(w)[0]
            per_node.append(AliasTable(w[nz], nz) if len(nz) else None)
        neighbor.append(per_node)

    combined = layers[-1]
    dist = bfs_hop_distances(combined)
    dist[np.isinf(dist)] = 6.0      # unreachable -> 6 (reference :1049)
    np.fill_diagonal(dist, 0.0)     # self -> 0
    dist[dist <= 1.0] = 0.0         # direct neighbors -> 0
    negative: list[AliasTable | None] = []
    for d in dist:
        nz = np.nonzero(d)[0]
        negative.append(AliasTable(d[nz], nz) if len(nz) else None)
    return neighbor, negative


_CHUNK = 65536
_SLICE = 1024


def _uniform_slices(rng: np.random.Generator, chunk: np.ndarray) -> Iterator[list[float]]:
    """`chunk`, then each further rng.random(_CHUNK), as lists of _SLICE
    Python floats. A further chunk is drawn only when its first slice is
    asked for, so a walk takes exactly the chunks it reads."""
    while True:
        for lo in range(0, _CHUNK, _SLICE):
            yield chunk[lo:lo + _SLICE].tolist()
        chunk = rng.random(_CHUNK)


def metapath_walks(
    layers: list[np.ndarray], cfg: LinkageConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate (u_i, u_j, label±1) training triples for one block."""
    metapath = cfg.metapath
    neighbor, negative = build_samplers(layers, used_layers=set(metapath))
    n = layers[-1].shape[0]
    # per metapath position, each node's table as an (n, prob, alias, idx)
    # tuple of lists, or None at a dead end
    steps = len(metapath)
    tables = [
        [None if t is None else (t.n, t.prob, t.alias, t.idx) for t in neighbor[gi]]
        for gi in metapath
    ]
    slices = _uniform_slices(rng, rng.random(_CHUNK))
    us: list[float] = []    # the slice being read
    pos = 0                 # its next unread value
    u_i: list[int] = []
    u_j: list[int] = []
    # negative draws never influence the walk path, so they are only
    # COUNTED here and drawn in one draw_many per node afterwards; the
    # final seeded permutation re-mixes positives and negatives so
    # minibatches stay balanced (divergence from the reference's
    # interleaved order is covered by the F1>=0.99 conformance bar)
    neg_requests = [0] * n

    for node_index in range(n):
        for j in range(cfg.num_walks):
            node_start = node_index
            g = j % steps
            for _ in range(cfg.walk_length):
                sampler = tables[g][node_start]
                g = (g + 1) % steps
                neg_requests[node_start] += 1
                if sampler is None:
                    continue
                if pos == len(us):
                    us = next(slices)
                    pos = 0
                m, prob, alias, idx = sampler
                i = int(us[pos] * m)
                node_p = idx[i] if us[pos + 1] < prob[i] else idx[alias[i]]
                pos += 2
                u_i.append(node_start)
                u_j.append(node_p)
                sampler = tables[g][node_p]
                if sampler is not None:
                    if pos == len(us):
                        us = next(slices)
                        pos = 0
                    m, prob, alias, idx = sampler
                    i = int(us[pos] * m)
                    u_i.append(node_start)
                    u_j.append(idx[i] if us[pos + 1] < prob[i] else idx[alias[i]])
                    pos += 2
                    neg_requests[node_start] += 1
                node_start = node_p
    neg_i: list[np.ndarray] = []
    neg_j: list[np.ndarray] = []
    for node in range(n):
        r = neg_requests[node]
        if r and negative[node] is not None:
            k = r * cfg.negative_num
            neg_i.append(np.full(k, node, dtype=np.int64))
            neg_j.append(negative[node].draw_many(rng, k))
    ui = np.concatenate([np.asarray(u_i, dtype=np.int64)] + neg_i) if neg_i else np.asarray(u_i, dtype=np.int64)
    uj = np.concatenate([np.asarray(u_j, dtype=np.int64)] + neg_j) if neg_j else np.asarray(u_j, dtype=np.int64)
    ll = np.concatenate(
        [np.ones(len(u_i)), -np.ones(len(ui) - len(u_i))]
    )
    perm = rng.permutation(len(ui))
    return ui[perm], uj[perm], ll[perm]
