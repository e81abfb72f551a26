"""Per-block heterogeneous graph encoder + LINE-style trainer (numpy).

Reimplements the reference model semantics (SURVEY.md §2.8; reference
`GCN.py`) without TensorFlow:

  * preprocessing matrix  Â = I + D^-1/2 A D^-1/2  per layer, with the
    inf->0 guard for isolated nodes (`GCN.py:32-42`);
  * the *effective* model is one fused layer — the reference computes a
    second layer but discards it (`GCN.py:130`, documented defect §2.10) —
    H = relu((5·Âa X Wa + 1·Ât X Wt + 4·Âv X Wv) / 10)   (`GCN.py:119-130`)
    with 100-d embeddings and seeded Xavier-uniform init (`GCN.py:65-68`);
  * LINE loss  -mean(log σ(label·⟨h_i, h_j⟩)) + λ Σ ||W||²/2  with Adam
    (lr 1e-4, λ 1e-4; `GCN.py:132-159`), minibatch 64, wraparound
    slicing, total_batch = 3·len(u_i)/64 (`name_disambiguation.py:547-572`).

Since the propagated inputs P_l = Â_l X are constant during training,
they are computed once; each step only touches the three 100x100 weight
matrices, so training a block is a few hundred small matmuls.

Per-step cost. A step over b = 2·batch pair ends touching r distinct rows
does two (r, 3d)x(3d, e) gemms, one stable sort of b ints, three b-row
gathers of e floats, one segment sum of a (b, e) array and an Adam update
of the (3d, e) stack. At the dense block shape (100 nodes, 512-pair
batches) that is about 0.5 ms, and no part of it depends on the block
size. The arrays are small, so the count of numpy calls matters as much
as the arithmetic: the step takes the row set, the row ranks and the
segment starts from its one sort, and gathers with `np.take` (16 µs
against 22 µs for fancy indexing of 1024 rows of 100 float32).

Exactness. The step does the same float32 operations on the same operands
in the same order as the textbook form it replaces
(`unique(return_inverse) -> gather -> products -> argsort -> reduceat ->
scatter`), so its embeddings are bit-identical to it: a stable sort by
node id orders the ends exactly as a stable sort by row rank does, a
product is the same whichever operand comes first, and `np.add.reduceat`
runs over the same (ends x e) layout. `reduceat` is kept because it sums
each segment pairwise, not as a left fold, and no cheaper call gives its
bits. `tests/test_gcn.py` holds the textbook step as its reference.
"""

from __future__ import annotations

import numpy as np

from hgcn_name_disambiguation_ray.config import LinkageConfig


def gcn_matrix(adj: np.ndarray) -> np.ndarray:
    """Â = I + D^-1/2 A D^-1/2 with isolated-node guard (GCN.py:32-42)."""
    deg = adj.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = 1.0 / np.sqrt(deg)
    dinv[np.isinf(dinv)] = 0.0
    return np.eye(adj.shape[0]) + (dinv[:, None] * adj) * dinv[None, :]


def _xavier(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, (n_in, n_out))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -35.0, 35.0)))


class BlockEncoder:
    """Train + embed one block. Deterministic given (inputs, seed)."""

    def __init__(self, cfg: LinkageConfig, seed: int):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)

    def fit_embed(
        self,
        layers: list[np.ndarray],   # [Wa, Wt, Wv] adjacency (combined not used here)
        features: np.ndarray,       # (n, feature_dim)
        u_i: np.ndarray,
        u_j: np.ndarray,
        labels: np.ndarray,
    ) -> np.ndarray:
        cfg = self.cfg
        fusion = np.asarray(cfg.fusion) / cfg.fusion_denom
        P = [gcn_matrix(a) @ features for a in layers[:3]]  # propagated inputs
        d = features.shape[1]
        W = [_xavier(self.rng, d, cfg.embed_dim) for _ in range(3)]

        if len(u_i) == 0:
            return self._forward(P, W, fusion)

        # fold the three layers into ONE gemm per direction: propagated
        # inputs concatenated to (n, 3d) with fusion weights baked in,
        # weights stacked to (3d, e); Adam runs vectorized on the stack
        # float32 like the reference's TF graph (GCN.py placeholders)
        Pf2 = np.concatenate([f * p for f, p in zip(fusion, P)], axis=1).astype(np.float32)
        W2 = np.vstack(W).astype(np.float32)                              # (3d, e)
        labels = labels.astype(np.float32)
        m3 = np.zeros_like(W2)
        v3 = np.zeros_like(W2)
        b1, b2, eps = 0.9, 0.999, 1e-8
        lr, lam = cfg.learning_rate, cfg.l2_lambda
        bs = cfg.train_batch_size
        # floor at 1 so tiny blocks (< bs/epochs_factor pairs) still take
        # optimizer steps instead of returning a random projection
        total = max(1, int(cfg.epochs_factor * len(u_i) / bs))
        n_pairs = len(u_i)
        for t in range(1, total + 1):
            lo = ((t - 1) * bs) % n_pairs
            hi = lo + bs
            if hi <= n_pairs:
                bi, bj, bl = u_i[lo:hi], u_j[lo:hi], labels[lo:hi]
            else:  # wraparound slicing, like the reference's modular slicing
                bi = np.concatenate([u_i[lo:], u_i[: hi - n_pairs]])
                bj = np.concatenate([u_j[lo:], u_j[: hi - n_pairs]])
                bl = np.concatenate([labels[lo:], labels[: hi - n_pairs]])

            nb = len(bi)
            # one stable sort of the 2·nb pair ends gives the touched rows
            # (`first` marks each row's first end), every end's row rank
            # (`inv`) and the segment starts of the gradient sum below
            ends = np.concatenate([bi, bj])
            order = np.argsort(ends, kind="stable")
            sorted_ends = ends[order]
            first = np.empty(2 * nb, dtype=bool)
            first[0] = True
            np.not_equal(sorted_ends[1:], sorted_ends[:-1], out=first[1:])
            starts = np.flatnonzero(first)
            inv = np.empty(2 * nb, dtype=np.intp)
            inv[order] = np.cumsum(first) - 1
            # only the rows named by this minibatch matter: forward and
            # gradients restricted to them make the per-step cost
            # O(batch·d²), independent of the block size N
            Pr = np.take(Pf2, sorted_ends[starts], axis=0)  # (r, 3d)
            Zr = Pr @ W2
            Hr = np.maximum(Zr, 0.0)
            dot = np.einsum("ij,ij->i", np.take(Hr, inv[:nb], axis=0),
                            np.take(Hr, inv[nb:], axis=0))
            # d/ddot of -log σ(l·dot) = -l·(1-σ(l·dot))
            g_dot = -bl * (1.0 - _sigmoid(bl * dot)) / nb
            # scatter-add as a segment sum over the sorted ends: the end at
            # sorted position k belongs to pair order[k] % nb and takes
            # g_dot times its partner's row. Every touched row owns exactly
            # one segment, in row order, so the sums are dH itself (np.add.at
            # is slower: it buffers per element)
            contrib = np.take(Hr, inv[(order + nb) % (2 * nb)], axis=0)
            contrib *= np.take(g_dot, order % nb)[:, None]
            dZr = np.add.reduceat(contrib, starts, axis=0)
            dZr *= Zr > 0.0
            G2 = Pr.T @ dZr
            G2 += lam * W2
            # Adam in place, in the order of m = b1·m + (1-b1)·G,
            # v = b2·v + (1-b2)·G·G, W -= lr·(m/c1) / (sqrt(v/c2) + eps)
            m3 *= b1
            m3 += (1 - b1) * G2
            G2 *= (1 - b2) * G2
            v3 *= b2
            v3 += G2
            step = m3 / (1 - b1**t)
            step *= lr
            den = v3 / (1 - b2**t)
            np.sqrt(den, out=den)
            den += eps
            step /= den
            W2 -= step
        return np.maximum(Pf2 @ W2, 0.0).astype(np.float64)

    @staticmethod
    def _forward(P: list[np.ndarray], W: list[np.ndarray], fusion: np.ndarray) -> np.ndarray:
        Z = sum(f * (p @ w) for f, p, w in zip(fusion, P, W))
        return np.maximum(Z, 0.0)
