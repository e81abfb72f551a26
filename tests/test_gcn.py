"""BlockEncoder.fit_embed against the textbook training step, bit for bit."""

import numpy as np
import pytest

from hgcn_name_disambiguation_ray.config import LinkageConfig
from hgcn_name_disambiguation_ray.state.gcn import BlockEncoder, _sigmoid, _xavier, gcn_matrix
from hgcn_name_disambiguation_ray.state.walks import metapath_walks


def _reference_fit_embed(cfg, seed, layers, features, u_i, u_j, labels):
    """The training loop as first written: np.unique rows, fancy-index
    gathers, an argsort of the inverse, reduceat and a scatter, and Adam
    out of place. fit_embed must give exactly its bits."""
    rng = np.random.default_rng(seed)
    fusion = np.asarray(cfg.fusion) / cfg.fusion_denom
    P = [gcn_matrix(a) @ features for a in layers[:3]]
    d = features.shape[1]
    W = [_xavier(rng, d, cfg.embed_dim) for _ in range(3)]
    if len(u_i) == 0:
        return BlockEncoder._forward(P, W, fusion)
    Pf2 = np.concatenate([f * p for f, p in zip(fusion, P)], axis=1).astype(np.float32)
    W2 = np.vstack(W).astype(np.float32)
    labels = labels.astype(np.float32)
    m3 = np.zeros_like(W2)
    v3 = np.zeros_like(W2)
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr, lam = cfg.learning_rate, cfg.l2_lambda
    bs = cfg.train_batch_size
    total = max(1, int(cfg.epochs_factor * len(u_i) / bs))
    n_pairs = len(u_i)
    for t in range(1, total + 1):
        lo = ((t - 1) * bs) % n_pairs
        hi = lo + bs
        if hi <= n_pairs:
            bi, bj, bl = u_i[lo:hi], u_j[lo:hi], labels[lo:hi]
        else:
            bi = np.concatenate([u_i[lo:], u_i[: hi - n_pairs]])
            bj = np.concatenate([u_j[lo:], u_j[: hi - n_pairs]])
            bl = np.concatenate([labels[lo:], labels[: hi - n_pairs]])
        rows, inv = np.unique(np.concatenate([bi, bj]), return_inverse=True)
        ri, rj = inv[: len(bi)], inv[len(bi):]
        Pr = Pf2[rows]
        Zr = Pr @ W2
        Hr = np.maximum(Zr, 0.0)
        hi_e, hj_e = Hr[ri], Hr[rj]
        dot = np.einsum("ij,ij->i", hi_e, hj_e)
        g_dot = -bl * (1.0 - _sigmoid(bl * dot)) / len(bi)
        idx = np.concatenate([ri, rj])
        contrib = np.concatenate(
            [g_dot[:, None] * hj_e, g_dot[:, None] * hi_e], axis=0
        )
        order = np.argsort(idx, kind="stable")
        sidx = idx[order]
        starts = np.flatnonzero(np.r_[True, np.diff(sidx) > 0])
        sums = np.add.reduceat(contrib[order], starts, axis=0)
        dHr = np.zeros_like(Hr)
        dHr[sidx[starts]] = sums
        dZr = dHr * (Zr > 0.0)
        G2 = Pr.T @ dZr
        G2 += lam * W2
        m3 = b1 * m3 + (1 - b1) * G2
        v3 = b2 * v3 + (1 - b2) * G2 * G2
        W2 -= lr * (m3 / (1 - b1**t)) / (np.sqrt(v3 / (1 - b2**t)) + eps)
    return np.maximum(Pf2 @ W2, 0.0).astype(np.float64)


def _block(n, seed, p=0.08, isolated=0):
    """Three weighted layers, their sum, and features. The last
    `isolated` nodes have no edge in any layer."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(3):
        w = np.triu(rng.integers(1, 4, (n, n)) * (rng.random((n, n)) < p), 1).astype(np.float64)
        if isolated:
            w[-isolated:, :] = 0.0
            w[:, -isolated:] = 0.0
        layers.append(w + w.T)
    layers.append(layers[0] + layers[1] + layers[2])
    feats = rng.standard_normal((n, LinkageConfig().feature_dim))
    return layers, feats


# (nodes, pairs kept, isolated nodes); None keeps every walk pair. The
# batch size is 512. 100 pairs is under half a batch: the wrapped slice is
# clamped, so the one batch holds 200 pairs. 300 pairs fill one batch that
# repeats pairs. 1500 pairs take 8 steps, and the third batch wraps
CASES = {
    "no_pairs": (12, 0, 0),
    "under_half_batch": (30, 100, 0),
    "half_to_full_batch": (30, 300, 0),
    "wraparound": (60, 1500, 0),
    "isolated_nodes": (40, None, 6),
}


@pytest.mark.parametrize("case", list(CASES))
def test_fit_embed_bits_match_reference(case):
    n, keep, isolated = CASES[case]
    cfg = LinkageConfig()
    layers, feats = _block(n, seed=n, isolated=isolated)
    u_i, u_j, lab = metapath_walks(layers, cfg, np.random.default_rng(n))
    if keep is not None:
        assert len(u_i) >= keep
        u_i, u_j, lab = u_i[:keep], u_j[:keep], lab[:keep]
    if case == "wraparound":
        assert 2 * cfg.train_batch_size < len(u_i) < 3 * cfg.train_batch_size
    if case == "isolated_nodes":
        # an isolated node takes part in negative pairs only
        assert not np.isin(np.arange(n - isolated, n), u_i[lab > 0]).any()
    seed = 1234 + n
    got = BlockEncoder(cfg, seed).fit_embed(layers[:3], feats, u_i, u_j, lab)
    want = _reference_fit_embed(cfg, seed, layers[:3], feats, u_i, u_j, lab)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)
    if keep != 0:
        assert got.any()
