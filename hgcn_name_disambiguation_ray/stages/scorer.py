"""BlockScorer: the stateful per-block scoring stage.

One call processes ONE candidate block (all mentions sharing a
`(block_key, salt)`) entirely in memory — the Ray-Data reincarnation of
the reference's per-name inner loop (SURVEY.md §3; reference
`name_disambiguation.py:776-1233`):

  edges (A1 coauthor / A2 cotitle ∩>=2 / covenue, D5 weighted union)
  -> seeded metapath walks (O1/O2)
  -> fused one-layer graph encoder + LINE training (C1-C4, numpy)
  -> graph-constrained HAC with modularity auto-k (C5/C6)

`pipelines/linkage` calls it from a plain `map_groups` task that keeps
one instance per Ray worker (`groupagg.worker_cached`), so the model and
the embedder cache are reused across blocks and tasks (ST1/ST2).

Determinism contract (replaces the reference's unseeded randomness,
§2.10): mentions are sorted by mention_id before indexing, and the rng
seed is blake2b(block_key, salt, cfg.seed) — identical output for any
executor parallelism, retry, or cluster size.
"""

from __future__ import annotations

from hashlib import blake2b

import numpy as np
import pandas as pd
import pyarrow as pa

from hgcn_name_disambiguation_ray.config import LinkageConfig
from hgcn_name_disambiguation_ray.state.embedder import HashEmbedder
from hgcn_name_disambiguation_ray.state.gcn import BlockEncoder
from hgcn_name_disambiguation_ray.state.hac import ghac_cluster, ghac_hybrid
from hgcn_name_disambiguation_ray.state.walks import metapath_walks


def block_seed(block_key: str, salt: int, base_seed: int) -> int:
    h = blake2b(f"{block_key}\x00{salt}\x00{base_seed}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _cooccurrence(n: int, groups: dict[object, list[int]]) -> np.ndarray:
    """Dense co-occurrence counts: +1 for every pair sharing a key."""
    w = np.zeros((n, n))
    for idx in groups.values():
        if len(idx) > 1:
            a = np.asarray(idx)
            w[np.ix_(a, a)] += 1.0
    np.fill_diagonal(w, 0.0)
    return w


def build_block_graphs(
    coentities: list[list[str]],
    tokens_stemmed: list[list[str]],
    hosts: list[str],
    min_shared_tokens: int = 2,
) -> list[np.ndarray]:
    """[Wa, Wt, Wv, W_combined] adjacency matrices for one block.

    Wa[i,j] = |coentities_i ∩ coentities_j|   (A1, reference :393-397)
    Wt[i,j] = |stemmed_i ∩ stemmed_j| if >= min_shared else 0 (A2, :420-424)
    Wv[i,j] = 1 if same host/venue                 (S5/:408-413)
    combined = weight-sum union (D5, :429-436)
    """
    n = len(hosts)
    inv_a: dict[object, list[int]] = {}
    for i, ents in enumerate(coentities):
        for e in set(ents):
            inv_a.setdefault(e, []).append(i)
    wa = _cooccurrence(n, inv_a)

    inv_t: dict[object, list[int]] = {}
    for i, toks in enumerate(tokens_stemmed):
        for t in set(toks):
            inv_t.setdefault(t, []).append(i)
    wt = _cooccurrence(n, inv_t)
    wt[wt < min_shared_tokens] = 0.0

    inv_v: dict[object, list[int]] = {}
    for i, h in enumerate(hosts):
        if h:
            inv_v.setdefault(h, []).append(i)
    wv = _cooccurrence(n, inv_v)

    return [wa, wt, wv, wa + wt + wv]


def _bitset(sets: list[set], index: dict[str, int]) -> np.ndarray:
    """(n, ceil(|index|/64)) uint64 bit matrix of each set ∩ index."""
    n = len(sets)
    words = max(1, (len(index) + 63) // 64)
    out = np.zeros((n, words), dtype=np.uint64)
    for i, s in enumerate(sets):
        for e in s:
            b = index.get(e)
            if b is not None:
                out[i, b >> 6] |= np.uint64(1) << np.uint64(b & 63)
    return out


def hop2_matrix(coentities: list[list[str]], exts: list[list[str]]) -> np.ndarray:
    """Dense 0/1 matrix: hop2[i,j] = 1 iff ext_i ∩ ce_j or ce_i ∩ ext_j.

    Only entities appearing in some mention's DIRECT coentity set can
    intersect, so bits are allocated over that universe and the pairwise
    any-common-bit test runs as packed uint64 ANDs (n rows × n×W words,
    no Python pair loop)."""
    n = len(coentities)
    ce_sets = [set(c) for c in coentities]
    index: dict[str, int] = {}
    for s in ce_sets:
        for e in s:
            index.setdefault(e, len(index))
    C = _bitset(ce_sets, index)
    E = _bitset([set(x) for x in exts], index)
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        m[i] = np.bitwise_and(C, E[i]).any(axis=1)
    out = (m | m.T).astype(np.float64)
    np.fill_diagonal(out, 0.0)
    return out


class BlockScorer:
    """Callable-class stage: one Arrow group table in, cluster rows out."""

    def __init__(self, cfg: LinkageConfig | None = None, fixed_k: bool = False,
                 emit_signatures: bool = True, w2v_ref=None):
        self.cfg = cfg or LinkageConfig()
        if w2v_ref is not None:
            # model bytes broadcast once via ray.put (multi-node safe:
            # actors never open the driver-local model file)
            import ray as _ray

            blob = _ray.get(w2v_ref) if isinstance(w2v_ref, _ray.ObjectRef) else w2v_ref
            self.embedder = HashEmbedder(
                dim=self.cfg.feature_dim, seed=self.cfg.seed, model_blob=blob
            )
        else:
            self.embedder = HashEmbedder(
                dim=self.cfg.feature_dim, seed=self.cfg.seed,
                model_path=self.cfg.word2vec_path,
            )
        self.fixed_k = fixed_k  # conformance mode C7: k = |truth clusters| column
        # cluster merge signatures feed ONLY the cross-salt merge; an
        # unsalted run (empty salt map — the common case) pays their set
        # unions + shuffle/checkpoint bytes for nothing, so callers pass
        # emit_signatures=bool(salt_map) and unsalted rows carry []
        self.emit_signatures = emit_signatures

    def __call__(self, group: pa.Table | pd.DataFrame) -> pa.Table:
        if isinstance(group, pd.DataFrame):
            group = pa.Table.from_pandas(group, preserve_index=False)
        if group.num_rows == 0:
            return pa.table(
                {
                    "block_key": pa.array([], type=pa.string()),
                    "salt": pa.array([], type=pa.int32()),
                    "mention_id": pa.array([], type=pa.string()),
                    "cluster_id": pa.array([], type=pa.string()),
                    "cluster_coentities": pa.array([], type=pa.list_(pa.string())),
                    "cluster_tokens": pa.array([], type=pa.list_(pa.string())),
                }
            )
        cols = group.to_pydict()
        order = np.argsort(np.asarray(cols["mention_id"], dtype=object), kind="stable")
        mids = [cols["mention_id"][i] for i in order]
        coents = [list(cols["coentities"][i] or []) for i in order]
        toks_st = [list(cols["tokens_stemmed"][i] or []) for i in order]
        toks_raw = [list(cols["tokens"][i] or []) for i in order]
        hosts = [cols["host"][i] for i in order]
        ext_raw = cols.get("coentities_ext")
        exts = (
            [list(ext_raw[i] or []) for i in order] if ext_raw is not None else None
        )
        bkey = cols["block_key"][0]
        salt = int(cols.get("salt", [0])[0] or 0)

        labels = self.score_block(bkey, salt, mids, coents, toks_st, toks_raw, hosts,
                                  n_clusters=self._k(cols, order),
                                  coentities_ext=exts)
        n = len(mids)
        # cluster-level merge signatures (used only when the block was
        # salted): distinct coentities and the stemmed-token union per
        # local cluster, carried on every member row.
        if self.emit_signatures:
            by_cluster: dict[int, list[int]] = {}
            for i, c in enumerate(labels):
                by_cluster.setdefault(int(c), []).append(i)
            cl_coents: dict[int, list[str]] = {}
            cl_tokens: dict[int, list[str]] = {}
            for c, idx in by_cluster.items():
                ents: set[str] = set()
                toks: set[str] = set()
                for i in idx:
                    ents.update(coents[i])
                    toks.update(toks_st[i])
                cl_coents[c] = sorted(ents)[:64]
                cl_tokens[c] = sorted(toks)[:256]
        else:
            empty: list[str] = []
            cl_coents = {int(c): empty for c in labels}
            cl_tokens = cl_coents
        return pa.table(
            {
                "block_key": pa.array([bkey] * n, type=pa.string()),
                "salt": pa.array([salt] * n, type=pa.int32()),
                "mention_id": pa.array(mids, type=pa.string()),
                "cluster_id": pa.array(
                    [f"{bkey}|{salt}|{int(c)}" for c in labels], type=pa.string()
                ),
                "cluster_coentities": pa.array(
                    [cl_coents[int(c)] for c in labels], type=pa.list_(pa.string())
                ),
                "cluster_tokens": pa.array(
                    [cl_tokens[int(c)] for c in labels], type=pa.list_(pa.string())
                ),
            }
        )

    def _k(self, cols: dict, order: np.ndarray) -> int:
        if self.fixed_k and "true_k" in cols:
            return int(cols["true_k"][0])
        return -1

    def score_block(
        self,
        block_key: str,
        salt: int,
        mention_ids: list[str],
        coentities: list[list[str]],
        tokens_stemmed: list[list[str]],
        tokens_raw: list[list[str]],
        hosts: list[str],
        n_clusters: int = -1,
        coentities_ext: list[list[str]] | None = None,
    ) -> np.ndarray:
        """Pure block scorer: returns int cluster labels aligned to inputs."""
        cfg = self.cfg
        n = len(mention_ids)
        if n == 1:
            return np.zeros(1, dtype=np.int64)
        layers = build_block_graphs(coentities, tokens_stemmed, hosts, cfg.min_shared_tokens)
        hybrid = cfg.cross_merge == "title" and n_clusters <= 0
        # the artifact regime skips OOV tokens in the encoder features
        # (dilution with zeros is the reference's standard-mode fallback,
        # kept for the faithful path)
        feats = (
            self.embedder.invocab_features(tokens_raw)
            if hybrid
            else self.embedder.features(tokens_raw)
        )
        seed = block_seed(block_key, salt, cfg.seed)
        rng = np.random.default_rng(seed)
        u_i, u_j, lab = metapath_walks(layers, cfg, rng)
        encoder = BlockEncoder(cfg, seed ^ 0x5A5A5A5A)
        embed = encoder.fit_embed(layers[:3], feats, u_i, u_j, lab)
        if hybrid:
            if cfg.cross_title_host_w > 0.0:
                from hgcn_name_disambiguation_ray.functions.text import host_tokens

                tv = self.embedder.weighted_features(
                    tokens_raw, [host_tokens(h) for h in hosts],
                    cfg.cross_title_host_w,
                )
            else:
                tv = self.embedder.weighted_features(tokens_raw)
            hop2 = hop2_matrix(coentities, coentities_ext or coentities)
            return ghac_hybrid(embed, layers[-1], tv, hop2,
                               shift=cfg.cross_shift,
                               hop2_beta=cfg.cross_hop2_beta,
                               tau_rule=cfg.cross_tau_rule)
        return ghac_cluster(embed, layers[-1], n_clusters=n_clusters,
                            threshold=cfg.ghac_threshold,
                            modularity_on=cfg.modularity_on,
                            auto_k_floor=cfg.auto_k_floor,
                            sim_mask=cfg.sim_mask)
