"""Pipeline configuration.

The model / clustering constants mirror the reference's published
constants (BASELINE.md "Model constants"; reference `GCN.py:73,124,151-159`,
`name_disambiguation.py:86,487,547-548,1060-1062`) so that per-block scoring
reproduces the reference's cluster semantics. Everything else (salting,
LSH, batch sizes) is new, scale-oriented design with no reference analogue
beyond the `max_works=100` block cap (`openAlex_to_HGCN.py:453`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LinkageConfig:
    # ---- per-block scoring model (reference constants) ----
    embed_dim: int = 100          # embedding width (reference GCN.py:73)
    feature_dim: int = 100        # token-vector width (word2vec was 100-d)
    # optional word2vec TEXT-format model file, loaded once per scorer
    # actor (the reference loads gene/word2vec.model, missing from its
    # repo; None = deterministic hash-projection embedder)
    word2vec_path: str | None = None
    # LINE minibatch. The reference uses 64 (name_disambiguation.py:547);
    # 512 keeps the same total example visits (epochs_factor) and the
    # F1>=0.99 conformance bar while cutting per-step Python overhead 8x
    # (tiny-matrix steps are dispatch-bound, not flop-bound).
    train_batch_size: int = 512
    learning_rate: float = 1e-4   # Adam lr (reference GCN.py:159)
    l2_lambda: float = 1e-4       # L2 reg weight (reference GCN.py:151-158)
    num_walks: int = 4            # walks per node (reference :1060)
    walk_length: int = 10         # steps per walk (reference :1061)
    negative_num: int = 3         # negatives per positive (reference :1062)
    # metapath over layers [coauthor, cotitle, coauthor, covenue] (reference :487/:1067)
    metapath: tuple[int, ...] = (0, 1, 0, 2)
    # layer fusion weights (5*A + 1*T + 4*V)/10 (reference GCN.py:124)
    fusion: tuple[float, float, float] = (5.0, 1.0, 4.0)
    fusion_denom: float = 10.0
    epochs_factor: int = 3        # total_batch = 3*len(u_i)/batch (reference :548)
    ghac_threshold: float = 0.9   # pre-clustering similarity threshold (reference :86)
    # which graph scores auto-k partitions: "sim" = σ-similarity graph
    # (reference standard/Arnetminer mode, :84-98), "combined" = raw
    # combined adjacency (OpenAlex variant, :649)
    modularity_on: str = "sim"
    # auto-k lower bound: "components" stops at the similarity graph's
    # component count (the reference's current GHAC code, :83-88);
    # "one" lets HAC merge disconnected components at distance 0 (the
    # regime the reference's COMMITTED cluster artifacts exhibit — they
    # predate the graph-constrained rewrite and rely on the original
    # external word2vec model for cross-component similarity)
    auto_k_floor: str = "components"
    # similarity masking: "graph" masks σ(H·Hᵀ) to combined-graph edges
    # (the reference's current GHAC signature, :61-77); "none" scores all
    # in-block pairs (the original-HGCN regime of the committed artifacts;
    # needs strong external token vectors to avoid collapse)
    sim_mask: str = "graph"
    min_shared_tokens: int = 2    # co-title edge rule |stemmed ∩| >= 2 (reference :422)
    # ---- artifact-regime cross-component merging (state/hac.py ghac_hybrid) ----
    # "none" = the faithful graph-masked GHAC above; "title" = hybrid
    # similarity that can merge across graph components like the
    # reference's committed artifacts: within-edge σ-sim shifted above
    # every cross pair, cross pairs scored by idf-weighted title-vector
    # cosine (+ 2-hop coauthor bonus), adaptive dendrogram cut. Needs
    # `word2vec_path` pointing at corpus-trained vectors (state/wordvec.py).
    cross_merge: str = "none"
    cross_shift: float = 2.0      # within-edge sim offset (dominates cross sims)
    cross_hop2_beta: float = 0.5  # bonus for 2-hop coauthor-linked cross pairs
    # adaptive cut tau = clip(a - b*edge_density - c*mean_cross_sim, lo, hi);
    # refit round 4 for the venue-augmented vectors with the same 2-fold
    # holdout protocol as round 3 (fold-fit 0.791/0.785 holdout; the old
    # (0.9, 0.45, 1.2, 0.35, 0.75) measures 0.7819 end-to-end vs 0.7833)
    cross_tau_rule: tuple[float, float, float, float, float] = (1.0, 0.45, 1.5, 0.30, 0.75)
    # weight multiplier for venue/host tokens mixed into the cross-
    # component title vector (0 = title tokens only). Only read by the
    # hybrid (cross_merge="title") path; 3.0 fitted on Arnetminer with
    # the round-4 sweep (0.778 at 0 -> 0.787 at 3.0, plateau 1.0-3.0;
    # venue tokens also join the vector TRAINING corpus, state/wordvec.py)
    cross_title_host_w: float = 3.0
    # extended-coauthor derivation (stages/coent.py): names with more
    # than this many distinct collaborators are hubs with no
    # discriminative 2-hop signal — their neighbor sets are dropped
    coent_degree_cap: int = 200
    coent_ext_max: int = 4096     # per-mention extended-set size cap (sorted prefix)

    # ---- blocking / skew (new, scale design) ----
    salt_cap: int = 512           # max mentions per (block_key, salt) sub-block;
                                  # analogue of the reference's max_works=100 cap
    minhash_perms: int = 64       # MinHash signature length
    lsh_bands: int = 16           # bands (rows = perms // bands)
    cross_salt_min_signals: int = 2  # distinct cross-salt merge signals
    #   (coentity / LSH band) two sub-block clusters must share to merge
    #   (hot_cluster_roots); replaces a dead cross_salt_jaccard knob that
    #   no code path read
    # cross-salt merge signals shared by more than this many sub-block
    # clusters are promiscuous (a web-scale hot key's popular coentity);
    # they star-bound to min-id edges instead of quadratic pair expansion
    hot_signal_max_members: int = 256

    # ---- execution ----
    extract_batch_size: int = 1024
    # unread by the engine (the scorer runs as tasks, not a pool); kept as
    # repr(cfg) feeds every checkpoint fingerprint (mentions-v1, clusters-v2)
    # and the benchmark's traced pass still reads it
    scorer_concurrency: int | tuple[int, int] = (1, 64)
    seed: int = 20240816          # global determinism seed; per-block seeds derive
                                  # from blake2b(block_key, salt, seed)

    def rows_per_band(self) -> int:
        return self.minhash_perms // self.lsh_bands


# 16-word stoplist of the reference (name_disambiguation.py:274,772) --
# stored raw; stages stem it with the same stemmer they apply to tokens.
STOPWORDS_RAW: tuple[str, ...] = (
    "at", "based", "in", "of", "for", "on", "and", "to",
    "an", "using", "with", "the", "method", "algrithom", "by", "model",
)
