"""Distributed pairwise P/R/F1 (the reference's evaluation, as counts).

The reference scores a clustering by iterating all O(n²) label pairs
(`name_disambiguation.py:111-133`). The group-count identity used here
computes the same numbers without materializing pairs (SURVEY.md A5):

  TP      = Σ over (block, true, pred) cells of C(n_cell, 2)
  TP+FP   = Σ over (block, pred)       of C(n_pred, 2)
  TP+FN   = Σ over (block, true)       of C(n_true, 2)

per block, then macro-averaged over blocks like the reference's CSV
summary (`:1261-1294`). Pairs never cross blocks — "labeled pairs at the
same blocking key" per the north rule.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from .groupagg import bucketed_count, bucketed_sum


def majority_assignment(labeled: Dataset) -> Dataset:
    """Cluster -> entity-id assignment with uniqueness + singleton fill
    (SURVEY.md J4/J5; reference `name_disambiguation.py:190-232,689-734`).

    Input columns: (block_key, cluster_id, person_id). Per block: predicted
    clusters claim their most frequent member person_id, each person_id
    claimable once; clusters are processed in deterministic order
    (size desc, then cluster_id) and candidate ids in (count desc, then
    id) — this replaces the reference's dict-iteration-order greedy (D4,
    documented intentional divergence). Unclaimed person_ids become fresh
    singleton assignments (J5 anti-join semantics). Output:
    (block_key, person_id, assigned_cluster).
    """

    def per_block(g: pd.DataFrame) -> pd.DataFrame:
        bkey = g["block_key"].iloc[0]
        sizes = g.groupby("cluster_id").size().sort_values(ascending=False)
        order = sorted(sizes.index, key=lambda c: (-sizes[c], c))
        counts = g.groupby(["cluster_id", "person_id"]).size()
        assigned: dict[str, str] = {}
        taken: set[str] = set()
        for c in order:
            cand = counts.loc[c].sort_values(ascending=False)
            cand = sorted(cand.index, key=lambda p: (-cand[p], p))
            for p in cand:
                if p not in taken:
                    assigned[p] = c
                    taken.add(p)
                    break
        leftover = sorted(set(g["person_id"]) - taken)
        for i, p in enumerate(leftover):
            assigned[p] = f"__singleton_{i}"
        ids = sorted(assigned)
        return pd.DataFrame(
            {
                "block_key": [bkey] * len(ids),
                "person_id": ids,
                "assigned_cluster": [assigned[p] for p in ids],
            }
        )

    return labeled.groupby("block_key").map_groups(per_block, batch_format="pandas")


def _c2(t: pa.Table, out: str) -> pa.Table:
    """(block_key, n) cell counts -> (block_key, out = C(n, 2)), int64-exact:
    a float64 product loses exactness once n(n-1) passes 2^53."""
    n = pc.cast(t["n"], pa.int64())
    v = pc.divide(pc.multiply_checked(n, pc.subtract(n, 1)), 2)
    return pa.table({"block_key": t["block_key"], out: v})


def _block_c2_sums(labeled: Dataset, keys: list[str], out: str) -> Dataset:
    """Per-block Σ C(n_cell, 2) over the distinct-`keys` cells, computed
    entirely distributed: per-batch partial counts -> bucketed-sum cells ->
    vectorized C(n,2) -> bucketed per-block sum. Result has exactly one
    row per block_key — the only thing the driver ever pulls."""
    cells = bucketed_count(labeled, keys).map_batches(
        _c2, fn_args=(out,), batch_format="pyarrow"
    )
    return bucketed_sum(cells, ["block_key"], [out])


def pairwise_scores(labeled: Dataset) -> pd.DataFrame:
    """labeled: Dataset with columns (block_key, person_id, cluster_id).

    Returns per-block DataFrame (block_key, precision, recall, f1) plus a
    macro-average row (block_key='__macro__'), mirroring the reference's
    per-name rows + 'Avg' row (`name_disambiguation.py:1265-1303`).

    Fully distributed: cell counting, C(n,2) and the per-block TP/PP/AP
    sums all run as Ray stages; the driver materializes only the three
    one-row-per-block results (pinned by a test), so the path holds even
    when the labeled subset itself is web-scale.
    """
    labeled = labeled.materialize()  # post-clustering label rows; avoids
    # re-executing the upstream pipeline for each of the three count passes
    tp = (
        _block_c2_sums(labeled, ["block_key", "person_id", "cluster_id"], "tp")
        .to_pandas()
        .set_index("block_key")["tp"]
    )
    pp = (
        _block_c2_sums(labeled, ["block_key", "cluster_id"], "pp")
        .to_pandas()
        .set_index("block_key")["pp"]
    )
    ap = (
        _block_c2_sums(labeled, ["block_key", "person_id"], "ap")
        .to_pandas()
        .set_index("block_key")["ap"]
    )

    df = pd.DataFrame({"tp": tp, "pp": pp, "ap": ap}).fillna(0.0)
    df["precision"] = (df["tp"] / df["pp"]).where(df["tp"] > 0, 0.0)
    df["recall"] = (df["tp"] / df["ap"]).where(df["tp"] > 0, 0.0)
    denom = df["precision"] + df["recall"]
    df["f1"] = (2 * df["precision"] * df["recall"] / denom).where(denom > 0, 0.0)
    out = df.reset_index()[["block_key", "precision", "recall", "f1"]]
    macro = pd.DataFrame(
        {
            "block_key": ["__macro__"],
            "precision": [out["precision"].mean()],
            "recall": [out["recall"].mean()],
            "f1": [out["f1"].mean()],
        }
    )
    return pd.concat([out, macro], ignore_index=True)
