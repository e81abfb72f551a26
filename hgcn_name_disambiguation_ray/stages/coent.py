"""Extended-coentity derivation for the artifact-regime GHAC (dataflow).

The reference's committed cluster artifacts merge mentions across graph
components; part of that signal is transitive collaboration — two
publications whose author sets don't intersect but whose authors have
collaborated elsewhere in the corpus. This stage materializes that
signal as a per-mention `coentities_ext` column: the mention's coentity
set unioned with every coentity's corpus-wide collaborators (2-hop
neighborhood), used by `ghac_hybrid` (state/hac.py) as the hop2 bonus.

All-dataflow, no driver materialization of the entity graph:

  1. explode mentions to distinct (mention_id, coentity) rows
     (vectorized from the Arrow list buffers);
  2. per-mention clique -> directed (x, y) collaborator pairs,
     pre-deduped per batch, then globally distinct + degree-capped in a
     bucketed groupby on x (names with more collaborators than
     `coent_degree_cap` are hubs — no discriminative signal, dropped,
     mirroring the experiment that fitted the regime);
  3. 2-hop rows: distributed hash join of the exploded mentions with
     the collaborator pairs on the shared entity (string columns only —
     Ray's hash join rejects list-typed payloads), skipped when there
     is no pair;
  4. attach: a `groupagg.cogroup` of the mentions and the 2-hop
     (mention_id, y) rows on mention_id, each side keeping its own
     columns; inside each bucket the ext set = sorted
     distinct(coentities ∪ 2-hop), capped at `coent_ext_max`.

Every shuffle is bucketed/pre-deduped; only the pair count returns to the
driver (a corpus with no collaborator pair skips the join).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

from hgcn_name_disambiguation_ray.config import LinkageConfig
from hgcn_name_disambiguation_ray.stages.groupagg import (
    bucketed_group_apply,
    cogroup,
    hash_join,
)


def _explode_coents(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(mention_id, coentity) flat arrays, distinct within each mention."""
    from hgcn_name_disambiguation_ray.functions.text import explode_list

    flat, lens = explode_list(t["coentities"])
    mids = np.repeat(np.asarray(t["mention_id"].to_pandas(), dtype=object), lens)
    if len(flat) == 0:
        return mids, flat
    df = pd.DataFrame({"m": mids, "e": flat}).drop_duplicates()
    return df["m"].to_numpy(dtype=object), df["e"].to_numpy(dtype=object)


def exploded_mention_entities(mentions: Dataset) -> Dataset:
    """mentions -> rows (mention_id, entity), distinct per mention."""

    def ex(t: pa.Table) -> pa.Table:
        m, e = _explode_coents(t)
        return pa.table({"mention_id": pa.array(m, type=pa.string()),
                         "entity": pa.array(e, type=pa.string())})

    return mentions.map_batches(ex, batch_format="pyarrow")


def collaborator_pairs(mentions: Dataset, degree_cap: int, n_buckets: int = 32) -> Dataset:
    """Globally-distinct directed collaborator pairs (x, y), with hub
    names (degree > degree_cap) dropped entirely."""

    def pairs(t: pa.Table) -> pa.Table:
        m, e = _explode_coents(t)
        empty = pa.table({"x": pa.array([], type=pa.string()),
                          "y": pa.array([], type=pa.string())})
        if len(e) == 0:
            return empty
        df = pd.DataFrame({"m": m, "e": e})
        # vectorized per-mention clique: self-merge on mention id
        p = df.merge(df, on="m")
        p = p[p["e_x"] != p["e_y"]][["e_x", "e_y"]].drop_duplicates()
        if p.empty:
            return empty
        return pa.table({"x": pa.array(p["e_x"].to_numpy(dtype=object), type=pa.string()),
                         "y": pa.array(p["e_y"].to_numpy(dtype=object), type=pa.string())})

    raw = mentions.map_batches(pairs, batch_format="pyarrow")

    def cap(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        deg = df.groupby("x")["y"].transform("size")
        return df[deg <= degree_cap]

    # bucket on x: all collaborators of one name co-locate, so the global
    # distinct + degree cap are exact
    return bucketed_group_apply(raw, ["x"], cap, n_buckets=n_buckets)


def extend_coentities(
    mentions: Dataset, cfg: LinkageConfig | None = None, n_buckets: int = 32
) -> Dataset:
    """mentions -> mentions + `coentities_ext` (list<string>) column."""
    if mentions.schema() is None:
        # empty input has no schema to carry a coentities_ext column; the
        # scorer treats a missing one as "no 2-hop signal", so passing the
        # (empty) mentions through is exact
        return mentions
    cfg = cfg or LinkageConfig()
    # the hop side's schema is given: asking the join for it would run the
    # join once more (and Ray's answer lists the projected-away `x` too)
    hop_schema = pa.schema([("mention_id", pa.string()), ("y", pa.string())])
    # the pairs stay in the object store; only their row count reaches the
    # driver. With no pair there is no 2-hop row, and Ray's hash join
    # raises ArrowInvalid on an empty side (ROADMAP C8), so it is skipped
    nbrs = collaborator_pairs(mentions, cfg.coent_degree_cap, n_buckets=n_buckets).materialize()
    if nbrs.count() == 0:
        hop = rd.from_arrow(hop_schema.empty_table())
    else:
        hop = hash_join(
            exploded_mention_entities(mentions).map_batches(
                lambda t: t.rename_columns(["mention_id", "x"]), batch_format="pyarrow"),
            nbrs, on=["x"],
        ).select_columns(["mention_id", "y"])
    ext_max = cfg.coent_ext_max

    def per_bucket(ours: pa.Table, hops: pa.Table) -> pa.Table:
        """Union direct + 2-hop entities per mention, sorted-distinct and
        capped, assembled straight into a ListArray from flat values +
        offsets — all segmented numpy / Arrow kernels, no per-row sets."""
        from hgcn_name_disambiguation_ray.functions.text import explode_list

        n = ours.num_rows
        ent_o, lens = explode_list(ours["coentities"])
        mids_ours = np.asarray(ours["mention_id"].to_pandas(), dtype=object)
        mid_o = np.repeat(mids_ours, lens)
        mid_h = np.asarray(hops["mention_id"].to_pandas(), dtype=object)
        ent_h = np.asarray(hops["y"].to_pandas(), dtype=object)
        # keep='first' tolerates duplicate mention ids (re-crawled /
        # mirrored pages): reindex on a duplicate index raises ValueError;
        # each duplicate row still receives the signals of its id
        pos = pd.Series(np.arange(n), index=mids_ours)
        if not pos.index.is_unique:
            pos = pos[~pos.index.duplicated(keep="first")]
        rr = pos.reindex(np.concatenate([mid_o, mid_h])).to_numpy()
        df = pd.DataFrame({"r": rr, "e": np.concatenate([ent_o, ent_h])})
        df = df.dropna(subset=["r"]).drop_duplicates()
        df["r"] = df["r"].astype(np.int64)
        df = df.sort_values(["r", "e"], ignore_index=True)
        # cap = the sorted prefix per mention (cumcount is C-speed)
        df = df[df.groupby("r").cumcount() < ext_max]
        counts = np.bincount(df["r"].to_numpy(), minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        ext_arr = pa.ListArray.from_arrays(
            pa.array(offsets),
            pa.array(df["e"].to_numpy(dtype=object), type=pa.string()),
        )
        return ours.append_column("coentities_ext", ext_arr)

    return cogroup(mentions, hop, ["mention_id"], per_bucket, n_buckets=n_buckets,
                   schemas=(mentions.schema(), hop_schema))
