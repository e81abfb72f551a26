"""Blocking: candidate-block keys, hot-key salting, cross-salt merge keys.

Replaces the reference's implicit "one XML file per name" blocking
(SURVEY.md §1 `blocks`) with explicit, skew-aware dataflow:

  1. `add_block_keys` — stateless map_batches appending the normalized
     entity-name key (M1 semantics, `openAlex_to_HGCN.py:46-91`).
  2. `block_counts` — pre-aggregated (per-batch partial count -> tiny
     groupby-sum) frequency stats; the ONLY full pass before the shuffle,
     over a single projected column.
  3. `make_salt_map` / `AssignSalt` — hot keys (count > salt_cap) are
     split into ceil(count/salt_cap) salts by stable mention-id hash;
     the salt map holds hot keys only, so it ships inside the salt task.
     Analogue of the reference's max_works=100 cap
     (`openAlex_to_HGCN.py:453`).
  4. `hot_cluster_roots` — for salted blocks only, local clusters carry
     merge signals: their coentities (the reference's co-author edge
     signal, Ga) and MinHash/LSH bands over their stemmed-token union
     (the scale generalization of the ∩>=2-stemmed-token rule,
     `:420-424`). Clusters of the same hot key sharing >= 2 distinct
     signals across salts merge transitively (per-key union-find over
     cluster REPRESENTATIVES, one shuffle). Partitioning assumption
     documented here: two sub-blocks of the same hot key are the same
     entity iff they share a coentity or an LSH band.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ray.data import Dataset
from ray.data.aggregate import Sum

from hgcn_name_disambiguation_ray.config import LinkageConfig
from hgcn_name_disambiguation_ray.functions.hashing import (
    band_keys,
    minhash_signatures_flat,
    perm_params,
    stable_hash64_array,
)
from hgcn_name_disambiguation_ray.functions.text import normalized_name_key


def add_block_keys(ds: Dataset) -> Dataset:
    def _add(batch: pa.Table) -> pa.Table:
        return batch.append_column("block_key", normalized_name_key(batch["name"]))

    return ds.map_batches(_add, batch_format="pyarrow")


def block_counts(ds: Dataset, min_count: int | None = None) -> pd.DataFrame:
    """Per-key mention counts via partial aggregation (no row shuffle).

    With `min_count`, only keys with n > min_count reach the driver. At
    web scale the DISTINCT key set is itself huge (hundreds of millions of
    entity names), so salt-map construction must pass min_count=salt_cap:
    the driver then sees only the (few) hot keys, not every key."""

    def partial(batch: pa.Table) -> pa.Table:
        counts = batch.group_by("block_key").aggregate([("block_key", "count")])
        # rename BY NAME: pyarrow's aggregate column order (keys first vs
        # last) is version-dependent; positionally this could label the
        # counts 'block_key' on other releases
        ren = {"block_key_count": "n"}
        return counts.rename_columns([ren.get(c, c) for c in counts.column_names])

    partials = ds.select_columns(["block_key"]).map_batches(partial, batch_format="pyarrow")
    out = partials.groupby("block_key").aggregate(Sum("n", alias_name="n"))
    if min_count is not None:
        import pyarrow.compute as pc

        out = out.map_batches(
            lambda t: t.filter(pc.greater(t["n"], min_count)), batch_format="pyarrow"
        )
    return out.to_pandas()


def make_salt_map(counts: pd.DataFrame, salt_cap: int) -> dict[str, int]:
    """{block_key: n_salts} for keys that exceed the per-block cap."""
    if counts.empty or "n" not in counts.columns:
        return {}
    hot = counts[counts["n"] > salt_cap]
    return {
        str(k): int(np.ceil(n / salt_cap))
        for k, n in zip(hot["block_key"], hot["n"])
    }


class AssignSalt:
    """Salt stage: salt = stable_hash(mention_id) % n_salts(key).

    The linkage pipeline passes an INSTANCE built from the salt map
    (`map_batches(AssignSalt(salt_map))`): Ray runs a callable instance as
    a plain task that fuses with its neighbouring maps, and the map (hot
    keys only) ships inside the task. The constructor also takes an
    ObjectRef, fetched once per instance.
    """

    def __init__(self, salt_map_ref: "ray.ObjectRef | dict"):
        self.salt_map = (
            ray.get(salt_map_ref) if isinstance(salt_map_ref, ray.ObjectRef) else salt_map_ref
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.salt_map:
            # unsalted run (the common case): salt = hash % 1 == 0 for
            # every row — skip the full-table lookup entirely
            return batch.append_column(
                "salt", pa.array(np.zeros(batch.num_rows, dtype=np.int32))
            )
        import pandas as pd

        keys = batch["block_key"].to_pandas()
        # vectorized map (C path), not a per-row Python dict lookup over
        # the whole corpus: almost every key is cold
        n_salts = (
            pd.Series(keys).map(self.salt_map).fillna(1).to_numpy(dtype=np.uint64)
        )
        mids = np.asarray(batch["mention_id"].to_pandas(), dtype=object)
        h = stable_hash64_array(mids)
        salt = (h % n_salts).astype(np.int32)
        return batch.append_column("salt", pa.array(salt, type=pa.int32()))


# domain-separation constants so coentity signals and LSH-band signals
# can never collide in the shared uint64 signal space
_SIG_COENT = np.uint64(0xA5A5_5A5A_DEAD_BEEF)
_SIG_BAND = np.uint64(0xC3C3_3C3C_1729_1729)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def hot_cluster_roots(
    hot_clusters: Dataset, cfg: LinkageConfig, min_signals: int = 2
) -> Dataset:
    """(cluster_id, root) canonical map for hot-key sub-block clusters.

    Semantics: two local clusters of the same hot key merge iff they share
    >= `min_signals` distinct merge signals — a coentity (the co-author
    edge signal, Ga) or a MinHash/LSH band over the cluster's stemmed-token
    union (the ∩>=2-token signal, Gt, at scale) — with the signal spanning
    DIFFERENT salts; the root is the transitive component's smallest
    cluster id. A single coincidentally shared signal is not enough,
    protecting precision under closure.

    Dataflow (r2 finding #1 fixed: no per-hot-key Ray dispatch, no
    Python-quadratic signal expansion):

      1. per batch, vectorized: one representative row per local cluster,
         exploded to (block_key, salt, cluster_id, signal:uint64) rows —
         coentity hashes + minhash band keys, all from Arrow buffers;
      2. bucketed shuffle by hash(block_key, signal): per signal group,
         keep only groups spanning >= 2 salts and expand cluster pairs
         vectorized (self-merge for small groups; signals with more than
         `cfg.hot_signal_max_members` members are promiscuous — "published
         on facebook.com" at web scale — and are star-bounded to min-id
         edges, a documented recall bound that keeps them linear);
      3. bucketed count of distinct signals per (u, v); pairs reaching
         `min_signals` become edges;
      4. transitive closure via the engine's own connected_components
         (driver union-find below the gate, distributed star-contraction
         above) — cluster ids never merge across block keys because every
         signal carries its block_key through steps 2-3.
    """
    from hgcn_name_disambiguation_ray.functions.hashing import (
        _splitmix64,
        hash_string_array,
    )
    from hgcn_name_disambiguation_ray.stages.closure import connected_components
    from hgcn_name_disambiguation_ray.stages.groupagg import (
        bucketed_count,
        bucketed_group_apply,
    )

    a, b = perm_params(cfg.minhash_perms, cfg.seed)
    n_bands = cfg.lsh_bands
    max_members = getattr(cfg, "hot_signal_max_members", 256)

    def rep_signals(t: pa.Table) -> pa.Table:
        """One rep row per cluster in the batch -> exploded signal rows."""
        import pyarrow.compute as pc

        t = t.select(
            ["block_key", "salt", "cluster_id", "cluster_coentities", "cluster_tokens"]
        )
        cid = pd.Series(t["cluster_id"].to_pandas())
        t = t.filter(pa.array((~cid.duplicated()).to_numpy()))
        n = t.num_rows
        empty = pa.table(
            {
                "block_key": pa.array([], type=pa.string()),
                "salt": pa.array([], type=pa.int32()),
                "cluster_id": pa.array([], type=pa.string()),
                "signal": pa.array([], type=pa.uint64()),
            }
        )
        if n == 0:
            return empty

        with np.errstate(over="ignore"):
            # coentity signals: one per (cluster, coentity)
            ce = t["cluster_coentities"]
            lens_ce = np.asarray(
                pc.fill_null(pc.list_value_length(ce), 0).to_pandas(), dtype=np.int64
            )
            flat_ce = pc.list_flatten(ce)
            sig_ce = (
                _splitmix64(hash_string_array(flat_ce) ^ _SIG_COENT)
                if len(flat_ce)
                else np.zeros(0, np.uint64)
            )
            rows_ce = np.repeat(np.arange(n), lens_ce)

            # LSH band signals over the cluster's stemmed-token union
            tok = t["cluster_tokens"]
            lens_tok = np.asarray(
                pc.fill_null(pc.list_value_length(tok), 0).to_pandas(), dtype=np.int64
            )
            flat_tok = pc.list_flatten(tok)
            th = hash_string_array(flat_tok) if len(flat_tok) else np.zeros(0, np.uint64)
            toffs = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(lens_tok, out=toffs[1:])
            sigs = minhash_signatures_flat(th, toffs, a, b)
            bands = band_keys(sigs, n_bands)  # (n, n_bands)
            nonempty = lens_tok > 0  # empty token unions carry no band signal
            band_mix = (np.arange(n_bands, dtype=np.uint64) + np.uint64(1)) * _MIX
            sig_band = _splitmix64(
                (bands[nonempty] ^ band_mix[None, :] ^ _SIG_BAND).reshape(-1)
            )
            rows_band = np.repeat(np.arange(n)[nonempty], n_bands)

        rows = np.concatenate([rows_ce, rows_band])
        sig = np.concatenate([sig_ce, sig_band])
        idx = pa.array(rows)
        return pa.table(
            {
                "block_key": t["block_key"].take(idx),
                "salt": t["salt"].take(idx),
                "cluster_id": t["cluster_id"].take(idx),
                "signal": pa.array(sig, type=pa.uint64()),
            }
        )

    sig_rows = hot_clusters.map_batches(rep_signals, batch_format="pyarrow")
    gkeys = ["block_key", "signal"]

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "block_key": pd.Series(dtype=object),
                "u": pd.Series(dtype=object),
                "v": pd.Series(dtype=object),
            }
        )
        # a cluster's rep rows may recur across batches: distinct first
        df = df.drop_duplicates(["block_key", "signal", "cluster_id"])
        sizes = df.groupby(gkeys, sort=False)["cluster_id"].transform("size")
        df = df[sizes >= 2]
        if df.empty:
            return empty
        # signal must span >= 2 salts to carry cross-salt merge information
        nun = df.groupby(gkeys, sort=False)["salt"].transform("nunique")
        df = df[nun >= 2]
        if df.empty:
            return empty
        sizes = df.groupby(gkeys, sort=False)["cluster_id"].transform("size")
        outs = []
        small = df[sizes <= max_members]
        if len(small):
            m = small[gkeys + ["cluster_id"]].merge(small[gkeys + ["cluster_id"]], on=gkeys)
            m = m[m["cluster_id_x"] < m["cluster_id_y"]]
            outs.append(
                pd.DataFrame(
                    {"block_key": m["block_key"], "u": m["cluster_id_x"], "v": m["cluster_id_y"]}
                )
            )
        large = df[sizes > max_members]
        if len(large):
            root = large.groupby(gkeys, sort=False)["cluster_id"].transform("min")
            rest = large["cluster_id"] != root
            outs.append(
                pd.DataFrame(
                    {
                        "block_key": large.loc[rest, "block_key"],
                        "u": root[rest],
                        "v": large.loc[rest, "cluster_id"],
                    }
                )
            )
        outs = [o for o in outs if len(o)]
        return pd.concat(outs, ignore_index=True) if outs else empty

    pairs = bucketed_group_apply(sig_rows, gkeys, expand, n_buckets=64)
    counted = bucketed_count(pairs, ["block_key", "u", "v"], out_col="n_signals")

    def threshold(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.greater_equal(t["n_signals"], min_signals)
        return t.filter(keep).select(["u", "v"])

    edges = counted.map_batches(threshold, batch_format="pyarrow")
    comps = connected_components(edges)

    def to_roots(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"cluster_id": df["mention_id"], "root": df["component"]})
        return out[out["cluster_id"] != out["root"]]

    return comps.map_batches(to_roots, batch_format="pandas")
