"""Sketch aggregates: sublinear-state statistics for web-scale corpora.

HyperLogLog distinct counting (Flajolet et al. 2007): each batch folds
its values into m = 2^p one-byte registers; register merge is an
elementwise MAX — commutative and idempotent, so the result is exactly
partitioning- and order-invariant (the property a 256-node shuffle-free
aggregate needs). The driver reduces one m-byte row per block: the
whole corpus collapses to kilobytes of state in a single streaming pass,
where exact distinct counting needs a full shuffle of every distinct
value (`vocabulary`). Standard relative error ≈ 1.04/sqrt(m)
(~1.6% at p=12).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from hgcn_name_disambiguation_ray.functions.hashing import _splitmix64, hash_string_array
from hgcn_name_disambiguation_ray.stages.groupagg import bucketed_sum, hash_join, worker_cached


def _nlz64(x: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros for uint64 (6-step binary search)."""
    x = x.copy()
    n = np.zeros(x.shape, dtype=np.int64)
    zero = x == 0
    with np.errstate(over="ignore"):
        for s in (32, 16, 8, 4, 2, 1):
            m = x < (np.uint64(1) << np.uint64(64 - s))
            n += np.where(m, s, 0)
            x = np.where(m, x << np.uint64(s), x)
    n[zero] = 64
    return n


def _registers_from_hashes(h: np.ndarray, p: int) -> np.ndarray:
    """uint64 hashes -> m=2^p uint8 HLL registers (max rank per bucket)."""
    m = 1 << p
    reg = np.zeros(m, dtype=np.uint8)
    if len(h) == 0:
        return reg
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    with np.errstate(over="ignore"):
        w = h << np.uint64(p)
    rank = np.minimum(_nlz64(w) + 1, 64 - p + 1).astype(np.uint8)
    np.maximum.at(reg, idx, rank)
    return reg


def _estimate(reg: np.ndarray) -> float:
    """The standard HLL estimator with the small-range (linear counting)
    correction; the 64-bit-hash large-range correction is unnecessary."""
    m = len(reg)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-reg.astype(np.float64)))
    if e <= 2.5 * m:
        v = int(np.sum(reg == 0))
        if v > 0:
            return m * np.log(m / v)
    return float(e)


def _reduce_registers(ds_regs: Dataset, p: int) -> np.ndarray:
    """Merge per-block register rows (elementwise max). The driver sees
    one m-byte row per block — bounded state, never corpus data."""
    m = 1 << p
    reg = np.zeros(m, dtype=np.uint8)
    for row in ds_regs.take_all():
        reg = np.maximum(reg, np.asarray(row["reg"], dtype=np.uint8))
    return reg


def approx_distinct(ds: Dataset, col: str, p: int = 12) -> int:
    """Approximate distinct count of a string or integer column."""

    def per_batch(t: pa.Table) -> pa.Table:
        h, valid = _hash_column(t, col)
        # nulls don't count (SQL COUNT(DISTINCT col) ignores them)
        return pa.table({"reg": pa.array([_registers_from_hashes(h[valid], p)])})

    return int(round(_estimate(_reduce_registers(
        ds.map_batches(per_batch, batch_format="pyarrow"), p
    ))))


def approx_distinct_tokens(ds: Dataset, text_col: str = "text", p: int = 12) -> int:
    """Approximate distinct lowercased-whitespace-token count — the
    one-pass, shuffle-free stand-in for `vocabulary`'s exact distinct."""
    from hgcn_name_disambiguation_ray.functions.text import split_ws_hashed

    def per_batch(t: pa.Table) -> pa.Table:
        h, _ = split_ws_hashed(t[text_col], lower=True)
        return pa.table({"reg": pa.array([_registers_from_hashes(h, p)])})

    return int(round(_estimate(_reduce_registers(
        ds.map_batches(per_batch, batch_format="pyarrow"), p
    ))))


# --------------------------------------------------------------------------
# Bloom filter: incremental dedup against a prior corpus snapshot
# --------------------------------------------------------------------------

def _bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """k derived bit positions per hash (double hashing: h1 + i*h2 —
    Kirsch & Mitzenmacher 2006), shape (len(h), k)."""
    h1 = h % np.uint64(m_bits)
    h2 = (_splitmix64(h) % np.uint64(m_bits - 1)) + np.uint64(1)
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)).astype(np.int64)


def _hash_column(t: pa.Table, col: str) -> tuple[np.ndarray, np.ndarray]:
    """(uint64 hashes, valid mask). Integer decode goes straight through
    Arrow buffers — a to_pandas round-trip would degrade a null-containing
    batch to float64, making a value's hash depend on its batchmates'
    nulls (values above 2^53 round), which would let a genuinely-seen key
    slip past the Bloom filter as a FALSE NEGATIVE. Null keys are marked
    invalid: SQL equality semantics say NULL matches nothing, so callers
    must treat them as never-seen / not-distinct-countable."""
    import pyarrow.compute as pc

    c = t[col]
    arr = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
    valid = (
        pc.is_valid(arr).to_numpy(zero_copy_only=False)
        if arr.null_count
        else np.ones(len(arr), dtype=bool)
    )
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        return hash_string_array(arr), valid
    ints = pc.fill_null(arr.cast(pa.int64()), 0).to_numpy(zero_copy_only=False)
    return _splitmix64(ints.astype(np.uint64, copy=False)), valid


def bloom_build(ds: Dataset, col: str, m_bits: int = 1 << 20, k: int = 7) -> np.ndarray:
    """Fold a column into a Bloom bit array (packed uint8, m_bits/8
    bytes). Merge across blocks is bitwise OR — commutative/idempotent
    like the HLL register max, so the build is partitioning-invariant
    and shuffle-free; the driver reduces one m/8-byte row per block.
    Size m_bits ≈ 10 bits/element for ~0.8% false positives at k=7."""

    def per_batch(t: pa.Table) -> pa.Table:
        bits = np.zeros(m_bits // 8, dtype=np.uint8)
        h, valid = _hash_column(t, col)
        h = h[valid]  # null keys are not members (SQL: NULL = x is never true)
        if len(h):
            pos = _bloom_positions(h, m_bits, k).reshape(-1)
            np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
        return pa.table({"bits": pa.array([bits])})

    out = np.zeros(m_bits // 8, dtype=np.uint8)
    for row in ds.map_batches(per_batch, batch_format="pyarrow").take_all():
        out |= np.asarray(row["bits"], dtype=np.uint8)
    return out


def _bloom_seen(t: pa.Table, ref, col: str, k: int) -> np.ndarray:
    """Row mask of `t`: True where `col` is (probably) in the Bloom bits
    behind `ref`, which a worker copies out of the object store once
    (`worker_cached`). Null keys are never seen."""
    bits = worker_cached(("bloom", ref.hex()), lambda: ray.get(ref).copy())
    h, valid = _hash_column(t, col)
    pos = _bloom_positions(h, len(bits) * 8, k)
    hit = (bits[pos >> 3] & (np.uint8(1) << (pos & 7).astype(np.uint8))) != 0
    return hit.all(axis=1) & valid


def bloom_filter_seen(
    ds: Dataset, bloom_bits: np.ndarray, col: str, k: int = 7
) -> Dataset:
    """Drop rows whose `col` is (probably) in the snapshot the Bloom
    bits were built from — the incremental-crawl dedup fast path. NO
    false negatives (every genuinely-seen value drops); false positives
    drop ~m/n/k-bound extra rows, acceptable where a re-crawled page
    costs more than a rare lost one. For exactness, follow with the
    distributed semi-join (`exact_dedup_corpus` pattern) on survivors.

    The bit array is broadcast ONCE via ray.put and probed by a plain
    task that resolves it once per worker."""
    ref = ray.put(np.asarray(bloom_bits, dtype=np.uint8))
    return ds.map_batches(
        lambda t: t.filter(pa.array(~_bloom_seen(t, ref, col, k))), batch_format="pyarrow"
    )


def incremental_dedup(
    new_ds: Dataset,
    snapshot_ds: Dataset,
    col: str,
    m_bits: int = 1 << 20,
    k: int = 7,
) -> Dataset:
    """EXACT incremental dedup of a new crawl against a prior snapshot,
    with the Bloom filter as the volume killer: rows the filter calls
    definitely-new (no false negatives ⇒ provably not in the snapshot)
    bypass the join entirely; only the maybe-seen subset — true re-crawls
    plus the ~1% false positives — goes through the distributed anti-join
    that resurrects the false positives. The join therefore moves
    O(overlap) rows instead of O(corpus), and the result equals the plain
    anti-join bit for bit (SQL-oracle-checked).

    The probe is recomputed by each branch on purpose: re-hashing a
    batch is far cheaper than materializing the whole new corpus."""
    ref = ray.put(bloom_build(snapshot_ds, col, m_bits, k))
    cols = new_ds.columns()
    definitely_new = new_ds.map_batches(
        lambda t: t.filter(pa.array(~_bloom_seen(t, ref, col, k))), batch_format="pyarrow"
    )
    maybe_seen = new_ds.map_batches(
        lambda t: t.filter(pa.array(_bloom_seen(t, ref, col, k))), batch_format="pyarrow"
    )
    snap_keys = snapshot_ds.select_columns([col])
    resurrected = hash_join(maybe_seen, snap_keys, on=[col], how="anti")
    return definitely_new.select_columns(cols).union(
        resurrected.select_columns(cols)
    )


# --------------------------------------------------------------------------
# KLL quantile sketch: unbounded / high-cardinality domains
# --------------------------------------------------------------------------
#
# `char_quantiles` (pipelines/textprep.py) is EXACT but assumes the
# distinct-value count is small (bounded ints). For unbounded domains
# (floats, high-cardinality ints) this is the sketch path: KLL
# (Karnin, Lang, Liberty, "Optimal Quantile Approximation in Streams",
# FOCS 2016 — a public algorithm), simplified to fixed per-level
# capacity k (space O(k log(n/k)), rank error O(log(n/k)/k) — a few
# milli-quantiles at k=256 for any realistic n). Same shape as HLL:
# one small sketch row per batch, a driver reduce over O(n_blocks)
# rows of bounded state; merge is level-wise concat + recompact, so
# the result is independent of partitioning up to the deterministic
# compaction coin.


class KLLSketch:
    """Mergeable quantile sketch over float64 values.

    Level i holds items of weight 2^i. Compaction sorts a full level and
    promotes every other item (offset from a deterministic splitmix
    counter — reproducible across runs, unbiased across compactions).
    """

    __slots__ = ("k", "n", "_coin", "levels")

    def __init__(self, k: int = 256) -> None:
        if k < 8:
            raise ValueError("k must be >= 8")
        self.k = int(k)
        self.n = 0
        self._coin = np.uint64(0x5EED_C0DE)
        self.levels: list[np.ndarray] = [np.empty(0, np.float64)]

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return
        self.n += len(v)
        # feed in k-sized slices so level 0 never holds more than 2k items
        for lo in range(0, len(v), self.k):
            self.levels[0] = np.concatenate([self.levels[0], v[lo : lo + self.k]])
            self._compress()

    def merge(self, other: "KLLSketch") -> None:
        if other.k != self.k:
            raise ValueError("cannot merge sketches with different k")
        self.n += other.n
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, np.float64))
        for i, lv in enumerate(other.levels):
            if len(lv):
                self.levels[i] = np.concatenate([self.levels[i], lv])
        self._coin ^= other._coin
        self._compress()

    def _flip(self) -> int:
        from hgcn_name_disambiguation_ray.functions.hashing import _splitmix64

        self._coin += np.uint64(1)
        return int(_splitmix64(np.array([self._coin], dtype=np.uint64))[0] & np.uint64(1))

    def _compress(self) -> None:
        level = 0
        while level < len(self.levels):
            buf = self.levels[level]
            if len(buf) > self.k:
                buf = np.sort(buf, kind="stable")
                promoted = buf[self._flip() :: 2]
                self.levels[level] = np.empty(0, np.float64)
                if level + 1 == len(self.levels):
                    self.levels.append(np.empty(0, np.float64))
                self.levels[level + 1] = np.concatenate(
                    [self.levels[level + 1], promoted]
                )
            level += 1

    def _weighted(self) -> tuple[np.ndarray, np.ndarray]:
        vals = np.concatenate([lv for lv in self.levels]) if self.n else np.empty(0)
        wts = (
            np.concatenate(
                [np.full(len(lv), 1 << i, dtype=np.int64) for i, lv in enumerate(self.levels)]
            )
            if self.n
            else np.empty(0, np.int64)
        )
        order = np.argsort(vals, kind="stable")
        return vals[order], wts[order]

    def quantiles(self, qs: np.ndarray) -> np.ndarray:
        """Value at 1-based rank ceil(q * W) of the weighted item stream
        (same integer milli-rank convention as `char_quantiles`)."""
        vals, wts = self._weighted()
        if not len(vals):
            return np.zeros(len(qs), dtype=np.float64)
        cum = np.cumsum(wts)
        w = int(cum[-1])
        q_milli = np.round(np.asarray(qs, dtype=np.float64) * 1000).astype(np.int64)
        ranks = ((q_milli * w + 999) // 1000).clip(1, w)
        return vals[np.searchsorted(cum, ranks, side="left")]

    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps(
            {"k": self.k, "n": self.n, "coin": int(self._coin), "levels": self.levels}
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "KLLSketch":
        import pickle

        d = pickle.loads(raw)
        sk = cls(d["k"])
        sk.n = d["n"]
        sk._coin = np.uint64(d["coin"])
        sk.levels = d["levels"]
        return sk


def kll_sketch(ds: Dataset, col: str, k: int = 256) -> KLLSketch:
    """One KLL sketch over a numeric column: per-batch sketches (bounded
    state, built where the data lives), then a driver merge over
    O(n_blocks) ~k*log(n/k)*8-byte rows — never the column itself."""

    def per_batch(t: pa.Table) -> pa.Table:
        sk = KLLSketch(k)
        sk.add(t[col].to_numpy(zero_copy_only=False).astype(np.float64))
        return pa.table({"sketch": pa.array([sk.to_bytes()], pa.binary())})

    merged = KLLSketch(k)
    for row in ds.select_columns([col]).map_batches(
        per_batch, batch_format="pyarrow"
    ).take_all():
        merged.merge(KLLSketch.from_bytes(row["sketch"]))
    return merged


def kll_quantiles(
    ds: Dataset,
    col: str,
    qs: tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99),
    k: int = 256,
) -> "pa.Table":
    """Sketched quantiles with the exact rank error pinned IN-ROW: for
    each q, `est_value` is the KLL estimate and `err_milli` is the
    distance |true_rank(est_value) - q| in milli-quantiles, where the
    true rank comes from an exact distributed (value -> count) CDF of the
    same column. The hard signal a driver rows-only check can grade
    without an oracle: err_milli must stay within the sketch's bound
    (a few milli at k=256).

    Nothing is pinned: the sketch pass and the CDF pass each re-run `ds`,
    so both must see the same rows (a deterministic upstream). Their
    value totals are compared, and a mismatch raises."""

    def counts(t: pa.Table) -> pa.Table:
        x = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        vals, cnts = np.unique(x[~np.isnan(x)], return_counts=True)
        return pa.table({"value": pa.array(vals), "cnt": pa.array(cnts.astype(np.int64))})

    ds = ds.select_columns([col])
    sk = kll_sketch(ds, col, k)
    q_arr = np.asarray(qs, dtype=np.float64)
    est = sk.quantiles(q_arr)

    cdf = (
        bucketed_sum(ds.map_batches(counts, batch_format="pyarrow"), ["value"], ["cnt"])
        .to_pandas()
        .sort_values("value")
    )
    vals = cdf["value"].to_numpy(dtype=np.float64)
    cum = cdf["cnt"].to_numpy(dtype=np.int64).cumsum()
    n = int(cum[-1]) if len(cum) else 0
    _check_passes_agree("kll_quantiles", sk.n, n)
    q_milli = np.round(q_arr * 1000).astype(np.int64)
    if n:
        # exact 1-based rank of the estimated value = #values <= est
        rank = cum[np.searchsorted(vals, est, side="right") - 1]
        rank = np.where(np.searchsorted(vals, est, side="right") == 0, 0, rank)
        exact_rank_milli = (rank * 1000 + n - 1) // n
    else:
        exact_rank_milli = np.zeros(len(q_milli), dtype=np.int64)
    return pa.table(
        {
            "q_milli": pa.array(q_milli),
            "est_value": pa.array(est),
            "exact_rank_milli": pa.array(exact_rank_milli.astype(np.int64)),
            "err_milli": pa.array(np.abs(exact_rank_milli - q_milli).astype(np.int64)),
        }
    )


# --------------------------------------------------------------------------
# Misra-Gries heavy hitters: candidates by sketch, verdict by exact count
# --------------------------------------------------------------------------
#
# The scale path for "which tokens exceed n/k of the corpus": a full
# token groupby (`vocabulary`) shuffles every distinct token; this runs
# two shuffle-free passes instead. Pass 1 folds each batch into a
# k-counter Misra-Gries summary (1982; merge rule from Agarwal/Cormode
# et al., "Mergeable Summaries", PODS 2012: sum counters, subtract the
# (k+1)-th largest, keep positives — every subtraction round removes
# >= (k+1) x the subtracted value of mass, so total undercount <=
# n/(k+1) and every item with true count > n/(k+1) SURVIVES). Pass 2
# broadcasts the <= k candidates and counts them exactly, so the output
# is precisely the SQL `HAVING count(*) * k > total` set — sketch
# proposes, exact count decides; the guarantee just rules out false
# negatives. Driver state is O(n_blocks * k), same contract as HLL.


class MisraGries:
    """Deterministic mergeable heavy-hitters summary with k counters."""

    __slots__ = ("k", "counts")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.counts: dict[str, int] = {}

    def add_counts(self, tokens: list[str], counts: np.ndarray) -> None:
        """Fold pre-aggregated (token, count) pairs (e.g. one batch's
        exact histogram) into the summary, then reduce to k counters."""
        for t, c in zip(tokens, counts.tolist()):
            self.counts[t] = self.counts.get(t, 0) + int(c)
        self._reduce()

    def merge(self, other: "MisraGries") -> None:
        if other.k != self.k:
            raise ValueError("cannot merge summaries with different k")
        for t, c in other.counts.items():
            self.counts[t] = self.counts.get(t, 0) + c
        self._reduce()

    def _reduce(self) -> None:
        if len(self.counts) <= self.k:
            return
        vals = sorted(self.counts.values(), reverse=True)
        thresh = vals[self.k]  # the (k+1)-th largest counter
        self.counts = {t: c - thresh for t, c in self.counts.items() if c > thresh}

    def to_bytes(self) -> bytes:
        import pickle

        return pickle.dumps({"k": self.k, "counts": self.counts})

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MisraGries":
        import pickle

        d = pickle.loads(raw)
        sk = cls(d["k"])
        sk.counts = d["counts"]
        return sk


def heavy_hitters(
    ds: Dataset,
    text_col: str = "text",
    k: int = 50,
) -> pa.Table:
    """Tokens whose exact corpus count exceeds total/k, found WITHOUT a
    full token shuffle: Misra-Gries candidate pass (one small sketch row
    per batch, O(n_blocks*k) driver merge), then an exact verify pass
    over only the <= k candidates (broadcast lookup, bucketed sum).
    Returns (token, cnt) sorted by token — exactly the SQL
    `GROUP BY token HAVING count(*) * k > total` result.

    The two passes must see the SAME rows; their token totals are
    compared, and a mismatch raises. Both passes stream, so nothing pins
    the corpus body in the object store (the 100 TB path); a caller with a
    nondeterministic upstream (e.g. sampling) passes `ds.materialize()`."""
    from hgcn_name_disambiguation_ray.functions.text import split_ws_flat

    def per_batch(t: pa.Table) -> pa.Table:
        flat, _offsets = split_ws_flat(t[text_col], lower=True)
        sk = MisraGries(k)
        if len(flat):
            toks, cnts = np.unique(flat.astype(str), return_counts=True)
            sk.add_counts(toks.tolist(), cnts)
        return pa.table(
            {
                "sketch": pa.array([sk.to_bytes()], pa.binary()),
                "n": pa.array([int(len(flat))], pa.int64()),
            }
        )

    ds = ds.select_columns([text_col])
    merged = MisraGries(k)
    total = 0
    for row in ds.map_batches(per_batch, batch_format="pyarrow").take_all():
        merged.merge(MisraGries.from_bytes(row["sketch"]))
        total += int(row["n"])
    if not merged.counts or total == 0:
        return pa.table({"token": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})

    # exact verify: candidates broadcast once, counted vectorized per batch
    cand_ref = ray.put(np.sort(np.asarray(list(merged.counts), dtype=object)))

    def count_cands(t: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        flat, _offsets = split_ws_flat(t[text_col], lower=True)
        out = np.zeros(len(cands), dtype=np.int64)
        if len(flat):
            toks, cnts = np.unique(flat.astype(str), return_counts=True)
            pos = np.searchsorted(cands, toks)
            ok = (pos < len(cands)) & (cands[pos.clip(0, len(cands) - 1)] == toks)
            np.add.at(out, pos[ok], cnts[ok])
        n = np.zeros(len(cands), dtype=np.int64)
        n[0] = len(flat)  # the batch's token total rides on one row
        return pa.table(
            {"token": pa.array(cands.astype(str)), "cnt": pa.array(out), "n": pa.array(n)}
        )

    exact = bucketed_sum(
        ds.map_batches(count_cands, batch_format="pyarrow"), ["token"], ["cnt", "n"]
    ).to_pandas()  # <= k rows
    _check_passes_agree("heavy_hitters", total, int(exact["n"].sum()))
    hot = exact[exact["cnt"] * k > total].sort_values("token")
    return pa.table(
        {
            "token": pa.array(hot["token"].tolist(), pa.string()),
            "cnt": pa.array(hot["cnt"].tolist(), pa.int64()),
        }
    )


def _check_passes_agree(op: str, first: int, second: int) -> None:
    """Two-pass operators re-run their input for the second pass; other
    rows there would silently pair pass 1's sketch with counts of a
    different input."""
    if first != second:
        raise RuntimeError(
            f"{op}: pass 1 saw {first} values but pass 2 saw {second}; "
            "its input must yield the same rows when re-run"
        )
