"""HyperLogLog: accuracy bounds, merge invariance, kernel properties."""

import numpy as np
import pandas as pd
import pytest

from hgcn_name_disambiguation_ray.stages.sketch import (
    _estimate,
    _nlz64,
    _registers_from_hashes,
)


def test_nlz64_matches_python_bit_length():
    rng = np.random.default_rng(3)
    vals = np.concatenate(
        [
            np.array([0, 1, 2, 3, 2**63, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**64, size=500, dtype=np.uint64),
        ]
    )
    got = _nlz64(vals)
    exp = np.array([64 - int(v).bit_length() for v in vals])
    np.testing.assert_array_equal(got, exp)


def test_registers_merge_is_order_and_split_invariant():
    rng = np.random.default_rng(9)
    h = rng.integers(0, 2**64, size=20000, dtype=np.uint64)
    whole = _registers_from_hashes(h, 12)
    parts = np.maximum.reduce(
        [_registers_from_hashes(c, 12) for c in np.array_split(rng.permutation(h), 7)]
    )
    np.testing.assert_array_equal(whole, parts)


@pytest.mark.parametrize("n", [50, 5000, 200_000])
def test_estimate_within_error_bound(n):
    # distinct hashes = splitmix of distinct ints (uniform 64-bit)
    from hgcn_name_disambiguation_ray.functions.hashing import _splitmix64

    h = _splitmix64(np.arange(n, dtype=np.uint64))
    est = _estimate(_registers_from_hashes(h, 12))
    # 3 sigma of the 1.04/sqrt(m) standard error, plus slack for small n
    assert abs(est - n) / n < 0.05


@pytest.mark.usefixtures("ray_session")
def test_approx_distinct_dataset_and_duplicates_ignored():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sketch import approx_distinct

    rng = np.random.default_rng(1)
    vals = rng.integers(0, 30_000, size=120_000)  # heavy duplication
    exact = len(np.unique(vals))
    df = pd.DataFrame({"v": vals})
    for parts in (2, 16):
        est = approx_distinct(rd.from_pandas(df).repartition(parts), "v")
        assert abs(est - exact) / exact < 0.05


@pytest.mark.usefixtures("ray_session")
def test_approx_distinct_tokens_vs_exact_vocabulary():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.pipelines.textprep import vocabulary
    from hgcn_name_disambiguation_ray.stages.sketch import approx_distinct_tokens

    ds = rd.read_parquet(
        "/root/testdata/sf0.01/documents.parquet", columns=["doc_id", "text"]
    )
    exact = vocabulary(ds).count()
    est = approx_distinct_tokens(ds)
    # tiny vocabulary -> linear-counting regime, essentially exact
    assert abs(est - exact) <= max(1, 0.03 * exact)


@pytest.mark.usefixtures("ray_session")
def test_bloom_no_false_negatives_and_bounded_false_positives():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sketch import (
        bloom_build,
        bloom_filter_seen,
    )

    rng = np.random.default_rng(2)
    seen_ids = rng.choice(10**9, size=50_000, replace=False)
    snapshot = pd.DataFrame({"doc_id": seen_ids})
    bits = bloom_build(rd.from_pandas(snapshot).repartition(8), "doc_id")

    # new crawl: half re-crawled, half genuinely new
    new_ids = rng.choice(2 * 10**9, size=20_000, replace=False) + 10**9
    crawl = pd.DataFrame({"doc_id": np.concatenate([seen_ids[:20_000], new_ids])})
    out = bloom_filter_seen(rd.from_pandas(crawl), bits, "doc_id").to_pandas()

    # NO false negatives: every previously-seen id dropped
    assert not np.isin(out["doc_id"].to_numpy(), seen_ids).any()
    # bounded false positives: >= 98% of genuinely-new rows survive
    # (m/n = 21 bits/element here -> FP well under 1%)
    assert len(out) >= 0.98 * len(new_ids)


@pytest.mark.usefixtures("ray_session")
def test_bloom_build_is_partitioning_invariant():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sketch import bloom_build

    df = pd.DataFrame({"v": np.arange(30_000, dtype=np.int64)})
    a = bloom_build(rd.from_pandas(df).repartition(2), "v", m_bits=1 << 18)
    b = bloom_build(rd.from_pandas(df).repartition(16), "v", m_bits=1 << 18)
    np.testing.assert_array_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_equals_exact_anti_join():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sketch import incremental_dedup

    rng = np.random.default_rng(6)
    snap_texts = [f"seen doc {i} {rng.integers(1e9)}" for i in range(3000)]
    new_texts = snap_texts[:1000] + [f"new doc {i}" for i in range(2000)]
    snapshot = pd.DataFrame({"doc_id": np.arange(3000), "text": snap_texts})
    new = pd.DataFrame({"doc_id": np.arange(3000), "text": new_texts})

    # tiny filter (1024 bits for 3000 keys) -> false positives guaranteed;
    # the anti-join must resurrect every one of them
    out = incremental_dedup(
        rd.from_pandas(new), rd.from_pandas(snapshot), "text", m_bits=1 << 10, k=3
    ).to_pandas()
    expected = new[~new["text"].isin(set(snap_texts))]
    assert sorted(out["doc_id"]) == sorted(expected["doc_id"])


# --------------------------------------------------------------------------
# KLL quantile sketch
# --------------------------------------------------------------------------


def test_kll_rank_error_bound():
    """Merged KLL sketch (20 partitions) stays within a few milli-quantiles
    of the exact ranks on a continuous (unbounded-domain) distribution."""
    import numpy as np

    from hgcn_name_disambiguation_ray.stages.sketch import KLLSketch

    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 1.0, 200_000)
    merged = KLLSketch(256)
    for lo in range(0, len(x), 10_000):
        part = KLLSketch(256)
        part.add(x[lo : lo + 10_000])
        merged.merge(part)
    qs = np.array([0.1, 0.25, 0.5, 0.75, 0.9, 0.99])
    est = merged.quantiles(qs)
    xs = np.sort(x)
    rank = np.searchsorted(xs, est, side="right") / len(x)
    assert np.all(np.abs(rank - qs) * 1000 < 15)
    assert merged.n == len(x)


def test_kll_deterministic_and_serializable():
    import numpy as np

    from hgcn_name_disambiguation_ray.stages.sketch import KLLSketch

    rng = np.random.default_rng(9)
    x = rng.exponential(2.0, 50_000)
    a, b = KLLSketch(128), KLLSketch(128)
    a.add(x)
    b.add(x)
    qs = np.linspace(0.05, 0.95, 19)
    assert np.array_equal(a.quantiles(qs), b.quantiles(qs))
    rt = KLLSketch.from_bytes(a.to_bytes())
    assert np.array_equal(rt.quantiles(qs), a.quantiles(qs))
    assert rt.n == a.n


def test_kll_quantiles_dataset_err_milli(ray_session):
    """The Dataset-level kll_quantiles pins the exact rank error in-row;
    the bound tests assert it stays < 15 milli."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sketch import kll_quantiles

    rng = np.random.default_rng(17)
    df = pd.DataFrame({"v": rng.lognormal(1.0, 0.8, 60_000)})
    out = kll_quantiles(rd.from_pandas(df).repartition(8), "v").to_pandas()
    assert list(out["q_milli"]) == [100, 250, 500, 750, 900, 990]
    assert (out["err_milli"] < 15).all()


# --------------------------------------------------------------------------
# Misra-Gries heavy hitters
# --------------------------------------------------------------------------


def test_misra_gries_no_false_negatives():
    """The defining guarantee: any item with true count > n/(k+1) must
    survive the summary — across partitioned adds and merges, on a skewed
    stream designed to trigger many reduce rounds."""
    import numpy as np

    from hgcn_name_disambiguation_ray.stages.sketch import MisraGries

    rng = np.random.default_rng(5)
    k = 10
    # 6 heavy items (10% each = 60% > each's n/(k+1) = n/11 bound) + tail
    heavy = [f"H{i}" for i in range(6)]
    n = 20_000
    stream = list(rng.choice([f"t{j}" for j in range(5_000)], size=int(n * 0.40)))
    for h in heavy:
        stream += [h] * int(n * 0.10)
    rng.shuffle(stream)
    merged = MisraGries(k)
    for lo in range(0, len(stream), 1_000):
        part = MisraGries(k)
        chunk = np.asarray(stream[lo : lo + 1_000])
        toks, cnts = np.unique(chunk, return_counts=True)
        part.add_counts(toks.tolist(), cnts)
        merged.merge(part)
    assert len(merged.counts) <= k
    total = len(stream)
    for h in heavy:
        true = stream.count(h)
        assert h in merged.counts, f"heavy item {h} evicted (guarantee broken)"
        # residual counter never exceeds the true count and is within n/(k+1)
        assert merged.counts[h] <= true
        assert true - merged.counts[h] <= total // (k + 1) + 1


def test_misra_gries_merge_partition_invariant_candidates():
    """Planted heavy items survive regardless of how the stream is
    partitioned before merging."""
    import numpy as np

    from hgcn_name_disambiguation_ray.stages.sketch import MisraGries

    rng = np.random.default_rng(11)
    stream = ["hot"] * 3_000 + ["warm"] * 2_000 + list(
        rng.choice([f"x{j}" for j in range(800)], size=5_000)
    )
    rng.shuffle(stream)
    survivors = []
    for n_parts in (1, 3, 17):
        merged = MisraGries(8)
        for chunk in np.array_split(np.asarray(stream), n_parts):
            part = MisraGries(8)
            toks, cnts = np.unique(chunk, return_counts=True)
            part.add_counts(toks.tolist(), cnts)
            merged.merge(part)
        assert "hot" in merged.counts and "warm" in merged.counts
        survivors.append({"hot", "warm"} <= set(merged.counts))
    assert all(survivors)


def test_heavy_hitters_equals_exact_having(ray_session):
    """heavy_hitters == the exact GROUP BY / HAVING cnt*k > total set, on
    a skewed corpus where the tail would drown a naive top-k."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sketch import heavy_hitters

    rng = np.random.default_rng(3)
    docs = []
    for i in range(400):
        toks = list(rng.choice([f"w{j}" for j in range(2_000)], size=30))
        if i % 2 == 0:
            toks += ["Alpha"] * 3  # lowercases to 'alpha'
        if i % 5 == 0:
            toks += ["beta"] * 6
        docs.append(" ".join(toks))
    ds = rd.from_pandas(pd.DataFrame({"text": docs})).repartition(8)
    out = heavy_hitters(ds, k=40).to_pandas()
    # exact reference
    all_toks = pd.Series(" ".join(docs).lower().split())
    counts = all_toks.value_counts()
    expect = counts[counts * 40 > len(all_toks)].sort_index()
    assert list(out["token"]) == list(expect.index)
    assert list(out["cnt"]) == list(expect.values)


def test_heavy_hitters_empty_and_no_hitters(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sketch import heavy_hitters

    empty = rd.from_pandas(pd.DataFrame({"text": pd.Series([], dtype=str)}))
    assert heavy_hitters(empty, k=10).num_rows == 0
    # perfectly uniform corpus: nothing exceeds n/k
    rng = np.random.default_rng(7)
    toks = np.repeat([f"u{j}" for j in range(500)], 4)
    rng.shuffle(toks)
    docs = [" ".join(toks[i : i + 20]) for i in range(0, len(toks), 20)]
    ds = rd.from_pandas(pd.DataFrame({"text": docs}))
    assert heavy_hitters(ds, k=10).num_rows == 0


def test_two_pass_sketches_raise_when_passes_see_other_rows(ray_session, tmp_path):
    """kll_quantiles and heavy_hitters stream their input twice and
    compare the two passes' totals. An upstream that drops one row per
    batch once any batch has run gives pass 2 one row fewer than pass 1:
    both raise. Materializing pins one run of the same upstream for both
    of heavy_hitters' passes."""
    import os

    import pandas as pd
    import pytest
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sketch import heavy_hitters, kll_quantiles

    def drifting(marker: str):
        def body(t):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                return t  # the first batch ever run keeps its rows
            except FileExistsError:
                return t.slice(1)

        return body

    df = pd.DataFrame({"v": [float(i % 17) for i in range(90)],
                       "text": [f"hot w{i % 11} hot" for i in range(90)]})
    src = rd.from_pandas(df).repartition(3)
    for op, run in (
        ("kll_quantiles", lambda ds: kll_quantiles(ds, "v")),
        ("heavy_hitters", lambda ds: heavy_hitters(ds, k=5)),
    ):
        ds = src.map_batches(drifting(str(tmp_path / op)), batch_format="pyarrow")
        with pytest.raises(RuntimeError, match=f"{op}: pass 1 saw"):
            run(ds)
    ds = src.map_batches(drifting(str(tmp_path / "snapshot")), batch_format="pyarrow")
    assert heavy_hitters(ds.materialize(), k=5)["token"].to_pylist() == ["hot"]
