"""Similarity search: brute-force exactness, IVF recall."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(300, 24))
    df = pd.DataFrame({"vec_id": np.arange(300, dtype=np.int64), "embedding": list(map(list, vecs))})
    return rd.from_pandas(df), vecs


def _exact_topk(vecs, q, k):
    qn = q / np.linalg.norm(q)
    vn = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = vn @ qn
    order = np.lexsort((np.arange(len(sims)), -sims))
    return order[:k], sims


def test_brute_force_matches_numpy(emb_ds):
    from hgcn_name_disambiguation_ray.stages.similarity import brute_force_topk

    ds, vecs = emb_ds
    q = vecs[7]
    out = brute_force_topk(ds, q[None, :], k=10).to_pandas().sort_values("rank")
    want_ids, sims = _exact_topk(vecs, q, 10)
    assert out["vec_id"].tolist() == list(want_ids)
    np.testing.assert_allclose(np.sort(out["score"])[::-1], np.sort(sims[want_ids])[::-1], rtol=1e-9)


def test_brute_force_multi_query(emb_ds):
    from hgcn_name_disambiguation_ray.stages.similarity import brute_force_topk

    ds, vecs = emb_ds
    out = brute_force_topk(ds, vecs[[1, 2, 3]], k=5).to_pandas()
    assert set(out["query_idx"]) == {0, 1, 2}
    for qi, qvec in zip([0, 1, 2], [1, 2, 3]):
        got = out[out["query_idx"] == qi].sort_values("rank")["vec_id"].tolist()
        assert got[0] == qvec  # a vector's own nearest neighbour is itself


def test_ivf_recall_reasonable(emb_ds):
    from hgcn_name_disambiguation_ray.stages.similarity import ivf_topk

    ds, vecs = emb_ds
    q = vecs[42]
    out = ivf_topk(ds, q[None, :], k=10, n_centroids=8, nprobe=4).to_pandas()
    want_ids, _ = _exact_topk(vecs, q, 10)
    recall = len(set(out["vec_id"]) & set(want_ids)) / 10
    assert out["vec_id"].iloc[0] == 42  # self always found (its centroid is probed)
    assert recall >= 0.5, recall


def test_ivf_index_prunes_io(emb_ds, tmp_path):
    """Probes must READ only their nprobe partitions: scanned rows from
    parquet metadata scale with nprobe/n_centroids, not corpus size."""
    from hgcn_name_disambiguation_ray.stages.similarity import IvfIndex

    ds, vecs = emb_ds
    idx = IvfIndex.build(ds, str(tmp_path / "ivf"), n_centroids=8, sample_rows=300)
    scanned, total = idx.scanned_rows(vecs[[5]], nprobe=2)
    assert total == 300
    assert 0 < scanned < total  # pruned: strictly fewer rows than a scan
    s_all, _ = idx.scanned_rows(vecs[[5]], nprobe=8)
    assert scanned < s_all == total  # probing everything reads everything

    # reload from disk and query — results identical to build-and-query
    idx2 = IvfIndex.load(str(tmp_path / "ivf"))
    out1 = idx.query(vecs[[5]], k=5, nprobe=2).to_pandas().sort_values("rank")
    out2 = idx2.query(vecs[[5]], k=5, nprobe=2).to_pandas().sort_values("rank")
    assert out1["vec_id"].tolist() == out2["vec_id"].tolist()
    assert out1["vec_id"].iloc[0] == 5


@pytest.mark.usefixtures("ray_session")
def test_kmeans_matches_single_process_reference():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.sampling import split_hash
    from hgcn_name_disambiguation_ray.stages.similarity import (
        kmeans_assign,
        kmeans_fit,
    )

    rng = np.random.default_rng(11)
    n, d, k = 600, 16, 6
    X = np.concatenate(
        [rng.normal(loc=3.0 * j, scale=0.4, size=(n // k, d)) for j in range(k)]
    )
    ids = np.arange(n, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": list(X)})
    ds = rd.from_pandas(df)

    C = kmeans_fit(ds, k, iters=8)
    got = (
        kmeans_assign(ds, C).to_pandas().sort_values("vec_id")["cluster"].to_numpy()
    )

    # single-process reference Lloyd with the SAME hash init
    h = split_hash(ids).astype(np.int64)
    Cr = X[np.lexsort((ids, h))[:k]].astype(np.float64).copy()
    for _ in range(8):
        a = np.argmin(((X[:, None, :] - Cr[None, :, :]) ** 2).sum(-1), axis=1)
        for j in range(k):
            m = a == j
            if m.any():
                Cr[j] = X[m].mean(0)
    exp = np.argmin(((X[:, None, :] - Cr[None, :, :]) ** 2).sum(-1), axis=1)

    assert np.allclose(C, Cr, atol=1e-8)
    assert (got == exp).all()
    # well-separated planted blobs: each fitted cluster is label-pure
    truth = np.repeat(np.arange(k), n // k)
    for j in range(k):
        m = got == j
        assert m.any() and len(np.unique(truth[m])) == 1


@pytest.mark.usefixtures("ray_session")
def test_kmeans_partitioning_invariant():
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.similarity import (
        kmeans_assign,
        kmeans_fit,
    )

    rng = np.random.default_rng(5)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(400, dtype=np.int64),
            "embedding": list(rng.normal(size=(400, 8))),
        }
    )
    outs = []
    for parts in (2, 16):
        ds = rd.from_pandas(df).repartition(parts)
        C = kmeans_fit(ds, 5, iters=5)
        outs.append(
            kmeans_assign(ds, C).to_pandas().sort_values("vec_id")["cluster"].to_numpy()
        )
    # different block boundaries -> same model, same assignment
    assert (outs[0] == outs[1]).all()


@pytest.mark.usefixtures("ray_session")
def test_kmeans_query_hard_signal_all_match():
    """The kmeans_clusters query's in-row hard signal: every row's
    distributed assignment matches the independently recomputed
    single-process reference Lloyd (match_ref == 1 on all rows)."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as entrymod

    out = entrymod.queries()["kmeans_clusters"]("/root/testdata/sf0.001").to_pandas()
    assert len(out) > 0
    assert set(out.columns) == {"vec_id", "cluster", "match_ref"}
    assert (out["match_ref"] == 1).all()
