"""Dedup operators: planted duplicates must be found, distinct docs kept."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _corpus():
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(500)]
    docs = []
    for i in range(40):
        docs.append(" ".join(rng.choice(vocab, size=60)))
    rows = []
    for i, d in enumerate(docs):
        rows.append({"doc_id": i, "text": d})
    # exact duplicates: 100+i copies doc i for i in 0..4
    for i in range(5):
        rows.append({"doc_id": 100 + i, "text": docs[i]})
    # near duplicate of doc 10: change 3 of 60 words
    words = docs[10].split()
    words[5], words[20], words[40] = "zz1", "zz2", "zz3"
    rows.append({"doc_id": 200, "text": " ".join(words)})
    return pd.DataFrame(rows)


@pytest.fixture(scope="module")
def corpus_ds(ray_session):
    import ray.data as rd

    return rd.from_pandas(_corpus())


def test_exact_dedup(corpus_ds):
    from hgcn_name_disambiguation_ray.stages.dedup import exact_dedup

    out = exact_dedup(corpus_ds).to_pandas()
    # 41 distinct texts (40 originals + near-dup variant); 5 have 2 copies
    assert len(out) == 41
    assert (out["n_copies"] == 2).sum() == 5
    dups = out[out["n_copies"] == 2]
    assert set(dups["keep_id"]) == {0, 1, 2, 3, 4}  # min id survives


def test_minhash_lsh_dedup_finds_near_and_exact(corpus_ds):
    from hgcn_name_disambiguation_ray.stages.dedup import minhash_lsh_dedup

    out = minhash_lsh_dedup(corpus_ds, threshold=0.6).to_pandas()
    groups = out.groupby("canonical_id")["doc_id"].apply(set).tolist()
    assert {10, 200} in [g & {10, 200} for g in groups if g & {10, 200}]
    for i in range(5):
        assert any({i, 100 + i} <= g for g in groups), i
    # distinct random docs must NOT all collapse together
    merged = set().union(*groups)
    assert len(merged) <= 14  # 5 exact pairs + near pair + slack


def test_ngram_jaccard_exact_verify(corpus_ds):
    from hgcn_name_disambiguation_ray.stages.dedup import ngram_jaccard_dedup

    out = ngram_jaccard_dedup(corpus_ds, threshold=0.99).to_pandas()
    groups = out.groupby("canonical_id")["doc_id"].apply(set).tolist()
    # at 0.99 only EXACT duplicates survive the exact-Jaccard verify
    assert sorted(map(sorted, groups)) == [[i, 100 + i] for i in range(5)]


def test_simhash_dedup(corpus_ds):
    from hgcn_name_disambiguation_ray.stages.dedup import simhash_dedup

    out = simhash_dedup(corpus_ds, max_hamming=3).to_pandas()
    groups = out.groupby("canonical_id")["doc_id"].apply(set).tolist()
    for i in range(5):
        assert any({i, 100 + i} <= g for g in groups), i


def test_embedding_cosine_dedup(ray_session):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.dedup import embedding_cosine_dedup

    rng = np.random.default_rng(5)
    base = rng.normal(size=(20, 16))
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(20)]
    rows.append({"vec_id": 100, "embedding": (base[0] + 1e-4).tolist()})  # near-dup of 0
    out = embedding_cosine_dedup(rd.from_pandas(pd.DataFrame(rows)), threshold=0.999).to_pandas()
    groups = out.groupby("canonical_id")["doc_id"].apply(set).tolist()
    assert any({0, 100} <= g for g in groups)
    assert all(len(g) == 2 for g in groups)  # nothing else merged


def test_embedding_cosine_dedup_perturbed_recall(ray_session):
    """r2 defect regression: the 2-band x 8-plane layout missed a genuine
    cos-0.95 near-dup pair ~33% of the time (only exact clones reached the
    oracle). Plant PERTURBED pairs with cosine in [0.955, 0.99] — every one
    must be recovered at the operator's own default threshold, with zero
    false merges (exact-cosine truth computed brute-force)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.dedup import embedding_cosine_dedup

    rng = np.random.default_rng(17)
    d = 32
    base = rng.normal(size=(150, d))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(len(base))]
    planted = []
    for j in range(40):  # perturb vectors 0..39 to target cosines
        c = 0.955 + 0.035 * (j / 39)
        r = rng.normal(size=d)
        r -= (r @ base[j]) * base[j]
        r /= np.linalg.norm(r)
        w = c * base[j] + np.sqrt(1 - c * c) * r
        rows.append({"vec_id": 10_000 + j, "embedding": w.tolist()})
        planted.append((j, 10_000 + j))
    # exact truth: all pairs with cos >= threshold must co-cluster
    mat = np.array([r["embedding"] for r in rows])
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    ids = np.array([r["vec_id"] for r in rows])
    cos = mat @ mat.T
    iu, iv = np.triu_indices(len(ids), k=1)
    true_pairs = {(int(ids[a]), int(ids[b])) for a, b in zip(iu[cos[iu, iv] >= 0.95], iv[cos[iu, iv] >= 0.95])}
    assert len(true_pairs) >= 40  # the planted ones at minimum

    out = embedding_cosine_dedup(rd.from_pandas(pd.DataFrame(rows)), threshold=0.95).to_pandas()
    canon = dict(zip(out["doc_id"], out["canonical_id"]))
    for u, v in true_pairs:
        assert canon.get(u) == canon.get(v) and canon.get(u) is not None, (u, v)
    # precision: members of any output group must be linked through true pairs
    groups = out.groupby("canonical_id")["doc_id"].apply(list)
    linked = set()
    for u, v in true_pairs:
        linked |= {u, v}
    for g in groups:
        assert set(g) <= linked, g


def test_oversized_bucket_star_chain_survives_outlier_center():
    """Verify-aware star-bounding (r2 finding #4): when a bucket exceeds
    max_bucket and the MIN-ID member is the one non-duplicate, the chain
    edges keep the true duplicates connected after verification kills
    every star edge."""
    from hgcn_name_disambiguation_ray.stages.dedup import _pairs_in_bucket_groups

    ids = np.arange(10)
    df = pd.DataFrame({"band": 0, "bucket": 7, "doc_id": ids})
    pairs = _pairs_in_bucket_groups(df, max_bucket=5)
    # simulate verification: id 0 (the star center) matches nothing
    kept = pairs[(pairs["u"] != 0) & (pairs["v"] != 0)]
    # ids 1..9 must remain one connected component through chain edges
    parent = {i: i for i in ids[1:]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(kept["u"], kept["v"]):
        parent[find(u)] = find(v)
    assert len({find(i) for i in ids[1:]}) == 1


def test_near_dup_family_planted_30pct_corpus(ray_session):
    """Web-scale shape: ~30% of the corpus is duplicated, so the candidate
    set is O(corpus) — far beyond any broadcast budget. All three text
    near-dup operators must recover exactly the planted components."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    vocab = [f"tok{i}" for i in range(4000)]
    n_base = 700
    rows = []
    expect = {}  # doc_id -> canonical
    for i in range(n_base):
        # salt every doc with 2 unique tokens so no accidental near-dups
        text = f"u{i}a " + " ".join(rng.choice(vocab, size=50)) + f" u{i}b"
        rows.append({"doc_id": i, "text": text})
        if i < 300:  # ~30% duplicated: exact copy with a higher id
            rows.append({"doc_id": 10_000 + i, "text": text})
            expect[10_000 + i] = i
            expect[i] = i
    ds = rd.from_pandas(pd.DataFrame(rows))

    from hgcn_name_disambiguation_ray.stages.dedup import (
        minhash_lsh_dedup,
        ngram_jaccard_dedup,
        simhash_dedup,
    )

    for op, kw in [
        (minhash_lsh_dedup, {"threshold": 0.9}),
        (ngram_jaccard_dedup, {"threshold": 0.9}),
        (simhash_dedup, {"max_hamming": 1}),
    ]:
        out = op(ds, **kw).to_pandas()
        got = dict(zip(out["doc_id"], out["canonical_id"]))
        assert got == expect, op.__name__


def test_dedup_no_driver_dataset_materialization(ray_session):
    """Regression guard for the round-1 scale-killer: no near-dup operator
    may call Dataset.to_pandas()/take_all()/iter_rows() on the driver while
    building or executing — candidate pairs, signatures and vectors stay
    distributed end to end."""
    import ray.data as rd
    from ray.data import Dataset

    import hgcn_name_disambiguation_ray.stages.dedup as dedup
    import inspect

    src = inspect.getsource(dedup)
    assert "iterrows" not in src and "ray.put" not in src

    rng = np.random.default_rng(4)
    vocab = [f"w{i}" for i in range(800)]
    rows = [{"doc_id": i, "text": " ".join(rng.choice(vocab, size=40))} for i in range(60)]
    rows += [{"doc_id": 1000 + i, "text": rows[i]["text"]} for i in range(10)]
    ds = rd.from_pandas(pd.DataFrame(rows))
    vec_rows = [{"vec_id": i, "embedding": rng.normal(size=8).tolist()} for i in range(30)]
    vec_rows += [{"vec_id": 1000, "embedding": vec_rows[0]["embedding"]}]
    vds = rd.from_pandas(pd.DataFrame(vec_rows))

    def boom(self, *a, **k):
        raise AssertionError("driver-side Dataset materialization in dedup op")

    orig = {n: getattr(Dataset, n) for n in ("to_pandas", "take_all", "iter_rows")}
    for n in orig:
        setattr(Dataset, n, boom)
    try:
        outs = [
            dedup.minhash_lsh_dedup(ds, threshold=0.9).materialize(),
            dedup.ngram_jaccard_dedup(ds, threshold=0.9).materialize(),
            dedup.simhash_dedup(ds, max_hamming=1).materialize(),
            dedup.embedding_cosine_dedup(vds, threshold=0.999).materialize(),
        ]
    finally:
        for n, f in orig.items():
            setattr(Dataset, n, f)
    for out in outs:
        assert out.count() >= 2  # the planted duplicates were found


_NEAR_DUP_REJECT = {
    "minhash_lsh_dedup": {"threshold": 0.999},
    "ngram_jaccard_dedup": {"threshold": 0.999},
    "simhash_dedup": {"max_hamming": 0},
    "embedding_cosine_dedup": {"threshold": 0.999},
}


def _empty_outcome_input(op: str, case: str) -> pd.DataFrame:
    """0 docs, two unrelated docs, or one near pair: 1 of 80 words
    changed (Hamming distance 1 for simhash, colliding in 3 of its 4
    bands), or two vectors at cosine 0.99."""
    rng = np.random.default_rng(0)
    if op == "embedding_cosine_dedup":
        a, r, other = rng.normal(size=(3, 16))
        a /= np.linalg.norm(a)
        r -= (r @ a) * a
        near = 0.99 * a + np.sqrt(1 - 0.99**2) * r / np.linalg.norm(r)
        rows = {"empty": [], "unrelated": [a, other], "rejected": [a, near]}[case]
        return pd.DataFrame({"vec_id": pd.Series(range(len(rows)), dtype=np.int64),
                             "embedding": pd.Series([v.tolist() for v in rows], dtype=object)})
    words = [f"w{i}" for i in rng.integers(0, 5000, 80)]
    near = list(words)
    near[40] = "changed"
    other = [f"w{i}" for i in rng.integers(0, 5000, 80)]
    rows = {"empty": [], "unrelated": [words, other], "rejected": [words, near]}[case]
    return pd.DataFrame({"doc_id": pd.Series(range(len(rows)), dtype=np.int64),
                         "text": pd.Series([" ".join(w) for w in rows], dtype=object)})


@pytest.mark.parametrize("case", ["empty", "unrelated", "rejected"])
@pytest.mark.parametrize("op", sorted(_NEAR_DUP_REJECT))
def test_near_dup_empty_outcomes_are_typed(ray_session, monkeypatch, op, case):
    """No docs, no candidate pair, or candidates that all fail verify:
    every near-dup operator returns 0 rows with exactly its output
    columns — no join over column-less blocks, no schema-less result."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages import dedup

    n_cand = []
    orig = dedup._candidate_pairs

    def counting(*args, **kwargs):
        cand = orig(*args, **kwargs).materialize()
        n_cand.append(cand.count())
        return cand

    monkeypatch.setattr(dedup, "_candidate_pairs", counting)
    ds = rd.from_pandas(_empty_outcome_input(op, case))
    out = getattr(dedup, op)(ds, **_NEAR_DUP_REJECT[op]).materialize()
    assert out.count() == 0
    assert set(out.schema().names) == {"doc_id", "canonical_id"}
    if case == "rejected" and n_cand:  # the join path met real candidates
        assert n_cand == [1]


def test_exact_dedup_corpus_keeps_min_id_rows(corpus_ds):
    from hgcn_name_disambiguation_ray.stages.dedup import exact_dedup_corpus

    out = exact_dedup_corpus(corpus_ds).to_pandas()
    assert len(out) == 41  # 41 distinct texts survive
    # every duplicated text keeps its min-id copy, copies 100..104 drop
    assert set(range(5)) <= set(out["doc_id"])
    assert not any(100 <= d <= 104 for d in out["doc_id"])


def test_exact_dedup_corpus_empty_corpus(ray_session):
    """An empty corpus dedups to an empty, typed corpus (the semi join
    against its empty keep-set raised ArrowInvalid)."""
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.dedup import exact_dedup_corpus

    empty = pa.table({"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())})
    out = exact_dedup_corpus(rd.from_arrow(empty)).materialize()
    assert out.count() == 0
    assert out.schema().base_schema.equals(empty.schema)


def test_segmented_pair_indices_matches_naive():
    """The loop-free ordinal decode must reproduce the per-group
    triangle / star+chain expansion exactly, across many random group
    size mixes (including sizes straddling max_bucket)."""
    from hgcn_name_disambiguation_ray.stages.dedup import _segmented_pair_indices

    rng = np.random.default_rng(17)
    for trial in range(25):
        max_bucket = int(rng.integers(2, 12))
        sizes = rng.integers(2, 20, size=int(rng.integers(1, 30)))
        iu, iv = _segmented_pair_indices(sizes, max_bucket)
        want_u, want_v = [], []
        start = 0
        for m in sizes:
            idx = np.arange(start, start + m)
            if m > max_bucket:
                want_u.append(np.concatenate([np.repeat(idx[0], m - 1), idx[1:-1]]))
                want_v.append(np.concatenate([idx[1:], idx[2:]]))
            else:
                a, b = np.triu_indices(m, k=1)
                want_u.append(idx[a])
                want_v.append(idx[b])
            start += m
        # both enumerate group-by-group; triangle order is row-major in
        # both, star+chain order matches by construction
        np.testing.assert_array_equal(np.sort(iu * 10**6 + iv),
                                      np.sort(np.concatenate(want_u) * 10**6 + np.concatenate(want_v)))
        assert np.all(iu < iv)


def test_pairs_in_bucket_groups_segmented_equivalence():
    """End-to-end _pairs_in_bucket_groups vs a naive per-group loop on a
    random collision table (mixed singleton/small/oversized buckets),
    bare and with a carried per-doc `feat` column filtered by `keep`."""
    import pyarrow as pa

    from hgcn_name_disambiguation_ray.stages.dedup import _band_rows, _pairs_in_bucket_groups

    rng = np.random.default_rng(23)
    n = 4000
    doc_id = rng.integers(0, 2500, n)
    df = pd.DataFrame(
        {
            "band": rng.integers(0, 4, n).astype(np.int32),
            "bucket": rng.integers(0, 300, n).astype(np.uint64),
            "doc_id": doc_id,
            "feat": (doc_id * 2654435761 % 7).astype(np.uint64),
        }
    )
    feat_of = dict(zip(df["doc_id"], df["feat"]))

    def keep(fu, fv):
        return (fu + fv) % np.uint64(3) != 0

    d = df.drop_duplicates(["band", "bucket", "doc_id"])
    d = d[d.duplicated(["band", "bucket"], keep=False)]
    want_u, want_v = [], []
    for (_, _), g in d.groupby(["band", "bucket"], sort=False):
        ids = np.sort(g["doc_id"].to_numpy())
        if len(ids) > 8:
            want_u.append(np.concatenate([np.repeat(ids[0], len(ids) - 1), ids[1:-1]]))
            want_v.append(np.concatenate([ids[1:], ids[2:]]))
        else:
            a, b = np.triu_indices(len(ids), k=1)
            want_u.append(ids[a])
            want_v.append(ids[b])
    naive = pd.DataFrame({"u": np.concatenate(want_u), "v": np.concatenate(want_v)})
    n_pairs = []
    for kp in (None, keep):
        got = (
            _pairs_in_bucket_groups(df, max_bucket=8, keep=kp)
            .drop_duplicates(["u", "v"]).sort_values(["u", "v"]).reset_index(drop=True)
        )
        want = naive
        if kp is not None:
            fu = np.array([feat_of[u] for u in naive["u"]], dtype=np.uint64)
            fv = np.array([feat_of[v] for v in naive["v"]], dtype=np.uint64)
            want = naive[kp(fu, fv)]
        want = want.drop_duplicates(["u", "v"]).sort_values(["u", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got.astype(np.int64), want.astype(np.int64))
        n_pairs.append(len(got))
    assert 0 < n_pairs[1] < n_pairs[0]  # `keep` rejects some pairs, not all

    # a 0-row batch still yields the typed band table
    empty = _band_rows(pa.array([], pa.int64()), np.zeros((0, 4), np.uint64))
    assert empty.schema == pa.schema(
        [("doc_id", pa.int64()), ("band", pa.int32()), ("bucket", pa.uint64())]
    )


def test_segment_dedup_keeps_first_occurrence_and_reassembles(ray_session):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.dedup import segment_dedup

    # seg_tokens=2: doc 0 = [ab][cd][e], doc 1 repeats [ab] then fresh,
    # doc 2 is ENTIRELY segments already seen (drops), doc 3 repeats a
    # WITHIN-doc segment of its own, doc 4 empty text.
    rows = [
        {"doc_id": 0, "text": "a b c d e"},
        {"doc_id": 1, "text": "a b x y"},
        {"doc_id": 2, "text": "a b c d"},
        {"doc_id": 3, "text": "p q p q"},
        {"doc_id": 4, "text": ""},
    ]
    out = (
        segment_dedup(rd.from_pandas(pd.DataFrame(rows)), seg_tokens=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(out.index) == [0, 1, 3]  # docs 2 (all dup) and 4 (empty) drop
    assert out.loc[0, "clean_text"] == "a b c d e"
    assert (out.loc[0, "n_segs"], out.loc[0, "n_kept"]) == (3, 3)
    assert out.loc[1, "clean_text"] == "x y"  # 'a b' seen in doc 0
    assert (out.loc[1, "n_segs"], out.loc[1, "n_kept"]) == (2, 1)
    assert out.loc[3, "clean_text"] == "p q"  # within-doc repeat drops
    assert (out.loc[3, "n_segs"], out.loc[3, "n_kept"]) == (2, 1)


def test_segment_dedup_tail_segments_not_merged_with_full(ray_session):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.dedup import segment_dedup

    # doc 0's TAIL segment [c] must not collide with doc 1's full text 'c'
    # prefixed differently; exact text equality only.
    rows = [
        {"doc_id": 0, "text": "a b c"},
        {"doc_id": 1, "text": "c"},
        {"doc_id": 2, "text": "a b"},
    ]
    out = (
        segment_dedup(rd.from_pandas(pd.DataFrame(rows)), seg_tokens=2)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # doc 0 keeps both segments; doc 1's 'c' == doc 0's tail seg -> drops;
    # doc 2's 'a b' == doc 0's first seg -> drops
    assert list(out.index) == [0]
    assert out.loc[0, "clean_text"] == "a b c"


def test_segment_dedup_id_range_guard(ray_session):
    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.dedup import segment_dedup

    rows = [{"doc_id": 1 << 50, "text": "a b"}]
    with pytest.raises(Exception):  # ValueError surfaces as Ray task error
        segment_dedup(rd.from_pandas(pd.DataFrame(rows)), seg_tokens=2).materialize()


def test_minhash_dedup_checkpoint_resume(corpus_ds, tmp_path):
    """Kill/resume: signatures checkpoint once; a rerun reads them back
    (manifest untouched, first stage skipped) and produces identical
    output (VERDICT r4 #6)."""
    import json

    from hgcn_name_disambiguation_ray.stages.dedup import minhash_lsh_dedup

    ck = str(tmp_path / "ck")
    out1 = (
        minhash_lsh_dedup(corpus_ds, threshold=0.6, checkpoint_dir=ck, input_lineage="corpus")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    mpath = f"{ck}/minhash_signatures/_manifest.json"
    stamp1 = json.load(open(mpath))["written_at_epoch"]
    out2 = (
        minhash_lsh_dedup(corpus_ds, threshold=0.6, checkpoint_dir=ck, input_lineage="corpus")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert json.load(open(mpath))["written_at_epoch"] == stamp1  # resumed, not rewritten
    pd.testing.assert_frame_equal(out1, out2)
    # changed params invalidate the lineage -> recompute, still correct
    out3 = minhash_lsh_dedup(
        corpus_ds, threshold=0.6, shingle_n=4, checkpoint_dir=ck, input_lineage="corpus"
    ).to_pandas()
    assert json.load(open(mpath))["written_at_epoch"] != stamp1
    assert len(out3) > 0


def test_segment_dedup_checkpoint_resume(ray_session, tmp_path):
    import json

    import ray.data as rd

    from hgcn_name_disambiguation_ray.stages.dedup import segment_dedup

    rows = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "a b c d e f",
                "a b c d x y",  # first segment (a b) duplicates doc 1's
                "p q r s t u",
            ],
        }
    )
    ds = rd.from_pandas(rows)
    ck = str(tmp_path / "ck")
    out1 = (
        segment_dedup(ds, seg_tokens=2, checkpoint_dir=ck, input_lineage="t")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    mpath = f"{ck}/segment_firsts/_manifest.json"
    stamp1 = json.load(open(mpath))["written_at_epoch"]
    out2 = (
        segment_dedup(ds, seg_tokens=2, checkpoint_dir=ck, input_lineage="t")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert json.load(open(mpath))["written_at_epoch"] == stamp1
    pd.testing.assert_frame_equal(out1, out2)


@pytest.mark.parametrize("fn_name", ["minhash_lsh_dedup", "segment_dedup"])
def test_dedup_checkpoint_requires_lineage(fn_name, tmp_path):
    """A checkpoint without an input lineage would serve a different corpus
    the old stage output: refuse it before any work is planned."""
    from hgcn_name_disambiguation_ray.stages import dedup

    with pytest.raises(ValueError, match="input_lineage"):
        getattr(dedup, fn_name)(None, checkpoint_dir=str(tmp_path / "ck"))
    assert not (tmp_path / "ck").exists()
