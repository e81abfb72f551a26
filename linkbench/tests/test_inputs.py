"""Determinism and caching of the benchmark's input generators."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq

from linkbench.inputs import (
    DenseSpec,
    DocSpec,
    WebSpec,
    cached_input,
    fingerprint,
    generate_dense,
    generate_docs,
    generate_web,
    web_key_sizes,
)

SMALL = {
    generate_dense: DenseSpec(n_names=3, persons_per_name=2, docs_per_person=5),
    generate_web: WebSpec(n_pages=120, hot_keys=1, hot_persons=2, hot_docs_per_person=10),
    generate_docs: DocSpec(n_sources=50, tokens_per_doc=20),
}


def test_same_seed_same_tables_other_seed_other_tables():
    for gen, spec in SMALL.items():
        a, b, c = gen(7, spec), gen(7, spec), gen(8, spec)
        for name in a:
            assert a[name].equals(b[name]), (gen.__name__, name)
        assert any(not a[n].equals(c[n]) for n in a), gen.__name__


def test_fingerprint_covers_seed_and_spec():
    spec = DenseSpec()
    assert fingerprint(1, spec) == fingerprint(1, DenseSpec())
    assert fingerprint(1, spec) != fingerprint(2, spec)
    assert fingerprint(1, spec) != fingerprint(1, DenseSpec(n_names=17))


def test_web_page_count_is_fixed_and_zipfian():
    spec = WebSpec()
    for seed in range(5):
        sizes = web_key_sizes(np.random.default_rng(seed), spec)
        assert sum(sizes) == spec.n_pages
        assert max(sizes) <= spec.max_key_docs
        assert np.mean(np.asarray(sizes) <= 3) > 0.8  # most keys at 1-3 mentions


def test_dense_truth_matches_pages():
    t = generate_dense(3, SMALL[generate_dense])
    assert t["pages"].num_rows == t["truth"].num_rows == 3 * 2 * 5
    assert len(set(t["truth"]["block_key"].to_pylist())) == 3


def test_docs_plant_exact_near_and_far_copies():
    spec = SMALL[generate_docs]
    t = generate_docs(3, spec)
    truth = t["truth"].to_pandas()
    text = dict(zip(t["docs"]["doc_id"].to_pylist(), t["docs"]["text"].to_pylist()))
    exact = truth[truth["kind"] == "exact"]
    assert len(exact) == int(spec.n_sources * spec.exact_frac)
    assert all(text[d] == text[s] for d, s in zip(exact["doc_id"], exact["source_id"]))
    near = truth[truth["kind"] == "near"]
    for d, s in zip(near["doc_id"], near["source_id"]):
        diff = sum(x != y for x, y in zip(text[d].split(), text[s].split()))
        assert diff == 1 and s < d
    far = truth[truth["kind"] == "far"]
    assert (far["doc_id"] == far["source_id"]).all()


def test_cached_input_publishes_once_and_replaces_torn_dirs(tmp_path):
    spec = SMALL[generate_dense]
    paths = cached_input(str(tmp_path), 5, spec)
    assert sorted(paths) == ["pages", "truth"]
    mtime = os.path.getmtime(paths["pages"])
    assert cached_input(str(tmp_path), 5, spec) == paths
    assert os.path.getmtime(paths["pages"]) == mtime  # served from the cache

    # a directory without its `_done` marker is torn and is regenerated
    torn = cached_input(str(tmp_path), 6, spec)
    os.remove(os.path.join(os.path.dirname(torn["pages"]), "_done"))
    with open(torn["pages"], "wb") as f:
        f.write(b"torn")
    again = cached_input(str(tmp_path), 6, spec)
    assert pq.read_table(again["pages"]).num_rows == 30
    assert not [d for d in os.listdir(tmp_path) if ".tmp-" in d]
