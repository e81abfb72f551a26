"""Benchmark harness.

Runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under `ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32)` and prints ONE JSON line:

    {"metric": ..., "value": total_sec, "unit": "sec",
     "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
     "linkage_pages": P, "linkage_pages_per_sec": R}

`--scaling` runs the same job twice in FRESH processes (num_cpus=8 then
32) on identical input and reports both throughputs + scaling efficiency
(the sandbox stand-in for the N-node vs 4N-node cluster criterion).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# benchmark fixture: ~96 comparable blocks (~100 mentions each) plus one
# hot block that forces salting; sized so per-block work dominates
# scheduling overhead at both parallelism levels
BENCH_SPEC = dict(n_names=48, persons_per_name=4, docs_per_person=25, hot_name_factor=3)
BENCH_FIXTURE_DIR = "/tmp/hgcn_ray_bench_fixture_v2"

# scaling fixture: ~60k pages / ~200 blocks of ~300 mentions. The scaling
# criterion measures THROUGHPUT ratio between cluster sizes, so per-block
# compute must dominate fixed costs (actor startup, shuffle scheduling) at
# the larger size — the sandbox stand-in for a job long enough to amortize
# startup on a real cluster.
SCALING_SPEC = dict(n_names=400, persons_per_name=5, docs_per_person=60, hot_name_factor=3)
SCALING_FIXTURE_DIR = "/tmp/hgcn_ray_scaling_fixture_v2"


def _fixture(spec: dict, out_dir: str) -> str:
    from hgcn_name_disambiguation_ray.fixtures import FixtureSpec, write_fixture

    marker = os.path.join(out_dir, "pages.parquet")
    # spec-fingerprinted DONE marker written AFTER the parquet: a crash
    # mid-write can no longer leave a truncated file that gets served
    # forever, and editing the spec without bumping the dir regenerates
    from hashlib import blake2b

    fp = blake2b(repr(sorted(spec.items())).encode(), digest_size=4).hexdigest()
    done = os.path.join(out_dir, f"_done.{fp}")
    if not (os.path.exists(marker) and os.path.exists(done)):
        # build into a pid-unique tmp dir and atomically rename (same
        # pattern as __ray_entry__._fixture_pages_dir): two concurrent
        # bench invocations must never interleave writes into the shared
        # fixture dir or delete a fixture another process is mid-read
        import shutil

        tmp = f"{out_dir}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        write_fixture(FixtureSpec(**spec), tmp)
        open(os.path.join(tmp, f"_done.{fp}"), "w").close()
        # attempt the atomic publish FIRST: rename fails if out_dir exists,
        # so a fixture that is COMPLETE for this fingerprint is never moved
        # or deleted under a concurrent reader. Only a torn/stale-spec dir
        # (no current done marker — which no same-version reader accepts)
        # gets moved aside.
        try:
            os.rename(tmp, out_dir)
        except OSError:
            if os.path.exists(marker) and os.path.exists(done):
                shutil.rmtree(tmp, ignore_errors=True)  # concurrent winner
            else:
                stale = f"{out_dir}.stale-{os.getpid()}"
                try:
                    os.rename(out_dir, stale)
                except OSError:
                    pass
                try:
                    os.rename(tmp, out_dir)
                except OSError:
                    shutil.rmtree(tmp, ignore_errors=True)  # lost a second race
                shutil.rmtree(stale, ignore_errors=True)
    return marker


def _warm_file(path: str) -> None:
    """Pull a file (or every parquet in a dir) through the page cache."""
    paths = [path]
    if os.path.isdir(path):
        paths = [os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")]
    for p in paths:
        with open(p, "rb") as f:
            while f.read(1 << 24):
                pass


def _bench_fixture_path() -> str:
    return _fixture(BENCH_SPEC, BENCH_FIXTURE_DIR)


def run_benchmarks() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import numpy as np
    import pyarrow as pa

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    pages_path = _bench_fixture_path()
    # warm the OS page cache so we measure compute + shuffle, not cold
    # disk. NOTE: Dataset.count() on a bare read_parquet only fetches the
    # parquet FOOTER (metadata row count) — read the actual bytes
    _warm_file(pages_path)
    _warm_file(os.path.join(SF_DIR, "lineitem.parquet"))

    timings: dict[str, float] = {}
    extras: dict[str, float] = {}

    # --- headline 1: full record linkage over the pages fixture ---
    t0 = time.time()
    pages = rd.read_parquet(pages_path)
    n_pages = pages.count()
    clusters = run_linkage(pages, LinkageConfig(salt_cap=256))
    n_out = clusters.count()
    timings["linkage"] = time.time() - t0
    extras["linkage_pages"] = n_pages
    extras["linkage_pages_per_sec"] = round(n_pages / timings["linkage"], 1)
    assert n_out == n_pages

    # --- headline 2: lineitem scan + vectorized aggregate (column-pruned) ---
    t0 = time.time()
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    li = rd.read_parquet(
        os.path.join(SF_DIR, "lineitem.parquet"),
        columns=["l_returnflag", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def revenue(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        g = (
            t.append_column("revenue", rev)
            .group_by("l_returnflag")
            .aggregate([("l_quantity", "sum"), ("revenue", "sum")])
        )
        ren = {"l_quantity_sum": "sum_qty", "revenue_sum": "sum_rev"}
        return g.rename_columns([ren.get(c, c) for c in g.column_names])

    li.map_batches(revenue, batch_format="pyarrow").groupby("l_returnflag").aggregate(
        Sum("sum_qty", alias_name="sum_qty"), Sum("sum_rev", alias_name="sum_rev")
    ).to_pandas()
    timings["lineitem_agg"] = time.time() - t0

    # --- remaining headline queries from the driver battery ---
    qs = entrymod.queries()
    for name in ["cooccur_pairs", "minhash_dedup", "topk_cosine", "window_counts",
                 "segment_orders", "exact_dedup", "sessionize"]:
        t0 = time.time()
        res = qs[name](SF_DIR)
        if hasattr(res, "to_pandas"):
            res.to_pandas()
        timings[name] = time.time() - t0

    ray.shutdown()
    total = round(sum(timings.values()), 3)
    return {
        "metric": "headline pipelines wall time (linkage fixture + sf tables)",
        "value": total,
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in timings.items()},
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        **extras,
    }


# web-scale dedup demo corpus: ~180k docs, 30% exact-duplicated (the
# duplicate rate the near-dup family is designed around)
DEDUP_SPEC = dict(n_base=140_000, dup_frac=0.3, tokens_per_doc=80, vocab=50_000, seed=17)
DEDUP_CORPUS_DIR = "/tmp/hgcn_ray_dedup_corpus_v1"


def _dedup_corpus() -> str:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(DEDUP_CORPUS_DIR, "docs.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(DEDUP_CORPUS_DIR, exist_ok=True)
    s = DEDUP_SPEC
    rng = np.random.default_rng(s["seed"])
    toks = rng.integers(0, s["vocab"], size=(s["n_base"], s["tokens_per_doc"]))
    texts = [" ".join(f"w{t}" for t in row) for row in toks]
    n_dup = int(s["n_base"] * s["dup_frac"])
    dup_src = rng.choice(s["n_base"], size=n_dup, replace=False)
    ids = list(range(s["n_base"])) + [10_000_000 + int(i) for i in dup_src]
    all_texts = texts + [texts[i] for i in dup_src]
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "text": pa.array(all_texts, type=pa.string())}),
        path, row_group_size=16384,
    )
    return path


def run_dedup_scale() -> None:
    """minhash_lsh_dedup end-to-end over the ~180k-doc / 30%-duplicate
    corpus: docs/s for the fully distributed verify path, plus a planted-
    truth check (every duplicate resolves to its source id)."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from hgcn_name_disambiguation_ray.stages.dedup import minhash_lsh_dedup

    path = _dedup_corpus()
    ds = rd.read_parquet(path)
    n_docs = ds.count()  # warms the cache too
    t0 = time.time()
    out = minhash_lsh_dedup(rd.read_parquet(path), threshold=0.9)
    out_df = out.to_pandas()
    dt = time.time() - t0
    n_dup = int(DEDUP_SPEC["n_base"] * DEDUP_SPEC["dup_frac"])
    correct = int((out_df[out_df["doc_id"] >= 10_000_000]["canonical_id"]
                   == out_df[out_df["doc_id"] >= 10_000_000]["doc_id"] - 10_000_000).sum())
    ray.shutdown()
    print(json.dumps({
        "metric": "minhash_lsh_dedup docs/sec (30% duplicated corpus)",
        "docs": n_docs, "sec": round(dt, 3),
        "docs_per_sec": round(n_docs / dt, 1),
        "dup_rows_out": int(len(out_df)),
        "planted_dups": n_dup,
        "planted_recovered_exact": correct,
        "num_cpus": NUM_CPUS,
    }))


# span-dedup demo corpus: ~100k docs x 80 tokens (5 segments of 16), 30%
# of docs carry one segment copied verbatim from a lower-id donor doc
SEGDEDUP_SPEC = dict(n_base=100_000, span_frac=0.3, tokens_per_doc=80,
                     seg_tokens=16, vocab=50_000, seed=23)
SEGDEDUP_CORPUS_DIR = "/tmp/hgcn_ray_segdedup_corpus_v1"


def _segdedup_corpus() -> str:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(SEGDEDUP_CORPUS_DIR, "docs.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(SEGDEDUP_CORPUS_DIR, exist_ok=True)
    s = SEGDEDUP_SPEC
    rng = np.random.default_rng(s["seed"])
    k = s["seg_tokens"]
    n_segs = s["tokens_per_doc"] // k
    toks = rng.integers(0, s["vocab"], size=(s["n_base"], s["tokens_per_doc"]))
    n_plant = int(s["n_base"] * s["span_frac"])
    # receivers are the TOP ids, donors strictly lower ids: first occurrence
    # (min doc id) is always the donor, so every planted span must drop
    recv = np.arange(s["n_base"] - n_plant, s["n_base"])
    donor = rng.integers(0, s["n_base"] - n_plant, size=n_plant)
    seg = rng.integers(0, n_segs, size=n_plant)
    for r, d, g in zip(recv, donor, seg):
        toks[r, g * k:(g + 1) * k] = toks[d, g * k:(g + 1) * k]
    texts = [" ".join(f"w{t}" for t in row) for row in toks]
    pq.write_table(
        pa.table({"doc_id": pa.array(np.arange(s["n_base"]), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())}),
        path, row_group_size=16384,
    )
    return path


def run_segdedup_scale() -> None:
    """segment_dedup (C4-style span removal) end-to-end over the ~100k-doc
    corpus with 30% planted duplicate spans: docs/s plus a planted-truth
    check (every planted span drops from its receiver, donors intact)."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from hgcn_name_disambiguation_ray.stages.dedup import segment_dedup

    s = SEGDEDUP_SPEC
    path = _segdedup_corpus()
    ds = rd.read_parquet(path)
    n_docs = ds.count()  # warms the cache too
    t0 = time.time()
    out = segment_dedup(rd.read_parquet(path), seg_tokens=s["seg_tokens"])
    out_df = out.to_pandas()
    dt = time.time() - t0
    n_plant = int(s["n_base"] * s["span_frac"])
    recv_lo = s["n_base"] - n_plant
    # Docs whose EVERY segment was seen earlier produce no output row, so
    # reconcile against the full input id range: a missing doc counts as
    # all its segments dropped, and a missing donor breaks donors_intact.
    import numpy as np
    n_segs_per_doc = s["tokens_per_doc"] // s["seg_tokens"]
    missing = np.ones(s["n_base"], dtype=bool)
    missing[out_df["doc_id"].to_numpy()] = False
    miss_recv = int(missing[recv_lo:].sum())
    miss_donor = int(missing[:recv_lo].sum())
    dropped = int((out_df["n_segs"] - out_df["n_kept"]).sum()) + (
        (miss_recv + miss_donor) * n_segs_per_doc
    )
    recv_dropped = int(
        (out_df.loc[out_df["doc_id"] >= recv_lo, "n_segs"]
         - out_df.loc[out_df["doc_id"] >= recv_lo, "n_kept"]).sum()
    ) + miss_recv * n_segs_per_doc
    donors_intact = miss_donor == 0 and bool(
        (out_df.loc[out_df["doc_id"] < recv_lo, "n_kept"]
         == out_df.loc[out_df["doc_id"] < recv_lo, "n_segs"]).all()
    )
    ray.shutdown()
    print(json.dumps({
        "metric": "segment_dedup docs/sec (30% planted duplicate spans)",
        "docs": n_docs, "sec": round(dt, 3),
        "docs_per_sec": round(n_docs / dt, 1),
        "planted_spans": n_plant,
        "spans_dropped_total": dropped,
        "spans_dropped_from_receivers": recv_dropped,
        "donors_intact": donors_intact,
        "num_cpus": NUM_CPUS,
    }))


# heavy-hitters demo corpus: ~200k docs x 80 tokens — half Zipf over a
# 20k core vocab (a few tokens own percent-scale mass), half UNIQUE
# per position (urls/ids/typos: the huge singleton tail real web text
# has). ~8M distinct types of 16M tokens: the regime where an exact
# token groupby must shuffle millions of distinct keys while the MG
# sketch still ships k counters per block.
HH_SPEC = dict(n_docs=200_000, tokens_per_doc=80, vocab=20_000, zipf_a=1.3, seed=29)
HH_CORPUS_DIR = "/tmp/hgcn_ray_hh_corpus_v2"


def _hh_corpus() -> str:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(HH_CORPUS_DIR, "docs.parquet")
    if os.path.exists(path):
        return path
    os.makedirs(HH_CORPUS_DIR, exist_ok=True)
    s = HH_SPEC
    rng = np.random.default_rng(s["seed"])
    half = s["tokens_per_doc"] // 2
    toks = (rng.zipf(s["zipf_a"], size=(s["n_docs"], half)) - 1) % s["vocab"]
    texts = [
        " ".join(f"w{t}" for t in row)
        + " "
        + " ".join(f"u{i}x{j}" for j in range(half))
        for i, row in enumerate(toks)
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(s["n_docs"]), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())}),
        path, row_group_size=16384,
    )
    return path


def run_heavy_scale() -> None:
    """Misra-Gries heavy hitters vs the exact full-token groupby on a
    ~16M-token Zipfian corpus: wall time for both paths plus an exact
    set/count equality check (the sketch path must return literally the
    HAVING cnt*k > total set)."""
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from hgcn_name_disambiguation_ray.pipelines.textprep import vocabulary
    from hgcn_name_disambiguation_ray.stages.sketch import heavy_hitters

    k = 100
    path = _hh_corpus()
    _warm_file(path)
    n_docs = rd.read_parquet(path).count()

    t0 = time.time()
    hh = heavy_hitters(rd.read_parquet(path), k=k)
    t_sketch = time.time() - t0

    t0 = time.time()
    vocab = vocabulary(rd.read_parquet(path)).to_pandas()
    t_exact = time.time() - t0
    total = int(vocab["n_occurrences"].sum())
    expect = vocab[vocab["n_occurrences"] * k > total].sort_values("token")

    got = hh.to_pandas()
    match = (list(got["token"]) == list(expect["token"])
             and list(got["cnt"]) == list(expect["n_occurrences"]))
    ray.shutdown()
    print(json.dumps({
        "metric": f"heavy_hitters (MG sketch + exact verify) vs exact groupby, k={k}",
        "docs": int(n_docs), "total_tokens": total,
        "hitters_found": int(len(got)),
        "sketch_path_sec": round(t_sketch, 3),
        "exact_groupby_sec": round(t_exact, 3),
        "speedup": round(t_exact / t_sketch, 2) if t_sketch else None,
        "matches_exact_having_set": bool(match),
        "num_cpus": NUM_CPUS,
    }))


# hot-key-at-volume demo: ONE ambiguous name ("John Smith at web scale")
# carrying 100k mentions of 100 distinct persons — a single blocking key
# that MUST salt (ceil(100000/256) ~ 391 salts at salt_cap=256) and then
# merge correctly across salts. This is the skew case a web-scale corpus
# guarantees; the planted truth lets us score the cross-salt merge.
HOTKEY_SPEC = dict(
    n_names=1, persons_per_name=100, docs_per_person=1000, hot_name_factor=1, seed=51
)
HOTKEY_FIXTURE_DIR = "/tmp/hgcn_ray_hotkey_fixture_v1"
HOTKEY_SALT_CAP = 256


def run_hotkey_scale() -> None:
    """Linkage over a single 100k-mention hot block: wall time, salts
    used, cross-salt merge precision/recall/F1 vs planted truth, and
    driver peak RSS (the no-driver-blow-up evidence — the only
    driver-side state on this path is the hot-cluster root map, bounded
    by merged-cluster count, and the per-block score rows)."""
    import resource

    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import pyarrow.parquet as pq

    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import (
        clusters_with_truth,
        run_linkage,
    )
    from hgcn_name_disambiguation_ray.stages.evaluate import pairwise_scores

    pages_path = _fixture(HOTKEY_SPEC, HOTKEY_FIXTURE_DIR)
    _warm_file(pages_path)
    truth = pq.read_table(os.path.join(HOTKEY_FIXTURE_DIR, "truth.parquet"))

    t0 = time.time()
    pages = rd.read_parquet(pages_path)
    n_pages = pages.count()
    clusters = run_linkage(pages, LinkageConfig(salt_cap=HOTKEY_SALT_CAP)).materialize()
    n_out = clusters.count()
    dt = time.time() - t0
    assert n_out == n_pages

    scores = pairwise_scores(clusters_with_truth(clusters, truth))
    hot = scores[scores.block_key != "__macro__"].iloc[0]
    n_clusters = clusters.select_columns(["cluster_id"]).groupby("cluster_id").count().count()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ray.shutdown()
    print(json.dumps({
        "metric": "hot-key linkage (one 100k-mention block, salted + cross-salt merge)",
        "pages": int(n_pages),
        "sec": round(dt, 3),
        "pages_per_sec": round(n_pages / dt, 1),
        "salt_cap": HOTKEY_SALT_CAP,
        "n_salts": -(-int(n_pages) // HOTKEY_SALT_CAP),
        "planted_persons": HOTKEY_SPEC["persons_per_name"],
        "clusters_out": int(n_clusters),
        "precision": round(float(hot["precision"]), 4),
        "recall": round(float(hot["recall"]), 4),
        "f1": round(float(hot["f1"]), 4),
        "driver_peak_rss_mb": round(peak_rss_mb, 1),
        "num_cpus": NUM_CPUS,
    }))


def run_scaling_job() -> None:
    """Child-process body: the linkage pipeline alone on the big scaling
    fixture, throughput printed as one JSON line."""
    import ray

    ncpu = int(os.environ["RAY_GRAFT_CPUS"])
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from hgcn_name_disambiguation_ray.config import LinkageConfig
    from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage

    pages_path = _fixture(SCALING_SPEC, SCALING_FIXTURE_DIR)
    _warm_file(pages_path)  # warm page cache (count() reads only footers)
    t0 = time.time()
    pages = rd.read_parquet(pages_path)
    n = pages.count()
    out = run_linkage(pages, LinkageConfig()).count()
    dt = time.time() - t0
    assert out == n
    ray.shutdown()
    print(json.dumps({"num_cpus": ncpu, "pages": n, "sec": round(dt, 3),
                      "pages_per_sec": round(n / dt, 1)}))


def _hardware_speedup(n_procs: int) -> float:
    """Measured parallel speedup of this sandbox for n embarrassingly
    parallel single-threaded numpy workers vs one — the machine's own
    scaling ceiling. (This VM throttles: ~6x at 8 procs, ~19x at 32,
    so raw 8-vs-32 efficiency is hardware-capped at ~0.77 even for
    perfectly parallel work; the N=2 vs 4N=8 pair stays in the linear
    region.)"""
    import multiprocessing as mp

    t1 = min(_hw_probe_task(0) for _ in range(3))
    best = float("inf")
    for _ in range(2):  # repeat; keep best wall (probe is noise-sensitive)
        t0 = time.time()
        with mp.get_context("fork").Pool(n_procs) as p:
            p.map(_hw_probe_task, range(n_procs))
        best = min(best, time.time() - t0)
    return n_procs * t1 / best


def _hw_probe_task(_) -> float:
    # THREAD-IMMUNE workload: elementwise numpy never multithreads, so
    # the probe measures one core per process regardless of BLAS build.
    # (The previous small-GEMM version relied on an in-task
    # OMP_NUM_THREADS write that is a no-op under fork — numpy/BLAS are
    # already loaded — so an oversubscribing BLAS could have deflated
    # the measured ceiling.)
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random(30_000).astype(np.float64)
    t0 = time.time()
    acc = a.copy()
    for _i in range(4000):
        acc = np.sin(acc) * 1.0001 + a
    return time.time() - t0


# N and 4N worker counts for the scaling criterion. 2-vs-8 is the 4x
# step inside this sandbox VM's linear region (see _hardware_speedup);
# override with GRAFT_SCALE_LO/HI to run e.g. 8-vs-32.
SCALE_LO = int(os.environ.get("GRAFT_SCALE_LO", "2"))
SCALE_HI = int(os.environ.get("GRAFT_SCALE_HI", "8"))


# idle pause before each measured leg: this VM throttles on CUMULATIVE
# cpu burn (a leg measured right after another runs ~20% slower than the
# same leg standalone), so both legs must start from a recovered budget
COOLDOWN_S = int(os.environ.get("GRAFT_SCALE_COOLDOWN_S", "150"))


def run_scaling() -> None:
    # generate the fixture once in THIS process so neither child pays for it
    _fixture(SCALING_SPEC, SCALING_FIXTURE_DIR)

    def run(ncpu: int) -> dict:
        time.sleep(COOLDOWN_S)
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--scaling-job"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = run(SCALE_LO), run(SCALE_HI)
    ratio = hi["pages_per_sec"] / lo["pages_per_sec"]
    eff = ratio / (SCALE_HI / SCALE_LO)
    hw_lo, hw_hi = _hardware_speedup(SCALE_LO), _hardware_speedup(SCALE_HI)
    hw_ratio = hw_hi / hw_lo
    print(
        json.dumps(
            {
                "metric": (
                    f"linkage throughput scaling ({SCALE_LO} -> {SCALE_HI} cpus, "
                    "fresh processes, same input)"
                ),
                "pages": hi["pages"],
                f"sec_{SCALE_LO}": lo["sec"],
                f"sec_{SCALE_HI}": hi["sec"],
                f"pages_per_sec_{SCALE_LO}": lo["pages_per_sec"],
                f"pages_per_sec_{SCALE_HI}": hi["pages_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "hardware_speedup_ratio": round(hw_ratio, 3),
                "hardware_ceiling_efficiency": round(hw_ratio / (SCALE_HI / SCALE_LO), 3),
                "efficiency_vs_hardware_ceiling": round(ratio / hw_ratio, 3),
            }
        )
    )


if __name__ == "__main__":
    if "--scaling-job" in sys.argv:
        run_scaling_job()
    elif "--dedup-scale" in sys.argv:
        run_dedup_scale()
    elif "--segdedup-scale" in sys.argv:
        run_segdedup_scale()
    elif "--hotkey-scale" in sys.argv:
        run_hotkey_scale()
    elif "--heavy-scale" in sys.argv:
        run_heavy_scale()
    elif "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_benchmarks()))
