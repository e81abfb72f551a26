"""Benchmark decontamination: train-corpus vs eval-set n-gram overlap.

Lives in its own module (not `stages/dedup.py`) on purpose: the dedup
module carries a tested invariant that NO near-dup operator materializes
dataset content on the driver, while decontamination legitimately
collects the BENCHMARK side — small by contract (eval suites are KB-MB
against a 100 TB corpus) — and broadcasts its shingle-hash set once via
ray.put. The corpus side stays a single shuffle-free map_batches using
the exact shingle kernels the dedup family uses.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ray.data import Dataset

from hgcn_name_disambiguation_ray.functions.text import split_ws_hashed
from hgcn_name_disambiguation_ray.stages.dedup import _shingle_hashes_flat

class _ContaminationScan:
    """Actor-pool stage: count benchmark-overlapping n-gram shingles per
    doc. The benchmark shingle set is broadcast ONCE via ray.put and
    resolved here in __init__ (once per actor, zero-copy from the object
    store) — never re-shipped per batch."""

    def __init__(self, bench_ref, n: int, text_col: str, id_col: str):
        import ray

        self.bench = ray.get(bench_ref)  # sorted distinct uint64 hashes
        self.n = n
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        th, off = split_ws_hashed(t[self.text_col], lower=True)
        sh, sh_off = _shingle_hashes_flat(th, off, self.n)
        hit = np.zeros(len(sh), dtype=bool)
        if len(sh) and len(self.bench):
            idx = np.searchsorted(self.bench, sh)
            idx[idx == len(self.bench)] = len(self.bench) - 1
            hit = self.bench[idx] == sh
        cs = np.zeros(len(sh) + 1, dtype=np.int64)
        np.cumsum(hit, out=cs[1:])
        per_doc = cs[sh_off[1:]] - cs[sh_off[:-1]]
        return pa.table(
            {
                self.id_col: t[self.id_col],
                "overlap_ngrams": pa.array(per_doc, type=pa.int64()),
                # int64 flag, not bool: repo convention for oracle-hashed flags
                "contaminated": pa.array((per_doc > 0).astype(np.int64)),
            }
        )


def benchmark_shingles(
    bench: Dataset, n: int = 3, text_col: str = "text"
) -> np.ndarray:
    """Distinct n-gram shingle hashes of a benchmark/eval set.

    The benchmark side of decontamination is small BY CONTRACT (eval
    suites are KB–MB against a 100 TB corpus), so collecting its
    per-batch-deduped hashes to the driver is bounded and correct; the
    CORPUS side streams and is never materialized."""

    def per_batch(t: pa.Table) -> pa.Table:
        th, off = split_ws_hashed(t[text_col], lower=True)
        sh, _ = _shingle_hashes_flat(th, off, n)
        return pa.table({"s": pa.array(np.unique(sh), type=pa.uint64())})

    chunks = [
        b["s"].to_numpy(zero_copy_only=False)
        for b in bench.map_batches(per_batch, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"
        )
    ]  # contiguous uint64 buffers end to end — take_all would build a
    #    per-row Python dict per shingle
    if not chunks:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.concatenate(chunks))


def decontaminate(
    corpus: Dataset,
    benchmark: Dataset,
    n: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> Dataset:
    """Training-corpus decontamination against an eval benchmark
    (the n-gram-overlap test used for public-benchmark leakage checks):
    per corpus doc, the count of its n-token shingles that appear
    anywhere in the benchmark, plus a contaminated flag.

    Scale shape: benchmark shingle set broadcast once (small side BY
    CONTRACT); corpus side is one embarrassingly-parallel map_batches —
    no shuffle, no driver materialization of corpus data. Tokenization
    and shingling are the exact kernels the dedup family uses
    (`split_ws_hashed(lower=True)` / `_shingle_hashes_flat`), so 'same n-gram'
    means the same thing across the engine."""
    import ray

    bench_ref = ray.put(benchmark_shingles(benchmark, n, text_col))
    return corpus.map_batches(
        _ContaminationScan,
        fn_constructor_args=(bench_ref, n, text_col, id_col),
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
