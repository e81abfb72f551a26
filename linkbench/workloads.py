"""The benchmark's workloads: one pass each over generated Parquet.

A pass goes through the engine's public API only and returns its output
to the benchmark, which checks it. The traced pass calls each layer's
public function in turn and materializes after each, so every layer gets
its own span and counters.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from linkbench.checks import check_dedup, check_linkage
from linkbench.inputs import DenseSpec, DocSpec, WebSpec
from linkbench.trace import Tracer, patched, remote_cpu_s

LINKAGE_F1_FLOOR = 0.9
JACCARD_FLOOR = 0.7

# every per-layer metric, in table order; a layer a workload does not
# run reads 0
LAYER_METRICS = [
    "sources.wall_s", "sources.bytes",
    "extract.wall_s", "extract.cpu_s", "extract.rows_out",
    "blocking.wall_s", "blocking.groups", "blocking.singleton_groups",
    "blocking.max_group_rows", "blocking.hot_keys", "blocking.salts",
    "scorer.wall_s", "scorer.cpu_s", "scorer.groups_per_s", "scorer.shuffle_bytes",
    "scorer.compute_s", "scorer.graphs_s",
    "state.walks_s", "state.gcn_s", "state.hac_s",
    "merge.wall_s", "merge.hot_clusters", "merge.edges",
    "closure.wall_s", "closure.edges", "closure.components",
    "checkpoint.wall_s", "checkpoint.bytes_written",
    "sink.wall_s", "sink.bytes_written", "sink.files",
    "dedup.wall_s", "dedup.candidates", "dedup.verified", "dedup.verify_yield",
    "trace.wall_s", "trace.layers_s",
]
# spans whose durations add up to the traced pass (closure nests in
# merge or dedup; the scorer replay runs after the pass)
TOP_LAYERS = ["sources", "extract", "checkpoint", "blocking", "scorer", "merge", "sink", "dedup"]


@dataclass
class PassResult:
    records: int
    wall_s: float
    f1: float
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)


def _dir_bytes(path: str) -> tuple[int, int]:
    """(bytes, files) of the regular files under `path`."""
    total = files = 0
    for root, _, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(root, n))
            files += 1
    return total, files


def _read_sink(out_dir: str) -> pd.DataFrame:
    ds = pads.dataset(out_dir, format="parquet", partitioning="hive")
    return ds.to_table(columns=["block_key", "mention_id", "cluster_id"]).to_pandas()


def _import_engine(batch):
    """Task body for the set-up warm-up: load the engine's modules in a worker."""
    import hgcn_name_disambiguation_ray.pipelines.linkage  # noqa: F401
    import hgcn_name_disambiguation_ray.stages.dedup  # noqa: F401

    return batch


def warm_workers(cpus: int) -> None:
    """Start one task worker per CPU and import the engine in each, so the
    first timed pass does not pay for worker start-up and imports."""
    import ray.data as rd

    rd.range(cpus, override_num_blocks=cpus).map_batches(
        _import_engine, batch_format="pyarrow").materialize()


class Workload:
    name: str
    spec: object
    input_name: str

    def __init__(self, work_dir: str):
        self.work_dir = work_dir
        self.truth: pd.DataFrame | None = None
        self.records = 0

    def load(self, paths: dict[str, str]) -> None:
        """Read what the checks need and pull the input through the page cache."""
        self.paths = paths
        self.truth = pq.read_table(paths["truth"]).to_pandas()
        self.records = pq.ParquetFile(paths[self.input_name]).metadata.num_rows
        with open(paths[self.input_name], "rb") as f:
            while f.read(1 << 22):
                pass

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def traced_pass(self, tr: Tracer) -> PassResult:
        raise NotImplementedError


class _Linkage(Workload):
    input_name = "pages"
    web = False

    def cfg(self):
        from hgcn_name_disambiguation_ray.config import LinkageConfig

        return LinkageConfig()

    def _dirs(self) -> tuple[str, str]:
        ckpt = os.path.join(self.work_dir, "ckpt")
        out = os.path.join(self.work_dir, "clusters")
        for d in (ckpt, out):
            shutil.rmtree(d, ignore_errors=True)
        return ckpt, out

    def _finish(self, clusters: pd.DataFrame, wall: float, layers: dict | None = None) -> PassResult:
        f1, problems = check_linkage(clusters, self.truth, LINKAGE_F1_FLOOR)
        return PassResult(self.records, wall, f1, problems, layers or {})

    def run_pass(self) -> PassResult:
        import ray.data as rd

        from hgcn_name_disambiguation_ray.pipelines.linkage import run_linkage, write_clusters

        paths = self.paths
        cfg = self.cfg()
        ckpt, out = self._dirs()
        t0 = time.perf_counter()
        pages = rd.read_parquet(paths["pages"])
        if self.web:
            clusters = run_linkage(pages, cfg, checkpoint_dir=ckpt, lineage_token=paths["pages"])
            write_clusters(clusters, out)
            wall = time.perf_counter() - t0
            df = _read_sink(out)
        else:
            df = run_linkage(pages, cfg).to_pandas()
            wall = time.perf_counter() - t0
        self._dirs()
        return self._finish(df, wall)

    def traced_pass(self, tr: Tracer) -> PassResult:
        import ray
        import ray.data as rd

        from hgcn_name_disambiguation_ray.pipelines import linkage as L
        from hgcn_name_disambiguation_ray.sources.checkpoint import checkpoint_stage, fingerprint
        from hgcn_name_disambiguation_ray.stages import blocking as B
        from hgcn_name_disambiguation_ray.stages import closure as C
        from hgcn_name_disambiguation_ray.stages.scorer import BlockScorer

        cfg = self.cfg()
        ckpt, out = self._dirs()
        token = self.paths["pages"]
        m: dict[str, float] = {}
        out_cols = ["block_key", "salt", "mention_id", "cluster_id"]
        with patched(C, "connected_components", _closure_counter(tr)), tr.span("pass") as whole:
            with tr.span("sources"):
                pages = rd.read_parquet(self.paths["pages"]).materialize()
            m["sources.bytes"] = pages.size_bytes()

            with tr.span("extract"):
                mentions = L.extract_mentions(pages, cfg).materialize()
            m["extract.cpu_s"] = remote_cpu_s(mentions)
            m["extract.rows_out"] = n_rows = mentions.count()
            if self.web:
                with tr.span("checkpoint"):
                    done = mentions
                    mentions = checkpoint_stage(
                        lambda: done, f"{ckpt}/mentions",
                        fingerprint("mentions-v1", token, cfg), schema=L.MENTIONS_SCHEMA)

            with tr.span("blocking"):
                counts = B.block_counts(mentions, min_count=cfg.salt_cap)
                salt_map = B.make_salt_map(counts, cfg.salt_cap)
                salted = mentions.map_batches(
                    B.AssignSalt, fn_constructor_args=(ray.put(salt_map),),
                    batch_format="pyarrow", concurrency=(1, 8),
                ).materialize()
            sizes = salted.select_columns(["block_key", "salt"]).to_pandas().groupby(
                ["block_key", "salt"]).size()
            m["blocking.groups"] = len(sizes)
            m["blocking.singleton_groups"] = int((sizes == 1).sum())
            m["blocking.max_group_rows"] = int(sizes.max()) if len(sizes) else 0
            m["blocking.hot_keys"] = len(salt_map)
            m["blocking.salts"] = sum(salt_map.values())
            m["scorer.shuffle_bytes"] = salted.size_bytes()

            with tr.span("scorer"):
                clusters = salted.repartition(L._scorer_parts(n_rows, cfg)).groupby(
                    ["block_key", "salt"]).map_groups(
                    BlockScorer,
                    fn_constructor_args=(cfg, False, bool(salt_map), L._w2v_blob_ref(cfg)),
                    batch_format="pyarrow", concurrency=cfg.scorer_concurrency,
                ).materialize()
            m["scorer.cpu_s"] = remote_cpu_s(clusters)
            if self.web:
                with tr.span("checkpoint"):
                    scored = clusters
                    clusters = checkpoint_stage(
                        lambda: scored, f"{ckpt}/clusters",
                        fingerprint("clusters-v1", token, cfg, sorted(salt_map.items())),
                        schema=L.SCORER_SCHEMA)

            if salt_map:
                hot = clusters.select_columns(["block_key", "cluster_id"]).to_pandas()
                m["merge.hot_clusters"] = hot[hot["block_key"].isin(set(salt_map))][
                    "cluster_id"].nunique()
                with tr.span("merge"):
                    final = L._merge_hot_relabel(clusters, salt_map, cfg, out_cols).materialize()
            else:
                final = clusters.select_columns(out_cols)

            if self.web:
                with tr.span("sink"):
                    L.write_clusters(final, out)
                m["sink.bytes_written"], m["sink.files"] = _dir_bytes(out)
                m["checkpoint.bytes_written"] = _dir_bytes(ckpt)[0]
                df = _read_sink(out)
            else:
                df = final.to_pandas()
        m["merge.edges"] = tr.counts["merge.edges"]
        self._dirs()
        self._replay_scorer(tr, salted, cfg, bool(salt_map), m)
        m.update(_layer_times(tr, whole))
        m["scorer.groups_per_s"] = m["blocking.groups"] / m["scorer.wall_s"]
        return self._finish(df, whole["end"] - whole["start"], m)

    def _replay_scorer(self, tr: Tracer, salted, cfg, salted_run: bool, m: dict) -> None:
        """Re-run every scorer group serially in the driver with the scorer's
        inner steps wrapped, so scorer.compute_s (pure per-group work) sits
        beside scorer.wall_s (the distributed stage with its dispatch)."""
        import ray

        from hgcn_name_disambiguation_ray.stages import scorer as S
        from hgcn_name_disambiguation_ray.state.gcn import BlockEncoder

        table = pa.concat_tables(ray.get(salted.to_arrow_refs())).sort_by(
            [("block_key", "ascending"), ("salt", "ascending")])
        keys = table.select(["block_key", "salt"]).to_pandas()
        bounds = keys.ne(keys.shift()).any(axis=1).to_numpy().nonzero()[0].tolist() + [len(keys)]
        scorer = S.BlockScorer(cfg, False, salted_run, None)
        with tr.timed_attr(S, "build_block_graphs", "scorer.graphs"), \
                tr.timed_attr(S, "metapath_walks", "state.walks"), \
                tr.timed_attr(BlockEncoder, "fit_embed", "state.gcn"), \
                tr.timed_attr(S, "ghac_cluster", "state.hac"), \
                tr.span("scorer.replay"):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                scorer(table.slice(lo, hi - lo))
        m["scorer.compute_s"] = tr.seconds("scorer.replay")
        m["scorer.graphs_s"] = tr.seconds("scorer.graphs")
        for step in ("walks", "gcn", "hac"):
            m[f"state.{step}_s"] = tr.seconds(f"state.{step}")


class LinkageDense(_Linkage):
    name = "linkage_dense"
    spec = DenseSpec()


class LinkageWeb(_Linkage):
    name = "linkage_web"
    web = True
    spec = WebSpec()

    def cfg(self):
        from hgcn_name_disambiguation_ray.config import LinkageConfig

        # a salt cap of 64 splits the 180-mention hot keys into three
        # salts while keeping each sub-block small
        return LinkageConfig(salt_cap=64)


class DedupNear(Workload):
    name = "dedup_near"
    input_name = "docs"
    spec = DocSpec()

    def load(self, paths: dict[str, str]) -> None:
        super().load(paths)
        self.docs = pq.read_table(paths["docs"]).to_pandas()

    def _finish(self, out: pd.DataFrame, wall: float, layers: dict | None = None) -> PassResult:
        f1, problems = check_dedup(out, self.docs, self.truth, JACCARD_FLOOR)
        return PassResult(self.records, wall, f1, problems, layers or {})

    def run_pass(self) -> PassResult:
        import ray.data as rd

        from hgcn_name_disambiguation_ray.stages.dedup import minhash_lsh_dedup

        t0 = time.perf_counter()
        out = minhash_lsh_dedup(rd.read_parquet(self.paths["docs"])).to_pandas()
        return self._finish(out, time.perf_counter() - t0)

    def traced_pass(self, tr: Tracer) -> PassResult:
        import ray.data as rd

        from hgcn_name_disambiguation_ray.stages import dedup as D

        m: dict[str, float] = {}

        def count_candidates(orig):
            def wrapped(*args, **kwargs):
                cand = orig(*args, **kwargs).materialize()
                tr.counts["dedup.candidates"] += cand.count()
                return cand

            return wrapped

        with patched(D, "connected_components", _closure_counter(tr)), \
                patched(D, "_candidate_pairs", count_candidates):
            with tr.span("pass") as whole:
                with tr.span("sources"):
                    docs = rd.read_parquet(self.paths["docs"]).materialize()
                m["sources.bytes"] = docs.size_bytes()
                with tr.span("dedup"):
                    out = D.minhash_lsh_dedup(docs).materialize()
                df = out.to_pandas()
        m["dedup.candidates"] = tr.counts["dedup.candidates"]
        m["dedup.verified"] = tr.counts["closure.edges"]
        m["dedup.verify_yield"] = m["dedup.verified"] / max(1.0, m["dedup.candidates"])
        m.update(_layer_times(tr, whole))
        return self._finish(df, whole["end"] - whole["start"], m)


def _layer_times(tr: Tracer, whole: dict) -> dict[str, float]:
    m = {f"{name}.wall_s": tr.seconds(name) for name in TOP_LAYERS + ["closure"]}
    m["closure.edges"] = tr.counts["closure.edges"]
    m["closure.components"] = tr.counts["closure.components"]
    m["trace.wall_s"] = whole["end"] - whole["start"]
    m["trace.layers_s"] = tr.child_seconds("pass")
    return m


def _closure_counter(tr: Tracer):
    """Wrapper factory for `connected_components` in the traced pass: its
    input edges are materialized first (the upstream work stays in the
    caller's span), then the closure runs in a `closure` span and its
    edges and components are counted."""

    def make(orig):
        def wrapped(edges, *args, **kwargs):
            edges = edges.materialize()
            n_edges = edges.count()
            caller = tr.current()
            with tr.span("closure"):
                comps = orig(edges, *args, **kwargs).materialize()
            tr.counts["closure.edges"] += n_edges
            tr.counts["closure.components"] += comps.to_pandas()["component"].nunique()
            if caller == "merge":
                tr.counts["merge.edges"] += n_edges
            return comps

        return wrapped

    return make


WORKLOADS = {w.name: w for w in (LinkageDense, LinkageWeb, DedupNear)}
