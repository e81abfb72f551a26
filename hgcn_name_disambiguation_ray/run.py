"""`ray job submit` entrypoint — the production launcher the north rule
names (`ray job submit --address http://head:8265 --working-dir . --
python -m hgcn_name_disambiguation_ray.run --input ... --output ...`).

This module OWNS a Ray session only when one doesn't already exist (the
job server initializes Ray before the script runs; local invocation
falls back to ray.init) and only shuts down what it started — the
library itself never touches session lifecycle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="hgcn_name_disambiguation_ray.run",
        description="Record-linkage over Common-Crawl-style Parquet pages",
    )
    p.add_argument("--input", help="pages parquet path/dir (or WARC archives "
                                   "with --input-format warc)")
    p.add_argument("--input-format", choices=["parquet", "warc"],
                   default="parquet",
                   help="'warc' ingests Common Crawl .warc(.gz) archives "
                        "(comma-separated paths) via sources/warc.warc_pages")
    p.add_argument("--output", help="clusters output dir")
    p.add_argument("--lookup", default=None, metavar="BLOCK_KEY",
                   help="offline author lookup: resolve one block key "
                        "against an existing --clusters dir (reads only "
                        "its hash-prefix partition; no Ray session)")
    p.add_argument("--clusters", default=None,
                   help="clusters dir for --lookup (a write_clusters output)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="stage/shard checkpoint root (enables resume)")
    p.add_argument("--lineage-token", default="",
                   help="fingerprint of the input snapshot; pair with --checkpoint-dir")
    p.add_argument("--n-shards", type=int, default=1,
                   help="block-key shards, each resumable on its own (> 1 needs "
                        "--checkpoint-dir)")
    p.add_argument("--salt-cap", type=int, default=None,
                   help="hot-key salting threshold (LinkageConfig default otherwise)")
    p.add_argument("--cross-merge", choices=["none", "title"], default="none",
                   help="'title' = artifact regime (needs --word2vec-path)")
    p.add_argument("--word2vec-path", default=None)
    p.add_argument("--summary-json", default=None,
                   help="also write the reference-shaped JSON cluster summary here")
    p.add_argument("--summary-max-rows", type=int, default=100_000,
                   help="refuse to build the driver-side JSON summary above "
                        "this many cluster rows (the partitioned parquet "
                        "output is the scale path); raise deliberately to "
                        "override")
    args = p.parse_args(argv)

    if args.lookup is not None:
        # pure-pyarrow partition-pruned read — no Ray session needed
        if not args.clusters:
            p.error("--lookup requires --clusters <write_clusters output dir>")
        from hgcn_name_disambiguation_ray.pipelines.linkage import lookup_clusters

        df = lookup_clusters(args.clusters, args.lookup)
        groups = {
            str(cid): sorted(g["mention_id"].tolist())
            for cid, g in df.groupby("cluster_id", sort=True)
        }
        print(json.dumps({args.lookup: groups}))
        return 0
    if not args.input or not args.output:
        p.error("--input and --output are required (unless using --lookup)")
    if args.n_shards > 1 and not args.checkpoint_dir:
        p.error("--n-shards requires --checkpoint-dir (shards "
                "checkpoint per partition; a silent shared default "
                "would cross-contaminate runs)")

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init()  # job server/cluster config comes from the environment
    try:
        import ray.data as rd

        from hgcn_name_disambiguation_ray.config import LinkageConfig
        from hgcn_name_disambiguation_ray.pipelines.linkage import (
            clusters_json_summary,
            run_linkage,
            write_clusters,
        )

        kw = {}
        if args.salt_cap is not None:
            kw["salt_cap"] = args.salt_cap
        if args.cross_merge != "none":
            if not args.word2vec_path:
                p.error("--cross-merge title requires --word2vec-path "
                        "(the artifact regime needs trained vectors; a "
                        "missing model would silently degrade to the "
                        "hash-projection embedder)")
            kw["cross_merge"] = args.cross_merge
            kw["word2vec_path"] = args.word2vec_path
        cfg = LinkageConfig(**kw)

        import os as _os

        if _os.path.isdir(args.output) and _os.listdir(args.output):
            p.error(f"--output {args.output} exists and is not empty: "
                    "write_parquet APPENDS uniquely-named files, so a rerun "
                    "would silently merge stale and fresh clusters — clean "
                    "it or choose a fresh dir")

        # lineage defaults to a fingerprint of the input snapshot: an
        # empty token + a reused checkpoint dir would otherwise serve a
        # PREVIOUS input's checkpoints as this run's answer
        lineage = args.lineage_token
        if not lineage:
            import os
            from hashlib import blake2b

            try:
                if args.input_format == "warc" and "," in args.input:
                    # comma-separated archives: fingerprint EACH path —
                    # os.stat on the joined string raises, and the URI
                    # fallback would let an in-place rewrite of one
                    # archive silently reuse stale checkpoints
                    stats = [
                        (p, os.stat(p)) for p in args.input.split(",") if p
                    ]  # one stat per path: mtime and size from one state
                    parts = sorted(
                        (p, st.st_mtime_ns, st.st_size) for p, st in stats
                    )
                    d = blake2b(repr(parts).encode(), digest_size=8).hexdigest()
                    lineage = f"auto:warc:{d}"
                elif os.path.isdir(args.input):
                    # fingerprint the LISTING (name, mtime, size per file):
                    # an in-place rewrite of a member file does not change
                    # the directory inode's mtime/size
                    parts = sorted(
                        (f, os.stat(os.path.join(args.input, f)).st_mtime_ns,
                         os.stat(os.path.join(args.input, f)).st_size)
                        for f in os.listdir(args.input)
                    )
                    d = blake2b(repr(parts).encode(), digest_size=8).hexdigest()
                    lineage = f"auto:{args.input}:{d}"
                else:
                    st = os.stat(args.input)
                    lineage = f"auto:{args.input}:{st.st_mtime_ns}:{st.st_size}"
            except OSError:  # remote path (s3://...): key on the URI
                lineage = f"auto:{args.input}"

        t0 = time.time()
        if args.input_format == "warc":
            from hgcn_name_disambiguation_ray.sources.warc import warc_pages

            pages = warc_pages([s for s in args.input.split(",") if s])
        else:
            pages = rd.read_parquet(args.input)
        clusters = run_linkage(
            pages, cfg, checkpoint_dir=args.checkpoint_dir,
            lineage_token=lineage, n_shards=args.n_shards,
        )
        write_clusters(clusters, args.output)
        elapsed = time.time() - t0
        summary_skipped = None
        if args.summary_json:
            try:
                summary = clusters_json_summary(
                    rd.read_parquet(args.output), max_rows=args.summary_max_rows
                )
            except ValueError as e:
                # the linkage output (hours of work at scale) is already
                # safely on disk — report the refusal instead of dying
                summary_skipped = str(e)
                print(f"warning: summary-json skipped: {e}", file=sys.stderr)
            else:
                with open(args.summary_json, "w") as f:
                    json.dump(summary, f)
        out = {"output": args.output, "wall_seconds": round(elapsed, 2)}
        if summary_skipped is not None:
            out["summary_json_skipped"] = summary_skipped
        print(json.dumps(out))
        return 0
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
