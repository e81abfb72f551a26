"""One benchmark run: two Ray sessions, each a set-up and its passes.

Started by `linkbench/run.py` as a child process; it reports progress as
JSON lines on the file descriptor given by `--events-fd`, so that the
parent can enforce deadlines and still report a stalled pass. Ray's own
output goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

from linkbench.inputs import cached_input
from linkbench.trace import Tracer
from linkbench.workloads import WORKLOADS, warm_workers

SETUPS = 2        # Ray sessions started per run; setup_s is their median
OBJECT_STORE_BYTES = 512 << 20


def ray_cpus() -> tuple[int, int]:
    """(logical CPUs for Ray, CPUs this process may run on).

    Never 1: with one logical CPU the AssignSalt and BlockScorer actor
    pools of one streaming execution each wait for the other's CPU and
    run_linkage never finishes. Capped at 4 so runs on larger machines
    stay comparable."""
    allowed = len(os.sched_getaffinity(0))
    return max(2, min(4, allowed)), allowed


def timed_passes(seconds: float) -> int:
    """Passes in one run: one per 10 s of --seconds, at least one.

    A fixed count per --seconds, not a time-driven loop: every
    run then attempts the same operations however fast the machine is."""
    return max(1, round(seconds / 10))


def run_pass(wl, tracer: Tracer | None, index: int, emit: Events) -> None:
    emit("pass_start", index=index)
    try:
        res = wl.traced_pass(tracer) if tracer else wl.run_pass()
        emit("pass_end", index=index, ok=not res.problems, error=None, problems=res.problems,
             records=res.records, wall_s=res.wall_s, f1=res.f1, layers=res.layers)
    except Exception:
        emit("pass_end", index=index, ok=False, error=traceback.format_exc(), problems=[],
             records=0, wall_s=0.0, f1=0.0, layers={})


class Events:
    def __init__(self, fd: int):
        self.f = os.fdopen(fd, "w", buffering=1)

    def __call__(self, kind: str, **fields) -> None:
        self.f.write(json.dumps({"event": kind, **fields}) + "\n")


def start_ray(cpus: int, temp_dir: str | None) -> None:
    import ray
    from ray.data import DataContext

    kwargs = {"_temp_dir": temp_dir} if temp_dir else {}
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, logging_level="WARNING", **kwargs)
    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--events-fd", type=int, required=True)
    ap.add_argument("--state", required=True, help="input cache and work directory root")
    ap.add_argument("--ray-temp", default=None)
    args = ap.parse_args(argv)
    emit = Events(args.events_fd)

    import ray

    cpus, allowed = ray_cpus()
    work = os.path.join(args.state, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    wl = WORKLOADS[args.workload](work)
    cache = os.path.join(args.state, "inputs")
    paths = cached_input(cache, args.seed, wl.spec)
    emit("info", ray_cpus=cpus, affinity_cpus=allowed)

    tracer = Tracer() if args.trace else None
    n_passes = 1 if tracer else timed_passes(args.seconds)
    setups = []
    index = 0
    for i in range(SETUPS):
        t0 = time.perf_counter()
        start_ray(cpus, args.ray_temp)
        wl.load(paths)
        warm_workers(cpus)
        setups.append(time.perf_counter() - t0)
        emit("setup", seconds=setups[-1])
        # the passes are spread over the sessions, so each runs first after
        # a set-up (the same warm state every time) and a burst of load on
        # the host meets fewer of them; the later sessions take the rest
        for _ in range(n_passes // SETUPS + (i >= SETUPS - n_passes % SETUPS)):
            run_pass(wl, tracer, index, emit)
            index += 1
        if i < SETUPS - 1:
            ray.shutdown()

    if tracer:
        tracer.write(os.path.join(args.state, f"spans-{args.workload}-seed{args.seed}.json"))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit("done", setups=setups, peak_rss_mb=peak_kb / 1024.0)
    # no ray.shutdown(): the parent kills this process group, Ray's GCS,
    # raylet and workers with it, and waits for them; a graceful shutdown
    # would add about 1.7 s to every run
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    main()
