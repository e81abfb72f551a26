"""Linkage benchmark: run one workload in a fresh process and print its metrics.

    python3 linkbench/run.py --workload linkage_dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The run starts its own Ray
session in a child process (`linkbench/session.py`), times a fixed
number of passes of the workload (set by `--seconds`), checks every
pass's output, and prints as its last stdout line one JSON
object:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
one traced pass gives the per-layer table, printed above the JSON line.
A pass that raises, fails a check or outlives its deadline counts as
failed; a stalled child is killed together with its Ray processes.
See linkbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE = os.path.join(ROOT, ".linkbench")
PASS_DEADLINE_S = 90.0
RUN_DEADLINE_S = 170.0
# Ray puts Unix sockets under <temp>/session_<date>_<pid>/sockets/, and a
# socket path may hold at most 107 bytes
RAY_SOCKET_SUFFIX = 64

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
    "pairwise_f1": "ratio",
}
LAYER_UNITS = {"wall_s": "s", "cpu_s": "s", "compute_s": "s", "graphs_s": "s", "walks_s": "s",
               "gcn_s": "s", "hac_s": "s", "layers_s": "s", "bytes": "bytes",
               "shuffle_bytes": "bytes", "bytes_written": "bytes", "groups_per_s": "1/s",
               "verify_yield": "ratio"}


def layer_unit(metric: str) -> str:
    return LAYER_UNITS.get(metric.split(".", 1)[1], "count")


def _group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group `pgid`."""
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(d))
    return pids


def become_subreaper() -> None:
    """Have orphaned descendants (Ray daemons whose parent, the session
    child, was killed) re-parented to this process, so it can reap them."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, which reaps them


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_group(pgid: int, timeout: float = 20.0) -> None:
    """SIGKILL every process left in the child's process group (Ray's GCS,
    raylet and workers) and wait until none remains."""
    end = time.monotonic() + timeout
    while True:
        _reap()
        pids = _group_pids(pgid)
        if not pids:
            return
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > end:
            raise RuntimeError(f"processes {pids} of group {pgid} outlived SIGKILL")
        time.sleep(0.2)


def ray_temp_dir() -> str | None:
    """A Ray temp dir inside the checkout when its socket paths stay under
    the kernel's limit; otherwise None (Ray's default location)."""
    path = os.path.join(STATE, f"r{os.getpid()}")
    return path if len(path) + RAY_SOCKET_SUFFIX <= 107 else None


def run_child(args, ray_temp: str | None) -> tuple[list[dict], str | None, collections.deque]:
    """Run the session child; returns (events, stall message, stderr tail)."""
    r, w = os.pipe()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "linkbench.session", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--events-fd", str(w), "--state", STATE]
    if ray_temp:
        cmd += ["--ray-temp", ray_temp]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr.fileno(),
                            stderr=subprocess.PIPE, pass_fds=(w,), start_new_session=True)
    os.close(w)
    tail: collections.deque = collections.deque(maxlen=15)

    def pump():
        for line in iter(proc.stderr.readline, b""):
            sys.stderr.buffer.write(line)
            sys.stderr.flush()
            tail.append(line.decode("utf-8", "replace").rstrip())

    pumper = threading.Thread(target=pump, daemon=True)
    pumper.start()
    events: list[dict] = []
    stall = None
    buf = b""
    started = time.monotonic()
    pass_started = None
    try:
        while True:
            now = time.monotonic()
            if pass_started is not None and now - pass_started > PASS_DEADLINE_S:
                stall = f"pass exceeded its {PASS_DEADLINE_S:.0f} s deadline"
                break
            if now - started > RUN_DEADLINE_S:
                stall = f"run exceeded its {RUN_DEADLINE_S:.0f} s deadline"
                break
            ready, _, _ = select.select([r], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(r, 65536)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                ev = json.loads(line)
                events.append(ev)
                if ev["event"] == "pass_start":
                    pass_started = time.monotonic()
                elif ev["event"] == "pass_end":
                    pass_started = None
            if events and events[-1]["event"] == "done":
                break
    finally:
        os.close(r)
        if stall is None:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                stall = "session did not exit after its last event"
        stop_group(proc.pid)
        proc.wait()
        pumper.join(timeout=5)
    if stall and pass_started is not None:
        events.append({"event": "pass_end", "ok": False, "error": stall, "problems": [],
                       "records": 0, "wall_s": 0.0, "f1": 0.0, "layers": {}})
    return events, stall, tail


def layer_table(layers: dict[str, float], names: list[str]) -> str:
    rows = [f"{'metric':<28} {'value':>16}  unit"]
    rows += [f"{n:<28} {layers.get(n, 0.0):>16.4f}  {layer_unit(n)}" for n in names]
    return "\n".join(rows)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "hgcn_name_disambiguation_ray")):
        print(f"linkbench: no engine package under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from linkbench.workloads import LAYER_METRICS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"linkbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(STATE, exist_ok=True)
    become_subreaper()
    ray_temp = ray_temp_dir()
    try:
        events, stall, tail = run_child(args, ray_temp)
    finally:
        if ray_temp:
            shutil.rmtree(ray_temp, ignore_errors=True)
        for d in os.listdir(STATE):
            if d.startswith("work-"):
                shutil.rmtree(os.path.join(STATE, d), ignore_errors=True)

    by_kind = collections.defaultdict(list)
    for ev in events:
        by_kind[ev["event"]].append(ev)
    passes = by_kind["pass_end"]
    for p in passes:
        if p["error"]:
            print(f"linkbench: pass failed: {p['error']}", file=sys.stderr)
        for problem in p["problems"]:
            print(f"linkbench: check failed: {problem}", file=sys.stderr)
    if stall:
        print(f"linkbench: {stall}; last Ray output:", file=sys.stderr)
        for line in tail:
            print(f"  {line}", file=sys.stderr)
    ok = [p for p in passes if p["ok"]]
    setups = [s["seconds"] for s in by_kind["setup"]]
    if not ok or not setups:
        print("linkbench: no pass completed; no result", file=sys.stderr)
        return 1
    info = by_kind["info"][0]
    print(f"# workload={args.workload} seed={args.seed} ray_cpus={info['ray_cpus']} "
          f"affinity_cpus={info['affinity_cpus']} passes={len(passes)} "
          f"pass_walls_s={[round(p['wall_s'], 3) for p in ok]}")

    done = by_kind["done"]
    if args.trace:
        print(layer_table(ok[0]["layers"], LAYER_METRICS))
        metrics = {n: {"value": ok[0]["layers"].get(n, 0.0), "unit": layer_unit(n)}
                   for n in LAYER_METRICS}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "records_per_s": statistics.median(p["records"] / p["wall_s"] for p in ok),
            # a stalled session reports no peak; the kernel's figure for the
            # largest waited-for child is then the closest reading
            "peak_rss_mb": done[0]["peak_rss_mb"] if done else
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "pairwise_f1": statistics.median(p["f1"] for p in ok),
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}
    result = {
        "correct": not any(p["problems"] for p in passes),
        "attempted": len(passes),
        "failed": len(passes) - len(ok),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
