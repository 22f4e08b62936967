#!/usr/bin/env python3
"""One benchmark for the whole sweep-scheduling path.

    python3 perfbench/run.py --workload offline-paper --seed 1 --seconds 20 --trace 0

Builds sweep_perfbench from the checked-out sources (into .bench_build/),
runs one workload, checks its outputs, and prints as the last line of
standard output one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics; with
--trace 1 sweep_perfbench records a Chrome trace of the traced part of the run,
and the metrics are the per-layer metrics derived from that trace (see
perfbench/README.md for every name and the layer -> end-to-end map).

The result document (host and build fingerprint, sample counts, span self
times) and the trace are written to .bench_build/perfbench/results/.
"""
import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("offline-paper", "serve-cold", "serve-mixed")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("schedule_s", "s"),
    ("pack_s", "s"),
    ("makespan_over_lb", "ratio"),
    ("c1_cross_fraction", "ratio"),
    ("c2_total_delay", "steps"),
    ("qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("slo_pct", "%"),
    ("success_pct", "%"),
    ("peak_rss_mb", "MiB"),
)

SCHEMES = {0: "level", 1: "random_delay", 2: "descendant", 3: "dfds"}
SERVE_PHASES = ("decode", "lookup", "schedule", "cost", "encode", "write", "request")
CACHE_FACTS = ("hit_rate_pct", "hits", "misses", "inflight_waits", "evictions",
               "invalidations", "bytes")

PER_LAYER = (
    [("mesh.generate_s", "s"),
     ("sweep.build_instance_s", "s"),
     ("sweep.task_graph_s", "s"),
     ("sweep.edges", "count"),
     ("sweep.dropped_edges", "count"),
     ("sweep.descendants_s", "s"),
     ("sweep.artifact_pack_s", "s"),
     ("sweep.artifact_write_s", "s"),
     ("sweep.artifact_bytes", "bytes"),
     ("sweep.artifact_load_s", "s"),
     ("partition.blocks_s", "s"),
     ("partition.edge_cut", "count"),
     ("partition.imbalance", "ratio")]
    + [("core.priorities_s." + s, "s") for s in SCHEMES.values()]
    + [("core.list_schedule_s." + s, "s") for s in SCHEMES.values()]
    + [("core.list_schedule_sharded_s", "s"),
       ("core.tasks_per_s", "1/s"),
       ("core.comm_c1_s", "s"),
       ("core.comm_c2_s", "s"),
       ("core.validate_s", "s"),
       ("core.makespan", "steps"),
       ("core.lower_bound", "steps"),
       ("core.idle_slots", "count")]
    + [("serve.%s_%s_us" % (p, q), "us") for p in SERVE_PHASES for q in ("p50", "p99")]
    + [("serve.queue_wait_p50_us", "us"),
       ("serve.queue_wait_p99_us", "us"),
       ("serve.handle_us", "us")]
    + [("serve.cache." + c, "%" if c == "hit_rate_pct" else
        "bytes" if c == "bytes" else "count") for c in CACHE_FACTS]
    + [("serve.swap_ms", "ms"),
       ("serve.response_bytes", "bytes"),
       ("serve.latency_samples", "count"),
       ("serve.generator_late_p50_us", "us"),
       ("serve.generator_late_p99_us", "us"),
       ("obs.trace_overhead_pct", "%")]
)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds sweep_perfbench; returns its path or None."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "sweep_perfbench")


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def source_fingerprint(root):
    """Git commit when the checkout has one (else None), and a hash of the
    sources."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "-C", root, "rev-parse", "HEAD"], text=True,
                stderr=subprocess.DEVNULL).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


# --- trace analysis --------------------------------------------------------

def nest(spans):
    """Links every span to its innermost enclosing span on the same thread
    and computes self time = duration minus the time its children cover."""
    by_tid = {}
    for s in spans:
        s["children"] = []
        by_tid.setdefault(s["tid"], []).append(s)
    for group in by_tid.values():
        group.sort(key=lambda s: (s["ts"], -s["dur"]))
        stack = []
        for s in group:
            while stack and s["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                stack[-1]["children"].append(s)
            stack.append(s)
    for s in spans:
        s["self"] = s["dur"] - sum(c["dur"] for c in s["children"])


def contains(outer, inner):
    return (outer["ts"] <= inner["ts"]
            and inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"])


def match_requests(spans):
    """Pairs each daemon-side serve.request span with the client span that
    sent it and tags both (and the daemon span's children) with the
    client's request id. A connection is served by one pool worker for its
    lifetime, while its client side runs on a new thread in every window,
    so each client thread maps to the daemon thread that won the majority
    vote over the spans only one client span could contain. Returns client
    minus daemon time (queue wait) per matched request, in us."""
    clients = {}
    for s in spans:
        if s["name"] == "bench.client.call" and s["args"].get("req", -1) >= 0:
            clients.setdefault(s["tid"], []).append(s)
    for group in clients.values():
        group.sort(key=lambda s: s["ts"])
    starts = {tid: [s["ts"] for s in g] for tid, g in clients.items()}

    def candidates(server):
        found = []
        for tid, group in clients.items():
            i = bisect.bisect_right(starts[tid], server["ts"]) - 1
            if i >= 0 and contains(group[i], server):
                found.append(group[i])
        return found

    servers = [s for s in spans if s["name"] == "serve.request"]
    votes = {}
    for server in servers:
        found = candidates(server)
        if len(found) == 1:
            key = (found[0]["tid"], server["tid"])
            votes[key] = votes.get(key, 0) + 1
    server_of = {}
    for (client_tid, server_tid), n in sorted(votes.items(), key=lambda kv: -kv[1]):
        server_of.setdefault(client_tid, server_tid)
    waits = []
    for server in servers:
        mine = [c for c in candidates(server)
                if server_of.get(c["tid"]) == server["tid"]]
        if not mine:
            continue
        req = mine[0]["args"]["req"]
        todo = [server]
        while todo:
            span = todo.pop()
            span["args"]["req"] = req
            todo.extend(span["children"])
        waits.append(mine[0]["dur"] - server["dur"])
    return waits


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def quantile_or_zero(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def per_layer_metrics(trace, facts):
    spans = [dict(e, args=dict(e.get("args", {}))) for e in trace["traceEvents"]
             if e.get("ph") == "X"]
    nest(spans)
    waits = match_requests(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def med_s(name):
        return median_or_zero([s["dur"] for s in by_name.get(name, [])]) / 1e6

    values = {
        "mesh.generate_s": med_s("mesh.generate"),
        "sweep.build_instance_s": med_s("sweep.build_instance"),
        "sweep.task_graph_s": med_s("sweep.task_graph"),
        "sweep.descendants_s": med_s("sweep.descendants"),
        "sweep.artifact_pack_s": med_s("sweep.artifact_pack"),
        "sweep.artifact_write_s": med_s("sweep.artifact_write"),
        "sweep.artifact_load_s": med_s("sweep.artifact_load"),
        "partition.blocks_s": med_s("partition.blocks"),
        "core.list_schedule_sharded_s": med_s("core.list_schedule_sharded"),
        "core.comm_c1_s": med_s("core.comm_c1"),
        "core.comm_c2_s": med_s("core.comm_c2"),
        "core.validate_s": med_s("core.validate"),
        "serve.handle_us": med_s("serve.handle") * 1e6,
        "serve.queue_wait_p50_us": quantile_or_zero(waits, 0.5),
        "serve.queue_wait_p99_us": quantile_or_zero(waits, 0.99),
    }
    # One scheme's schedule span holds its priority computation and the
    # engine's own core.list_schedule span; priorities are the difference.
    all_engine = []
    for scheme_id, scheme in SCHEMES.items():
        priorities, engine = [], []
        for s in by_name.get("bench.scheme_schedule", []):
            if s["args"].get("scheme") != scheme_id:
                continue
            inner = sum(c["dur"] for c in s["children"]
                        if c["name"] == "core.list_schedule")
            priorities.append(s["dur"] - inner)
            engine.append(inner)
        values["core.priorities_s." + scheme] = median_or_zero(priorities) / 1e6
        values["core.list_schedule_s." + scheme] = median_or_zero(engine) / 1e6
        all_engine += engine
    engine_s = median_or_zero(all_engine) / 1e6
    values["core.tasks_per_s"] = facts.get("core.n_tasks", 0.0) / engine_s if engine_s else 0.0

    if "obs.untraced_schedule_s" in facts:
        base, traced = facts["obs.untraced_schedule_s"], facts["obs.traced_schedule_s"]
    else:
        base, traced = facts.get("obs.untraced_p50_us", 0.0), facts.get("obs.traced_p50_us", 0.0)
    values["obs.trace_overhead_pct"] = 100.0 * (traced / base - 1.0) if base else 0.0

    metrics = {}
    for name, unit in PER_LAYER:
        value = values.get(name, facts.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
    self_time = {}
    for name, group in sorted(by_name.items()):
        self_time[name] = {"count": len(group),
                           "total_ms": sum(s["dur"] for s in group) / 1e3,
                           "self_ms": sum(s["self"] for s in group) / 1e3}
    # Write the request ids back into the trace events.
    tagged = iter(spans)
    for e in trace["traceEvents"]:
        if e.get("ph") == "X":
            s = next(tagged)
            if "req" in s["args"]:
                e.setdefault("args", {})["req"] = s["args"]["req"]
    return metrics, self_time


# --- main ------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(root, ".bench_build", "perfbench")
    program = build(root, os.path.join(work, "build"))
    if program is None:
        log("perfbench: build failed")
        return 1

    results = os.path.join(work, "results")
    run_dir = os.path.join(work, "run-%d" % os.getpid())
    os.makedirs(results, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    out_path = os.path.join(run_dir, "result.json")
    trace_path = os.path.join(results, stem + ".trace.json")
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    ticks0 = cpu_ticks()
    proc = subprocess.Popen(cmd, cwd=run_dir, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: sweep_perfbench timed out")
        rc = -1
    try:
        if rc not in (0, 1) or not os.path.exists(out_path):
            log("perfbench: sweep_perfbench failed with status %d" % rc)
            return 1
        with open(out_path) as f:
            doc = json.load(f)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    doc["fingerprint"].update(source_fingerprint(root))
    # CPU time the hypervisor gave to other guests while this run wanted it:
    # the usual cause of a run whose timings stand out.
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        doc["fingerprint"]["steal_pct"] = round(
            100.0 * (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 2)
    if args.trace:
        with open(trace_path) as f:
            trace = json.load(f)
        metrics, doc["span_self_time"] = per_layer_metrics(trace, doc["facts"])
        with open(trace_path, "w") as f:
            json.dump(trace, f)
        doc["trace_file"] = os.path.relpath(trace_path, root)
    else:
        metrics = {}
        for name, unit in END_TO_END:
            m = doc["metrics"][name]
            metrics[name] = {"value": m["value"], "unit": unit}
    doc["reported"] = metrics
    with open(os.path.join(results, "%s-trace%d.json" % (stem, args.trace)), "w") as f:
        json.dump(doc, f, indent=1)

    fp = doc["fingerprint"]
    print("perfbench %s seed=%d seconds=%g trace=%d | nproc=%s cpu=%s simd=%s "
          "build=%s obs=%s commit=%s steal=%s%%" % (
              args.workload, args.seed, args.seconds, args.trace, fp["nproc"],
              fp["cpu_model"], fp["simd"], fp["build_type"], fp["sweep_obs"],
              (fp["git_commit"] or "n/a")[:12], fp.get("steal_pct", "n/a")))
    for name, m in metrics.items():
        samples = doc["metrics"].get(name, {}).get("samples")
        print("  %-34s %16.6g %-6s%s" % (name, m["value"], m["unit"],
                                         "  (n=%d)" % samples if samples else ""))
    for error in doc["errors"]:
        print("  FAILED: " + error)
    correct = doc["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
