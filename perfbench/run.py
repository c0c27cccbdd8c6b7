#!/usr/bin/env python3
"""The repository benchmark: builds the perfbench harness from source, runs
one workload for one seed and prints every metric by name with its unit.

    python3 perfbench/run.py --workload train-bns --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run also writes a Chrome trace-event file (open it in Perfetto).
Build products, results and traces go under $CARGO_TARGET_DIR, by default
.bench_build/. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # write nothing into the source tree
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("train-bns", "train-full", "serve")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Per-layer metrics timed by a span around one call: metric -> span name.
SPAN_METRICS = {
    "tensor.gemm_nn_s": "tensor.gemm_nn",
    "tensor.gemm_tn_s": "tensor.gemm_tn",
    "nn.mean_aggregate_s": "nn.mean_aggregate",
    "nn.mean_aggregate_backward_s": "nn.mean_aggregate_backward",
    "nn.sage.forward_s": "nn.sage.forward",
    "nn.sage.backward_s": "nn.sage.backward",
    "nn.adam.step_s": "nn.adam.step",
    "core.sampler.draw_s": "core.sampler.draw",
    "comm.halo_exchange_s": "comm.halo_exchange",
    "comm.allreduce_s": "comm.allreduce",
    "comm.barrier_s": "comm.barrier",
    "api.fork_bootstrap_s": "api.fork_bootstrap",
    "core.local_graph.build_s": "core.local_graph.build",
    "graph.generate_s": "graph.generate",
    "partition.metis_s": "partition.metis",
}
# Rates: metric -> (span name, scale of work per second, unit).
RATE_METRICS = {
    "tensor.gemm_nn_gflops": ("tensor.gemm_nn", 1e-9, "GFLOP/s"),
    "nn.mean_aggregate_gbps": ("nn.mean_aggregate", 1e-9, "GB/s"),
    "comm.halo_exchange_gbps": ("comm.halo_exchange", 1e-9, "GB/s"),
}
COUNTER_UNITS = {
    "core.sampler.kept_halo_frac": "ratio",
    "partition.boundary_ratio_max": "ratio",
    "partition.edge_cut": "count",
    "core.halo_cache.hit_rate": "ratio",
    "core.halo_cache.hit_rows": "count",
    "core.halo_cache.miss_rows": "count",
    "core.local_graph.halo_rows": "count",
    "api.report.compute_s": "s",
    "api.report.comm_wait_s": "s",
    "api.report.reduce_s": "s",
    "api.report.sample_s": "s",
}
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "f16c", "avx512f", "avx512dq",
             "avx512bw", "avx512vl", "avx512_vnni", "avx512_bf16", "amx_tile",
             "asimd", "sve")


def fail_fast(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then build the harness (a no-op when up to date)."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail_fast("cmake not found")
    pdir = os.path.join(bdir, "perfbench")
    with open(os.path.join(bdir, "build.log"), "a") as log:
        if not os.path.exists(os.path.join(pdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run([cmake, "-S", os.path.join(ROOT, "perfbench"), "-B", pdir,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           check=True, stdout=log, stderr=log)
        subprocess.run([cmake, "--build", pdir, "--target", "perfbench", "-j",
                        str(min(4, os.cpu_count() or 1))],
                       check=True, stdout=log, stderr=log)
    return os.path.join(pdir, "perfbench")


def run_harness(binary, args, bdir, deadline):
    """Run the harness in its own session; kill the session at the deadline."""
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(bdir, "tmp"))
    out = os.path.join(bdir, "raw-%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ)
    # Socket files live in the checkout; a short relative path keeps them
    # inside the UDS path limit.
    env["TMPDIR"] = os.path.relpath(tmp, ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, "run exceeded its wall-clock limit and was killed"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if code != 0 or not os.path.exists(out):
        return None, "harness exited with code %d" % code
    with open(out) as f:
        return json.load(f), None


def read_cmake_cache(bdir):
    cache = {}
    try:
        with open(os.path.join(bdir, "perfbench", "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = val
    except OSError:
        pass
    return cache


def provenance(bdir):
    cpu, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key = line.split(":", 1)[0].strip()
                if key == "model name" and cpu == "unknown":
                    cpu = line.split(":", 1)[1].strip()
                elif key in ("flags", "Features") and not flags:
                    have = set(line.split(":", 1)[1].split())
                    flags = [x for x in ISA_FLAGS if x in have]
    except OSError:
        pass
    cache = read_cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
            commit = r.stdout.strip() if r.returncode == 0 else commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "isa_flags": flags,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "git_commit": commit,
        "source_digest": source_digest(),
    }


def source_digest():
    """sha256 over the library sources and build files: identifies the
    code when the checkout carries no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            paths += [os.path.join(d, f) for f in sorted(files)
                      if f.endswith((".cpp", ".hpp", ".txt", ".py"))]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def end_to_end(raw):
    s, v = raw["samples"], raw["values"]
    op_ms = s["op_ms"]
    m = {
        "epoch_s": (stats.median(s["epoch_s"]), "s"),
        "train_wall_s": (stats.median(s["train_wall_s"]), "s"),
        "wire_mb_per_op": (v["wire_mb_per_op"], "MiB"),
        "rank_peak_rss_mb": (stats.median(s["rank_peak_rss_mb"]), "MiB"),
        "final_loss": (v["final_loss"], "nats"),
        "val_acc": (v["val_acc"], "ratio"),
        "query_p50_ms": (stats.percentile(op_ms, 50), "ms"),
        "query_p90_ms": (stats.percentile(op_ms, 90), "ms"),
        "serve_qps": (v["serve_qps"], "1/s"),
        "setup_s": (stats.median(s["setup_s"]), "s"),
        "success_ratio": ((raw["attempted"] - raw["failed"]) / raw["attempted"], "ratio"),
    }
    notes = {
        "samples": {k: len(x) for k, x in s.items()},
        "query_p90_ms_samples_beyond": stats.samples_beyond(len(op_ms), 90),
        "highest_supported_percentile": stats.highest_supported_percentile(len(op_ms)),
    }
    return m, notes


def per_layer(raw):
    spans = raw["spans"]
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
    m = {}
    for metric, name in SPAN_METRICS.items():
        durs = [(sp["end_ns"] - sp["start_ns"]) * 1e-9 for sp in by_name.get(name, [])]
        if durs:
            m[metric] = (stats.median(durs), "s")
    for metric, (name, scale, unit) in RATE_METRICS.items():
        rates = [sp["work"] / ((sp["end_ns"] - sp["start_ns"]) * 1e-9) * scale
                 for sp in by_name.get(name, []) if sp.get("work")]
        if rates:
            m[metric] = (stats.median(rates), unit)
    for metric, unit in COUNTER_UNITS.items():
        if metric in raw["counters"]:
            m[metric] = (raw["counters"][metric], unit)
    return m


def tracing_overhead(raw):
    o = raw.get("tracing_overhead", {})
    untraced, traced = o.get("untraced_op_s", []), o.get("traced_op_s", [])
    if not untraced or not traced:
        return {}
    u, t = stats.median(untraced), stats.median(traced)
    return {"untraced_op_s": u, "traced_op_s": t, "difference_s": t - u,
            "difference_share": (t - u) / u, "ops": [len(untraced), len(traced)]}


def write_trace(path, raw, metrics, prov, overhead):
    """Chrome trace-event JSON: one complete event per span with its self
    time, one counter event per per-layer metric."""
    spans = raw["spans"]
    selfs = stats.self_times(spans)
    names = {sp["id"]: sp["name"] for sp in spans}
    t0 = min((sp["start_ns"] for sp in spans), default=0)
    events, seen = [], {}
    harness_pid = None
    for sp in spans:
        if sp["rank"] < 0 and harness_pid is None:
            harness_pid = sp["pid"]
        seen.setdefault(sp["pid"], sp["rank"])
        events.append({
            "name": sp["name"], "cat": sp["name"].split(".")[0], "ph": "X",
            "ts": (sp["start_ns"] - t0) / 1e3, "dur": (sp["end_ns"] - sp["start_ns"]) / 1e3,
            "pid": sp["pid"], "tid": sp["pid"],
            "args": {"self_ms": selfs[sp["id"]] / 1e6,
                     "parent": names.get(sp["parent"], ""),
                     **({"work": sp["work"]} if sp.get("work") else {})},
        })
    for pid, rank in seen.items():
        label = "rank %d" % rank if rank >= 0 else "harness/worker %d" % pid
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": pid,
                       "args": {"name": label}})
    t_end = max((sp["end_ns"] for sp in spans), default=t0)
    for name, (value, unit) in metrics.items():
        events.append({"name": name, "ph": "C", "ts": (t_end - t0) / 1e3,
                       "pid": harness_pid or 0, "args": {unit: value}})
    doc = {"traceEvents": events, "displayTimeUnit": "ms",
           "otherData": {"workload": raw["workload"], "seed": raw["seed"],
                         "provenance": prov, "tracing_overhead": overhead,
                         "metrics": {k: {"value": v, "unit": u}
                                     for k, (v, u) in metrics.items()}}}
    with open(path, "w") as f:
        json.dump(doc, f)


def self_time_table(spans):
    """Median total and self time per span name, in ms."""
    selfs = stats.self_times(spans)
    rows = {}
    for sp in spans:
        rows.setdefault(sp["name"], []).append(
            ((sp["end_ns"] - sp["start_ns"]) / 1e6, selfs[sp["id"]] / 1e6))
    return {name: {"n": len(v), "total_ms": stats.median([a for a, _ in v]),
                   "self_ms": stats.median([b for _, b in v])}
            for name, v in sorted(rows.items())}


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def report(args, raw, prov, bdir, record):
    """Reduce the raw record to the metrics of this mode; a traced run
    also writes its trace file and prints the self-time table."""
    if args.trace:
        metrics = per_layer(raw)
        overhead = tracing_overhead(raw)
        tdir = os.path.join(bdir, "traces")
        os.makedirs(tdir, exist_ok=True)
        tpath = os.path.join(tdir, "%s-seed%d.trace.json" % (args.workload, args.seed))
        write_trace(tpath, raw, metrics, prov, overhead)
        table = self_time_table(raw["spans"])
        for name, row in table.items():
            print("span %-30s n=%-4d total %10.3f ms  self %10.3f ms"
                  % (name, row["n"], row["total_ms"], row["self_ms"]))
        print("tracing overhead: " + json.dumps(overhead))
        print("trace written to " + os.path.relpath(tpath, ROOT))
        record.update(self_time=table, tracing_overhead=overhead, trace_file=tpath)
    else:
        metrics, notes = end_to_end(raw)
        print("samples: " + json.dumps(notes))
        record["notes"] = notes
    return metrics



def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail_fast("no %s in %s: run from a full checkout" % (needed, ROOT))
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    try:
        binary = build(bdir)
    except subprocess.CalledProcessError:
        fail_fast("build failed; see %s" % os.path.join(bdir, "build.log"))

    print("run: " + json.dumps(vars(args)))
    raw, err = run_harness(binary, args, bdir, time.monotonic() + RUN_LIMIT_S)
    prov = provenance(bdir)
    print("provenance: " + json.dumps(prov))
    if raw is None:
        print("perfbench: " + err, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    for c in raw["checks"]:
        print("check %-32s %s  %s" % (c["name"], "ok" if c["ok"] else "FAILED", c["detail"]))
    for e in raw["errors"]:
        print("failed op: " + e)
    record = {"workload": raw["workload"], "seed": raw["seed"], "trace": bool(args.trace),
              "provenance": prov, "checks": raw["checks"], "errors": raw["errors"]}
    try:
        metrics = report(args, raw, prov, bdir, record)
    except (KeyError, ValueError) as e:
        # A run whose operations all failed has no samples to reduce.
        print("perfbench: no metrics: %r" % (e,), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(raw["attempted"], 1),
                          "failed": max(raw["failed"], 1), "metrics": {}}))
        return 1
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    rdir = os.path.join(bdir, "results")
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print("elapsed %.1f s" % (time.monotonic() - start), file=sys.stderr)
    correct = bool(raw["correct"])
    print(result_line(correct, raw["attempted"], raw["failed"], metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
