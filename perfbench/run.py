#!/usr/bin/env python3
"""End-to-end benchmark of the gmine gateway and line-protocol server.

Usage (from the repository root):

    python3 perfbench/run.py --workload navigate_hot --seed 1 --trace 0

Builds the program and the benchmark's own tools from source, generates
the workload's seeded inputs, builds stores with `gmine build`, starts the
real `gmine gateway` / `gmine server`, drives it with the compiled load
generator `pb_load` and prints one JSON line of end-to-end metrics. With
`--trace 1` it runs the traced in-process replay `pb_trace` instead and
prints the per-layer metrics. `--seconds` defaults to BENCHMARK.json's
`run_seconds`; figures are comparable only at one run length.
`--selftest 1` runs the benchmark's own checker tests. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import time
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("navigate_hot", "navigate_cold", "analyst_mix", "edit_mix")

# The load generator gets the last CPU this process may use and the
# server the others, so neither steals the other's CPU and their
# placement is the same in every run.
CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = set(CPUS[-1:]) if len(CPUS) > 1 else set(CPUS)
SERVER_CPUS = set(CPUS[:-1]) if len(CPUS) > 1 else set(CPUS)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, **kw):
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True, **kw)
    if res.returncode != 0:
        raise RuntimeError("command failed (%d): %s\n%s" % (
            res.returncode, " ".join(cmd), res.stdout[-4000:]))
    return res.stdout


def build():
    gen = []
    if shutil.which("ninja"):
        gen = ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"] + gen)
    run(["cmake", "--build", BUILD, "--parallel", str(os.cpu_count() or 2),
         "--target", "gmine_cli", "pb_load", "pb_trace", "pb_selftest"])


def tool(name):
    if name == "gmine":
        return os.path.join(BUILD, "gmine", "gmine")
    return os.path.join(BUILD, name)


class Server:
    """One running `gmine gateway` or `gmine server` child process."""

    def __init__(self, args, work, tag):
        self.kind = args[0]
        self.port_file = os.path.join(work, tag + ".port")
        self.out = open(os.path.join(work, tag + ".log"), "w")
        self.proc = subprocess.Popen(
            [tool("gmine")] + args + ["--port-file", self.port_file],
            stdout=self.out, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS))
        deadline = time.monotonic() + 120
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                self.out.close()
                raise RuntimeError("server did not start: " + " ".join(args))
            time.sleep(0.005)
        with open(self.port_file) as f:
            self.port = int(f.read().strip())

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self):
        try:
            if self.proc.poll() is not None:
                pass
            elif self.kind == "gateway":
                req = urllib.request.Request(
                    "http://127.0.0.1:%d/api/v1/shutdown" % self.port,
                    data=b"", method="POST")
                urllib.request.urlopen(req, timeout=30).read()
            else:
                with socket.create_connection(("127.0.0.1", self.port), 30) as s:
                    s.sendall(b"shutdown\n")
                    s.recv(256)
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.out.close()
        if self.proc.returncode != 0:
            raise RuntimeError("%s exited with %d" % (
                self.kind, self.proc.returncode))


def drive(args, phase, server, work):
    out = os.path.join(work, phase + ".json")
    run([tool("pb_load"), "drive", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--port", str(server.port), "--phase", phase, "--out", out,
         "--acked", os.path.join(work, "acked.txt"),
         "--stores", os.path.join(work, "stores")], timeout=150,
        preexec_fn=lambda: os.sched_setaffinity(0, CLIENT_CPUS))
    with open(out) as f:
        return json.load(f)


def store_mb(stores):
    total = 0
    for name in os.listdir(stores):
        total += os.path.getsize(os.path.join(stores, name))
    return total / (1024.0 * 1024.0)


def start_server(spec, stores, work, tag):
    budget = ["--mem-budget-mb", str(spec["mem_budget_mb"])]
    if spec["server"] == "gateway":
        return Server(["gateway", stores] + budget, work, tag)
    return Server(["server", os.path.join(stores, "s.gtree")] + budget +
                  ["--writable", "on", "--wal", "on"], work, tag)


def end_to_end(args, work, spec):
    inputs = os.path.join(work, "g")
    run([tool("pb_load"), "gen", "--workload", args.workload,
         "--seed", str(args.seed), "--out", inputs])
    stores = os.path.join(work, "stores")
    os.makedirs(stores)
    # Set-up: the store builds and the server start, until its port file
    # appears.
    t0 = time.monotonic()
    for name in spec["stores"]:
        cmd = [tool("gmine"), "build", "--graph", inputs + ".edges",
               "--labels", inputs + ".labels",
               "--out", os.path.join(stores, name + ".gtree")]
        if name == "big":
            cmd.append("--stream")
        run(cmd)
    server = start_server(spec, stores, work, "main")
    setup_s = time.monotonic() - t0
    try:
        main = drive(args, "main", server, work)
        rss = server.peak_rss_mb()
    except RuntimeError as e:
        log("load generator failed: %s" % e)
        raise
    finally:
        server.stop()
    phases = [main]
    if spec["server"] == "server":
        # The edited store, reopened: every acknowledged edge is there.
        again = start_server(spec, stores, work, "verify")
        try:
            phases.append(drive(args, "verify", again, work))
        finally:
            again.stop()
    for p in phases:
        if p["why"]:
            log("check: " + p["why"])

    metrics = {
        "setup_s": (setup_s, "s"),
        "nav_ops_per_s": (main["nav_done"] / main["window_s"], "ops/s"),
        "nav_p50_ms": (main["nav_p50"], "ms"),
        "nav_p99_ms": (main["nav_tail"], "ms"),
        "peak_rss_mb": (rss, "MiB"),
        "store_mb": (main["store_mb"], "MiB"),
    }
    # The workload's own request classes: printed, outside the gated set
    # that every workload reports.
    extra = {}
    if main["match_n"]:
        extra["match_p50_ms"] = (main["match_p50"], "ms")
        extra["csg_p50_ms"] = (main["csg_p50"], "ms")
        extra["pagerank_job_s"] = (main["pagerank_p50"], "s")
    if main["commit_n"]:
        extra["edit_commit_p50_ms"] = (main["commit_p50"], "ms")
        extra["edit_commit_p99_ms"] = (main["commit_tail"], "ms")
        extra["edits_per_s"] = (main["edits_acked"] / main["window_s"], "edits/s")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print("metric %-20s %14.4f %s" % (name, value, unit))
    print("samples: nav=%d match=%d csg=%d pagerank=%d commit=%d; "
          "nav tail is p%.1f%s" % (
              main["nav_n"], main["match_n"], main["csg_n"],
              main["pagerank_n"], main["commit_n"], 100 * main["nav_tail_q"],
              ", commit tail is p%.1f" % (100 * main["commit_tail_q"])
              if main["commit_n"] else ""))
    print("load generator CPU per op: %.1f us (%d ops, %.2f s busy in a "
          "%.2f s window)" % (
              1e6 * main["client_busy_s"] / max(1, main["client_ops"]),
              main["client_ops"], main["client_busy_s"], main["window_s"]))
    print("store files at the end of the run: %.2f MiB" % store_mb(stores))
    if main["max_late_ms"] > 0:
        print("open-loop generator lateness: mean %.3f ms, max %.3f ms" % (
            main["mean_late_ms"], main["max_late_ms"]))
    return {
        "correct": all(p["correct"] for p in phases),
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(args, work):
    out = os.path.join(work, "trace.json")
    log(run([tool("pb_trace"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--dir", work, "--out", out], timeout=170).strip())
    with open(out) as f:
        return json.load(f)


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--selftest", type=int, default=0)
    args = ap.parse_args()
    try:
        if args.seconds is None:
            args.seconds = run_seconds()
        build()
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log("build failed: %s" % e)
        return 1
    if args.selftest:
        return subprocess.run([tool("pb_selftest")]).returncode
    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.trace:
            result = traced(args, work)
        else:
            spec = json.loads(run([tool("pb_load"), "spec",
                                   "--workload", args.workload]))
            result = end_to_end(args, work, spec)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, KeyError) as e:
        log("benchmark failed: %s" % e)
        for name in sorted(os.listdir(work)):
            if name.endswith(".log"):
                with open(os.path.join(work, name)) as f:
                    log("--- %s:\n%s" % (name, "".join(f.readlines()[-20:])))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
