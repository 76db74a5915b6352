#!/usr/bin/env python3
"""Repository benchmark: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload svc-rpc --seed 1 --seconds 10 --trace 0

Builds the service binary and the benchmark executable from source
with dune, runs the workload, checks its outputs and prints, as the
last line, {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics (from
a separate, traced run). See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("objects-inproc", "svc-rpc", "svc-durable")
BENCH_EXE = "_build/default/perfbench/src/pb.exe"
SERVER_EXE = "_build/default/bin/approx_cli.exe"
RUN_DIR = "perfbench/_run"
FSYNC = {"svc-durable": "every-n-records:16"}

E2E_UNITS = {
    "throughput_ops_s": "1/s",
    "read_p50_us": "us",
    "read_p99_us": "us",
    "update_p50_us": "us",
    "update_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "algo.inc_ns": "ns",
    "algo.add_ns": "ns",
    "algo.read_ns": "ns",
    "algo.maxreg_write_ns": "ns",
    "algo.maxreg_read_ns": "ns",
    "algo.read_cache_hit_ratio": "ratio",
    "algo.maxreg_read_cache_hit_ratio": "ratio",
    "algo.read_err_factor": "x",
    "backend.steps_per_inc": "steps",
    "backend.steps_per_read": "steps",
    "backend.steps_per_maxreg_write": "steps",
    "backend.steps_per_maxreg_read": "steps",
    "client.busy_us_per_op": "us",
    "client.wait_us_per_op": "us",
    "io.wakeups_per_op": "count",
    "io.cycles_per_op": "count",
    "io.requests_per_read": "count",
    "io.bytes_per_flush": "B",
    "shard.ops_per_drain": "count",
    "shard.fused_per_apply": "count",
    "shard.batch_read_hit_ratio": "ratio",
    "wire.decode_ns": "ns",
    "wire.encode_ns": "ns",
    "objects.apply_ns": "ns",
    "objects.intern_hit_ratio": "ratio",
    "objects.read_cache_hit_ratio": "ratio",
    "wal.appends_per_kop": "count",
    "wal.bytes_per_op": "B",
    "wal.fsyncs_per_kop": "count",
    "wal.records_per_fsync": "count",
    "wal.append_ns": "ns",
    "wal.flush_us": "us",
    "snapshot.write_ms": "ms",
    "recovery.run_ms": "ms",
    "recovery.records_replayed": "count",
    "recovery.snapshot_entries": "count",
    "svc.unattributed_us_per_op": "us",
    "trace.overhead_pct": "%",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def is_repo_root():
    return all(
        os.path.exists(p)
        for p in ("dune-project", "bin/approx_cli.ml", "lib/service/server.ml", "perfbench/src/dune")
    )


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", BENCH_EXE, SERVER_EXE]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        fail("build failed")


def filesystem(path):
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) and len(mnt) >= len(best):
                    best, fstype = mnt, parts[2]
    except OSError:
        pass
    return fstype


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_steal():
    """(steal, total) jiffies of all CPUs: time the hypervisor gave
    this machine's vCPUs to someone else."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def cpu_steal_share(a, b):
    return round(100.0 * (b[0] - a[0]) / max(1, b[1] - a[1]), 2)


def pinning(workload):
    """svc-*: client on CPU 0, server on CPU 1 (after its set-up is
    timed); objects-inproc needs both CPUs for its two domains."""
    cpus = sorted(os.sched_getaffinity(0))
    if workload == "objects-inproc" or len(cpus) < 2 or shutil.which("taskset") is None:
        return None
    return {"client": cpus[0], "server": cpus[1]}


def stop_group(pgid):
    """Kill whatever the benchmark left in its process group (servers
    included) and wait until every member has exited."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    fail("processes of the benchmark did not exit")


def run_bench(args, pin):
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--exe", SERVER_EXE, "--run-dir", RUN_DIR]
    if pin:
        cmd += ["--server-cpu", str(pin["server"])]

    def child_setup():
        if pin:
            os.sched_setaffinity(0, {pin["client"]})

    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                         preexec_fn=child_setup)
    try:
        out, _ = p.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        stop_group(p.pid)
        fail("benchmark timed out")
    finally:
        stop_group(p.pid)
    if p.returncode != 0:
        fail("benchmark exited with code %d" % p.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    return json.loads(lines[-1])


def stats_layers(s0, s1, ops):
    """Per-layer ratios from the server's STATS, as deltas over the
    traced phase."""

    def d(f):
        return f(s1) - f(s0)

    def div(a, b):
        return a / b if b else 0.0

    loops = lambda s: s["io_loops"]
    objs0 = {o["name"]: o for o in s0["objects"]}

    def objsum(field):
        return sum(o[field] - objs0.get(o["name"], {}).get(field, 0) for o in s1["objects"])

    shard = lambda f: (lambda s: sum(x[f] for x in s["shards"]))
    dur = lambda f: (lambda s: s["durability"][f])
    hits, misses = d(lambda s: s["server"]["intern_hits"]), d(lambda s: s["server"]["intern_misses"])
    ch, cm = objsum("cache_hits"), objsum("cache_misses")
    return {
        "io.wakeups_per_op": div(d(lambda s: sum(l["wakeups"] for l in loops(s))), ops),
        "io.cycles_per_op": div(d(lambda s: sum(l["cycles"] for l in loops(s))), ops),
        "io.requests_per_read": div(d(lambda s: s["read_batch"]["sum"]),
                                    d(lambda s: s["read_batch"]["count"])),
        "io.bytes_per_flush": div(d(lambda s: sum(l["flush_bytes"]["sum"] for l in loops(s))),
                                  d(lambda s: sum(l["flush_bytes"]["count"] for l in loops(s)))),
        "shard.ops_per_drain": div(d(shard("tasks")), d(shard("batches"))),
        "shard.fused_per_apply": div(d(shard("deferred_ops")), d(shard("fused_applies"))),
        "shard.batch_read_hit_ratio": div(objsum("batch_read_hits"), objsum("reads")),
        "objects.intern_hit_ratio": div(hits, hits + misses),
        "objects.read_cache_hit_ratio": div(ch, ch + cm),
        "wal.appends_per_kop": div(1000.0 * d(dur("wal_appends")), ops),
        "wal.bytes_per_op": div(d(dur("wal_bytes")), ops),
        "wal.fsyncs_per_kop": div(1000.0 * d(dur("fsyncs")), ops),
        "wal.records_per_fsync": div(d(dur("fsync_records_covered")), d(dur("fsyncs"))),
    }, {"wal_appends": d(dur("wal_appends")), "wal_flushes": d(dur("wal_flushes"))}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    if not is_repo_root():
        fail("run from the root of a checkout of the repository")

    build()
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    pin = pinning(args.workload)
    host = {
        "nproc": os.cpu_count(),
        "ocaml": ocaml_version(),
        "filesystem": filesystem(RUN_DIR),
        "fsync_policy": FSYNC.get(args.workload, "none (no data dir)"),
        "pinned": ("client on CPU %d, server on CPU %d (after set-up)" % (pin["client"], pin["server"])
                   if pin else "no"),
    }
    steal0 = cpu_steal()
    try:
        res = run_bench(args, pin)
        host["cpu_steal_pct"] = cpu_steal_share(steal0, cpu_steal())
    finally:
        # keep the trace and server logs, drop data dirs and sockets
        for f in os.listdir(RUN_DIR):
            if not (f.startswith("trace-") or f.endswith(".log")):
                path = os.path.join(RUN_DIR, f)
                if os.path.isdir(path) and not os.path.islink(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.unlink(path)

    failed, attempted = res["failed"], res["attempted"]
    notes = list(res["notes"])
    s0, s1 = res.get("stats_before"), res.get("stats_after")
    if args.workload != "objects-inproc":
        if s1 is None:
            notes.append("no STATS after the timed phase: self-check unverified")
        elif s1["server"]["acc_violations_total"] != 0:
            failed += s1["server"]["acc_violations_total"]
            notes.append("server acc_violations_total = %d" % s1["server"]["acc_violations_total"])

    if args.trace == 0:
        values = res["e2e"]
        units = E2E_UNITS
    else:
        values = dict(res["layers"])
        zero = ("io.", "shard.", "objects.intern", "objects.read_cache", "wal.appends", "wal.bytes",
                "wal.fsyncs", "wal.records", "client.", "svc.")
        if s0 is not None and s1 is not None:
            ops = s1["server"]["total_ops"] - s0["server"]["total_ops"]
            stat, wal = stats_layers(s0, s1, ops)
            values.update(stat)
            own = (values["wire.decode_ns"] + values["objects.apply_ns"] + values["wire.encode_ns"]
                   + (values["wal.append_ns"] * wal["wal_appends"]
                      + 1000.0 * values["wal.flush_us"] * wal["wal_flushes"]) / max(ops, 1)) / 1000.0
            values["svc.unattributed_us_per_op"] = res["client_p50_us"] - own
        if args.workload == "objects-inproc":
            # not on this workload's path: it has no server
            for name in LAYER_UNITS:
                if name.startswith(zero):
                    values[name] = 0.0
        units = LAYER_UNITS

    missing = [m for m in units if m not in values]
    if missing:
        notes.append("metrics not measured: " + ", ".join(missing))
    correct = failed == 0 and not missing and (args.workload == "objects-inproc" or s1 is not None)
    detail = {k: v for k, v in res.items() if k not in ("stats_before", "stats_after", "e2e", "layers")}
    print(json.dumps({"host": host}))
    print(json.dumps({"detail": detail, "notes": notes}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units if m in values},
    }))


if __name__ == "__main__":
    main()
