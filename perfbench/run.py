#!/usr/bin/env python3
"""End-to-end benchmark for riommu-serve and the paper reproduction.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Builds riommu-serve and the benchmark's own measuring program
(perfbench/gen) from source with dune, runs one workload and prints, as
the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, from a separate traced run. The line before it is
the environment stamp. Everything the run writes goes under
perfbench/out/. See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GEN = "_build/default/perfbench/gen/perfgen.exe"
SERVER = "_build/default/bin/riommu_serve.exe"
# translate-paced and repro run by hand only: BENCHMARK.json leaves them
# out, as their figures were not steady on the 2-vCPU host
# (perfbench/README.md). Every traced run still makes one repro pass,
# so the simulation layers and the pinned output are measured there.
SERVE_WORKLOADS = ["translate-pipelined", "map-churn", "translate-paced"]
WORKLOADS = SERVE_WORKLOADS + ["repro"]
# The serve workload whose layers a traced repro run reports.
COMPANION_SERVE = "translate-pipelined"
REPRO_SHA_FILE = os.path.join("perfbench", "repro.sha256")
# Set-ups per serve run (fresh server each); setup_s is their median.
SETUPS = 21
# run_s of a serve workload: the wall time of this many responses.
PASS_OPS = 65536
# Calibration blocks timed before and after the workload.
CALIB_BLOCKS = 10


class BenchError(Exception):
    """The run cannot produce a result: it exits nonzero without one."""


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_proc(argv, timeout, what):
    """Run a child in its own process group; kill the whole group on
    timeout so no server it started outlives the run."""
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         start_new_session=True, text=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError("%s timed out after %ds" % (what, timeout))
    if p.returncode != 0:
        raise BenchError("%s failed (exit %d): %s" % (what, p.returncode, err.strip()[-2000:]))
    return out


def build():
    for f in ("dune-project", "bin/riommu_serve.ml", "lib/serve/net/netloop.ml"):
        if not os.path.exists(f):
            raise BenchError("%s missing: run from a full checkout of the repository" % f)
    run_proc(["dune", "build", "--root", ".", "./" + SERVER[len("_build/default/"):],
              "./" + GEN[len("_build/default/"):]], 850, "dune build")


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------- stamp

def source_digest():
    """SHA-256 over the sources the benchmark builds and measures, so a
    stamp identifies the code even where the checkout is not a git
    repository."""
    h = hashlib.sha256()
    files = ["dune-project", "BENCHMARK.json"]
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("out", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names) if not n.endswith(".md")]
    for f in files:
        if os.path.isfile(f):
            h.update(f.encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def steal_ticks():
    """Steal time of all CPUs so far, in clock ticks (/proc/stat)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def calibrate():
    r = json.loads(run_proc([GEN, "calib", "--blocks", str(CALIB_BLOCKS)], 60, "perfgen calib"))
    return r["block_ms"]


def host_speed(calib, steal0, t0):
    """Stamp figures for the host's speed over the run: the median time
    of a fixed CPU-bound block (before and after the workload) and the
    steal time the hypervisor took from the guest's CPUs meanwhile."""
    wall = time.monotonic() - t0
    steal = (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK")
    return {"calib_ms": median(calib + calibrate()), "steal_s": steal,
            "steal_share": steal / (wall * os.cpu_count())}


def stamp(info):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    with open("/proc/loadavg") as f:
        load1 = float(f.read().split()[0])
    return {
        "nproc": os.cpu_count(),
        "ocaml": info["ocaml"],
        "backend": "poll",
        "default_backend": info["backend"],
        "commit": commit,
        "source_sha256": source_digest(),
        "loadavg1": load1,
    }


# ---------------------------------------------------------------- serve

def serve_run(workload, seed, seconds, outdir, setups, tag, spans=None):
    """One riommu-serve session (perfgen serve) plus the accounting
    cross-check against the server's own stats JSON."""
    out = os.path.join(outdir, tag + ".json")
    argv = [GEN, "serve", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--server", SERVER, "--dir", outdir, "--out", out, "--setups", str(setups)]
    if spans:
        argv += ["--trace-spans", spans]
    run_proc(argv, 170, "perfgen serve " + workload)
    r = load_json(out)
    r["accounting_errors"] = []
    for s in r["servers"]:
        st = load_json(s["stats"])
        for k in ("requests", "responses"):
            if st[k] != s["sent"]:
                r["accounting_errors"].append("%s: server %s %d != %d sent" % (s["stats"], k, st[k], s["sent"]))
        for k in ("protocol_errors", "refused", "rejected"):
            if st[k] != 0:
                r["accounting_errors"].append("%s: %s %d" % (s["stats"], k, st[k]))
    r["server_stats"] = load_json(next(s["stats"] for s in r["servers"] if s["measured"]))
    return r


def serve_failed(r):
    return r["failed"] + len(r["accounting_errors"])


def serve_end_to_end(workload, seed, seconds, outdir, smoke):
    r = serve_run(workload, seed, seconds, outdir, 3 if smoke else SETUPS, "serve")
    metrics = {
        "ops_per_s": r["ops_per_s"],
        "latency_p50_us": median(r["sub_p50_us"]),
        "latency_p99_us": median(r["sub_p99_us"]),
        "cpu_us_per_op": r["server_cpu_us_per_op"],
        "setup_s": median(r["setup_s"]),
        "rss_mb": r["server_rss_kb"] / 1024.0,
        "run_s": PASS_OPS / r["ops_per_s"],
    }
    notes = {"latency_samples": r["lat_samples"], "subwindows": len(r["sub_p50_us"]),
             "setup_connect_s": median(r["setup_connect_s"]),
             "sent_by_op": r["sent_by_op"], "failures": r["failures"] + r["accounting_errors"]}
    return r["attempted"], serve_failed(r), metrics, notes


def replay_run(workload, seed, seconds, outdir, spans):
    out = os.path.join(outdir, "replay.json")
    run_proc([GEN, "replay", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--out", out, "--trace-spans", spans], 170, "perfgen replay " + workload)
    return load_json(out)


def serve_layers(workload, seed, seconds, outdir, smoke):
    """Per-layer view of a serve workload: an untraced and a traced
    socket run (their difference is the tracing overhead) and the
    in-process replay of the same generator."""
    u = serve_run(workload, seed, seconds / 2, outdir, 1, "untraced")
    t = serve_run(workload, seed, seconds / 2, outdir, 1, "traced",
                  spans=os.path.join(outdir, "spans-client.json"))
    rp = replay_run(workload, seed, 1 if smoke else min(seconds, 3), outdir,
                    os.path.join(outdir, "spans-replay.json"))
    L = rp["layers"]
    ex = max(1, rp["executed"])

    def per_op(name):
        return L[name]["ns"] / max(1, L[name]["ops"])

    shard_ops = ["shard.map", "shard.unmap", "shard.translate", "shard.map_sg"]
    shard_ns = sum(L[k]["ns"] for k in shard_ops)
    shard_words = sum(L[k]["minor_words"] for k in shard_ops)
    flush_ops = max(1, L["dispatch.flush_all"]["ops"])
    st = u["server_stats"]
    # the replayed cost of one op on the server's path, in ns
    replayed = (L["readiness.wait"]["ns"] + L["transport.read"]["ns"] + L["conn.next"]["ns"]
                + L["dispatch.enqueue"]["ns"] + L["dispatch.flush_all"]["ns"]
                + L["transport.write"]["ns"]) / ex
    m = {
        "dispatch.batch_fill": st["responses"] / max(1, st["batch_flushes"]),
        "netloop.bytes_in_per_op": st["bytes_in"] / max(1, st["requests"]),
        "netloop.bytes_out_per_op": st["bytes_out"] / max(1, st["responses"]),
        "netloop.requests": st["requests"],
        "netloop.responses": st["responses"],
        "netloop.rejected": st["rejected"],
        "netloop.protocol_errors": st["protocol_errors"],
        "netloop.refused": st["refused"],
        "conn.next_ns_per_op": per_op("conn.next"),
        "wire.encode_ns_per_op": per_op("wire.encode"),
        "dispatch.enqueue_ns_per_op": per_op("dispatch.enqueue"),
        "dispatch.flush_self_ns_per_op":
            (L["dispatch.flush_all"]["ns"] - shard_ns - L["wire.encode"]["ns"]) / flush_ops,
        "readiness.wait_ns_per_wakeup": L["readiness.wait"]["ns"] / max(1, L["readiness.wait"]["calls"]),
        "transport.read_ns_per_op": L["transport.read"]["ns"] / ex,
        "transport.write_ns_per_op": L["transport.write"]["ns"] / ex,
        "shard.translate_ns": per_op("shard.translate"),
        "shard.map_ns": per_op("shard.map"),
        "shard.unmap_ns": per_op("shard.unmap"),
        "shard.map_sg_ns": per_op("shard.map_sg"),
        "shard.iotlb_hit_ratio": rp["iotlb_hits"] / max(1, rp["iotlb_hits"] + rp["iotlb_misses"]),
        "shard.sim_cycles_per_op": rp["twin_sim_cycles"] / ex,
        "shard.faults": rp["shard_faults"],
        "shard.minor_words_per_op": shard_words / ex,
        "dispatch.minor_words_per_op":
            (L["dispatch.enqueue"]["minor_words"] + L["dispatch.flush_all"]["minor_words"] - shard_words) / ex,
        "conn.minor_words_per_op": L["conn.next"]["minor_words"] / ex,
        "netloop.unattributed_us_per_op": u["server_cpu_us_per_op"] - replayed / 1e3,
        "client.latency_p999_us": u["lat_p999_us"],
        "client.latency_samples": u["lat_samples"],
        "client.late_p99_us": u["late_p99_us"],
        "client.achieved_rate": u["ops_per_s"],
        "client.cpu_us_per_op": u["client_cpu_us_per_op"],
        "trace.ops_overhead_ratio": 1.0 - t["ops_per_s"] / u["ops_per_s"],
        "trace.client_cpu_overhead_ratio": t["client_cpu_us_per_op"] / u["client_cpu_us_per_op"] - 1.0,
    }
    attempted = u["attempted"] + t["attempted"] + rp["attempted"]
    failed = serve_failed(u) + serve_failed(t) + rp["failed"] + rp["twin_mismatch"]
    notes = {"replayed_ns_per_op": replayed, "replay": {k: v for k, v in rp.items() if k != "layers"},
             "spans": [os.path.join(outdir, "spans-client.json"), os.path.join(outdir, "spans-replay.json")],
             "failures": u["failures"] + t["failures"] + rp["failures"]
             + u["accounting_errors"] + t["accounting_errors"]}
    return attempted, failed, m, notes


# ---------------------------------------------------------------- repro

def pinned_sha():
    with open(REPRO_SHA_FILE) as f:
        return f.read().split()[0]


def repro_passes(seconds, outdir, min_passes, spans=False):
    """Fresh perfgen process per registry pass, until [seconds] have
    elapsed and at least [min_passes] ran."""
    passes = []
    t_end = time.monotonic() + seconds
    while len(passes) < min_passes or time.monotonic() < t_end:
        k = len(passes)
        out = os.path.join(outdir, "repro%d.json" % k)
        render = os.path.join(outdir, "repro%d.txt" % k)
        argv = [GEN, "repro", "--out", out, "--render", render]
        if spans:
            argv += ["--trace-spans", os.path.join(outdir, "spans-repro%d.json" % k)]
        spawn_ns = time.monotonic_ns()
        run_proc(argv, 170, "perfgen repro")
        r = load_json(out)
        r["setup_s"] = (r["ready_ns"] - spawn_ns) * 1e-9
        with open(render, "rb") as f:
            r["sha256"] = hashlib.sha256(f.read()).hexdigest()
        passes.append(r)
    return passes


def repro_counts(passes):
    """attempted = runner calls; a pass whose rendered output differs
    from the pinned SHA-256 fails all of its calls."""
    want = pinned_sha()
    calls = sum(len(p["experiments"]) for p in passes)
    bad = [p for p in passes if p["sha256"] != want]
    failed = sum(len(p["experiments"]) for p in bad)
    notes = ["registry output sha256 %s != pinned %s" % (p["sha256"], want) for p in bad]
    return calls, failed, notes


def pass_quantile(p, q):
    """Quantile of one pass's runner-call times, in us."""
    calls = sorted(v * 1e6 for v in p["experiments"].values())
    return statistics.quantiles(calls, n=100, method="inclusive")[q - 1]


def repro_end_to_end(seconds, outdir, smoke):
    passes = repro_passes(seconds, outdir, 1 if smoke else 3)
    attempted, failed, notes = repro_counts(passes)
    metrics = {
        "ops_per_s": median([len(p["experiments"]) / p["pass_s"] for p in passes]),
        "latency_p50_us": median([pass_quantile(p, 50) for p in passes]),
        "latency_p99_us": median([pass_quantile(p, 99) for p in passes]),
        "cpu_us_per_op": sum(p["cpu_s"] for p in passes) * 1e6 / attempted,
        "setup_s": median([p["setup_s"] for p in passes]),
        "rss_mb": median([p["rss_kb"] for p in passes]) / 1024.0,
        "run_s": median([p["pass_s"] for p in passes]),
    }
    return attempted, failed, metrics, {"passes": len(passes), "latency_samples": attempted,
                                        "failures": notes}


def repro_layers(seconds, outdir, min_passes, ids):
    passes = repro_passes(seconds, outdir, min_passes, spans=True)
    attempted, failed, notes = repro_counts(passes)
    m = {"experiments.%s_s" % i: median([p["experiments"][i] for p in passes]) for i in ids}
    m["repro.minor_mwords"] = median([p["minor_words"] / 1e6 for p in passes])
    m["repro.major_collections"] = median([p["major_collections"] for p in passes])
    return attempted, failed, m, {"passes": len(passes), "failures": notes}


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a fraction of a second per measurement, for the smoke test")
    a = ap.parse_args()
    os.chdir(ROOT)
    spec = load_json("BENCHMARK.json")
    build()
    info = json.loads(run_proc([GEN, "info"], 60, "perfgen info"))
    st = stamp(info)
    t0, steal0 = time.monotonic(), steal_ticks()
    calib = calibrate()
    seconds = min(a.seconds, 0.5) if a.smoke else a.seconds
    outdir = os.path.join("perfbench", "out", "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace))
    os.makedirs(outdir, exist_ok=True)
    for f in os.listdir(outdir):
        os.remove(os.path.join(outdir, f))

    if a.trace == 0:
        wanted = spec["end_to_end"]
        if a.workload == "repro":
            attempted, failed, metrics, notes = repro_end_to_end(seconds, outdir, a.smoke)
        else:
            attempted, failed, metrics, notes = serve_end_to_end(a.workload, a.seed, seconds, outdir, a.smoke)
    else:
        wanted = spec["per_layer"]
        ids = info["experiments"]
        if a.workload == "repro":
            attempted, failed, metrics, notes = repro_layers(seconds, outdir, 1 if a.smoke else 3, ids)
            sa, sf, sm, sn = serve_layers(COMPANION_SERVE, a.seed, min(seconds, 2), outdir, a.smoke)
            notes["companion"] = {"workload": COMPANION_SERVE, **sn}
        else:
            attempted, failed, metrics, notes = serve_layers(a.workload, a.seed, seconds, outdir, a.smoke)
            sa, sf, sm, sn = repro_layers(0, outdir, 1, ids)
            notes["companion"] = {"workload": "repro", **sn}
        attempted += sa
        failed += sf
        metrics.update(sm)
        metrics["failed_ratio"] = failed / max(1, attempted)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise BenchError("metric set mismatch: missing %s, unexpected %s"
                         % (sorted(set(names) - set(metrics)), sorted(set(metrics) - set(names))))
    st.update(host_speed(calib, steal0, t0))
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    with open(os.path.join(outdir, "result.json"), "w") as f:
        json.dump({"workload": a.workload, "seed": a.seed, "seconds": seconds, "trace": a.trace,
                   "stamp": st, "notes": notes, "result": result}, f, indent=1)
    for msg in notes.get("failures", [])[:8]:
        log("failure: " + msg)
    print(json.dumps({"stamp": st}))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(str(e))
        sys.exit(1)
