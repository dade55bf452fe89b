#!/usr/bin/env python3
"""Run the benchmark over many seeds and judge its steadiness.

    python3 perfbench/steadiness.py run LABEL [--workloads W,...] [--seeds 1-10] [--seconds S]
    python3 perfbench/steadiness.py report LABEL
    python3 perfbench/steadiness.py compare LABEL_A LABEL_B

run      runs perfbench/run.py once per (workload, seed) with --trace 0 and
         keeps each stamp and result under perfbench/out/steady/LABEL/.
report   prints, per workload and end-to-end metric, the median and the
         spread: the distance between the first and third quartile
         (statistics.quantiles(values, n=4)) as a share of the median.
         A spread above the metric's bound is FAIL, above a third of it
         is WIDE. It also prints the set's host speed (see below).
compare  checks, for every metric, that B's median is not worse than
         A's by more than the bound.

A set is only judged, and two sets only compared, when every result in
them carries the same environment stamp: nproc, OCaml version,
readiness backend, commit and source digest must be equal, and every
1-minute load average at start must be in the same load class.
Back-to-back runs of the benchmark itself start at a load of up to
about 2 x nproc (server, generator, idle loop, the build step); a start
above 3 x nproc means something else was running, and such a result is
not compared with a quiet one.

Every stamp also carries the host's speed over its run: calib_ms, the
median time of a fixed CPU-bound block timed before and after the
workload, and steal_share, the share of the guest's CPU time the
hypervisor stole during the run. On a shared host these move the
time and rate metrics by as much as the code does, so compare refuses
two sets whose median calib_ms differ by more than CALIB_SHARE of the
faster one, or whose median steal_share differ by more than
STEAL_SHARE.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IDENTITY = ("nproc", "ocaml", "backend", "commit", "source_sha256")
CALIB_SHARE = 0.10
STEAL_SHARE = 0.05


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def set_dir(label):
    return os.path.join(HERE, "out", "steady", label)


def parse_seeds(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def run(label, workloads, seeds, seconds):
    d = set_dir(label)
    os.makedirs(d, exist_ok=True)
    for w in workloads:
        for seed in seeds:
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                               cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit("run.py %s seed %d failed (exit %d):\n%s" % (w, seed, p.returncode, p.stderr))
            lines = p.stdout.strip().splitlines()
            rec = {"workload": w, "seed": seed, "stamp": json.loads(lines[-2])["stamp"],
                   "result": json.loads(lines[-1])}
            with open(os.path.join(d, "%s-%d.json" % (w, seed)), "w") as f:
                json.dump(rec, f)
            print("%-20s seed %-3d correct=%s failed=%d" % (w, seed, rec["result"]["correct"],
                                                           rec["result"]["failed"]), flush=True)


def load(label):
    d = set_dir(label)
    recs = []
    for n in sorted(os.listdir(d)):
        with open(os.path.join(d, n)) as f:
            recs.append(json.load(f))
    if not recs:
        sys.exit("no results under " + d)
    return recs


def check_stamps(recs):
    """Refuse mixed environments; returns the shared stamp."""
    first = recs[0]["stamp"]
    for r in recs:
        for k in IDENTITY:
            if r["stamp"][k] != first[k]:
                sys.exit("refusing: stamp field %r differs (%r vs %r, %s seed %d)"
                         % (k, first[k], r["stamp"][k], r["workload"], r["seed"]))
    classes = {load_class(r["stamp"]) for r in recs}
    if len(classes) > 1:
        sys.exit("refusing: results started under different loads (%s)" % ", ".join(sorted(classes)))
    return first


def load_class(st):
    return "busy" if st["loadavg1"] > 3 * st["nproc"] else "quiet"


def host_speed(recs):
    """Median calib_ms and its spread, and median steal_share, of a set."""
    calib, sp = spread([r["stamp"]["calib_ms"] for r in recs])
    return calib, sp, statistics.median(r["stamp"]["steal_share"] for r in recs)


def table(recs):
    """{workload: {metric: [values]}} plus failure totals."""
    t, fails = {}, {}
    for r in recs:
        w = r["workload"]
        fails[w] = fails.get(w, 0) + r["result"]["failed"] + (0 if r["result"]["correct"] else 1)
        for m, v in r["result"]["metrics"].items():
            t.setdefault(w, {}).setdefault(m, []).append(v["value"])
    return t, fails


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def report(label):
    recs = load(label)
    check_stamps(recs)
    t, fails = table(recs)
    calib, calib_sp, steal = host_speed(recs)
    print("host: calib_ms median %.4g (spread %.2f%%), steal_share median %.2f%%"
          % (calib, 100 * calib_sp, 100 * steal))
    ok = True
    for w in t:
        print("%s  (%d runs, %d failures)" % (w, len(t[w]["setup_s"]), fails[w]))
        ok &= fails[w] == 0
        for m in spec()["end_to_end"]:
            vals = t[w][m["name"]]
            med, sp = spread(vals)
            if sp > m["bound"]:
                verdict, ok = "FAIL", False
            elif sp > m["bound"] / 3:
                verdict = "WIDE"
            else:
                verdict = "ok"
            print("  %-16s median %-14.6g spread %6.2f%%  bound %4.0f%%  %s"
                  % (m["name"], med, 100 * sp, 100 * m["bound"], verdict))
    return ok


def compare(a, b):
    ra, rb = load(a), load(b)
    sa, sb = check_stamps(ra), check_stamps(rb)
    for k in IDENTITY:
        if sa[k] != sb[k]:
            sys.exit("refusing: stamp field %r differs between sets (%r vs %r)" % (k, sa[k], sb[k]))
    if load_class(sa) != load_class(sb):
        sys.exit("refusing: one set started busy, the other quiet")
    ca, _, stl_a = host_speed(ra)
    cb, _, stl_b = host_speed(rb)
    if abs(ca - cb) > CALIB_SHARE * min(ca, cb):
        sys.exit("refusing: host speed differs (calib_ms median %.4g vs %.4g, more than %d%%)"
                 % (ca, cb, 100 * CALIB_SHARE))
    if abs(stl_a - stl_b) > STEAL_SHARE:
        sys.exit("refusing: steal time differs (steal_share median %.2f%% vs %.2f%%)"
                 % (100 * stl_a, 100 * stl_b))
    print("host: calib_ms %.4g -> %.4g, steal_share %.2f%% -> %.2f%%" % (ca, cb, 100 * stl_a, 100 * stl_b))
    ta, _ = table(ra)
    tb, _ = table(rb)
    ok = True
    for w in ta:
        print(w)
        for m in spec()["end_to_end"]:
            ma = statistics.median(ta[w][m["name"]])
            mb = statistics.median(tb[w][m["name"]])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            verdict = "FAIL" if worse > m["bound"] else "ok"
            ok &= verdict == "ok"
            print("  %-16s %-14.6g -> %-14.6g worse by %6.2f%%  bound %4.0f%%  %s"
                  % (m["name"], ma, mb, 100 * worse, 100 * m["bound"], verdict))
    return ok


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    cmd = args[0]
    if cmd == "run":
        opts = dict(zip(args[2::2], args[3::2]))
        workloads = opts.get("--workloads", ",".join(w["name"] for w in spec()["workloads"])).split(",")
        run(args[1], workloads, parse_seeds(opts.get("--seeds", "1-10")),
            opts.get("--seconds", str(spec()["run_seconds"])))
        sys.exit(0 if report(args[1]) else 1)
    elif cmd == "report":
        sys.exit(0 if report(args[1]) else 1)
    elif cmd == "compare":
        sys.exit(0 if compare(args[1], args[2]) else 1)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
