#!/usr/bin/env python3
"""Benchmark of the LR-Seluge stack: one workload per invocation.

    python3 perfbench/run.py --workload paper-star --seed 1 --trace 0

This process is the generator. It builds the workload program
(perfbench/workload.cc, against the repository's src/) into .bench_build/,
derives every input from --seed, runs the workload in a child process and
turns the child's raw measurements into the metrics named in
BENCHMARK.json. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
twice, untraced and then traced with the lrs-metrics-v1 registry on, and
reports the per-layer metrics, tracing overhead included. See README.md
for the workloads, the metrics and the layer map.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import metrics as m

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "cmake", "lrs_workload")

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009  # not used while the benchmark was tuned
# Wall-clock budget of the workload processes of one invocation, after
# the build: a hung workload is killed and the run fails.
WORKLOAD_BUDGET_S = 170

# The paper's one-hop cell (section VI-A), as in scenarios/star20-paper.scn
# but with the invariant observer off: the benchmark prices protocol work.
PAPER_STAR = """\
[scenario]
name = star20-paper
scheme = lr-seluge
image_size = 20480
payload_size = 64
k = 32
n = 48
k0 = 8
n0 = 16
codec = rs
puzzle_strength = 8

[topology]
kind = star
receivers = 20
max_prr = 1

[channel]
model = uniform
loss = 0.1

[trial]
repeats = 1
seed = {seed}
time_limit_s = 3600
check_invariants = false
"""

# The bench_scale geo-10k rung (scenarios/geo-10k.scn), deployment and
# trial seed included; see GEO_TRIAL_SEED.
GEO_10K = """\
[scenario]
name = geo-10k
scheme = lr-seluge
image_size = 1024
payload_size = 32
k = 8
n = 12
k0 = 4
n0 = 8
codec = rs
puzzle_strength = 4

[topology]
kind = geometric
nodes = 10000
width = 2100
height = 2100
seed = 5

[channel]
model = uniform
loss = 0.05

[trial]
repeats = 1
seed = {seed}
time_limit_s = 14400
check_invariants = false
"""

# Work per run, sized so the timed phase lasts about --seconds on the
# reference machine (README.md): paper-star trials, geo-10k repeats of its
# one dissemination, and fleet rungs, per second.
STAR_TRIALS_PER_S = 56
GEO_REPEATS_PER_S = 1 / 7.5
FLEET_RUNGS_PER_S = 1.0
FLEET_TENANTS = 16
FLEET_CELLS = 64
FLEET_JOBS = 2
PROBE_TRIALS = 16
SETUPS = 9

# geo-10k keeps the trial seed of BENCH_scale.json's row whatever the
# workload seed. Its latency is set by the last, weakly linked receiver:
# across trial seeds it swings from 4100 s to 10700 s, and at 3 of 7
# other seeds tried one receiver had not finished at the 4 h limit
# (README.md, "Known issues").
GEO_TRIAL_SEED = 1


def seed_block(seed):
    """First trial seed of workload seed `seed`. Blocks of different seeds
    never overlap, and the default seed 1 maps to trial seed 1, the seed
    the repository's scenario files and BENCH_scale.json use."""
    return (1 + (seed - 1) * 1_000_000) % (1 << 63)


def trials_plan(template, seeds, warmup):
    lines = ["kind trials", f"setups {SETUPS}"]
    if warmup is not None:
        lines.append(f"warmup {warmup}")
    lines.append("seeds " + " ".join(str(s) for s in seeds))
    lines.append(f"probe {min(PROBE_TRIALS, len(seeds))}")
    return lines, template.format(seed=seeds[0])


def fleet_tenant(name, t, seed, cells):
    """Tenant t of the bench_fleet tenant mix: codecs rs/lrc/xorsched in
    rotation, versions 1-3, a delta tenant every fifth, 1-2.5 KB images,
    4-12 receiver stars and 1-5% loss."""
    codecs = ("rs", "lrc", "xorsched")
    delta = t % 5 == 4
    version = 2 if delta else 1 + t % 3
    image = 1024 + 512 * (t % 4)
    loss = 0.01 + 0.02 * (t % 3)
    return (f"tenant {name} {codecs[t % 3]} {version} {int(delta)} {image} "
            f"{seed} {cells} 4 12 {loss!r}")


def fleet_plan(seed, rungs):
    """Rung r uses tenant seeds block + 2000 + 16 r + t, so rung 0 of the
    default seed is bench_fleet's 16x64 rung. The warm-up rung has one
    cell per tenant and seeds of its own."""
    block = seed_block(seed)
    lines = ["kind fleet", f"jobs {FLEET_JOBS}", "rung warmup"]
    for t in range(FLEET_TENANTS):
        lines.append(fleet_tenant(f"w{t:02d}", t, block + 900_000 + t, 1))
    for r in range(rungs):
        lines.append("rung timed")
        for t in range(FLEET_TENANTS):
            lines.append(fleet_tenant(f"t{t:02d}", t,
                                      block + 2000 + FLEET_TENANTS * r + t,
                                      FLEET_CELLS))
    return lines, None


def make_plan(workload, seed, seconds):
    if workload == "paper-star":
        trials = max(1, round(STAR_TRIALS_PER_S * seconds))
        block = seed_block(seed)
        return trials_plan(PAPER_STAR, [block + i for i in range(trials)],
                           warmup=block + trials)
    if workload == "geo-10k":
        repeats = max(1, round(GEO_REPEATS_PER_S * seconds))
        return trials_plan(GEO_10K, [GEO_TRIAL_SEED] * repeats, warmup=None)
    if workload == "fleet":
        return fleet_plan(seed, max(1, round(FLEET_RUNGS_PER_S * seconds)))
    raise SystemExit(f"unknown workload {workload}")


def build():
    """Configures and builds the workload program; exits 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "lrs_workload"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                sys.stderr.write(f"perfbench: build failed, see {log_path}\n")
                sys.exit(1)


def run_workload(run_dir, name, plan_lines, scenario, trace, deadline):
    """Runs one workload process, killed at `deadline` (time.monotonic());
    returns (parsed output, peak RSS MiB)."""
    os.makedirs(run_dir, exist_ok=True)
    lines = list(plan_lines) + [f"trace {int(trace)}"]
    if scenario is not None:
        scn = os.path.join(run_dir, f"{name}.scn")
        with open(scn, "w") as f:
            f.write(scenario)
        lines.append(f"scenario {scn}")
    plan = os.path.join(run_dir, f"{name}.plan")
    out = os.path.join(run_dir, f"{name}.out")
    with open(plan, "w") as f:
        f.write("\n".join(lines) + "\n")
    for stale in (out, out + ".metrics.json", out + ".probe.json"):
        if os.path.exists(stale):
            os.remove(stale)

    proc = subprocess.Popen([BINARY, plan, out], stdout=sys.stderr)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: workload exited {proc.returncode}\n")
        sys.exit(1)
    parsed = parse_output(out)
    if trace:
        parsed["registry"] = load_json(out + ".metrics.json")
        parsed["probe"] = (load_json(out + ".probe.json")
                           if os.path.exists(out + ".probe.json") else None)
    return parsed, usage.ru_maxrss / 1024.0  # Linux: KiB


def load_json(path):
    with open(path) as f:
        return json.load(f)


def parse_output(path):
    res = {"setup": [], "spans": [], "dissem": [], "rungs": [],
           "tenants": [], "run": None, "probe_trials": 0}
    with open(path) as f:
        for line in f:
            p = line.split()
            if not p:
                continue
            if p[0] == "setup":
                res["setup"].append(int(p[1]) / 1e9)
            elif p[0] == "run":
                res["run"] = int(p[1]) / 1e9
            elif p[0] == "probe":
                res["probe_trials"] = int(p[1])
            elif p[0] == "span":
                res["spans"].append({"id": int(p[1]), "parent": int(p[2]),
                                     "name": p[3], "start": int(p[4]),
                                     "end": int(p[5])})
            elif p[0] == "dissem":
                res["dissem"].append({
                    "host_s": int(p[1]) / 1e9, "cpu_s": int(p[2]) / 1e9,
                    "completed": int(p[3]), "expected": int(p[4]),
                    "match": p[5] == "1", "latency_s": float(p[6]),
                    "data": int(p[7]), "snack": int(p[8]), "adv": int(p[9]),
                    "bytes": int(p[10]), "events": int(p[11])})
            elif p[0] == "rung":
                res["rungs"].append({"host_s": int(p[1]) / 1e9,
                                     "cpu_s": int(p[2]) / 1e9,
                                     "cells": int(p[3]),
                                     "steals": int(p[4])})
            elif p[0] == "tenant":
                res["tenants"].append({
                    "cells": int(p[1]), "converged": int(p[2]),
                    "images_ok": p[3] == "1", "latency_s": float(p[4]),
                    "data": int(p[5]), "snack": int(p[6]),
                    "bytes": int(p[7]), "events": int(p[8])})
            else:
                raise ValueError(f"unknown output line: {line!r}")
    if res["run"] is None or not res["setup"]:
        raise ValueError("workload output is incomplete")
    return res


def outcome(res):
    """(attempted, failed, completed share) of the disseminations.

    A trial counts its receivers as completed only when every one it
    expected finished and every completed image matched the published
    one; a fleet cell (its receivers are not reported singly) counts as
    one unit that converged with byte-exact images, or did not."""
    if res["dissem"]:
        attempted = len(res["dissem"])
        ok = [d["match"] and d["completed"] >= d["expected"]
              for d in res["dissem"]]
        expected = sum(d["expected"] for d in res["dissem"])
        completed = sum(min(d["completed"], d["expected"])
                        for d in res["dissem"] if d["match"])
        return attempted, ok.count(False), completed / expected
    cells = sum(t["cells"] for t in res["tenants"])
    good = sum(t["converged"] for t in res["tenants"] if t["images_ok"])
    return cells, cells - good, good / cells


def end_to_end(res, rss_mb):
    """End-to-end metrics: name -> (value, note).

    Host time per dissemination is CPU time, so that a descheduled vCPU
    does not land in the tail: a trial's thread CPU time, or a fleet
    rung's process CPU time over its cells (busy and idle-spinning
    workers alike)."""
    out = {"run_s": (res["run"], "timed phase, tracing off"),
           "setup_s": (statistics.median(res["setup"]),
                       f"median of {len(res['setup'])} set-ups"),
           "peak_rss_mb": (rss_mb, "workload process")}
    if res["dissem"]:
        units = res["dissem"]
        count = len(units)
        host_ms = [d["cpu_s"] * 1e3 for d in units]
        what = "trial"
    else:
        # Latency is per tenant campaign (its slowest cell), the only
        # latency the fleet engine reports.
        units = res["tenants"]
        count = sum(t["cells"] for t in units)
        host_ms = [r["cpu_s"] * 1e3 / r["cells"] for r in res["rungs"]]
        what = "rung (ms per cell)"
    latencies = [u["latency_s"] for u in units]
    hi, pct, n = m.high_percentile(host_ms)
    out["dissem_ms_p50"] = (statistics.median(host_ms),
                            f"median of {n} per {what}")
    out["dissem_ms_hi"] = (hi, f"p{pct:.4g} of {n} per {what}")
    hi, pct, n = m.high_percentile(latencies)
    out["latency_s"] = (sum(latencies) / n, f"simulated, mean of {n}")
    out["latency_s_hi"] = (hi, f"simulated, p{pct:.4g} of {n}")
    for key, name in (("data", "data_pkts"), ("snack", "snack_pkts"),
                      ("bytes", "total_bytes")):
        out[name] = (sum(u[key] for u in units) / count,
                     f"mean per dissemination, {count}")
    attempted, failed, share = outcome(res)
    out["complete_frac"] = (share, f"of {attempted} disseminations, "
                                   f"{failed} failed")
    return out


def scopes(doc):
    return doc["timing"]["scopes"] if doc else {}


def scope_s(doc, name):
    return scopes(doc).get(name, {}).get("ns", 0) / 1e9


def scope_calls(doc, name):
    return scopes(doc).get(name, {}).get("calls", 0)


def counter(doc, name):
    return doc["deterministic"]["counters"].get(name, 0)


CODECS = ("rs", "lrc", "xorsched", "rlc2", "rlc256", "lt")
LEAF_SCOPES = ["crypto.sha.oneshot", "crypto.sha.batch", "crypto.hmac"] + [
    f"erasure.{c}.{op}" for c in CODECS for op in ("encode", "decode")]


def per_layer(base, traced, jobs):
    """Per-layer metrics from the traced run: name -> (value, unit, note)."""
    reg = traced["registry"]
    out = {}

    def put(name, value, unit, note=""):
        out[name] = (value, unit, note)

    def put_ratio(name, num, den, base_name):
        value, text = m.ratio(num, den)
        put(name, value, "ratio", f"{text} ({base_name})")

    # Set-up layers, from the benchmark's spans under each set-up.
    setup_ids = {s["id"] for s in traced["spans"] if s["name"] == "setup"}
    for span, name in (("scenario.load", "scenario.load_s"),
                       ("sim.build_topology", "sim.build_topology_s"),
                       ("fleet.prepare", "fleet.prepare_s")):
        times = [(s["end"] - s["start"]) / 1e9 for s in traced["spans"]
                 if s["name"] == span and s["parent"] in setup_ids]
        put(name, statistics.median(times) if times else 0.0, "s",
            f"median of {len(times)}")

    # Simulator core: sim.run minus the engine's receive path.
    sim_run = scope_s(reg, "sim.run")
    rx = scope_s(reg, "proto.rx")
    put("sim.run_s", sim_run, "s", "inclusive")
    put("sim.self_s", m.self_time(sim_run, [rx]), "s", "sim.run - proto.rx")
    events = counter(reg, "sim.queue.pop")
    put("sim.events", events, "count")
    put("sim.events_per_s", events / base["run"], "1/s",
        f"over the untraced run_s {base['run']:.4g} s")
    schedule = counter(reg, "sim.queue.schedule")
    put("sim.queue.schedule", schedule, "count")
    put("sim.queue.cancel", counter(reg, "sim.queue.cancel"), "count")
    put_ratio("sim.queue.cancel_frac", counter(reg, "sim.queue.cancel"),
              schedule, "sim.queue.schedule")
    put("sim.queue.overflow_push", counter(reg, "sim.queue.overflow_push"),
        "count")
    put_ratio("sim.queue.overflow_frac",
              counter(reg, "sim.queue.overflow_push"), schedule,
              "sim.queue.schedule")

    # Crypto and erasure leaves inside the simulation: the registry total
    # minus the source-side share the probe measured (same signing and
    # encoding, dissemination stopped at t = 1 us), scaled to all trials.
    probe = traced["probe"]
    probe_n = traced["probe_trials"]
    scale = len(traced["dissem"]) / probe_n if probe_n else 0.0
    nested = sum(max(0.0, scope_s(reg, s) - scale * scope_s(probe, s))
                 for s in LEAF_SCOPES)
    put("proto.rx_s", rx, "s", "inclusive")
    put("proto.rx.nested_s", nested, "s",
        "crypto + erasure time inside the simulation")
    put("proto.rx.self_s", m.self_time(rx, [nested]), "s",
        "proto.rx - proto.rx.nested_s")
    put("proto.rx.calls", counter(reg, "proto.rx.calls"), "count")
    put("proto.data.served", counter(reg, "proto.data.served"), "count")
    put("proto.snack.sent", counter(reg, "proto.snack.sent"), "count")
    put("core.source_s", scope_s(reg, "core.source"), "s")

    put("crypto.sha.oneshot_s", scope_s(reg, "crypto.sha.oneshot"), "s")
    put("crypto.sha.oneshot.calls", scope_calls(reg, "crypto.sha.oneshot"),
        "count", "not deterministic: the signature memo absorbs some")
    put("crypto.sha.batch_s", scope_s(reg, "crypto.sha.batch"), "s")
    put("crypto.sha.batch_msgs", counter(reg, "crypto.sha.batch_msgs"),
        "count")
    put_ratio("crypto.sha.simd_frac",
              counter(reg, "crypto.sha.batch_simd_msgs"),
              counter(reg, "crypto.sha.batch_msgs"), "crypto.sha.batch_msgs")
    put("crypto.hmac_s", scope_s(reg, "crypto.hmac"), "s")
    put("crypto.hmac.calls", scope_calls(reg, "crypto.hmac"), "count")

    for op in ("decode", "encode"):
        put(f"erasure.{op}_s",
            sum(scope_s(reg, f"erasure.{c}.{op}") for c in CODECS), "s",
            "all codecs")
        put(f"erasure.{op}.calls",
            sum(scope_calls(reg, f"erasure.{c}.{op}") for c in CODECS),
            "count", "all codecs")
        for c in ("rs", "lrc", "xorsched"):
            put(f"erasure.{c}.{op}_s", scope_s(reg, f"erasure.{c}.{op}"), "s")
            put(f"erasure.{c}.{op}.calls",
                scope_calls(reg, f"erasure.{c}.{op}"), "count")
    put("erasure.lrc.decodes", counter(reg, "erasure.lrc.decodes"), "count")
    put_ratio("erasure.lrc.local_frac",
              counter(reg, "erasure.lrc.local_only_decodes"),
              counter(reg, "erasure.lrc.decodes"), "erasure.lrc.decodes")

    # Fleet: busy time of the cells against the workers' wall time.
    cells = sum(r["cells"] for r in traced["rungs"])
    cell_s = scope_s(reg, "fleet.run_cell")
    rung_wall = sum(r["host_s"] for r in traced["rungs"])
    put("fleet.cells", cells, "count")
    put("fleet.cell_ms_mean", cell_s * 1e3 / cells if cells else 0.0, "ms",
        f"over {cells} cells")
    put_ratio("fleet.busy_frac", cell_s, jobs * rung_wall,
              f"{jobs} workers x rung wall s")
    steals = sum(r["steals"] for r in traced["rungs"])
    steals += reg["timing"]["gauges"].get("core.parallel.steals", 0)
    put("core.parallel.steals", steals, "count")

    # The benchmark's own share of run_s: the timed phase minus the calls
    # it times.
    run_span = next(s for s in base["spans"] if s["name"] == "run")
    calls = [(s["start"], s["end"]) for s in base["spans"]
             if s["parent"] == run_span["id"]]
    put("bench.run.self_s",
        m.span_self_time((run_span["start"], run_span["end"]), calls) / 1e9,
        "s", "untraced run, outside the timed calls")

    put("trace.run_s", traced["run"], "s", "timed phase, tracing on")
    put("trace.base_run_s", base["run"], "s", "timed phase, tracing off")
    put_ratio("trace.overhead_frac", traced["run"] - base["run"], base["run"],
              "trace.base_run_s")
    return out


def check_names(declared, produced):
    if set(declared) != set(produced):
        missing = sorted(set(declared) - set(produced))
        extra = sorted(set(produced) - set(declared))
        raise SystemExit(f"perfbench: metric set differs from BENCHMARK.json:"
                         f" missing {missing}, undeclared {extra}")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    seconds = args.seconds or spec["run_seconds"]
    build()

    plan, scenario = make_plan(args.workload, args.seed, seconds)
    jobs = FLEET_JOBS if args.workload == "fleet" else 1
    run_dir = os.path.join(BUILD, "runs",
                           f"{args.workload}-{args.seed}-{args.trace}")
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    base, rss = run_workload(run_dir, "base", plan, scenario, False, deadline)
    attempted, failed, _ = outcome(base)
    if args.trace:
        traced, _ = run_workload(run_dir, "traced", plan, scenario, True,
                                 deadline)
        t_attempted, t_failed, _ = outcome(traced)
        attempted += t_attempted
        failed += t_failed
        layer = per_layer(base, traced, jobs)
        check_names([x["name"] for x in spec["per_layer"]], layer)
        units = {x["name"]: x["unit"] for x in spec["per_layer"]}
        result = {}
        for name, (value, unit, note) in layer.items():
            if unit != units[name]:
                raise SystemExit(f"perfbench: {name} unit {unit} is not "
                                 f"{units[name]}")
            print(f"{name:28s} {value:<16.6g} {unit:6s} {note}")
            result[name] = {"value": value, "unit": unit}
    else:
        e2e = end_to_end(base, rss)
        check_names([x["name"] for x in spec["end_to_end"]], e2e)
        result = {}
        for x in spec["end_to_end"]:
            value, note = e2e[x["name"]]
            print(f"{x['name']:16s} {value:<16.6g} {x['unit']:6s} {note}")
            result[x["name"]] = {"value": value, "unit": x["unit"]}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
