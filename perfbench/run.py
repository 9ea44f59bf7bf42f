#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, runs one
workload, checks the program's outputs and prints every metric.

    python3 perfbench/run.py --workload inet_rpc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench, together with the raw results, the spans
of traced runs and the determinism record that later runs are checked
against. The last line of stdout is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics with --trace 0, the per-layer
ones with --trace 1). `attempted` counts distinct simulations and `failed`
the ones that broke a correctness check; see perfbench/README.md.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the benchmark directory read-only
import stats  # noqa: E402

WORKLOADS = ("inet_rpc", "pool_storm", "chaos_sweep")
RUN_TIMEOUT_S = 170

# (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("host_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("goodput_ops_per_sim_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("latency_p999_us", "us"),
)

# Counters a workload reads from the layer accessors (or, on chaos_sweep,
# from run_scenario's RunStats and its trace stream), with their units.
COUNTS = (
    ("sim.events_executed", "count"),
    ("sim.events_scheduled", "count"),
    ("sim.events_cancelled", "count"),
    ("sim.windows", "count"),
    ("sim.lookahead_violations", "count"),
    ("obs.trace_events", "count"),
    ("net.frames_sent", "count"),
    ("net.frames_filtered", "count"),
    ("net.frames_dropped", "count"),
    ("net.frames_corrupted", "count"),
    ("net.bytes_sent", "B"),
    ("proto.retransmits", "count"),
    ("proto.busy_nacks", "count"),
    ("proto.duplicates_suppressed", "count"),
    ("proto.records_opened", "count"),
    ("proto.records_expired", "count"),
    ("proto.probes_sent", "count"),
    ("core.requests_issued", "count"),
    ("core.requests_completed", "count"),
    ("core.shed_offers", "count"),
    ("core.timedout", "count"),
    ("core.crashes_detected", "count"),
    ("core.handler_invocations", "count"),
    ("core.cpu_busy_us", "us"),
    ("inet.frames_relayed", "count"),
    ("inet.relay_drops", "count"),
    ("inet.coalesced", "count"),
    ("inet.pattern_forwards", "count"),
    ("inet.queue_depth_max", "frames"),
    ("chaos.frames_lost", "count"),
    ("chaos.frames_duplicated", "count"),
)

# Counters only the traced repeat has (it steps the windows itself).
TRACED_ONLY_COUNTS = ("sim.windows",)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------------ build


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(bdir):
    """Configure and build perfbench; build output goes to stderr."""
    os.makedirs(bdir, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configure every time: it is quick, and it re-globs src/.
    subprocess.run(
        ["cmake", "-S", HERE, "-B", bdir, *generator,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def run_perfbench(binary, args):
    subprocess.run([binary, *args], stdout=sys.stderr, check=True,
                   timeout=RUN_TIMEOUT_S)


# --------------------------------------------------------------- fidelity


def fidelity(binary, bdir):
    """Recompute the 72 §5.5 table points. Returns (ok, paper_err_pct,
    mismatches): ok is False when any simulated value moved from the ones
    recorded in fidelity_seed.json."""
    out = os.path.join(bdir, "fidelity.json")
    run_perfbench(binary, ["--workload", "fidelity", "--out", out])
    with open(out) as f:
        got = json.load(f)["points"]
    with open(os.path.join(HERE, "fidelity_seed.json")) as f:
        want = json.load(f)["points"]
    mismatches = []
    if len(got) != len(want):
        mismatches.append(f"{len(got)} points, expected {len(want)}")
    for g, w in zip(got, want):
        key = (w["op"], w["pipelined"], w["words"])
        if (g["op"], g["pipelined"], g["words"]) != key or not g["finished"]:
            mismatches.append(f"point {key} missing or unfinished")
            continue
        for field in ("ms_per_op", "packets_per_op"):
            if not math.isclose(g[field], w[field], rel_tol=1e-12):
                mismatches.append(f"{key} {field} {g[field]!r} != {w[field]!r}")
    errors = [abs(g["ms_per_op"] - w["paper_ms"]) / w["paper_ms"] * 100
              for g, w in zip(got, want)]
    return not mismatches, statistics.fmean(errors), mismatches


# ------------------------------------------------------------ determinism


def fingerprint(rep):
    """Everything in a repeat that must repeat exactly at a fixed seed."""
    counts = {k: v for k, v in rep["counts"].items()
              if k not in TRACED_ONLY_COUNTS}
    return {
        "trace_hash": rep["trace_hash"],
        "ops": [rep["ops_attempted"], rep["ops_ok"], rep["ops_failed"]],
        "runs": [rep["sim_runs"], rep["failed_runs"]],
        "sim_s": rep["sim_s"],
        "counts": counts,
        "latency": hashlib.sha1(
            json.dumps(rep["latency_us"], sort_keys=True).encode()
        ).hexdigest(),
    }


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha1(f.read()).hexdigest()


def check_record(bdir, binary, key, record):
    """Compare against what earlier runs of the same (workload, seed) with
    the same perfbench binary recorded in this build directory, then merge.
    A rebuilt binary starts a new record. Returns the mismatching fields."""
    path = os.path.join(bdir, "determinism.json")
    version = file_digest(binary)
    try:
        with open(path) as f:
            book = json.load(f)
    except (OSError, ValueError):
        book = {}
    if book.get("binary") != version:
        book = {"binary": version, "runs": {}}
    seen = book["runs"].get(key, {})
    diffs = [k for k, v in record.items() if k in seen and seen[k] != v]
    if not diffs:
        seen.update(record)
        book["runs"][key] = seen
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(book, f, sort_keys=True)
        os.replace(tmp, path)
    return diffs


# ---------------------------------------------------------------- metrics


def reference_scaled(seconds, reference_s, nominal_s):
    """A host time measured while the reference loop took reference_s,
    scaled to a host that runs the loop in nominal_s."""
    return seconds * nominal_s / reference_s


def summarize(raw, bdir, binary):
    """Checks and metrics of one workload run. Returns (checks, e2e,
    per_layer): checks maps name -> (ok, detail), the metric dicts map
    name -> (value, unit, note)."""
    reps = raw["repeats"]
    ref = reps[0]
    measured = [r for r in reps if r["phase"] == "measured"]
    traced = next((r for r in reps if r["phase"] == "traced"), None)
    checks = {}

    ref_print = fingerprint(ref)
    same = all(fingerprint(r) == ref_print for r in reps)
    checks["repeats_identical"] = (
        same, f"{len(reps)} repeats, trace hash {ref['trace_hash']}")
    record = {"fingerprint": ref_print}
    if traced is not None:
        record["traced_counts"] = {k: traced["counts"][k]
                                   for k in TRACED_ONLY_COUNTS
                                   if k in traced["counts"]}
        record["req"] = hashlib.sha1(json.dumps(
            traced["req"], sort_keys=True).encode()).hexdigest()
    diffs = check_record(bdir, binary, f"{raw['workload']}/seed{raw['seed']}",
                         record)
    checks["matches_earlier_runs"] = (
        not diffs, "differs in " + ", ".join(diffs) if diffs else "")

    n_ops = ref["ops_attempted"]
    e2e = {}
    nominal = raw["reference_nominal_s"]
    def scaled_run_s(r):
        return reference_scaled(r["run_s"], r["ref_s"] / r["ref_n"], nominal)

    host_ops = [r["ops_ok"] / scaled_run_s(r) for r in measured]
    e2e["host_ops_per_s"] = (
        statistics.median(host_ops), "ops/s",
        f"median of {len(measured)} measured repeats, at reference speed")
    setups = [reference_scaled(s, ref, nominal)
              for s, ref in zip(raw["setup_only_s"], raw["setup_ref_s"])]
    e2e["setup_s"] = (statistics.median(setups), "s",
                      f"median of {len(setups)} set-up-only builds, "
                      "at reference speed")
    e2e["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024, "MiB", "VmHWM")
    e2e["goodput_ops_per_sim_s"] = (
        ref["ops_ok"] / ref["sim_s"], "ops/s",
        f"{ref['ops_ok']} ok ops in {ref['sim_s']:g} simulated s")
    lat = {int(k): v for k, v in ref["latency_us"].items()}
    n_lat = stats.sample_count(lat)
    for q, name in ((0.5, "latency_p50_us"), (0.99, "latency_p99_us"),
                    (0.999, "latency_p999_us")):
        e2e[name] = (stats.percentile(lat, q), "us",
                     f"n={n_lat}, {stats.beyond(n_lat, q)} beyond")

    per = {}
    counts = dict(ref["counts"])
    if traced is not None:
        counts.update(traced["counts"])
    for name, unit in COUNTS:
        per[name] = (counts.get(name, 0), unit, "")
    failed = stats.ratio(ref["ops_failed"], n_ops)
    per["ops_failed_frac"] = (failed["value"], "ratio",
                              f"{ref['ops_failed']} of {n_ops} ops attempted")
    per["req.ops_attempted"] = (n_ops, "count", "")

    def add_ratio(name, unit, part, base, base_name):
        r = stats.ratio(part, base)
        per[name] = (r["value"], unit, f"base {base_name} = {r['base']}")

    add_ratio("sim.events_per_op", "events/op",
              counts.get("sim.events_executed", 0), n_ops, "req.ops_attempted")
    add_ratio("sim.cancel_ratio", "ratio",
              counts.get("sim.events_cancelled", 0),
              counts.get("sim.events_scheduled", 0), "sim.events_scheduled")
    add_ratio("sim.events_per_window", "events/window",
              counts.get("sim.events_executed", 0), counts.get("sim.windows", 0),
              "sim.windows")
    add_ratio("obs.trace_events_per_op", "events/op",
              counts.get("obs.trace_events", 0), n_ops, "req.ops_attempted")
    add_ratio("net.frames_per_op", "frames/op",
              counts.get("net.frames_sent", 0), n_ops, "req.ops_attempted")
    add_ratio("core.ok_per_request", "ratio", ref["ops_ok"],
              counts.get("core.requests_issued", 0), "core.requests_issued")

    top = stats.top_percentile(lat)
    per["req.latency_samples"] = (n_lat, "count", "")
    per["req.latency_top_pct"] = (top[0] * 100 if top else 0, "pct",
                                  "highest percentile with >= 10 beyond")
    per["req.latency_top_us"] = (top[1] if top else 0, "us",
                                 stats.percent_label(top[0]) if top else "")

    run_s = statistics.median(r["run_s"] for r in measured)
    per["host.run_s"] = (run_s, "s", "median measured repeat")
    per["host.ops_per_wall_s"] = (
        statistics.median(r["ops_ok"] / r["run_s"] for r in measured), "ops/s",
        "host_ops_per_s before scaling to reference speed")
    per["host.reference_ms"] = (
        statistics.median(r["ref_s"] / r["ref_n"] for r in measured) * 1e3,
        "ms", f"reference loop; nominal {nominal * 1e3:g} ms")
    if traced is not None:
        host = traced["host"]
        for name in ("setup.topology_s", "setup.nodes_s", "sim.window_place_s",
                     "sim.window_exec_s", "sim.window_commit_s", "obs.hash_s",
                     "obs.invariants_s"):
            per[name] = (host.get(name, 0.0), "s", "traced repeat")
        observer_s = host.get("obs.hash_s", 0.0) + host.get("obs.invariants_s", 0.0)
        per["host.run_self_s"] = (traced["run_s"] - observer_s, "s",
                                  "traced run minus observer time")
        # Both at reference speed: the traced repeat ran at another moment.
        base = statistics.median(scaled_run_s(r) for r in measured)
        overhead = stats.ratio(scaled_run_s(traced) - base, base)
        per["trace.overhead_frac"] = (
            overhead["value"], "ratio",
            f"base measured run time at reference speed = {base:.4f} s")
        for stage in ("issue_to_deliver", "deliver_to_accept",
                      "accept_to_complete"):
            h = {int(k): v for k, v in traced["req"].get(stage, {}).items()}
            n = stats.sample_count(h)
            per[f"req.{stage}_us_p99"] = (
                stats.percentile(h, 0.99) if n else 0, "us",
                f"n={n}, {stats.beyond(n, 0.99) if n else 0} beyond")
    seed_ms = [ms for r in measured for ms in r["per_seed_run_ms"]]
    hist = collections.Counter(seed_ms)
    for q, name in ((0.5, "chaos.run_ms_p50"), (0.99, "chaos.run_ms_p99")):
        per[name] = (stats.percentile(hist, q) if seed_ms else 0, "ms",
                     f"n={len(seed_ms)}, "
                     f"{stats.beyond(len(seed_ms), q) if seed_ms else 0} beyond")
    return checks, e2e, per


def run_workload(binary, bdir, workload, seed, seconds, trace):
    tag = f"{workload}-seed{seed}-trace{trace}"
    out = os.path.join(bdir, f"raw-{tag}.json")
    spans = os.path.join(bdir, f"spans-{tag}.jsonl")
    run_perfbench(binary, ["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--out", out, "--spans", spans])
    with open(out) as f:
        raw = json.load(f)
    checks, e2e, per = summarize(raw, bdir, binary)
    return raw, checks, e2e, per


def print_summary(workload, seed, trace, raw, checks, e2e, per, fid):
    reps = raw["repeats"]
    attempted, failed = simulation_runs(raw)
    print(f"== perfbench {workload} seed={seed} trace={trace}: "
          f"{len(reps)} repeats ({', '.join(r['phase'] for r in reps)})")
    print("end to end:")
    for name, _unit in END_TO_END:
        value, unit, note = e2e[name]
        print(f"  {name:28s} {value:>16.6g} {unit:8s} {note}")
    value, unit, note = per["ops_failed_frac"]
    print(f"  {'ops_failed_frac':28s} {value:>16.6g} {unit:8s} {note}")
    print("per layer:")
    for name in sorted(per):
        value, unit, note = per[name]
        print(f"  {name:28s} {value:>16.6g} {unit:8s} {note}")
    print(f"  {'paper_err_pct':28s} {fid[1]:>16.6g} {'pct':8s} "
          "mean |model - paper| / paper over the 72 section 5.5 points")
    print("checks:")
    for name, (ok, detail) in checks.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {name} {detail}")
    first = next((r["first_violation"] for r in reps
                  if r["first_violation"]), "")
    print(f"  {failed} of {attempted} distinct simulations broke a check "
          "(invariants, lookahead, one terminal state per op)"
          + (f"; first: {first}" if first else ""))


def simulation_runs(raw):
    """(attempted, failed): the distinct simulations of the (workload,
    seed), and those that broke a correctness check. Every repeat runs the
    same simulations (repeats_identical checks that they agree), so these
    are counted once, from the warm-up repeat, and do not depend on how
    many repeats the host had time for."""
    ref = raw["repeats"][0]
    return ref["sim_runs"], ref["failed_runs"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 1:
        fail("--seed must be >= 1")

    bdir = build_dir()
    try:
        binary = build(bdir)
        fid = fidelity(binary, bdir)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        correct = fid[0]
        attempted = failed = 0
        metrics = {}
        for w in workloads:
            raw, checks, e2e, per = run_workload(
                binary, bdir, w, args.seed, args.seconds, args.trace)
            a, f = simulation_runs(raw)
            checks["fidelity"] = (fid[0], "; ".join(fid[2][:3]))
            print_summary(w, args.seed, args.trace, raw, checks, e2e, per, fid)
            correct = correct and all(ok for ok, _ in checks.values())
            attempted += a
            failed += f
            chosen = e2e if args.trace == 0 else dict(
                per, paper_err_pct=(fid[1], "pct", ""))
            prefix = f"{w}." if args.workload == "all" else ""
            for name, (value, unit, _note) in chosen.items():
                metrics[prefix + name] = {"value": value, "unit": unit}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        fail(f"{type(e).__name__}: {e}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
