#!/usr/bin/env python3
"""Validates BENCH_*.json files emitted by the bench harness.

Usage: check_bench_json.py BENCH_a.json [BENCH_b.json ...]

Each file must parse as JSON and carry the harness schema:
  {"bench": str, "docs": int, "rows": [obj, ...], "metrics":
   {"counters": {...}, "gauges": {...}, "histograms": {...}},
   "ash": {"sampler_hz": num, "ticks": int, "db_samples_total": int,
           "window": {"db_samples": ..., "wait_classes": ..., ...}},
   "workload_snapshots": [{"id": ..., "ash": ..., "counters": ...,
                           "histograms": {name: {"count", "sum"}}}, ...]}
with at least one row and at least one fsdm_-prefixed counter (proof the
instrumented engine actually ran). Histogram dumps must carry "sum" and
"mean" so mean latency is derivable from any exposure. The "ash" and
"workload_snapshots" sections must be present (zeroed when the sampler is
off) with the shapes scripts/ash_report.py consumes, and so must the
"memory" and "log" sections (fig7's memory peak must be nonzero, no
peak below its bytes, the subsystem split summing to the total), and
"counter_rates_per_sec" with a positive rate for every nonzero counter.
Exits non-zero on the first violation.
"""

import json
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    sys.exit(1)


def check(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"not valid JSON: {e}")

    for key, want in (("bench", str), ("docs", int), ("rows", list),
                      ("metrics", dict)):
        if key not in doc:
            fail(path, f"missing key '{key}'")
        if not isinstance(doc[key], want):
            fail(path, f"'{key}' is {type(doc[key]).__name__}, "
                       f"expected {want.__name__}")
    if not doc["bench"]:
        fail(path, "'bench' is empty")
    if not doc["rows"]:
        fail(path, "'rows' is empty — the bench recorded nothing")
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict) or not row:
            fail(path, f"rows[{i}] is not a non-empty object")

    metrics = doc["metrics"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(path, f"metrics.{section} missing or not an object")
    if not any(name.startswith("fsdm_") for name in metrics["counters"]):
        fail(path, "no fsdm_-prefixed counter in the metrics snapshot")
    for name, hist in metrics["histograms"].items():
        for key in ("count", "sum", "mean"):
            if not isinstance(hist.get(key), (int, float)):
                fail(path, f"metrics.histograms.{name} missing numeric "
                           f"'{key}'")

    check_counter_rates(path, doc)
    check_ash(path, doc)
    check_wal(path, doc)
    check_memory(path, doc)
    check_log(path, doc)
    snaps = doc.get("workload_snapshots")
    if not isinstance(snaps, list):
        fail(path, "missing 'workload_snapshots' array")
    last_id = 0
    for i, snap in enumerate(snaps):
        where = f"workload_snapshots[{i}]"
        if not isinstance(snap, dict):
            fail(path, f"{where} is not an object")
        for key, want in (("id", int), ("ts_us", int), ("label", str),
                          ("sampler_ticks", int), ("counters", dict),
                          ("histograms", dict)):
            if not isinstance(snap.get(key), want):
                fail(path, f"{where} missing or mistyped '{key}'")
        if snap["id"] <= last_id:
            fail(path, f"{where} ids not strictly increasing")
        last_id = snap["id"]
        check_ash_window(path, where, snap.get("ash"))
        for name, hist in snap["histograms"].items():
            if not isinstance(hist.get("count"), int) \
                    or not isinstance(hist.get("sum"), (int, float)):
                fail(path, f"{where}.histograms.{name} needs (count, sum)")

    ash = doc["ash"]
    print(f"{path}: ok ({len(doc['rows'])} rows, "
          f"{len(metrics['counters'])} counters, "
          f"{len(snaps)} snapshots, "
          f"{ash['window'].get('db_samples', 0)} ash samples)")


def check_counter_rates(path, doc):
    """"counter_rates_per_sec": each counter's whole-run rate, its total at
    the "bench-end" snapshot over the time since BenchJson::Init().
    Required on every bench. A counter with a nonzero total must have a
    positive rate: a zero there means the rate was taken over a window
    that missed the work (the bug of rating between two row ticks printed
    microseconds apart)."""
    rates = doc.get("counter_rates_per_sec")
    if not isinstance(rates, dict):
        fail(path, "missing 'counter_rates_per_sec' object")
    for name, total in doc["metrics"]["counters"].items():
        rate = rates.get(name)
        if total > 0 and not (isinstance(rate, (int, float)) and rate > 0):
            fail(path, f"counter_rates_per_sec.{name} is {rate!r} but the "
                       f"counter's total is {total}")


WAIT_CLASSES = {"idle", "cpu", "scheduler", "concurrency", "fault", "io"}


def check_ash_window(path, where, window):
    """One AshAggregateJson object: the bench window or a snapshot's."""
    if not isinstance(window, dict):
        fail(path, f"{where} missing ash aggregate object")
    if not isinstance(window.get("db_samples"), int):
        fail(path, f"{where}.db_samples missing or not an int")
    classes = window.get("wait_classes")
    if not isinstance(classes, dict):
        fail(path, f"{where}.wait_classes missing or not an object")
    unknown = set(classes) - WAIT_CLASSES
    if unknown:
        fail(path, f"{where}.wait_classes has unknown classes {unknown}")
    model = window.get("time_model")
    if not isinstance(model, list):
        fail(path, f"{where}.time_model missing or not an array")
    model_total = 0
    for j, cell in enumerate(model):
        for key in ("collection", "state", "class"):
            if not isinstance(cell.get(key), str):
                fail(path, f"{where}.time_model[{j}] missing '{key}'")
        if not isinstance(cell.get("samples"), int):
            fail(path, f"{where}.time_model[{j}] missing 'samples'")
        if not isinstance(cell.get("pct"), (int, float)):
            fail(path, f"{where}.time_model[{j}] missing 'pct'")
        model_total += cell["samples"]
    if model_total != window["db_samples"]:
        fail(path, f"{where}.time_model sums to {model_total}, "
                   f"db_samples says {window['db_samples']}")
    if sum(classes.values()) != window["db_samples"]:
        fail(path, f"{where}.wait_classes sums to {sum(classes.values())}, "
                   f"db_samples says {window['db_samples']}")
    if not isinstance(window.get("top_queries"), list):
        fail(path, f"{where}.top_queries missing or not an array")
    if not isinstance(window.get("shard_samples"), dict):
        fail(path, f"{where}.shard_samples missing or not an object")


def check_ash(path, doc):
    ash = doc.get("ash")
    if not isinstance(ash, dict):
        fail(path, "missing 'ash' section")
    if not isinstance(ash.get("sampler_hz"), (int, float)):
        fail(path, "ash.sampler_hz missing or not a number")
    for key in ("ticks", "db_samples_total"):
        if not isinstance(ash.get(key), int):
            fail(path, f"ash.{key} missing or not an int")
    check_ash_window(path, "ash.window", ash.get("window"))


def check_wal(path, doc):
    """The "wal" section bench_wal_durability attaches: durable-ingest
    throughput per fsync policy plus recovery time. Optional — only the
    WAL bench emits it — but when present the shape is enforced."""
    wal = doc.get("wal")
    if wal is None:
        return
    if not isinstance(wal, dict):
        fail(path, "'wal' is not an object")
    ingest = wal.get("ingest")
    if not isinstance(ingest, list) or not ingest:
        fail(path, "wal.ingest missing or empty")
    policies = set()
    for i, entry in enumerate(ingest):
        where = f"wal.ingest[{i}]"
        if not isinstance(entry, dict):
            fail(path, f"{where} is not an object")
        if not isinstance(entry.get("policy"), str):
            fail(path, f"{where} missing 'policy'")
        for key in ("docs_per_sec", "ingest_ms"):
            if not isinstance(entry.get(key), (int, float)) \
                    or entry[key] <= 0:
                fail(path, f"{where} missing positive '{key}'")
        if not isinstance(entry.get("fsyncs"), int):
            fail(path, f"{where} missing int 'fsyncs'")
        policies.add(entry["policy"])
    missing = {"off", "group", "always"} - policies
    if missing:
        fail(path, f"wal.ingest missing policies {missing}")
    recovery = wal.get("recovery")
    if not isinstance(recovery, dict):
        fail(path, "wal.recovery missing or not an object")
    if not isinstance(recovery.get("ms"), (int, float)):
        fail(path, "wal.recovery.ms missing or not a number")
    for key in ("lsns_replayed", "docs"):
        if not isinstance(recovery.get(key), int) or recovery[key] <= 0:
            fail(path, f"wal.recovery.{key} missing or not positive — "
                       f"the recovery leg replayed nothing")


MEM_SUBSYSTEMS = {"table-heap", "oson-vc", "index-postings", "dataguide",
                  "imc", "path-stats", "wal-buffers", "plan-working-set"}


def check_memory(path, doc):
    """The "memory" section (ISSUE 9): tracker totals plus the
    per-subsystem split. Required on every bench — the harness always
    emits it. Peaks are true high-water marks, so none is below its
    current bytes, and the split sums to the total exactly."""
    mem = doc.get("memory")
    if not isinstance(mem, dict):
        fail(path, "missing 'memory' section")
    for key in ("total_bytes", "peak_bytes"):
        if not isinstance(mem.get(key), int) or mem[key] < 0:
            fail(path, f"memory.{key} missing or not a non-negative int")
    subs = mem.get("subsystems")
    if not isinstance(subs, dict):
        fail(path, "memory.subsystems missing or not an object")
    if set(subs) != MEM_SUBSYSTEMS:
        fail(path, f"memory.subsystems keys {sorted(subs)} != expected "
                   f"{sorted(MEM_SUBSYSTEMS)}")
    for name, entry in subs.items():
        for key in ("bytes", "peak_bytes"):
            if not isinstance(entry.get(key), int) or entry[key] < 0:
                fail(path, f"memory.subsystems.{name}.{key} missing or "
                           f"not a non-negative int")
        if entry["peak_bytes"] < entry["bytes"]:
            fail(path, f"memory.subsystems.{name}.peak_bytes "
                       f"{entry['peak_bytes']} is below its bytes "
                       f"{entry['bytes']}")
    if mem["peak_bytes"] < mem["total_bytes"]:
        fail(path, f"memory.peak_bytes {mem['peak_bytes']} is below "
                   f"total_bytes {mem['total_bytes']}")
    # Every push moves one subsystem and the total by the same delta, so
    # at rest the split adds up to the total exactly.
    split = sum(entry["bytes"] for entry in subs.values())
    if split != mem["total_bytes"]:
        fail(path, f"memory.subsystems sum to {split} bytes, total_bytes "
                   f"says {mem['total_bytes']}")
    # fig7 sets accounts for its table heap and DataGuide, so its peak
    # cannot be zero.
    if path.endswith("BENCH_fig7_insert.json") and mem["peak_bytes"] <= 0:
        fail(path, "memory.peak_bytes is 0: fig7 set no memory account")


LOG_COUNTERS = ("fsdm_log_records_total", "fsdm_log_dropped_total",
                "fsdm_incidents_total")


def check_log(path, doc):
    """The "log" section (ISSUE 10): structured-log and incident volume
    for the run. Required on every bench — the harness always emits it."""
    log = doc.get("log")
    if not isinstance(log, dict):
        fail(path, "missing 'log' section")
    for key in LOG_COUNTERS:
        if not isinstance(log.get(key), int) or log[key] < 0:
            fail(path, f"log.{key} missing or not a non-negative int")


def main():
    if len(sys.argv) < 2:
        fail("check_bench_json.py", "no files given")
    for path in sys.argv[1:]:
        check(path)


if __name__ == "__main__":
    main()
