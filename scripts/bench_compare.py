#!/usr/bin/env python3
"""Compares two sets of BENCH_*.json files and reports metric deltas.

Usage: bench_compare.py BASELINE_DIR CANDIDATE_DIR [--fail-threshold PCT]
                        [--markdown FILE]

Matches files by name (BENCH_fig7_insert.json etc.), pairs rows by their
first cell (the row label), and diffs every numeric cell. Prints a per-bench
table of % change. With --fail-threshold, exits non-zero if any time-like
metric (a column whose name contains "us", "ms", or "sec") regresses by more
than PCT percent; other columns are report-only. Without --fail-threshold
the script always exits 0 (report-only mode). --markdown additionally
writes the comparison as a GitHub-flavored table, which CI appends to the
job's step summary; candidate rows carrying the sharded-execution scaling
columns ("threads", "speedup vs 1 thread") are rendered as their own
scaling table there, and each candidate bench's ASH window contributes a
"top wait class per bench" table (DB-time samples, cpu share, dominant
non-CPU wait class). Candidate benches carrying the "log" section are
summarized in a structured-log volume table (records / drops / incidents).
"""

import argparse
import json
import os
import sys


def load_dir(path):
    benches = {}
    try:
        names = sorted(os.listdir(path))
    except OSError as e:
        print(f"bench_compare: cannot list {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for name in names:
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        full = os.path.join(path, name)
        try:
            with open(full, encoding="utf-8") as f:
                benches[name] = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_compare: skipping {full}: {e}", file=sys.stderr)
    return benches


def row_key(row):
    # The harness emits rows as ordered objects; the first cell is the row
    # label (mode / query name). Fall back to the whole row repr.
    for value in row.values():
        return str(value)
    return repr(row)


def numeric_cells(row):
    out = {}
    for key, value in row.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def is_time_metric(column):
    lowered = column.lower()
    return any(tok in lowered for tok in ("us", "ms", "sec"))


def compare(name, base, cand, threshold, table):
    regressions = []
    base_rows = {row_key(r): r for r in base.get("rows", [])}
    lines = []
    for row in cand.get("rows", []):
        key = row_key(row)
        if key not in base_rows:
            lines.append(f"  {key}: new row (no baseline)")
            continue
        base_cells = numeric_cells(base_rows[key])
        for col, value in sorted(numeric_cells(row).items()):
            if col not in base_cells:
                continue
            old = base_cells[col]
            if old == 0.0:
                if value != 0.0:
                    lines.append(f"  {key}.{col}: {old:g} -> {value:g}")
                    table.append((name, f"{key}.{col}", old, value, None, ""))
                continue
            pct = (value - old) / old * 100.0
            marker = ""
            if (threshold is not None and is_time_metric(col)
                    and pct > threshold):
                marker = "  <-- REGRESSION"
                regressions.append(f"{name} {key}.{col} +{pct:.1f}%")
            if abs(pct) >= 0.05 or marker:
                lines.append(f"  {key}.{col}: {old:g} -> {value:g} "
                             f"({pct:+.1f}%){marker}")
                table.append((name, f"{key}.{col}", old, value, pct,
                              "regression" if marker else ""))
    missing = set(base_rows) - {row_key(r) for r in cand.get("rows", [])}
    for key in sorted(missing):
        lines.append(f"  {key}: row missing from candidate")
    print(name)
    if lines:
        print("\n".join(lines))
    else:
        print("  no numeric change")
    return regressions


def collect_wait_classes(benches):
    """Per-bench ASH summary from the whole-run "ash" window: DB-time
    samples, CPU share, and the dominant non-CPU wait class."""
    out = []
    for name in sorted(benches):
        window = benches[name].get("ash", {}).get("window")
        if not isinstance(window, dict):
            continue
        db = window.get("db_samples", 0)
        classes = window.get("wait_classes", {})
        cpu = classes.get("cpu", 0)
        waits = {cls: n for cls, n in classes.items() if cls != "cpu"}
        top = max(waits.items(), key=lambda kv: kv[1]) if waits else None
        out.append((name, db, cpu, top))
    return out


def write_wait_class_markdown(f, wait_classes):
    f.write("\n### Top wait class per bench (ASH)\n\n")
    f.write("| bench | DB-time samples | cpu % | top wait class | wait % |\n")
    f.write("|---|---:|---:|---|---:|\n")
    for name, db, cpu, top in wait_classes:
        if db == 0:
            f.write(f"| {name} | 0 | n/a | (no samples) | n/a |\n")
            continue
        cpu_pct = f"{100.0 * cpu / db:.1f}%"
        if top is None:
            f.write(f"| {name} | {db} | {cpu_pct} | (none) | n/a |\n")
        else:
            cls, n = top
            f.write(f"| {name} | {db} | {cpu_pct} | {cls} "
                    f"| {100.0 * n / db:.1f}% |\n")


SPEEDUP_COL = "speedup vs 1 thread"


def collect_scaling(benches):
    """Rows carrying the morsel-parallel scaling columns (shards, threads,
    speedup vs 1 thread) from the sharded-execution ablation."""
    out = []
    for name in sorted(benches):
        for row in benches[name].get("rows", []):
            cells = numeric_cells(row)
            if SPEEDUP_COL in cells and "threads" in cells:
                out.append((name, cells.get("shards"), cells["threads"],
                            cells.get("ms"), cells[SPEEDUP_COL]))
    return out


def write_scaling_markdown(f, scaling):
    f.write("\n### Morsel-parallel scaling (speedup vs 1 thread)\n\n")
    f.write("| bench | shards | threads | ms | speedup |\n")
    f.write("|---|---:|---:|---:|---:|\n")
    for name, shards, threads, ms, speedup in scaling:
        shards_s = f"{shards:g}" if shards is not None else "?"
        ms_s = f"{ms:g}" if ms is not None else "?"
        f.write(f"| {name} | {shards_s} | {threads:g} | {ms_s} "
                f"| {speedup:g}x |\n")


def collect_wal(base, cand):
    """Durable-ingest throughput per fsync policy plus recovery time from
    the "wal" section bench_wal_durability attaches. Rows pair the
    candidate numbers with the baseline's (when the baseline ran the
    bench) so fsync-path regressions show up next to the policy name."""
    ingest = []
    recovery = None
    for name in sorted(cand):
        wal = cand[name].get("wal")
        if not isinstance(wal, dict):
            continue
        base_wal = base.get(name, {}).get("wal", {})
        base_by_policy = {e.get("policy"): e
                          for e in base_wal.get("ingest", [])
                          if isinstance(e, dict)}
        for entry in wal.get("ingest", []):
            if not isinstance(entry, dict):
                continue
            old = base_by_policy.get(entry.get("policy"), {})
            ingest.append((name, entry.get("policy", "?"),
                           old.get("docs_per_sec"),
                           entry.get("docs_per_sec"),
                           entry.get("fsyncs")))
        rec = wal.get("recovery")
        if isinstance(rec, dict):
            recovery = (name, base_wal.get("recovery", {}).get("ms"),
                        rec.get("ms"), rec.get("lsns_replayed"),
                        rec.get("docs"))
    if not ingest and recovery is None:
        return None
    return ingest, recovery


def write_wal_markdown(f, wal):
    ingest, recovery = wal
    f.write("\n### WAL durable ingest (docs/sec per fsync policy)\n\n")
    f.write("| bench | policy | baseline | candidate | delta | fsyncs |\n")
    f.write("|---|---|---:|---:|---:|---:|\n")
    for name, policy, old, new, fsyncs in ingest:
        old_s = f"{old:g}" if old is not None else "n/a"
        new_s = f"{new:g}" if new is not None else "?"
        if old and new:
            delta = f"{100.0 * (new - old) / old:+.1f}%"
        else:
            delta = "n/a"
        fsyncs_s = f"{fsyncs:d}" if fsyncs is not None else "?"
        f.write(f"| {name} | {policy} | {old_s} | {new_s} | {delta} "
                f"| {fsyncs_s} |\n")
    if recovery is not None:
        name, old_ms, new_ms, lsns, docs = recovery
        old_s = f"{old_ms:g} ms" if old_ms is not None else "n/a"
        f.write(f"\nRecovery ({name}): {new_ms:g} ms to replay "
                f"{lsns} LSNs into {docs} docs "
                f"(baseline {old_s}).\n")


def collect_memory(base, cand):
    """Per-bench memory footprint deltas from the "memory" section
    (ISSUE 9): tracker total and peak, paired with the baseline's when the
    baseline ran the bench. Report-only — memory is workload-sized, not a
    pass/fail latency."""
    out = []
    for name in sorted(cand):
        mem = cand[name].get("memory")
        if not isinstance(mem, dict):
            continue
        base_mem = base.get(name, {}).get("memory", {})
        out.append((name, base_mem.get("total_bytes"),
                    mem.get("total_bytes"), base_mem.get("peak_bytes"),
                    mem.get("peak_bytes")))
    return out


def write_memory_markdown(f, memory):
    f.write("\n### Memory footprint (tracker total / peak)\n\n")
    f.write("| bench | baseline total | candidate total | delta "
            "| baseline peak | candidate peak |\n")
    f.write("|---|---:|---:|---:|---:|---:|\n")
    for name, old_total, new_total, old_peak, new_peak in memory:
        def fmt(v):
            return f"{v:,}" if isinstance(v, int) else "n/a"
        if isinstance(old_total, int) and old_total > 0 \
                and isinstance(new_total, int):
            delta = f"{100.0 * (new_total - old_total) / old_total:+.1f}%"
        else:
            delta = "n/a"
        f.write(f"| {name} | {fmt(old_total)} | {fmt(new_total)} | {delta} "
                f"| {fmt(old_peak)} | {fmt(new_peak)} |\n")


def collect_log(base, cand):
    """Per-bench structured-log volume from the "log" section (ISSUE 10):
    records emitted, records dropped (ring overwrite), and incidents
    raised, paired with the baseline's when the baseline ran the bench.
    Report-only — but a jump in log volume or a non-zero incident count
    on a clean bench run is the first thing to look at when a time-like
    metric regresses."""
    out = []
    for name in sorted(cand):
        log = cand[name].get("log")
        if not isinstance(log, dict):
            continue
        base_log = base.get(name, {}).get("log", {})
        out.append((name,
                    base_log.get("fsdm_log_records_total"),
                    log.get("fsdm_log_records_total"),
                    log.get("fsdm_log_dropped_total"),
                    log.get("fsdm_incidents_total")))
    return out


def write_log_markdown(f, log):
    f.write("\n### Structured-log volume (records / drops / incidents)\n\n")
    f.write("| bench | baseline records | candidate records | dropped "
            "| incidents |\n")
    f.write("|---|---:|---:|---:|---:|\n")
    for name, old_records, records, dropped, incidents in log:
        def fmt(v):
            return f"{v:,}" if isinstance(v, int) else "n/a"
        mark = " :warning:" if isinstance(incidents, int) and incidents \
            else ""
        f.write(f"| {name} | {fmt(old_records)} | {fmt(records)} "
                f"| {fmt(dropped)} | {fmt(incidents)}{mark} |\n")


def write_markdown(path, table, threshold, scaling=None, wait_classes=None,
                   wal=None, memory=None, log=None, unbaselined=()):
    with open(path, "w", encoding="utf-8") as f:
        f.write("### Bench comparison vs baseline\n\n")
        if unbaselined:
            f.write("No baseline (not compared): " +
                    ", ".join(unbaselined) + "\n\n")
        if not table:
            f.write("No numeric change against the baseline.\n")
        else:
            f.write("| bench | metric | baseline | candidate | delta | |\n")
            f.write("|---|---|---:|---:|---:|---|\n")
            for name, metric, old, new, pct, flag in table:
                delta = f"{pct:+.1f}%" if pct is not None else "n/a"
                mark = ":warning:" if flag else ""
                f.write(f"| {name} | {metric} | {old:g} | {new:g} "
                        f"| {delta} | {mark} |\n")
            if threshold is not None:
                f.write(f"\nFail threshold: +{threshold:g}% on time-like "
                        f"metrics.\n")
        if scaling:
            write_scaling_markdown(f, scaling)
        if wal:
            write_wal_markdown(f, wal)
        if memory:
            write_memory_markdown(f, memory)
        if log:
            write_log_markdown(f, log)
        if wait_classes:
            write_wait_class_markdown(f, wait_classes)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline_dir")
    ap.add_argument("candidate_dir")
    ap.add_argument("--fail-threshold", "--threshold", dest="fail_threshold",
                    type=float, default=None,
                    help="fail if a time-like metric regresses by more "
                         "than this percent")
    ap.add_argument("--markdown", default=None, metavar="FILE",
                    help="also write the comparison as a GitHub-flavored "
                         "markdown table (for step summaries)")
    args = ap.parse_args()

    base = load_dir(args.baseline_dir)
    cand = load_dir(args.candidate_dir)
    if not base:
        print(f"bench_compare: no BENCH_*.json in {args.baseline_dir}",
              file=sys.stderr)
        sys.exit(2)
    if not cand:
        print(f"bench_compare: no BENCH_*.json in {args.candidate_dir}",
              file=sys.stderr)
        sys.exit(2)

    regressions = []
    table = []
    unbaselined = []
    for name in sorted(set(base) | set(cand)):
        if name not in cand:
            print(f"{name}\n  missing from candidate")
            continue
        if name not in base:
            # A smoke bench with no committed baseline is reported, never
            # compared or failed.
            print(f"{name}\n  new bench (no baseline)")
            unbaselined.append(name)
            continue
        regressions += compare(name, base[name], cand[name],
                               args.fail_threshold, table)

    if args.markdown:
        write_markdown(args.markdown, table, args.fail_threshold,
                       scaling=collect_scaling(cand),
                       wait_classes=collect_wait_classes(cand),
                       wal=collect_wal(base, cand),
                       memory=collect_memory(base, cand),
                       log=collect_log(base, cand),
                       unbaselined=unbaselined)

    if regressions:
        print(f"\n{len(regressions)} regression(s) above "
              f"{args.fail_threshold:g}%:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
