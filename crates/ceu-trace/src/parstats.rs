//! `ceu-par-stats/v1|v2` analysis: the reader side of the parallel-scheduler
//! introspection emitted by `wsn_sim::write_par_stats_jsonl`.
//!
//! The input is one `kind:"run"` header line, (v2) one `kind:"shard"`
//! summary line per shard, plus one `kind:"window"` line per recorded
//! window. [`par_report`] turns that into the terminal instrument panel
//! (utilization, exact stall attribution, per-worker and per-shard load
//! tables, shard-imbalance call-out, achievable-speedup bound) and
//! [`par_stats_perfetto_events`] turns it into Chrome-trace events — a
//! `scheduler` process with one track per worker thread, one track per
//! shard (v2), and the simulation thread's drain/merge track, with flow
//! arrows for the cross-window sends — that `to-perfetto --par-stats`
//! merges alongside the virtual-time mote tracks.
//!
//! The stream parses straight into the writer's own types
//! ([`wsn_sim::ParStats`] and its parts), so the schema is declared once,
//! in `wsn_sim::parstats`, and the report's coverage, dominant stall,
//! utilization and speedup come from the same methods the bench binaries
//! print. v1 streams (no shard records, no `shard_busy`) parse unchanged;
//! the shard table and shard tracks simply stay empty.

use serde_json::Value;
use std::fmt::Write as _;
use wsn_sim::parstats::{
    Attribution, ParShardStats, ParStats, ParTotals, ParWindowStats, DEFAULT_WINDOW_CAP,
};

/// `key` as an unsigned integer; a missing or non-integer value reads as 0.
fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// A `u32` field's value: past `u32::MAX` it is refused, not cut.
fn narrow(n: u64, key: &str, line_no: usize) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("line {line_no}: {key} out of range"))
}

/// [`num`] for a `u32` field (see [`narrow`]).
fn num32(v: &Value, key: &str, line_no: usize) -> Result<u32, String> {
    narrow(num(v, key), key, line_no)
}

fn flag(v: &Value, key: &str) -> bool {
    v.get(key).and_then(Value::as_bool).unwrap_or(false)
}

/// The elements of the array `key` (none when missing).
fn items<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).map_or(&[], Vec::as_slice)
}

/// Parses a `ceu-par-stats/v1` or `/v2` JSONL stream into the writer's own
/// [`ParStats`]. The stream may carry several runs (e.g. one per thread
/// count); each run's shard summaries and windows follow its header. The
/// derived fields (`window_wall_ns`, a window's `wall_ns`) are recomputed
/// by the [`ParStats`] methods, not read.
pub fn parse_par_stats(text: &str) -> Result<Vec<ParStats>, String> {
    let mut runs: Vec<ParStats> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {line_no}: {e}"))?;
        let schema = v.get("schema").and_then(|s| s.as_str());
        if !matches!(schema, Some("ceu-par-stats/v1") | Some("ceu-par-stats/v2")) {
            return Err(format!(
                "line {line_no}: not a ceu-par-stats/v1|v2 record (schema={schema:?})"
            ));
        }
        let n = |key| num(&v, key);
        let n32 = |key| num32(&v, key, line_no);
        match v.get("kind").and_then(|k| k.as_str()) {
            Some("run") => {
                let mut s = ParStats::new(DEFAULT_WINDOW_CAP);
                s.threads = n32("threads")?;
                s.lookahead_us = n("lookahead_us");
                s.motes = n32("motes")?;
                s.shards = n32("shards")?;
                s.fallback = flag(&v, "fallback");
                s.wall_ns = n("wall_ns");
                s.dropped_windows = n("dropped_windows");
                s.totals = ParTotals {
                    windows: n("windows"),
                    events: n("events"),
                    motes_stepped: n("motes_stepped"),
                    cross_sends: n("cross_sends"),
                    heap_pushes: n("heap_pushes"),
                    heap_pops: n("heap_pops"),
                    drain_ns: n("drain_wall_ns"),
                    par_ns: n("par_wall_ns"),
                    merge_ns: n("merge_wall_ns"),
                    critical_busy_ns: n("critical_busy_ns"),
                    attribution: Attribution {
                        busy_ns: n("busy_ns"),
                        imbalance_ns: n("imbalance_ns"),
                        lookahead_ns: n("lookahead_ns"),
                        barrier_ns: n("barrier_ns"),
                        merge_ns: n("merge_ns"),
                    },
                };
                runs.push(s);
            }
            Some("shard") => {
                let row = ParShardStats {
                    shard: n32("shard")?,
                    motes: n32("motes")?,
                    windows: n("windows"),
                    events: n("events"),
                    busy_ns: n("busy_ns"),
                    cross_sends: n("cross_sends"),
                    channel_wait_ns: n("channel_wait_ns"),
                };
                let run = runs
                    .last_mut()
                    .ok_or_else(|| format!("line {line_no}: shard before any run header"))?;
                run.per_shard.push(row);
            }
            Some("window") => {
                let u64s =
                    |key| -> Vec<u64> { items(&v, key).iter().filter_map(Value::as_u64).collect() };
                let motes_per_worker = u64s("motes_per_worker")
                    .into_iter()
                    .map(|m| narrow(m, "motes_per_worker", line_no))
                    .collect::<Result<_, _>>()?;
                let send_sample = items(&v, "sends")
                    .iter()
                    .map(|s| {
                        let from = num32(s, "from", line_no)?;
                        Ok((num(s, "at_us"), from, num32(s, "to", line_no)?))
                    })
                    .collect::<Result<_, String>>()?;
                let shard_busy = items(&v, "shard_busy")
                    .iter()
                    .map(|s| {
                        let shard = num32(s, "shard", line_no)?;
                        let worker = num32(s, "worker", line_no)?;
                        Ok((shard, worker, num(s, "busy_ns"), num(s, "events")))
                    })
                    .collect::<Result<_, String>>()?;
                let w = ParWindowStats {
                    index: n("i"),
                    t_wall_ns: n("t_wall_ns"),
                    start_us: n("start_us"),
                    end_us: n("end_us"),
                    lookahead_us: n("lookahead_us"),
                    clipped: flag(&v, "clipped"),
                    threads: n32("threads")?,
                    workers: n32("workers")?,
                    motes: n32("motes")?,
                    events: n("events"),
                    busy_ns: u64s("busy_ns"),
                    events_per_worker: u64s("events_per_worker"),
                    motes_per_worker,
                    drain_ns: n("drain_ns"),
                    par_ns: n("par_ns"),
                    merge_ns: n("merge_ns"),
                    heap_pushes: n("heap_pushes"),
                    heap_pops: n("heap_pops"),
                    cross_sends: n("cross_sends"),
                    send_sample,
                    shard_busy,
                };
                let run = runs
                    .last_mut()
                    .ok_or_else(|| format!("line {line_no}: window before any run header"))?;
                run.windows.push(w);
            }
            other => return Err(format!("line {line_no}: unknown kind {other:?}")),
        }
    }
    if runs.is_empty() {
        return Err("no ceu-par-stats run records in input".into());
    }
    Ok(runs)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn bar(frac: f64, width: usize) -> String {
    let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = "#".repeat(n);
    s.push_str(&" ".repeat(width - n.min(width)));
    s
}

/// `par-report` — renders one run's instrument panel. The stall table is
/// in *thread-time*: capacity = `threads × wall_ns`, and the five
/// categories (busy + four stall causes) partition the windowed part of
/// it exactly; `coverage` says how much of the measured wall-clock the
/// windows account for (the rest is inter-window bookkeeping such as
/// fault barriers). When the detailed-window cap truncated collection,
/// the coverage line says so explicitly — run totals stay exact either
/// way, but the per-worker histogram only spans the retained windows.
pub fn render_par_run(s: &ParStats) -> String {
    let t = &s.totals;
    let a = &t.attribution;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ceu-par-stats: {} motes, {} threads, {} shards, lookahead {}µs{}",
        s.motes,
        s.threads,
        s.shards,
        s.lookahead_us,
        if s.fallback { " (sequential fallback)" } else { "" },
    );
    let _ = writeln!(
        out,
        "run wall-clock {}; {} windows ({} dropped past cap), {} events, \
         {} cross-window sends, heap {}push/{}pop",
        fmt_ns(s.wall_ns),
        t.windows,
        s.dropped_windows,
        t.events,
        t.cross_sends,
        t.heap_pushes,
        t.heap_pops,
    );

    let capacity = u64::from(s.threads).saturating_mul(s.wall_ns);
    let pct = |ns: u64| if capacity == 0 { 0.0 } else { 100.0 * ns as f64 / capacity as f64 };
    let attributed = a.total_ns();
    let coverage = pct(attributed);

    let _ = writeln!(
        out,
        "\nstall attribution (thread-time capacity {} = {} threads x {}):",
        fmt_ns(capacity),
        s.threads,
        fmt_ns(s.wall_ns)
    );
    let rows = [
        ("busy (stepping motes)", a.busy_ns),
        ("imbalance-bound", a.imbalance_ns),
        ("lookahead-bound", a.lookahead_ns),
        ("barrier-bound", a.barrier_ns),
        ("merge-bound", a.merge_ns),
    ];
    for (label, ns) in rows {
        let p = pct(ns);
        let _ =
            writeln!(out, "  {label:<22} {:>10}  {p:>5.1}%  |{}|", fmt_ns(ns), bar(p / 100.0, 20));
    }
    let _ = writeln!(
        out,
        "  {:<22} {:>10}  {:>5.1}%  (inter-window bookkeeping)",
        "uncovered",
        fmt_ns(capacity.saturating_sub(attributed)),
        100.0 - coverage,
    );
    let _ = write!(out, "coverage: {coverage:.1}% of measured wall-clock attributed");
    if s.dropped_windows > 0 {
        let _ = writeln!(
            out,
            " — detailed-window cap hit: {} of {} windows kept no per-window \
             detail (run totals stay exact; the tables below span only the {} \
             retained windows)",
            s.dropped_windows,
            t.windows,
            t.windows.saturating_sub(s.dropped_windows),
        );
    } else {
        out.push('\n');
    }

    let (stall, stall_ns) = a.dominant_stall();
    if s.fallback || stall_ns == 0 {
        let _ = writeln!(out, "dominant stall: none (no parallel windows recorded)");
    } else {
        let _ = writeln!(out, "dominant stall: {stall} ({:.1}% of capacity)", pct(stall_ns));
    }

    // per-shard load table + imbalance call-out (v2 streams)
    if let Some(heaviest) = s.per_shard.iter().max_by_key(|r| r.busy_ns) {
        let total_busy = s.per_shard.iter().fold(0, |sum: u64, r| sum.saturating_add(r.busy_ns));
        let _ = writeln!(out, "\nper-shard load ({} shards):", s.per_shard.len());
        for r in &s.per_shard {
            let share = if total_busy == 0 { 0.0 } else { r.busy_ns as f64 / total_busy as f64 };
            let _ = writeln!(
                out,
                "  s{:<3} |{}| {:>10} busy ({:>4.1}%), {} motes, {} windows, \
                 {} events, {} cross-sends, ch-wait {}",
                r.shard,
                bar(share, 20),
                fmt_ns(r.busy_ns),
                100.0 * share,
                r.motes,
                r.windows,
                r.events,
                r.cross_sends,
                fmt_ns(r.channel_wait_ns),
            );
        }
        let mean = total_busy as f64 / s.per_shard.len() as f64;
        let ratio = if mean == 0.0 { 1.0 } else { heaviest.busy_ns as f64 / mean };
        let _ = writeln!(
            out,
            "shard imbalance: max/mean busy {ratio:.2}x (shard {} heaviest){}",
            heaviest.shard,
            if ratio > 1.5 {
                " — skewed partition; consider more target shards or a different topology split"
            } else {
                ""
            },
        );
    }

    // per-worker load histogram, aggregated over the detailed windows
    let max_workers = s.windows.iter().map(|w| w.busy_ns.len()).max().unwrap_or(0);
    if max_workers > 0 {
        let mut busy = vec![0u64; max_workers];
        let mut events = vec![0u64; max_workers];
        for w in &s.windows {
            for (sum, b) in busy.iter_mut().zip(&w.busy_ns) {
                *sum = sum.saturating_add(*b);
            }
            for (sum, e) in events.iter_mut().zip(&w.events_per_worker) {
                *sum = sum.saturating_add(*e);
            }
        }
        let total_busy = busy.iter().fold(0, |sum: u64, b| sum.saturating_add(*b));
        let _ = writeln!(out, "\nper-worker load ({} detailed windows):", s.windows.len());
        for (i, (b, e)) in busy.iter().zip(&events).enumerate() {
            let share = if total_busy == 0 { 0.0 } else { *b as f64 / total_busy as f64 };
            let _ = writeln!(
                out,
                "  w{i}  |{}| {:>10} busy ({:.1}%), {e} events",
                bar(share, 20),
                fmt_ns(*b),
                100.0 * share,
            );
        }
    }

    let _ = writeln!(out, "\nutilization: {:.1}%", 100.0 * s.utilization());
    let _ = writeln!(
        out,
        "achievable speedup (work/critical-path, this window structure): {:.2}x",
        s.achievable_speedup(),
    );
    out
}

/// `par-report` over a whole `ceu-par-stats/v1|v2` stream (every run).
pub fn par_report(text: &str) -> Result<String, String> {
    let runs = parse_par_stats(text)?;
    let mut out = String::new();
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render_par_run(run));
    }
    Ok(out)
}

/// Synthetic pid for the scheduler process in the merged Perfetto view
/// (mote pids are small integers; this stays clear of them).
const SCHED_PID: u64 = 9_000;

/// Worker tracks are tids `1..=N`; shard tracks start here (a shard's tid
/// is `SHARD_TID_BASE + shard`), well clear of any plausible worker count.
const SHARD_TID_BASE: u64 = 100;

/// Chrome-trace events for the scheduler timeline: tid 0 is the
/// simulation thread (drain + merge slices per window), tids 1..=N are
/// the worker threads (busy + stall slices per window), tids 100+ are one
/// track per shard (v2 streams — each slice is that shard's busy span in
/// a window, serialized after any shard the same worker stepped first),
/// and `s`/`f` flow arrows connect a window's merge to the later window
/// where its sampled cross-window sends land. Timestamps are host
/// wall-clock µs since the run started (the mote tracks are virtual-time
/// — Perfetto shows both; the scheduler process is the wall-clock view).
pub fn par_stats_perfetto_events(text: &str) -> Result<Vec<String>, String> {
    let runs = parse_par_stats(text)?;
    let mut out: Vec<String> = Vec::new();
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{SCHED_PID},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"parallel scheduler\"}}}}"
    ));
    out.push(format!(
        "{{\"ph\":\"M\",\"pid\":{SCHED_PID},\"tid\":0,\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"sim thread (drain+merge)\"}}}}"
    ));
    let ts = |ns: u64| format!("{:.3}", ns as f64 / 1_000.0);
    let mut named_workers = 0usize;
    let mut named_shards: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut flow_id = 500_000u64; // clear of the reaction-flow ids
    for run in &runs {
        for w in &run.windows {
            for tid in named_workers..w.busy_ns.len() {
                out.push(format!(
                    "{{\"ph\":\"M\",\"pid\":{SCHED_PID},\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"worker {tid}\"}}}}",
                    tid + 1,
                ));
            }
            named_workers = named_workers.max(w.busy_ns.len());
            for &(shard, ..) in &w.shard_busy {
                if named_shards.insert(shard) {
                    out.push(format!(
                        "{{\"ph\":\"M\",\"pid\":{SCHED_PID},\"tid\":{},\"name\":\"thread_name\",\
                         \"args\":{{\"name\":\"shard {shard}\"}}}}",
                        SHARD_TID_BASE + u64::from(shard),
                    ));
                }
            }
            let drain_end = w.t_wall_ns.saturating_add(w.drain_ns);
            let par_end = drain_end.saturating_add(w.par_ns);
            out.push(format!(
                "{{\"ph\":\"X\",\"pid\":{SCHED_PID},\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"name\":\"drain w{}\",\"cat\":\"sched\",\
                 \"args\":{{\"events\":{},\"span_us\":\"{}..{}\"}}}}",
                ts(w.t_wall_ns),
                ts(w.drain_ns),
                w.index,
                w.events,
                w.start_us,
                w.end_us,
            ));
            out.push(format!(
                "{{\"ph\":\"X\",\"pid\":{SCHED_PID},\"tid\":0,\"ts\":{},\"dur\":{},\
                 \"name\":\"merge w{}\",\"cat\":\"sched\",\
                 \"args\":{{\"cross_sends\":{}}}}}",
                ts(par_end),
                ts(w.merge_ns),
                w.index,
                w.cross_sends,
            ));
            for (i, busy) in w.busy_ns.iter().enumerate() {
                let tid = i + 1;
                let events = w.events_per_worker.get(i).copied().unwrap_or(0);
                out.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{SCHED_PID},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"window w{} [{}..{})µs\",\"cat\":\"sched\",\
                     \"args\":{{\"events\":{events}}}}}",
                    ts(drain_end),
                    ts(*busy),
                    w.index,
                    w.start_us,
                    w.end_us,
                ));
                let stall = w.par_ns.saturating_sub(*busy);
                if stall > 0 {
                    out.push(format!(
                        "{{\"ph\":\"X\",\"pid\":{SCHED_PID},\"tid\":{tid},\"ts\":{},\
                         \"dur\":{},\"name\":\"stall\",\"cat\":\"sched-stall\"}}",
                        ts(drain_end.saturating_add(*busy)),
                        ts(stall),
                    ));
                }
            }
            // shard tracks: a worker steps its shards back-to-back, so
            // offset each shard slice by what the same worker ran first
            let mut worker_off: std::collections::HashMap<u32, u64> =
                std::collections::HashMap::new();
            for &(shard, worker, busy, events) in &w.shard_busy {
                let off = worker_off.entry(worker).or_insert(0);
                out.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{SCHED_PID},\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":\"shard {shard} w{}\",\"cat\":\"sched-shard\",\
                     \"args\":{{\"events\":{events},\"worker\":{worker}}}}}",
                    SHARD_TID_BASE + u64::from(shard),
                    ts(drain_end.saturating_add(*off)),
                    ts(busy),
                    w.index,
                ));
                *off = off.saturating_add(busy);
            }
            // flow arrows: this window's merge routes each sampled send;
            // it lands in the first later window whose virtual span can
            // contain the arrival (emit + lookahead at the earliest)
            for &(at_us, from, to) in &w.send_sample {
                let arrival_floor = at_us.saturating_add(run.lookahead_us);
                let Some(target) = run
                    .windows
                    .iter()
                    .find(|t| t.t_wall_ns > w.t_wall_ns && t.end_us > arrival_floor)
                else {
                    continue;
                };
                flow_id += 1;
                out.push(format!(
                    "{{\"ph\":\"s\",\"pid\":{SCHED_PID},\"tid\":0,\"ts\":{},\"id\":{flow_id},\
                     \"name\":\"send m{from}->m{to}\",\"cat\":\"sched-flow\"}}",
                    ts(par_end),
                ));
                out.push(format!(
                    "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{SCHED_PID},\"tid\":0,\"ts\":{},\
                     \"id\":{flow_id},\"name\":\"send m{from}->m{to}\",\"cat\":\"sched-flow\"}}",
                    ts(target.t_wall_ns),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = include_str!("../tests/fixtures/v2.jsonl");
    const STATS_V1: &str = include_str!("../tests/fixtures/v1.jsonl");
    const FALLBACK: &str = include_str!("../tests/fixtures/fallback.jsonl");
    const TRUNCATED: &str = include_str!("../tests/fixtures/truncated.jsonl");
    const SKEWED: &str = include_str!("../tests/fixtures/skewed.jsonl");

    #[test]
    fn parses_runs_shards_and_windows() {
        let runs = parse_par_stats(STATS).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.threads, 2);
        assert_eq!(run.shards, 2);
        assert!(!run.fallback);
        assert_eq!(run.per_shard.len(), 2);
        assert_eq!(run.per_shard[0].busy_ns, 4000);
        assert_eq!(run.per_shard[1].channel_wait_ns, 100);
        assert_eq!(run.windows.len(), 2);
        assert_eq!(run.windows[0].busy_ns, vec![2000, 1500]);
        assert_eq!(run.windows[0].motes_per_worker, vec![2, 2]);
        assert_eq!(run.windows[0].send_sample, vec![(1200, 0, 1)]);
        assert_eq!(run.windows[0].shard_busy, vec![(0, 0, 2000, 9), (1, 1, 1500, 7)]);
        // the derived fields are recomputed and agree with the stream
        assert_eq!(run.window_wall_ns(), 9000);
        assert_eq!(run.windows[1].wall_ns(), 4300);
    }

    #[test]
    fn v1_streams_still_parse_without_shard_records() {
        let runs = parse_par_stats(STATS_V1).unwrap();
        let run = &runs[0];
        assert_eq!(run.threads, 2);
        assert_eq!(run.shards, 0);
        assert!(run.per_shard.is_empty());
        assert_eq!(run.windows.len(), 1);
        assert!(run.windows[0].shard_busy.is_empty());
        // and the report renders without a shard table
        let report = par_report(STATS_V1).unwrap();
        assert!(!report.contains("per-shard load"), "{report}");
        assert!(report.contains("dominant stall:"), "{report}");
    }

    #[test]
    fn missing_keys_read_as_zero_or_false() {
        let run = r#"{"schema":"ceu-par-stats/v2","kind":"run"}"#;
        let runs = parse_par_stats(run).unwrap();
        assert_eq!(runs[0], ParStats::new(DEFAULT_WINDOW_CAP));
        let window = format!("{run}\n{}", r#"{"schema":"ceu-par-stats/v2","kind":"window"}"#);
        assert_eq!(parse_par_stats(&window).unwrap()[0].windows, vec![ParWindowStats::default()]);
    }

    #[test]
    fn report_names_the_dominant_stall_and_coverage() {
        let report = par_report(STATS).unwrap();
        assert!(report.contains("utilization: 30.0%"), "{report}");
        assert!(report.contains("dominant stall: merge-bound"), "{report}");
        // attributed 18000 of 20000 capacity
        assert!(report.contains("coverage: 90.0%"), "{report}");
        assert!(report.contains("per-worker load"), "{report}");
        assert!(report.contains("w0"), "{report}");
        assert!(report.contains("achievable speedup"), "{report}");
    }

    #[test]
    fn report_renders_the_shard_table_and_imbalance() {
        let report = par_report(STATS).unwrap();
        assert!(report.contains("per-shard load (2 shards):"), "{report}");
        assert!(report.contains("s0"), "{report}");
        assert!(report.contains("s1"), "{report}");
        // shard 0 busy 4000 of mean 3000 => 1.33x, under the call-out bar
        assert!(
            report.contains("shard imbalance: max/mean busy 1.33x (shard 0 heaviest)"),
            "{report}"
        );
        assert!(!report.contains("skewed partition"), "{report}");
    }

    #[test]
    fn skewed_shards_get_the_imbalance_call_out() {
        let report = par_report(SKEWED).unwrap();
        assert!(report.contains("skewed partition"), "{report}");
    }

    #[test]
    fn truncated_collection_is_called_out_on_the_coverage_line() {
        let report = par_report(TRUNCATED).unwrap();
        assert!(
            report.contains(
                "coverage: 90.0% of measured wall-clock attributed — detailed-window \
                 cap hit: 7 of 9 windows kept no per-window detail"
            ),
            "{report}"
        );
        // the untruncated report must NOT carry the notice
        let clean = par_report(STATS).unwrap();
        assert!(!clean.contains("detailed-window cap hit"), "{clean}");
    }

    #[test]
    fn fallback_run_still_reports_utilization_fields() {
        let report = par_report(FALLBACK).unwrap();
        assert!(report.contains("sequential fallback"), "{report}");
        assert!(report.contains("utilization:"), "{report}");
        assert!(report.contains("dominant stall: none"), "{report}");
    }

    #[test]
    fn perfetto_events_have_worker_shard_tracks_and_flows() {
        let events = par_stats_perfetto_events(STATS).unwrap();
        let all = format!("[{}]", events.join(","));
        let doc: Value = serde_json::from_str(&all).expect("valid JSON");
        let arr = doc.as_array().unwrap();
        let names: Vec<&str> =
            arr.iter().filter_map(|e| e.get("name").and_then(|n| n.as_str())).collect();
        assert!(names.contains(&"drain w0"), "{names:?}");
        assert!(names.contains(&"merge w1"), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("window w0")), "{names:?}");
        assert!(names.contains(&"stall"), "{names:?}");
        assert!(names.contains(&"shard 0 w0"), "{names:?}");
        assert!(names.contains(&"shard 1 w1"), "{names:?}");
        let thread_names: Vec<&str> = arr
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(thread_names.contains(&"worker 1"), "{thread_names:?}");
        assert!(thread_names.contains(&"shard 0"), "{thread_names:?}");
        assert!(thread_names.contains(&"shard 1"), "{thread_names:?}");
        assert!(thread_names.contains(&"sim thread (drain+merge)"), "{thread_names:?}");
        // shard tracks sit clear of worker tids
        let shard_tids: Vec<u64> = arr
            .iter()
            .filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("sched-shard"))
            .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
            .collect();
        assert!(shard_tids.iter().all(|&t| t >= SHARD_TID_BASE), "{shard_tids:?}");
        // the sampled send becomes an s/f flow pair landing on window 1
        let s = arr.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s")).count();
        let f = arr.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f")).count();
        assert_eq!(s, 1);
        assert_eq!(f, 1);
    }

    #[test]
    fn rejects_foreign_schemas() {
        assert!(parse_par_stats(r#"{"schema":"ceu-world/v1"}"#).is_err());
        assert!(parse_par_stats(r#"{"schema":"ceu-par-stats/v3"}"#).is_err());
        assert!(parse_par_stats("").is_err());
        // a window with no preceding run header is malformed
        let orphan = r#"{"schema":"ceu-par-stats/v2","kind":"window","i":0}"#;
        assert!(parse_par_stats(orphan).is_err());
        // so is an orphan shard summary
        let orphan_shard = r#"{"schema":"ceu-par-stats/v2","kind":"shard","shard":0}"#;
        assert!(parse_par_stats(orphan_shard).is_err());
    }

    #[test]
    fn u32_fields_past_u32_max_are_refused_not_truncated() {
        // (line, key, fragment of STATS, the same fragment with the value as N)
        let cases = [
            (1, "threads", r#""threads":2,"lookahead_us""#, r#""threads":N,"lookahead_us""#),
            (1, "motes", r#""motes":4,"shards""#, r#""motes":N,"shards""#),
            (1, "shards", r#""shards":2,"#, r#""shards":N,"#),
            (3, "shard", r#""shard":1,"motes":2"#, r#""shard":N,"motes":2"#),
            (3, "motes", r#""shard":1,"motes":2"#, r#""shard":1,"motes":N"#),
            (
                4,
                "threads",
                r#""threads":2,"workers":2,"motes":4,"events":16"#,
                r#""threads":N,"workers":2,"motes":4,"events":16"#,
            ),
            (
                4,
                "workers",
                r#""workers":2,"motes":4,"events":16"#,
                r#""workers":N,"motes":4,"events":16"#,
            ),
            (4, "motes", r#""motes":4,"events":16"#, r#""motes":N,"events":16"#),
            (
                4,
                "motes_per_worker",
                r#""motes_per_worker":[2,2],"drain_ns":500"#,
                r#""motes_per_worker":[2,N],"drain_ns":500"#,
            ),
            (4, "from", r#""from":0"#, r#""from":N"#),
            (4, "to", r#""to":1"#, r#""to":N"#),
            (
                4,
                "shard",
                r#"{"shard":1,"worker":1,"busy_ns":1500"#,
                r#"{"shard":N,"worker":1,"busy_ns":1500"#,
            ),
            (
                4,
                "worker",
                r#"{"shard":1,"worker":1,"busy_ns":1500"#,
                r#"{"shard":1,"worker":N,"busy_ns":1500"#,
            ),
        ];
        let max = u64::from(u32::MAX);
        for (line_no, key, from, to) in cases {
            let with = |val: u64| {
                assert!(STATS.contains(from), "fixture lost {from}");
                STATS.replacen(from, &to.replace('N', &val.to_string()), 1)
            };
            let err = parse_par_stats(&with(max + 1)).unwrap_err();
            assert_eq!(err, format!("line {line_no}: {key} out of range"), "{to}");
            // u32::MAX itself is in range
            parse_par_stats(&with(max)).unwrap();
        }
    }

    #[test]
    fn huge_run_wall_clock_reports_without_overflow() {
        let text = r#"{"schema":"ceu-par-stats/v2","kind":"run","threads":4,"wall_ns":9223372036854775807}"#;
        let report = par_report(text).unwrap();
        assert!(report.contains("utilization: 0.0%"), "{report}");
    }

    #[test]
    fn huge_window_times_export_without_overflow() {
        let text = concat!(
            r#"{"schema":"ceu-par-stats/v2","kind":"run","threads":2}"#,
            "\n",
            r#"{"schema":"ceu-par-stats/v2","kind":"window","t_wall_ns":9223372036854775807,"#,
            r#""drain_ns":9223372036854775807,"par_ns":9223372036854775807,"busy_ns":[1]}"#,
        );
        let events = par_stats_perfetto_events(text).unwrap();
        assert!(events.iter().any(|e| e.contains("\"name\":\"merge w0\"")), "{events:?}");
    }
}
