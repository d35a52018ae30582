//! Keeps the `ceu-par-stats` reader and writer in step: `ParStats` taken
//! from real shard-mesh runs, written with `wsn_sim::write_par_stats_jsonl`,
//! must parse back to the identical value, and `par-report` over the
//! written text must equal rendering the value directly.

use ceu_bench::shard_mesh::build_shard_mesh_world;
use ceu_trace::{par_report, parse_par_stats, render_par_run};
use wsn_sim::{write_par_stats_jsonl, ParStats};

/// A shard-mesh run at `threads` with scheduler stats on (1 thread takes
/// the sequential fallback).
fn mesh_stats(threads: usize) -> ParStats {
    let mut w = build_shard_mesh_world(false);
    w.enable_par_stats();
    w.run_until_parallel(20_000, threads);
    w.take_par_stats().expect("par stats enabled")
}

fn jsonl(stats: &[&ParStats]) -> String {
    let mut buf = Vec::new();
    for s in stats {
        write_par_stats_jsonl(s, &mut buf).unwrap();
    }
    String::from_utf8(buf).unwrap()
}

#[test]
fn written_stats_parse_back_to_the_same_value() {
    let parallel = mesh_stats(2);
    assert!(!parallel.fallback);
    assert!(!parallel.windows.is_empty() && !parallel.per_shard.is_empty());
    assert!(parallel.windows.iter().any(|w| !w.send_sample.is_empty()));
    let fallback = mesh_stats(1);
    assert!(fallback.fallback);
    for s in [&parallel, &fallback] {
        assert_eq!(parse_par_stats(&jsonl(&[s])).unwrap(), vec![s.clone()]);
    }
    // a two-run stream parses to both runs in order
    let both = jsonl(&[&parallel, &fallback]);
    assert_eq!(parse_par_stats(&both).unwrap(), vec![parallel.clone(), fallback.clone()]);
}

#[test]
fn report_of_written_text_equals_rendering_the_value() {
    for s in [mesh_stats(2), mesh_stats(1)] {
        assert_eq!(par_report(&jsonl(&[&s])).unwrap(), render_par_run(&s));
    }
}
