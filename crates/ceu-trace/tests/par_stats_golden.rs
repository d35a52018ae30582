//! Output pin for the `ceu-par-stats` reader: the full `par-report` text
//! and every `to-perfetto --par-stats` scheduler event, byte for byte, for
//! the checked-in streams under `tests/fixtures/`.
//!
//! Streams: a two-shard v2 run, the same run as v1 (no shard records), a
//! sequential-fallback run, a run whose detailed-window cap was hit, a run
//! with one skewed shard, and the 39-line stream `par_throughput --machines
//! 16 --reactions 2000 --threads 1,2,4 --horizon-us 60000` writes (a
//! fallback run, then 2- and 4-thread runs on 6 shards).
//!
//! The snapshot lives in `tests/golden/par_stats.txt`. A change to the
//! reader or to the `wsn_sim::parstats` arithmetic must reproduce it
//! exactly; regenerate it only for an intended change of output:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p ceu-trace --test par_stats_golden
//! ```

use std::fmt::Write;
use std::fs;
use std::path::Path;

const STREAMS: &[&str] = &["v2", "v1", "fallback", "truncated", "skewed", "ci_sweep"];

fn render_all() -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut out = String::new();
    for name in STREAMS {
        let text = fs::read_to_string(dir.join(format!("{name}.jsonl"))).unwrap();
        let report = ceu_trace::par_report(&text).unwrap();
        let _ = writeln!(out, "=== {name}.jsonl: par-report ===");
        out.push_str(&report);
        let _ = writeln!(out, "=== {name}.jsonl: perfetto ===");
        for ev in ceu_trace::par_stats_perfetto_events(&text).unwrap() {
            let _ = writeln!(out, "{ev}");
        }
    }
    out
}

#[test]
fn par_stats_golden() {
    let got = render_all();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/par_stats.txt");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).expect("golden file missing: run with UPDATE_SNAPSHOTS=1");
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(a, b)| a != b);
        match line {
            Some(i) => panic!(
                "par-stats golden differs at line {}:\n  got:  {}\n  want: {}",
                i + 1,
                got.lines().nth(i).unwrap(),
                want.lines().nth(i).unwrap()
            ),
            None => panic!(
                "par-stats golden differs in length: got {} lines, want {}",
                got.lines().count(),
                want.lines().count()
            ),
        }
    }
}
