//! Corpus census: every `.ceu` program in the conformance corpus, with its
//! compiled footprint and analysis verdict — a one-screen overview of what
//! the toolchain does across the whole language surface.
//!
//! ```sh
//! cargo run -p ceu-bench --bin corpus_report
//! ```

use ceu::analysis::DfaOptions;
use ceu::{Compiler, Error};
use ceu_bench::table;
use std::path::PathBuf;

fn corpus_files() -> Vec<PathBuf> {
    let mut out = Vec::new();
    for sub in ["accept", "reject", "run"] {
        let dir = std::path::Path::new("corpus").join(sub);
        if let Ok(rd) = std::fs::read_dir(&dir) {
            for e in rd.flatten() {
                let p = e.path();
                if p.extension().is_some_and(|x| x == "ceu") {
                    out.push(p);
                }
            }
        }
    }
    out.sort();
    out
}

fn main() {
    let files = corpus_files();
    assert!(!files.is_empty(), "run from the repository root");
    let compiler = Compiler::new();
    let mut rows = Vec::new();
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for path in &files {
        let src = std::fs::read_to_string(path).unwrap();
        let loc =
            src.lines().filter(|l| !l.trim().is_empty() && !l.trim().starts_with("//")).count();
        let name = path
            .strip_prefix("corpus")
            .unwrap()
            .display()
            .to_string()
            .trim_start_matches('/')
            .to_string();
        let verdict;
        let (mut tracks, mut gates, mut states) = (String::new(), String::new(), String::new());
        match compiler.analyze(&src) {
            Ok((p, dfa)) => {
                tracks = p.blocks.len().to_string();
                gates = p.gates.len().to_string();
                states = dfa.states.len().to_string();
                if !dfa.deterministic() {
                    verdict = format!("nondet ({})", dfa.conflicts.len());
                    rejected += 1;
                } else if dfa.truncated {
                    verdict = "incomplete".to_string();
                    rejected += 1;
                } else {
                    verdict = "ok".to_string();
                    accepted += 1;
                }
            }
            Err(Error::Unbounded(_)) => {
                verdict = "unbounded".into();
                rejected += 1;
            }
            Err(Error::Parse(_)) => {
                verdict = "parse error".into();
                rejected += 1;
            }
            Err(Error::Resolve(_)) => {
                verdict = "resolve error".into();
                rejected += 1;
            }
            Err(e) => {
                verdict = format!("error: {e}");
                rejected += 1;
            }
        }
        rows.push(vec![name, loc.to_string(), tracks, gates, states, verdict]);
    }
    println!(
        "Corpus census — {} programs ({accepted} accepted, {rejected} refused)\n",
        files.len()
    );
    println!(
        "{}",
        table::render(&["program", "loc", "tracks", "gates", "dfa states", "verdict"], &rows)
    );

    // sanity: the census agrees with the corpus layout
    for row in &rows {
        let (name, verdict) = (&row[0], &row[5]);
        if name.starts_with("accept/") || name.starts_with("run/") {
            assert_eq!(verdict, "ok", "{name} must be accepted");
        } else {
            assert_ne!(verdict, "ok", "{name} must be refused");
        }
    }
    // keep the DFA-size observation honest: the biggest machine stays small
    let max_states: usize =
        rows.iter().filter_map(|r| r[4].parse::<usize>().ok()).max().unwrap_or(0);
    println!("largest DFA across the corpus: {max_states} states");
    let _ = DfaOptions::default();
}
