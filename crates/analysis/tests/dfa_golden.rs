//! Differential pin for the §2.6 temporal analysis.
//!
//! One golden file records, for every program below, exactly what
//! `analyze` produces: the state and transition counts, the `truncated`
//! flag, each conflict's `Display` text and `conflict_depth`, and the full
//! `to_dot` rendering (state numbering, gate order, transition order).
//! Any change to how the DFA is built that is not meant to change its
//! output must reproduce the file byte for byte.
//!
//! Programs:
//! * every `corpus/{accept,run,reject}` file that reaches the DFA (it
//!   parses, passes the bounded check, resolves and lowers);
//! * the await-chain ladder: two loops of `2k` and `2k + 1` awaits on `A`,
//!   `k = 1..=16`, writing one shared variable (a conflict at depth
//!   lcm) or two separate ones (deterministic);
//! * the `dfa_scaling` bench's timer products for `k = 1..=3`.
//!
//! To regenerate after an intentional change to the analysis output:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p ceu-analysis --test dfa_golden
//! ```

use ceu_analysis::{analyze, check_bounded, dfa::to_dot, DfaOptions};
use ceu_codegen::CompiledProgram;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("dfa.txt")
}

/// The pipeline prefix `Compiler::compile` runs before the DFA; `None`
/// when the program is refused earlier.
fn lower(src: &str) -> Option<CompiledProgram> {
    let mut ast = ceu_parser::parse(src).ok()?;
    ceu_ast::desugar(&mut ast);
    ceu_ast::number(&mut ast);
    if !check_bounded(&ast).is_empty() {
        return None;
    }
    let resolved = ceu_ast::resolve::resolve(ast).ok()?;
    ceu_codegen::compile(&resolved).ok()
}

fn chain_program(m: usize, n: usize, same_var: bool) -> String {
    let awaits = |k: usize| "  await A;\n".repeat(k);
    let second = if same_var { "v" } else { "w" };
    format!(
        "input void A;\nint v, w;\npar do\n loop do\n{}  v = 1;\n end\nwith\n loop do\n{}  {second} = 1;\n end\nend\n",
        awaits(m),
        awaits(n)
    )
}

fn timer_program(k: usize) -> String {
    let periods = [7u64, 11, 13];
    let mut src = String::from("int x;\npar do\n");
    for (i, p) in periods.iter().take(k).enumerate() {
        if i > 0 {
            src.push_str("with\n");
        }
        src.push_str(&format!(" loop do\n  await {p}ms;\n end\n"));
    }
    src.push_str("with\n await forever;\nend");
    src
}

fn corpus_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut out = Vec::new();
    for dir in ["accept", "run", "reject"] {
        let mut files: Vec<PathBuf> = fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("corpus/{dir}: {e}"))
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "ceu"))
            .collect();
        files.sort();
        for f in files {
            let name = format!("corpus/{dir}/{}", f.file_name().unwrap().to_string_lossy());
            out.push((name, fs::read_to_string(&f).unwrap()));
        }
    }
    out
}

fn record(out: &mut String, name: &str, prog: &CompiledProgram, opts: &DfaOptions) {
    let d = analyze(prog, opts);
    let _ = writeln!(out, "=== {name}");
    let _ = writeln!(
        out,
        "states {} transitions {} truncated {}",
        d.states.len(),
        d.transitions.len(),
        d.truncated
    );
    for c in &d.conflicts {
        let _ = writeln!(out, "conflict depth {:?}: {c}", d.conflict_depth(c));
    }
    out.push_str(&to_dot(&d, prog));
}

fn render() -> String {
    let mut out = String::new();
    let defaults = DfaOptions::default();
    for (name, src) in corpus_sources() {
        if let Some(p) = lower(&src) {
            record(&mut out, &name, &p, &defaults);
        }
    }
    for k in 1..=16 {
        let (m, n) = (2 * k, 2 * k + 1);
        for same in [false, true] {
            let name = format!("chain/{m}x{n}{}", if same { "-same" } else { "" });
            let p = lower(&chain_program(m, n, same)).unwrap();
            record(&mut out, &name, &p, &defaults);
        }
    }
    let wide = DfaOptions { max_states: 100_000, ..Default::default() };
    for k in 1..=3 {
        let p = lower(&timer_program(k)).unwrap();
        record(&mut out, &format!("timers/k{k}"), &p, &wide);
    }
    out
}

#[test]
fn dfa_output_matches_the_golden_file() {
    let actual = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             UPDATE_SNAPSHOTS=1 cargo test -p ceu-analysis --test dfa_golden",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    // name the first differing line and its program instead of dumping
    // the whole file
    let mut program = "";
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if let Some(name) = e.strip_prefix("=== ") {
            program = name;
        }
        assert_eq!(e, a, "line {} ({program}) drifted from {}", i + 1, path.display());
    }
    panic!(
        "{} has {} lines, the analysis produced {}",
        path.display(),
        expected.lines().count(),
        actual.lines().count()
    );
}
