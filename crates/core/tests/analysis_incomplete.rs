//! A temporal analysis that stops at a limit does not certify a program.
//!
//! Two loops write `v` after `p` and `q` awaits on `A`; they collide on
//! occurrence lcm(p, q). With p = 2, q = 3 the collision is inside the
//! explored DFA and the program is refused as nondeterministic. With
//! p = 151, q = 157 it sits at depth 23,707, past `DfaOptions::max_states`
//! (20,000): the explored prefix has no conflict, and the program must be
//! refused as incomplete rather than accepted.

use ceu::analysis::{ConflictKind, DfaLimit, DfaOptions};
use ceu::{Compiler, Error};
use std::io::Write as _;
use std::process::Command;

fn two_loops(p: usize, q: usize) -> String {
    let awaits = |k: usize| "  await A;\n".repeat(k);
    format!(
        "input void A;\nint v;\npar do\n loop do\n{}  v = 1;\n end\nwith\n loop do\n{}  v = 2;\n end\nend\n",
        awaits(p),
        awaits(q)
    )
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ceuc-incomplete-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(content.as_bytes()).expect("write temp file");
    path
}

#[test]
fn collision_inside_the_explored_dfa_is_nondeterminism() {
    let err = Compiler::new().compile(&two_loops(2, 3)).unwrap_err();
    let Error::Nondeterministic(cs) = &err else { panic!("expected a conflict, got {err}") };
    assert!(cs.iter().any(|c| c.kind == ConflictKind::Variable && c.what == "`v`"), "{err}");
}

#[test]
fn collision_past_max_states_is_refused_as_incomplete() {
    let src = two_loops(151, 157);
    let err = Compiler::new().compile(&src).unwrap_err();
    let max = DfaOptions::default().max_states;
    match err {
        Error::AnalysisIncomplete { limit, states_explored } => {
            assert_eq!(limit, DfaLimit::MaxStates(max));
            assert!(states_explored >= max, "{states_explored} states");
        }
        other => panic!("expected an incomplete analysis, got {other}"),
    }
    // the callers that want to proceed still can
    assert!(Compiler::unchecked().compile(&src).is_ok());
    let (_, dfa) = Compiler::new().analyze(&src).unwrap();
    assert!(dfa.truncated && dfa.deterministic());
    assert_eq!(dfa.limit, Some(DfaLimit::MaxStates(max)));
}

#[test]
fn ceuc_check_refuses_and_ceuc_dfa_notes_the_truncation() {
    let path = write_tmp("deep.ceu", &two_loops(151, 157));
    let check = Command::new(env!("CARGO_BIN_EXE_ceuc")).arg("check").arg(&path).output().unwrap();
    assert!(!check.status.success());
    let stderr = String::from_utf8_lossy(&check.stderr);
    assert!(stderr.contains("analysis incomplete"), "{stderr}");
    assert!(stderr.contains("max_states = 20000"), "{stderr}");

    let dfa = Command::new(env!("CARGO_BIN_EXE_ceuc")).arg("dfa").arg(&path).output().unwrap();
    assert!(dfa.status.success(), "{}", String::from_utf8_lossy(&dfa.stderr));
    let stderr = String::from_utf8_lossy(&dfa.stderr);
    assert!(stderr.contains("DFA truncated at max_states = 20000"), "{stderr}");
    assert!(String::from_utf8_lossy(&dfa.stdout).starts_with("digraph dfa {"));
}
