//! CLI-level tests for `ceuc run --faults`: plan delays are plain `u64`s,
//! so a reboot delay at the top of the range must leave the machine down
//! rather than wrap around and revive it before its crash.

use std::io::Write;
use std::process::Command;

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("ceuc-faults-{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(content.as_bytes()).expect("write temp file");
    path
}

#[test]
fn unbounded_reboot_delay_stays_powered_off() {
    let prog = write_tmp("prog.ceu", "await 1s;");
    let script = write_tmp("script.txt", "time 10ms\ntime 40ms\n");
    let plan = write_tmp("plan.txt", "at 15ms reboot 0 after 18446744073709551615\n");
    let out = Command::new(env!("CARGO_BIN_EXE_ceuc"))
        .args(["run", prog.to_str().unwrap(), script.to_str().unwrap(), "--faults"])
        .arg(&plan)
        .output()
        .expect("run ceuc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("machine crashed at 15000us"), "stderr: {stderr}");
    assert!(!stderr.contains("rebooted"), "no reboot may happen: {stderr}");
    // the run ends powered off
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
}
