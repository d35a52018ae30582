//! Differential pin for the scheduler and the expression evaluator: the
//! full trace stream of a fixed set of programs, byte for byte.
//!
//! Every run installs a tracer under `TraceMask::Full` and records each
//! `TraceEvent` with its host-clock field zeroed — so the file pins the
//! `TrackRun` order, every `GateFired`/`GateArmed`, each `EmitInt` depth
//! and `ReactionEnd`'s counters (`queue_peak` included) — followed by
//! the final data slots, host calls, outputs and status. Each program
//! runs twice: ranked scheduling and the `fifo_scheduling` ablation.
//!
//! Programs: every `ceu_corpus::all_programs()` entry on a scripted
//! schedule, every `corpus/run` program on its own `// run:` script, the
//! benchmark's periodic-timer tenant, and scheduler stress programs: a
//! 16-trail fan-out, nested emits under par/or and par/and, and runtime
//! errors and `return` in the middle of a reaction.
//!
//! The snapshot lives in `tests/golden/trace.txt`. A change to the
//! machine must reproduce it exactly; regenerate it only for an intended
//! change of observable behaviour:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p ceu-bench --test trace_golden
//! ```

use ceu::runtime::{Machine, RecordingHost, TraceMask, Value};
use ceu::{CompiledProgram, Compiler};
use std::fmt::Write;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The periodic-timer tenant of the `serve_steady` benchmark workload.
const TIMER_TENANT: &str = "
    int ticks = 0;
    loop do
       await 10ms;
       ticks = ticks + 1;
    end
";

/// Nested internal emits feeding trails that sit inside par/or and
/// par/and rejoins: ranks of several depths are queued at once.
const NESTED_EMITS: &str = "
    input int A;
    internal int e1, e2;
    int x, y, z, w;
    par do
       loop do
          int v = await A;
          emit e1 = v;
          x = x + v;
          emit e2 = x;
       end
    with
       loop do
          int v = await e1;
          y = y + v;
          emit e2 = y;
       end
    with
       loop do
          int v = await e2;
          z = z * 3 + v;
       end
    with
       loop do
          par/or do
             await A;
             w = w + 1;
          with
             await e2;
             w = w + 100;
          end
          w = w * 2;
       end
    with
       loop do
          par/and do
             await e1;
          with
             await A;
          with
             await e2;
          end
          z = z + 7;
       end
    end
";

/// Runtime errors and termination inside reactions, with further input
/// afterwards: a division by zero in a nested (emitted) reaction, one in
/// a top-level reaction with a sibling still queued, and a `return` from
/// a nested reaction. Pins the state a failed reaction leaves behind.
const FAULTS: [(&str, &str, &[i64]); 3] = [
    (
        "nested_error",
        "
    input int A;
    internal int e;
    int x, y;
    par do
       loop do
          int v = await A;
          emit e = v;
          x = x + 1;
       end
    with
       loop do
          int v = await e;
          y = y + 100 / v;
       end
    with
       loop do
          await A;
          y = y + 1;
       end
    end
",
        &[1, 0, 2, 3],
    ),
    (
        "toplevel_error",
        "
    input int A;
    int x, y;
    par do
       loop do
          int v = await A;
          x = x + 100 / v;
       end
    with
       loop do
          await A;
          y = y + 1;
       end
    end
",
        &[1, 0, 2, 3],
    ),
    (
        "nested_return",
        "
    input int A;
    internal int e;
    int x;
    par do
       loop do
          int v = await A;
          emit e = v;
          x = x + 1;
       end
    with
       loop do
          await A;
          x = x + 10;
       end
    with
       loop do
          int v = await e;
          if v == 2 then
             return x;
          end
       end
    end
",
        &[1, 2, 3],
    ),
];

/// Sixteen trails awaiting one event, each folding its index into `v`:
/// the result depends on the order the same-rank tracks run.
fn fanout(n: usize) -> String {
    let mut src = String::from("input void E;\nint v;\npar do\n");
    for i in 0..n {
        if i > 0 {
            src.push_str("with\n");
        }
        let _ = write!(src, " loop do\n  await E;\n  v = v * 31 + {i};\n end\n");
    }
    src.push_str("with\n await forever;\nend");
    src
}

/// One input of a run's schedule.
enum Step {
    Event(String, Option<i64>),
    Time(u64),
    Async(usize),
}

fn host() -> RecordingHost {
    RecordingHost::new()
        .with_return("Read_read", 5)
        .with_return("Radio_getPayload", Value::Ptr(ceu::runtime::Ptr::Host(1)))
        .with_return("Radio_source", 0)
        .with_global("TOS_NODE_ID", 0)
}

/// The scripted schedule for the corpus programs: three rounds of every
/// declared input event with a value, a timer advance past every corpus
/// period, and bounded async slices.
fn corpus_schedule(prog: &CompiledProgram) -> Vec<Step> {
    let inputs: Vec<String> = (0..prog.events.len())
        .map(|i| prog.events.get(ceu_ast::EventId(i as u16)))
        .filter(|info| info.external())
        .map(|info| info.name.clone())
        .collect();
    let mut steps = Vec::new();
    for round in 0..3i64 {
        for name in &inputs {
            steps.push(Step::Event(name.clone(), Some(round + 1)));
        }
        steps.push(Step::Time(1_000_000));
        steps.push(Step::Async(100));
    }
    steps
}

/// A `corpus/run` program's `// run:` script (the `ceuc` script syntax).
fn run_script(src: &str) -> Vec<Step> {
    src.lines()
        .filter_map(|l| l.trim().strip_prefix("// run:"))
        .map(|d| {
            let mut it = d.split_whitespace();
            match it.next() {
                Some("event") => Step::Event(
                    it.next().expect("event name").to_string(),
                    it.next().map(|v| v.parse().expect("int payload")),
                ),
                Some("time") => {
                    let t = it.next().expect("duration");
                    let us = ceu::ast::TimeSpec::parse(t)
                        .map(|t| t.us)
                        .or_else(|| t.parse().ok())
                        .unwrap_or_else(|| panic!("bad duration `{t}`"));
                    Step::Time(us)
                }
                Some("async") => Step::Async(it.next().unwrap_or("1000").parse().unwrap()),
                other => panic!("unknown run directive {other:?}"),
            }
        })
        .collect()
}

/// Runs one program on one schedule and appends its record to `out`.
fn record(out: &mut String, name: &str, prog: &Arc<CompiledProgram>, steps: &[Step], fifo: bool) {
    let mut m = Machine::from_arc(Arc::clone(prog));
    m.fifo_scheduling = fifo;
    m.set_trace_mask(TraceMask::Full);
    let buf = Arc::new(Mutex::new(Vec::new()));
    {
        let tap = Arc::clone(&buf);
        m.set_tracer(Box::new(move |e| tap.lock().unwrap().push(*e)));
    }
    let mut h = host();
    let mut errors = Vec::new();
    let mut note = |r: Result<(), ceu::runtime::RuntimeError>| {
        if let Err(e) = r {
            errors.push(e.to_string());
        }
    };
    note(m.go_init(&mut h).map(drop));
    for step in steps {
        if m.status().is_terminated() {
            break;
        }
        match step {
            Step::Event(name, v) => {
                let ev = m.event_id(name).unwrap_or_else(|| panic!("{name}: no event {name}"));
                note(m.go_event(ev, v.map(Value::Int), &mut h).map(drop));
            }
            Step::Time(us) => note(m.go_time(m.now() + us, &mut h).map(drop)),
            Step::Async(n) => {
                for _ in 0..*n {
                    match m.go_async(&mut h) {
                        Ok(true) if !m.status().is_terminated() => {}
                        Ok(_) => break,
                        Err(e) => {
                            note(Err(e));
                            break;
                        }
                    }
                }
            }
        }
    }
    let _ = writeln!(out, "== {name} fifo={fifo}");
    for e in buf.lock().unwrap().drain(..) {
        let _ = writeln!(out, "{:?}", e.normalized());
    }
    let _ = writeln!(out, "errors: {errors:?}");
    let _ = writeln!(out, "data: {:?}", m.data());
    let _ = writeln!(out, "calls: {:?}", h.calls);
    let _ = writeln!(out, "outputs: {:?}", h.outputs);
    let _ = writeln!(out, "status: {:?} reactions: {}", m.status(), m.reactions_started());
}

fn run_corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/run")
}

fn snapshot() -> String {
    let mut runs: Vec<(String, Arc<CompiledProgram>, Vec<Step>)> = Vec::new();
    for (name, src) in ceu_bench::all_programs() {
        let prog =
            Arc::new(Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
        let steps = corpus_schedule(&prog);
        runs.push((format!("corpus/{name}"), prog, steps));
    }
    let mut files: Vec<PathBuf> = fs::read_dir(run_corpus_dir())
        .expect("corpus/run")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ceu"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus/run is empty");
    for path in files {
        let src = fs::read_to_string(&path).unwrap();
        let name = format!("run/{}", path.file_stem().unwrap().to_string_lossy());
        let prog =
            Arc::new(Compiler::new().compile(&src).unwrap_or_else(|e| panic!("{name}: {e}")));
        runs.push((name, prog, run_script(&src)));
    }
    let timer = Arc::new(Compiler::new().compile(TIMER_TENANT).expect("timer tenant"));
    runs.push(("timer_tenant".into(), timer, (0..40).map(|_| Step::Time(10_000)).collect()));
    let nested = Arc::new(Compiler::unchecked().compile(NESTED_EMITS).expect("nested emits"));
    let steps = (1..=6).map(|i| Step::Event("A".into(), Some(i))).collect();
    runs.push(("nested_emits".into(), nested, steps));
    for (name, src, values) in FAULTS {
        let prog =
            Arc::new(Compiler::unchecked().compile(src).unwrap_or_else(|e| panic!("{name}: {e}")));
        let steps = values.iter().map(|v| Step::Event("A".into(), Some(*v))).collect();
        runs.push((name.into(), prog, steps));
    }
    let fan = Arc::new(Compiler::unchecked().compile(&fanout(16)).expect("fan-out"));
    runs.push(("fanout16".into(), fan, (0..3).map(|_| Step::Event("E".into(), None)).collect()));

    let mut out = String::new();
    for (name, prog, steps) in &runs {
        for fifo in [false, true] {
            record(&mut out, name, prog, steps, fifo);
        }
    }
    out
}

#[test]
fn trace_streams_match_the_golden_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace.txt");
    let actual = snapshot();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             UPDATE_SNAPSHOTS=1 cargo test -p ceu-bench --test trace_golden",
            path.display()
        )
    });
    if expected != actual {
        let (n, (want, got)) = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, p)| (i + 1, p))
            .unwrap_or((
                expected.lines().count().min(actual.lines().count()) + 1,
                ("<end>", "<end>"),
            ));
        panic!(
            "trace stream drifted from tests/golden/trace.txt at line {n}:\n  want: {want}\n  got:  {got}\n\
             regenerate only for an intended behaviour change: \
             UPDATE_SNAPSHOTS=1 cargo test -p ceu-bench --test trace_golden"
        );
    }
}
