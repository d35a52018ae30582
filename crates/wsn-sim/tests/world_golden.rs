//! Differential pin for the world steppers: everything a run leaves
//! observable, byte for byte, for a fixed set of worlds.
//!
//! Each world runs under `run_until`, `run_until_parallel(·, 2)` and
//! `run_until_parallel(·, 4)`. For every run the file records the world
//! trace as JSONL, the metrics object (`Stats`, radio counters, per-mote
//! stats), each mote's status and LED history, the flight records, the
//! `ceu-blackbox/v1` dump (and the last automatic crash dump, where the
//! world crashes), and the deterministic par-stats fields — window,
//! event, send and heap counts, never nanoseconds.
//!
//! Worlds: pingers with a CPU-slice worker on a lossy medium; a lossy
//! zero-latency relay, where execution order differs from the canonical
//! `(time, mote, emission)` order; a chaotic world using every
//! `FaultAction` kind; a Céu mote whose machine fails at runtime under
//! `RebootPolicy::After`; a failure inside a boot callback; clock skew;
//! radios powered off and on between runs without a crash; and a mid-run
//! `set_target_shards` reshard.
//!
//! The snapshot lives in `tests/golden/world.txt`. A change to either
//! stepper must reproduce it exactly; regenerate it only for an intended
//! change of observable behaviour:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test -p wsn-sim --test world_golden
//! ```

use ceu::ast::Span;
use ceu::runtime::{RuntimeError, TraceEvent};
use std::fmt::Write;
use std::fs;
use std::path::{Path, PathBuf};
use wsn_sim::{
    Backend, CeuMote, CrashCause, FaultAction, FaultPlan, MoteCtx, MoteId, Packet, Radio,
    RebootPolicy, Topology, World,
};

/// Flight-recorder ring capacity: small enough that busy shards wrap.
const RING: usize = 24;

/// Pings `peer` every `period` µs, surfacing one synthetic VM event per
/// callback and toggling led 0 on each delivery.
struct Pinger {
    peer: MoteId,
    period: u64,
}

impl Backend for Pinger {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(-1) });
        ctx.set_timer_at(ctx.now + self.period);
    }
    fn deliver(&mut self, ctx: &mut MoteCtx, p: Packet) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(p.value()) });
        ctx.leds.toggle(ctx.now, 0);
    }
    fn timer(&mut self, ctx: &mut MoteCtx) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(ctx.now as i64) });
        ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, ctx.now as i64));
        ctx.set_timer_at(ctx.now + self.period);
    }
    fn cpu(&mut self, _: &mut MoteCtx) {}
}

/// Every other timer asks for three CPU slices; the last slice sends to
/// `peer` and to `peer + 1`, twice each.
struct Worker {
    peer: MoteId,
    ticks: u64,
    slices: u32,
}

impl Backend for Worker {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        ctx.set_timer_at(700);
    }
    fn deliver(&mut self, ctx: &mut MoteCtx, p: Packet) {
        ctx.leds.set_mask(ctx.now, (p.value() % 8) as u8);
    }
    fn timer(&mut self, ctx: &mut MoteCtx) {
        self.ticks += 1;
        if self.ticks.is_multiple_of(2) {
            self.slices = 3;
            ctx.wants_cpu = true;
        }
        ctx.set_timer_at(ctx.now + 1_300);
    }
    fn cpu(&mut self, ctx: &mut MoteCtx) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(self.slices as i64) });
        self.slices -= 1;
        if self.slices == 0 {
            for to in [self.peer, self.peer + 1, self.peer, self.peer + 1] {
                ctx.send(to, Packet::with_value(ctx.id, to, self.ticks as i64));
            }
        } else {
            ctx.wants_cpu = true;
        }
    }
}

/// Forwards every packet with hops left to the next two motes below it
/// (mod `n`), so one kick fans out across the roster at one instant.
struct Relay {
    n: usize,
}

impl Backend for Relay {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        if ctx.id == self.n - 1 {
            ctx.set_timer_at(1_000);
        }
    }
    fn deliver(&mut self, ctx: &mut MoteCtx, p: Packet) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(p.value()) });
        ctx.leds.toggle(ctx.now, (p.value() % 3) as u8);
        if p.value() > 0 {
            for k in [1, 2] {
                let to = (ctx.id + self.n - k) % self.n;
                ctx.send(to, Packet::with_value(ctx.id, to, p.value() - 1));
            }
        }
    }
    fn timer(&mut self, ctx: &mut MoteCtx) {
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(ctx.now as i64) });
        for to in [1, 0, 2] {
            ctx.send(to, Packet::with_value(ctx.id, to, 4));
        }
        ctx.set_timer_at(ctx.now + 2_000);
    }
    fn cpu(&mut self, _: &mut MoteCtx) {}
}

/// Pings like [`Pinger`] but fails its "machine" in the first timer at or
/// after `fail_at` (one-shot: a reboot more than 1 ms later is safe).
struct Flaky {
    peer: MoteId,
    fail_at: u64,
}

impl Backend for Flaky {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        ctx.set_timer_at(ctx.now + 1_000);
    }
    fn deliver(&mut self, ctx: &mut MoteCtx, _: Packet) {
        ctx.leds.toggle(ctx.now, 1);
    }
    fn timer(&mut self, ctx: &mut MoteCtx) {
        if ctx.now >= self.fail_at && ctx.now < self.fail_at + 1_000 {
            ctx.vm_events.push(TraceEvent::Terminated { value: Some(99) });
            let e = RuntimeError::new(Span::default(), "sensor read of nothing");
            ctx.fail(CrashCause::from_error(&e));
            return;
        }
        ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, 1));
        ctx.set_timer_at(ctx.now + 1_000);
    }
    fn cpu(&mut self, _: &mut MoteCtx) {}
}

/// Fails inside its first boot callback, after a send and a timer request
/// (both discarded with the crash); the reboot comes up clean.
struct BadBoot {
    peer: MoteId,
    boots: u32,
}

impl Backend for BadBoot {
    fn boot(&mut self, ctx: &mut MoteCtx) {
        self.boots += 1;
        ctx.vm_events.push(TraceEvent::Terminated { value: Some(self.boots as i64) });
        ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, 7));
        ctx.set_timer_at(ctx.now + 500);
        if self.boots == 1 {
            let e = RuntimeError::new(Span::default(), "boot-time self test failed");
            ctx.fail(CrashCause::from_error(&e));
        }
    }
    fn deliver(&mut self, ctx: &mut MoteCtx, _: Packet) {
        ctx.leds.toggle(ctx.now, 2);
    }
    fn timer(&mut self, ctx: &mut MoteCtx) {
        ctx.send(self.peer, Packet::with_value(ctx.id, self.peer, 8));
        ctx.set_timer_at(ctx.now + 900);
    }
    fn cpu(&mut self, _: &mut MoteCtx) {}
}

/// A ring of Céu motes: each relays a counter to the next, dividing by
/// the counter mod 5 on the way — a data-dependent division by zero, so
/// the machine fails a few hops in, in every life.
const DIVIDING_RING: &str = r#"
    input _message_t* Radio_receive;
    int q = 0;
    par do
       loop do
          _message_t* msg = await Radio_receive;
          int* cnt = _Radio_getPayload(msg);
          _Leds_set(*cnt % 8);
          q = 1000 / (*cnt % 5);
          *cnt = *cnt + 1;
          _Radio_send((_TOS_NODE_ID+1)%3, msg);
       end
    with
       _message_t msg;
       int* cnt = _Radio_getPayload(&msg);
       *cnt = _TOS_NODE_ID + 1;
       _Radio_send((_TOS_NODE_ID+1)%3, &msg);
       await forever;
    end
"#;

/// A ring of `n` pingers.
fn add_pingers(w: &mut World, n: usize, period: u64) {
    for m in 0..n {
        w.add_mote(Box::new(Pinger { peer: (m + 1) % n, period }));
    }
}

/// Trace, flight recorder (with a crash-dump path) and par-stats on.
fn observe_all(w: &mut World, dump: Option<&Path>) {
    w.enable_trace();
    w.enable_flight_recorder(RING);
    w.enable_par_stats();
    if let Some(p) = dump {
        w.set_blackbox_out(p);
    }
}

/// How a world is driven to its horizon by one stepper.
type Drive = fn(&mut World, Option<usize>);

fn run_to(w: &mut World, threads: Option<usize>, t: u64) {
    match threads {
        None => w.run_until(t),
        Some(n) => w.run_until_parallel(t, n),
    }
}

struct Case {
    name: &'static str,
    build: fn(Option<&Path>) -> World,
    drive: Drive,
}

fn pingers(dump: Option<&Path>) -> World {
    let mut w = World::new(Radio::new(Topology::Full, 700, 0.25, 9));
    observe_all(&mut w, dump);
    add_pingers(&mut w, 4, 1_000);
    w.add_mote(Box::new(Worker { peer: 1, ticks: 0, slices: 0 }));
    w.boot();
    w
}

fn zero_latency_relay(dump: Option<&Path>) -> World {
    let mut w = World::new(Radio::new(Topology::Full, 0, 0.3, 5));
    observe_all(&mut w, dump);
    for _ in 0..5 {
        w.add_mote(Box::new(Relay { n: 5 }));
    }
    w.boot();
    w
}

fn chaotic(dump: Option<&Path>) -> World {
    let mut w = World::new(Radio::new(Topology::Full, 700, 0.2, 13));
    observe_all(&mut w, dump);
    w.set_reboot_policy(RebootPolicy::After(2_500));
    w.add_mote(Box::new(Flaky { peer: 1, fail_at: 7_300 }));
    for peer in [2, 3, 4, 0] {
        w.add_mote(Box::new(Pinger { peer, period: 1_000 }));
    }
    let plan = FaultPlan::new()
        .at(2_100, FaultAction::Crash { mote: 4 })
        .at(3_200, FaultAction::ClockSkew { mote: 2, ppm: 300 })
        .at(
            5_100,
            FaultAction::Partition { group_a: vec![0, 1], group_b: vec![2, 3], until_us: 9_000 },
        )
        .at(10_400, FaultAction::Reboot { mote: 3, delay_us: 2_000 })
        .at(11_000, FaultAction::Reboot { mote: 4, delay_us: 1_500 })
        .at(12_000, FaultAction::LossBurst { from: 1, to: 2, rate: 0.6, until_us: 20_000 })
        .at(15_000, FaultAction::DropInFlight { mote: 2 })
        .at(21_000, FaultAction::Heal);
    w.set_fault_plan(&plan).unwrap();
    w.boot();
    w
}

fn ceu_crash(dump: Option<&Path>) -> World {
    let prog = std::sync::Arc::new(ceu::Compiler::new().compile(DIVIDING_RING).unwrap());
    let mut w = World::new(Radio::new(Topology::Full, 1_000, 0.1, 3));
    observe_all(&mut w, dump);
    w.set_reboot_policy(RebootPolicy::After(2_000));
    for id in 0..3 {
        let mut mote = CeuMote::from_shared(prog.clone(), id);
        mote.enable_trace_coarse();
        w.add_mote(Box::new(mote));
    }
    w.boot();
    w
}

fn boot_failure(dump: Option<&Path>) -> World {
    let mut w = World::new(Radio::new(Topology::Full, 600, 0.1, 21));
    observe_all(&mut w, dump);
    w.set_reboot_policy(RebootPolicy::After(1_000));
    w.add_mote(Box::new(Pinger { peer: 1, period: 800 }));
    w.add_mote(Box::new(BadBoot { peer: 2, boots: 0 }));
    w.add_mote(Box::new(Pinger { peer: 1, period: 1_100 }));
    w.add_mote(Box::new(BadBoot { peer: 0, boots: 0 }));
    w.boot();
    w
}

fn skewed(dump: Option<&Path>) -> World {
    let mut w = World::new(Radio::new(Topology::Full, 800, 0.1, 17));
    observe_all(&mut w, dump);
    add_pingers(&mut w, 4, 1_000);
    let plan = FaultPlan::new()
        .at(0, FaultAction::ClockSkew { mote: 0, ppm: 100_000 })
        .at(0, FaultAction::ClockSkew { mote: 1, ppm: -250_000 })
        .at(4_000, FaultAction::ClockSkew { mote: 2, ppm: 777 })
        .at(9_000, FaultAction::ClockSkew { mote: 0, ppm: -500 });
    w.set_fault_plan(&plan).unwrap();
    w.boot();
    w
}

fn reshard(dump: Option<&Path>) -> World {
    let mut w = World::new(Radio::clustered(3, 3, vec![600, 900, 750], 4_000, 0.15, 11));
    observe_all(&mut w, dump);
    for m in 0..9 {
        w.add_mote(Box::new(Pinger { peer: (m / 3) * 3 + (m + 1) % 3, period: 1_000 }));
    }
    w.boot();
    w
}

fn powered_off(dump: Option<&Path>) -> World {
    let mut w = World::new(Radio::new(Topology::Full, 900, 0.1, 29));
    observe_all(&mut w, dump);
    add_pingers(&mut w, 4, 1_000);
    w.set_mote_down(2, true).unwrap();
    w.boot();
    w
}

fn straight(w: &mut World, threads: Option<usize>) {
    run_to(w, threads, 20_000);
}

fn long(w: &mut World, threads: Option<usize>) {
    run_to(w, threads, 30_000);
}

fn resharded(w: &mut World, threads: Option<usize>) {
    run_to(w, threads, 6_500);
    w.set_target_shards(2);
    run_to(w, threads, 14_000);
    w.set_target_shards(5);
    run_to(w, threads, 20_000);
}

fn power_cycled(w: &mut World, threads: Option<usize>) {
    run_to(w, threads, 6_000);
    w.set_mote_down(2, false).unwrap();
    w.set_mote_down(1, true).unwrap();
    run_to(w, threads, 12_500);
    w.set_mote_down(1, false).unwrap();
    run_to(w, threads, 20_000);
}

fn cases() -> Vec<Case> {
    vec![
        Case { name: "pingers", build: pingers, drive: straight },
        Case { name: "zero-latency-relay", build: zero_latency_relay, drive: straight },
        Case { name: "chaotic", build: chaotic, drive: long },
        Case { name: "ceu-crash", build: ceu_crash, drive: long },
        Case { name: "boot-failure", build: boot_failure, drive: straight },
        Case { name: "clock-skew", build: skewed, drive: straight },
        Case { name: "powered-off", build: powered_off, drive: power_cycled },
        Case { name: "reshard", build: reshard, drive: resharded },
    ]
}

fn record(out: &mut String, w: &mut World, dump: &Path) {
    writeln!(out, "now {}", w.now()).unwrap();
    writeln!(out, "metrics {}", w.metrics_json()).unwrap();
    for m in 0..w.mote_count() {
        let leds = w.leds(m);
        writeln!(out, "mote {m} {:?} leds {} {:?}", w.mote_status(m), leds.state, leds.history)
            .unwrap();
    }
    let trace = w.take_trace();
    writeln!(out, "trace {}", trace.len()).unwrap();
    for e in &trace {
        writeln!(out, "{}", e.to_json()).unwrap();
    }
    let records = w.flight_records();
    writeln!(out, "flight {} {:?}", records.len(), w.flight_recorder_stats()).unwrap();
    for r in &records {
        writeln!(out, "{}", r.to_json()).unwrap();
    }
    writeln!(out, "blackbox").unwrap();
    out.push_str(&w.blackbox_json("golden", Some(0)));
    match fs::read_to_string(dump) {
        Ok(text) => {
            writeln!(out, "last crash dump").unwrap();
            out.push_str(&text);
        }
        Err(_) => writeln!(out, "no crash dump").unwrap(),
    }
    let ps = w.take_par_stats().expect("par-stats enabled");
    let t = &ps.totals;
    writeln!(
        out,
        "par-stats threads={} motes={} shards={} fallback={} windows={} dropped_windows={} \
         events={} motes_stepped={} cross_sends={} heap_pushes={} heap_pops={}",
        ps.threads,
        ps.motes,
        ps.shards,
        ps.fallback,
        t.windows,
        ps.dropped_windows,
        t.events,
        t.motes_stepped,
        t.cross_sends,
        t.heap_pushes,
        t.heap_pops
    )
    .unwrap();
    for s in &ps.per_shard {
        writeln!(
            out,
            "par-shard {} motes={} windows={} events={}",
            s.shard, s.motes, s.windows, s.events
        )
        .unwrap();
    }
}

fn render() -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("world_golden");
    fs::create_dir_all(&dir).unwrap();
    let mut out = String::new();
    for case in cases() {
        for threads in [None, Some(2), Some(4)] {
            let label = match threads {
                None => "run_until".to_string(),
                Some(n) => format!("run_until_parallel {n}"),
            };
            let dump = dir.join(format!("{}-{}.jsonl", case.name, threads.unwrap_or(1)));
            let _ = fs::remove_file(&dump);
            let mut w = (case.build)(Some(&dump));
            (case.drive)(&mut w, threads);
            writeln!(out, "=== {} / {label}", case.name).unwrap();
            record(&mut out, &mut w, &dump);
        }
    }
    out
}

#[test]
fn world_outputs_match_the_golden_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/world.txt");
    let got = render();
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
                "world golden differs at line {}:\n  got:  {}\n  want: {}",
                i + 1,
                got.lines().nth(i).unwrap(),
                want.lines().nth(i).unwrap()
            ),
            None => panic!(
                "world golden differs in length: got {} lines, want {}",
                got.lines().count(),
                want.lines().count()
            ),
        }
    }
}
