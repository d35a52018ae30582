//! `world_mesh`: the `ceu_bench::shard_mesh` topology scaled up in
//! cluster count until mote state is well past a 4 MiB L2, run to a
//! fixed horizon with `run_until_parallel(h, 2)`, rebuilt and rerun
//! until the time is up.
//!
//! The PDES window, the radio and per-mote `Machine` stepping do all the
//! work here; serve and compile do none. The mote program has no
//! internal emits, so it bypasses the §2.2 emit-chain machinery.

use crate::util::{self, now_ns, quantile, Outcome, ROOT};
use ceu_bench::shard_mesh::{mesh_program, MESH_BRIDGE_US, MESH_CLUSTER_SIZE, MESH_INTRA_US};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsn_sim::world::{MoteStats, Stats};
use wsn_sim::{CeuMote, ParStats, Radio, RebootPolicy, World};

/// Clusters of [`MESH_CLUSTER_SIZE`] motes (the standard mesh has 6).
pub const CLUSTERS: usize = 512;
/// Virtual horizon of one run, µs.
pub const HORIZON_US: u64 = 40_000;
/// Worker threads (= `nproc` on the reference box).
pub const THREADS: usize = 2;
/// Shard target: eight per thread, as the soak harness uses.
pub const SHARDS: usize = 8 * THREADS;
/// Radio loss, as the standard mesh.
const LOSS: f64 = 0.10;
/// Runs per process at least, however short `--seconds` is.
const MIN_RUNS: usize = 3;

fn build(seed: u64, par_stats: bool) -> World {
    let motes = CLUSTERS * MESH_CLUSTER_SIZE;
    let prog = Arc::new(
        ceu::Compiler::new().compile(&mesh_program(motes)).expect("mesh program compiles"),
    );
    let radio = Radio::clustered(
        CLUSTERS,
        MESH_CLUSTER_SIZE,
        MESH_INTRA_US.to_vec(),
        MESH_BRIDGE_US,
        LOSS,
        seed,
    );
    let mut w = World::new(radio);
    w.set_target_shards(SHARDS);
    w.set_reboot_policy(RebootPolicy::After(2_500));
    if par_stats {
        w.enable_par_stats();
    }
    for id in 0..motes as i64 {
        w.add_mote(Box::new(CeuMote::from_shared(Arc::clone(&prog), id)));
    }
    w.boot();
    w
}

/// Everything the run leaves observable: per-mote stats, final LED state
/// and a hash of each mote's LED history, plus the network totals.
#[derive(PartialEq, Eq)]
struct Fingerprint {
    motes: Vec<(MoteStats, u8, u64)>,
    stats: Stats,
}

fn fingerprint(w: &World) -> Fingerprint {
    let motes = (0..w.mote_count())
        .map(|m| {
            let leds = w.leds(m);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (t, led, on) in &leds.history {
                for x in [*t, *led as u64, *on as u64] {
                    h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
                }
            }
            (*w.mote_stats(m), leds.state, h)
        })
        .collect();
    Fingerprint { motes, stats: w.stats }
}

/// World events of a run: timer firings plus packet deliveries.
fn world_ops(fp: &Fingerprint) -> u64 {
    fp.motes.iter().map(|(s, _, _)| s.timer_firings).sum::<u64>() + fp.stats.delivered
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut walls_ns = Vec::new();
    let mut rates = Vec::new();
    let mut cpu_ns = 0u64;
    let mut ops_total = 0u64;
    let mut reference: Option<Fingerprint> = None;
    let mut par: Vec<ParStats> = Vec::new();
    let mut covers = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let t_all = Instant::now();
    while walls_ns.len() < MIN_RUNS || t_all.elapsed() < budget {
        let b0 = now_ns();
        let mut w = build(seed, traced);
        let b1 = now_ns();
        setups.push((b1 - b0) as f64 / 1e9);
        // the world's worker pool starts inside the call and outlives it
        let cpu0 = util::threads_cpu_ns();
        let r0 = now_ns();
        w.run_until_parallel(HORIZON_US, THREADS);
        let r1 = now_ns();
        let wall = r1 - r0;
        cpu_ns += util::threads_cpu_ns() - cpu0;
        let fp = fingerprint(&w);
        if traced {
            let op = walls_ns.len() as u64;
            let root = out.spans.push(op, ROOT, "wsn.run", b0, now_ns());
            out.spans.push(op, root, "wsn.build_boot", b0, b1);
            out.spans.push(op, root, "wsn.run_until_parallel", r0, r1);
        }
        let ops = world_ops(&fp);
        out.attempted += ops;
        ops_total += ops;
        walls_ns.push(wall);
        rates.push(ops as f64 * 1e9 / wall as f64);
        if let Some(ps) = w.take_par_stats() {
            covers.push(reconcile(&ps, wall, &mut out));
            par.push(ps);
        }
        match &reference {
            None => reference = Some(fp),
            Some(r) => out.check(*r == fp, || "world_mesh: parallel runs disagree".into()),
        }
    }
    let runs = walls_ns.len();
    out.put("setup_s", util::iqm(&mut setups), "s");
    out.put("ops_per_s", util::iqm(&mut rates), "1/s");
    out.put("latency_p50_us", quantile(&mut walls_ns, 0.50) as f64 / 1e3, "us");
    out.put("latency_p90_us", quantile(&mut walls_ns, 0.90) as f64 / 1e3, "us");
    out.put("cpu_us_per_op", cpu_ns as f64 / 1e3 / ops_total.max(1) as f64, "us");

    // The sequential stepper on the same seed is the oracle.
    let mut w = build(seed, false);
    let t = Instant::now();
    w.run_until(HORIZON_US);
    let seq_wall = t.elapsed().as_secs_f64();
    let seq = fingerprint(&w);
    drop(w);
    let reference = reference.expect("at least one run");
    out.check(seq == reference, || "world_mesh: parallel run differs from run_until".into());
    let motes = CLUSTERS * MESH_CLUSTER_SIZE;
    out.note(format!(
        "world_mesh: {runs} runs of {motes} motes to {HORIZON_US} us, {} world events each",
        world_ops(&reference)
    ));
    if traced {
        out.note(format!(
            "reconcile world_mesh: attribution = threads x window wall in all {runs} runs; \
             windows cover at least {:.1}% of each run_until_parallel call (tolerance {:.0}%)",
            covers.iter().copied().fold(f64::INFINITY, f64::min) * 100.0,
            crate::RECONCILE_WINDOW_TOL * 100.0
        ));
        layer_metrics(&par, &reference, seq_wall, &mut out);
    }
    out
}

/// The `ParStats` attribution splits `threads × window wall` exactly;
/// the windows must also cover the call's wall time as timed here.
fn reconcile(ps: &ParStats, call_ns: u64, out: &mut Outcome) -> f64 {
    let total = ps.totals.attribution.total_ns();
    let window_ns = ps.window_wall_ns();
    out.check(total == ps.threads as u64 * window_ns, || {
        format!("reconcile world_mesh: attribution {total} ns != {} x {window_ns} ns", ps.threads)
    });
    let cover = window_ns as f64 / call_ns as f64;
    out.check((1.0 - crate::RECONCILE_WINDOW_TOL..=1.0).contains(&cover), || {
        format!("reconcile world_mesh: windows cover {:.1}% of the call", cover * 100.0)
    });
    cover
}

fn layer_metrics(par: &[ParStats], fp: &Fingerprint, seq_wall: f64, out: &mut Outcome) {
    let sum = |f: &dyn Fn(&ParStats) -> u64| par.iter().map(f).sum::<u64>() as f64;
    let total = sum(&|p| p.totals.attribution.total_ns());
    let share = |f: &dyn Fn(&ParStats) -> u64| sum(f) / total;
    out.put("wsn.busy_share", share(&|p| p.totals.attribution.busy_ns), "ratio");
    out.put("wsn.imbalance_share", share(&|p| p.totals.attribution.imbalance_ns), "ratio");
    out.put("wsn.barrier_share", share(&|p| p.totals.attribution.barrier_ns), "ratio");
    out.put("wsn.merge_share", share(&|p| p.totals.attribution.merge_ns), "ratio");
    out.put("wsn.lookahead_share", share(&|p| p.totals.attribution.lookahead_ns), "ratio");
    let runs = par.len() as f64;
    let windows = sum(&|p| p.totals.windows);
    out.put("wsn.windows", windows / runs, "count");
    out.put("wsn.events_per_window", sum(&|p| p.totals.events) / windows, "count");
    out.put("wsn.cross_sends", sum(&|p| p.totals.cross_sends) / runs, "count");
    let mut busy: Vec<u64> = Vec::new();
    for p in par {
        for s in &p.per_shard {
            let i = s.shard as usize;
            if busy.len() <= i {
                busy.resize(i + 1, 0);
            }
            busy[i] += s.busy_ns;
        }
    }
    let mean_busy = busy.iter().sum::<u64>() as f64 / busy.len().max(1) as f64;
    let max_busy = busy.iter().copied().max().unwrap_or(0) as f64;
    out.put("wsn.shard_imbalance", max_busy / mean_busy, "ratio");
    let s = fp.stats;
    out.put("radio.delivered_ratio", s.delivered as f64 / (s.delivered + s.lost) as f64, "ratio");
    out.put("wsn.seq_wall_s", seq_wall, "s");
}
