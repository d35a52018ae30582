//! `serve_steady`: 256 pre-admitted sessions under an open loop at a
//! fixed rate, then the same sessions at saturation.
//!
//! The open loop is where each event pays for the whole serve path
//! (lock, mailbox, condvar wake, one epoch); at saturation 32-message
//! epochs amortise that path and the `Machine` reaction dominates. The
//! service has no reply channel, so the driver observes completion by
//! polling `settle` on the session of the oldest outstanding event.

use crate::util::{self, mean, now_ns, quantile, Outcome, Rng, Spans, ROOT};
use ceu::ast::EventId;
use ceu::{Compiler, Machine, NullHost, Value};
use ceu_serve::{ServeConfig, SessionId, SessionService};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Sessions admitted in setup and driven by both phases.
pub const SESSIONS: usize = 256;
/// Open-loop offered rate (events/s), fixed: never calibrated at run time.
pub const OPEN_RATE_PER_S: u64 = 50_000;
/// Saturation phase: events outstanding per session (= the service's
/// default epoch batch, so a full mailbox is one epoch).
pub const SAT_OUTSTANDING: usize = 32;
/// Virtual time one timer-tenant op advances (one timer period).
pub const TIMER_PERIOD_US: u64 = 10_000;
/// Events per program in the bare-`Machine` pass.
const BARE_EVENTS: usize = 20_000;
/// Open-loop/saturation trial pairs per run. A setup is timed after
/// every pair.
const ROUNDS: usize = 40;
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);

/// The periodic-timer tenant, driven by `advance_time` (§2.3 `go_time`).
pub const TIMER_TENANT: &str = "
    int ticks = 0;
    loop do
       await 10ms;
       ticks = ticks + 1;
    end
";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `ceu_corpus::DATAFLOW_CHAIN` (§2.2 emit chain), driven by `Go`.
    Dataflow,
    /// `ceu_corpus::EXPR_HEAVY` (flat evaluator), driven by `E <int>`.
    Expr,
    /// [`TIMER_TENANT`], driven by `advance_time`.
    Timer,
}

pub const KINDS: [Kind; 3] = [Kind::Dataflow, Kind::Expr, Kind::Timer];

impl Kind {
    pub fn source(self) -> &'static str {
        match self {
            Kind::Dataflow => ceu_corpus::DATAFLOW_CHAIN,
            Kind::Expr => ceu_corpus::EXPR_HEAVY,
            Kind::Timer => TIMER_TENANT,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Dataflow => "dataflow",
            Kind::Expr => "expr",
            Kind::Timer => "timer",
        }
    }
}

/// The seeded tenant mix: session `i` runs `kinds[i]`, each of the three
/// equally likely. The equal shares are a design parameter, not measured
/// from any tenant trace.
fn tenant_mix(seed: u64) -> Vec<Kind> {
    let mut rng = Rng::new(seed, 1);
    (0..SESSIONS).map(|_| KINDS[rng.below(3) as usize]).collect()
}

/// The seeded event stream: which session gets the next event, and the
/// `E` payload if it is an expression tenant. The open loop, the
/// saturation phase and the bare pass all draw from it.
struct EventGen(Rng);

impl EventGen {
    fn new(seed: u64) -> Self {
        EventGen(Rng::new(seed, 2))
    }

    fn next(&mut self) -> (usize, i64) {
        let s = self.0.below(SESSIONS as u64) as usize;
        let x = self.0.below(1000) as i64;
        (s, x)
    }
}

struct Steady {
    svc: SessionService,
    ids: Vec<SessionId>,
    kinds: Vec<Kind>,
    /// Events each session accepted (the correctness ledger).
    accepted: Vec<u64>,
}

fn setup(seed: u64) -> Steady {
    let kinds = tenant_mix(seed);
    let svc = SessionService::start(ServeConfig {
        workers: 1,
        // room for SESSIONS × SAT_OUTSTANDING in flight at saturation
        global_queue_cap: 2 * SESSIONS * SAT_OUTSTANDING,
        ..ServeConfig::default()
    });
    let ids: Vec<SessionId> = kinds
        .iter()
        .map(|k| svc.open_session(k.source()).expect("tenant programs compile and fit"))
        .collect();
    for id in &ids {
        assert!(svc.settle(*id, SETTLE_TIMEOUT), "boot settles");
    }
    Steady { svc, ids, kinds, accepted: vec![0; SESSIONS] }
}

impl Steady {
    /// Sends session `s` its tenant's next op; `false` if refused.
    fn send_op(&mut self, s: usize, x: i64) -> bool {
        let id = self.ids[s];
        let r = match self.kinds[s] {
            Kind::Dataflow => self.svc.send_event(id, "Go", None),
            Kind::Expr => self.svc.send_event(id, "E", Some(Value::Int(x))),
            Kind::Timer => self.svc.advance_time(id, TIMER_PERIOD_US),
        };
        if r.is_ok() {
            self.accepted[s] += 1;
        }
        r.is_ok()
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let t = Instant::now();
    let mut st = setup(seed);
    setups.push(t.elapsed().as_secs_f64());

    // Open-loop and saturation trials alternate, so a disturbance of the
    // host lands in a few trials of each rather than in one phase; each
    // metric is the interquartile mean over trials. For the same reason
    // a fresh setup is timed (and dropped) after every pair.
    let mut gen = EventGen::new(seed);
    let trial_s = seconds / (2 * ROUNDS) as f64;
    let mut open = OpenAcc { traced, ..OpenAcc::default() };
    let mut rates = Vec::new();
    for _ in 0..ROUNDS {
        open_trial(&mut st, &mut gen, trial_s, &mut open, &mut out);
        rates.push(saturation_trial(&mut st, &mut gen, trial_s, &mut out));
        let t = Instant::now();
        let spare = setup(seed);
        setups.push(t.elapsed().as_secs_f64());
        drop(spare);
    }
    out.put("setup_s", util::iqm(&mut setups), "s");
    out.put("ops_per_s", util::iqm(&mut rates), "1/s");
    open.finish(&st.svc, &mut out);

    for (s, id) in st.ids.iter().enumerate() {
        let processed = st.svc.status(*id).map_or(0, |s| s.events_processed);
        out.check(processed == st.accepted[s], || {
            format!("serve_steady: session {s} processed {processed} of {} sent", st.accepted[s])
        });
    }
    for id in &st.ids {
        st.svc.close_session(*id);
    }
    let report = st.svc.drain(SETTLE_TIMEOUT);
    out.check(report.clean && report.stats.crashes() == 0, || {
        format!("serve_steady: drain clean={} crashes={}", report.clean, report.stats.crashes())
    });
    bare_pass(seed, traced, &mut out);
    out
}

/// One open-loop event in flight.
struct Pending {
    session: usize,
    op: u64,
    due: u64,
    send_end: u64,
    root: u32,
}

/// Open-loop measurements gathered across trials.
#[derive(Default)]
struct OpenAcc {
    traced: bool,
    p50: Vec<f64>,
    p90: Vec<f64>,
    all: Vec<u64>,
    cpu_ns: u64,
    wall_ns: u64,
    worker_ns: u64,
    driver_ns: u64,
    lags: Vec<u64>,
    sends: Vec<u64>,
    post_send: Vec<u64>,
    spans: Spans,
    /// Service counter deltas over the open-loop trials: reactions
    /// timed, their summed ns, events processed, epochs run.
    reactions: u64,
    reaction_ns: u64,
    events: u64,
    epochs: u64,
    /// Next op id; op ids run on across trials.
    op: u64,
}

impl OpenAcc {
    fn finish(mut self, svc: &SessionService, out: &mut Outcome) {
        out.put("latency_p50_us", util::iqm(&mut self.p50) / 1e3, "us");
        out.put("latency_p90_us", util::iqm(&mut self.p90) / 1e3, "us");
        let done = self.all.len() as u64;
        out.put("cpu_us_per_op", self.cpu_ns as f64 / 1e3 / done.max(1) as f64, "us");
        out.note(format!(
            "serve_steady open loop: {done} events at {OPEN_RATE_PER_S}/s in {ROUNDS} trials, \
             p99 {:.1} us over all (informational)",
            quantile(&mut self.all, 0.99) as f64 / 1e3
        ));
        if !self.traced {
            return;
        }
        let s1 = svc.stats();
        let (reactions, events, epochs) = (self.reactions, self.events, self.epochs);
        let reaction_mean_ns = self.reaction_ns as f64 / reactions.max(1) as f64;
        let send_us = mean(&self.sends) / 1e3;
        let lag_us = mean(&self.lags) / 1e3;
        let wait_us = mean(&self.post_send) / 1e3 - reaction_mean_ns / 1e3;
        out.put("serve.send_us", send_us, "us");
        out.put("serve.wait_us", wait_us, "us");
        // the service's histogram is cumulative: these quantiles cover
        // boots, open-loop and saturation reactions alike
        out.put("serve.reaction_ns_p50", s1.reaction_ns.quantile(0.50) as f64, "ns");
        out.put("serve.reaction_ns_p90", s1.reaction_ns.quantile(0.90) as f64, "ns");
        out.put("serve.epochs_per_event", epochs as f64 / events.max(1) as f64, "count");
        let wall = self.wall_ns as f64;
        out.put("serve.worker_busy_share", self.worker_ns as f64 / wall, "ratio");
        out.put("bench.gen_lag_us_p50", quantile(&mut self.lags, 0.50) as f64 / 1e3, "us");
        out.put("bench.gen_lag_us_max", quantile(&mut self.lags, 1.0) as f64 / 1e3, "us");
        out.put("bench.driver_cpu_share", self.driver_ns as f64 / wall, "ratio");

        // Reconciliation: the service processed and timed exactly the
        // events the driver saw complete, and never claims more reaction
        // time than the driver waited after `send_event` returned. The
        // parts sum to the mean latency by construction (`wait_us` is the
        // remainder), so the sum is printed, not checked.
        let latency_mean_us = mean(&self.spans.durations("serve.event")) / 1e3;
        out.note(format!(
            "reconcile serve_steady: lag {lag_us:.2} + send {send_us:.2} + wait {wait_us:.2} + \
             reaction {:.2} us = latency mean {latency_mean_us:.2} us; {done} events seen, \
             {events} processed, {reactions} timed",
            reaction_mean_ns / 1e3,
        ));
        out.check(events == done && reactions == done, || {
            format!(
                "reconcile serve_steady: driver saw {done} events, service processed {events}, \
                 timed {reactions}"
            )
        });
        out.check(wait_us >= 0.0, || {
            format!("reconcile serve_steady: reaction exceeds the wait by {:.2} us", -wait_us)
        });
        out.spans.spans.append(&mut self.spans.spans);
    }
}

fn open_trial(
    st: &mut Steady,
    gen: &mut EventGen,
    seconds: f64,
    acc: &mut OpenAcc,
    out: &mut Outcome,
) {
    let period_ns = 1_000_000_000 / OPEN_RATE_PER_S;
    let total = (seconds * OPEN_RATE_PER_S as f64) as u64;
    let mut latencies = Vec::with_capacity(total as usize);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let traced = acc.traced;
    let stats0 = if traced { Some(st.svc.stats()) } else { None };
    let worker0 = if traced { util::named_threads_cpu_ns("serve-worker-") } else { 0 };
    let driver0 = if traced { util::thread_cpu_ns() } else { 0 };
    let cpu0 = util::threads_cpu_ns();
    let t0 = now_ns();
    let mut k = 0u64;
    // The driver never blocks: it sends what is due, then polls the
    // oldest outstanding event's session with a zero-timeout `settle`, at
    // most once per `util::POLL_NS` so the poll barely contends for the
    // service lock. Polling and waiting for the next due time are the load
    // generator's own time, not serve's, and come off the CPU count.
    let mut idle_ns = 0;
    let mut idle_since: Option<u64> = None;
    let mut next_poll = 0;
    loop {
        let now = now_ns();
        while k < total && t0 + k * period_ns <= now {
            if let Some(since) = idle_since.take() {
                idle_ns += now - since;
            }
            let due = t0 + k * period_ns;
            let (s, x) = gen.next();
            let send_start = now_ns();
            let ok = st.send_op(s, x);
            let send_end = now_ns();
            out.attempted += 1;
            let op = acc.op;
            acc.op += 1;
            k += 1;
            if !ok {
                out.failed += 1;
                continue;
            }
            let mut root = ROOT;
            if traced {
                acc.lags.push(send_start - due);
                acc.sends.push(send_end - send_start);
                root = acc.spans.push(op, ROOT, "serve.event", due, due);
                acc.spans.push(op, root, "bench.gen_lag", due, send_start);
                acc.spans.push(op, root, "serve.send_event", send_start, send_end);
            }
            pending.push_back(Pending { session: s, op, due, send_end, root });
        }
        let Some(p) = pending.front() else {
            if k >= total {
                break;
            }
            idle_since.get_or_insert(now);
            std::hint::spin_loop();
            continue;
        };
        if now < next_poll {
            idle_since.get_or_insert(now);
            std::hint::spin_loop();
            continue;
        }
        if let Some(since) = idle_since.take() {
            idle_ns += now - since;
        }
        let poll_start = now_ns();
        if st.svc.settle(st.ids[p.session], Duration::ZERO) {
            let seen = now_ns();
            latencies.push(seen - p.due);
            if traced {
                acc.spans.push(p.op, p.root, "serve.settle", poll_start, seen);
                acc.spans.spans[p.root as usize].end_ns = seen;
                acc.post_send.push(seen - p.send_end);
            }
            pending.pop_front();
        } else if now - p.due > SETTLE_TIMEOUT.as_nanos() as u64 {
            out.failed += 1;
            pending.pop_front();
        } else {
            next_poll = now_ns() + util::POLL_NS;
        }
    }
    let wall = now_ns() - t0;
    acc.cpu_ns += (util::threads_cpu_ns() - cpu0).saturating_sub(idle_ns);
    if traced {
        acc.wall_ns += wall;
        acc.worker_ns += util::named_threads_cpu_ns("serve-worker-") - worker0;
        acc.driver_ns += util::thread_cpu_ns() - driver0;
    }
    if let Some(s0) = stats0 {
        let s1 = st.svc.stats();
        acc.reactions += s1.reaction_ns.count - s0.reaction_ns.count;
        acc.reaction_ns += s1.reaction_ns.sum - s0.reaction_ns.sum;
        acc.events += s1.events_processed - s0.events_processed;
        acc.epochs += s1.epochs - s0.epochs;
    }
    acc.p50.push(quantile(&mut latencies, 0.50) as f64);
    acc.p90.push(quantile(&mut latencies, 0.90) as f64);
    acc.all.extend_from_slice(&latencies);
}

/// One saturation trial; returns its completed events per second.
fn saturation_trial(st: &mut Steady, gen: &mut EventGen, seconds: f64, out: &mut Outcome) -> f64 {
    // Each session alternates: settle (its previous batch is done), then
    // refill to SAT_OUTSTANDING. The worker drains sessions in run-queue
    // order, so the driver refills one while the worker runs the others.
    let mut sent = 0u64;
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut s = 0;
    while t0.elapsed() < budget {
        if !util::settle_polling(&st.svc, st.ids[s], SETTLE_TIMEOUT) {
            out.failed += 1;
        }
        // the stream supplies payloads; the session is the one refilled
        for _ in 0..SAT_OUTSTANDING {
            let (_, x) = gen.next();
            out.attempted += 1;
            if st.send_op(s, x) {
                sent += 1;
            } else {
                out.failed += 1;
            }
        }
        s = (s + 1) % SESSIONS;
    }
    for id in &st.ids {
        if !util::settle_polling(&st.svc, *id, SETTLE_TIMEOUT) {
            out.failed += 1;
        }
    }
    sent as f64 / t0.elapsed().as_secs_f64()
}

/// The same three programs and input stream on a bare `Machine`, no
/// service: checks each program's closed form and, traced, gives the
/// reaction cost and the per-event work counters.
fn bare_pass(seed: u64, traced: bool, out: &mut Outcome) {
    let kinds = tenant_mix(seed);
    let mut counters = [0u64; 4]; // tracks, gates fired, emits, allocs
    let mut events_total = 0u64;
    for kind in KINDS {
        let prog = Compiler::new().compile(kind.source()).expect("tenant program compiles");
        let mut gen = EventGen::new(seed);
        let inputs: Vec<i64> = std::iter::from_fn(|| Some(gen.next()))
            .filter(|(s, _)| kinds[*s] == kind)
            .map(|(_, x)| x)
            .take(BARE_EVENTS)
            .collect();
        let ev = match kind {
            Kind::Dataflow => prog.events.lookup("Go"),
            Kind::Expr => prog.events.lookup("E"),
            Kind::Timer => None,
        };
        let payload = |x: i64| (kind == Kind::Expr).then_some(Value::Int(x));

        // timed pass: batches of events, per-reaction ns = batch mean
        let mut m = Machine::new(prog.clone());
        let mut host = NullHost;
        m.go_init(&mut host).expect("boot");
        let mut batch_ns = Vec::new();
        for chunk in inputs.chunks(1_000) {
            let t = Instant::now();
            for x in chunk {
                react(&mut m, ev, payload(*x), &mut host);
            }
            batch_ns.push(t.elapsed().as_nanos() as f64 / chunk.len() as f64);
        }
        check_closed_form(&m, kind, &inputs, out);
        if !traced {
            continue;
        }
        out.put(
            &format!("runtime.react_ns.{}", kind.name()),
            util::median_f64(&mut batch_ns),
            "ns",
        );

        // counting pass: machine metrics plus the counting allocator
        let mut m = Machine::new(prog);
        m.enable_metrics();
        m.go_init(&mut host).expect("boot");
        let before = m.metrics().expect("metrics on").clone();
        let ((), allocs) = util::count_allocs(|| {
            for x in &inputs {
                react(&mut m, ev, payload(*x), &mut host);
            }
        });
        let after = m.metrics().expect("metrics on");
        counters[0] += after.tracks_run - before.tracks_run;
        counters[1] += after.gates_fired - before.gates_fired;
        counters[2] += after.emits_int - before.emits_int;
        counters[3] += allocs;
        events_total += inputs.len() as u64;
    }
    if traced {
        let per = |c: u64| c as f64 / events_total as f64;
        out.put("runtime.tracks_per_event", per(counters[0]), "count");
        out.put("runtime.gates_fired_per_event", per(counters[1]), "count");
        out.put("runtime.emits_per_event", per(counters[2]), "count");
        out.put("runtime.allocs_per_event", per(counters[3]), "count");
    }
}

/// One reaction: input event `ev` with `value`, or, for the timer
/// tenant (`ev` is `None`), one timer period of time.
fn react(m: &mut Machine, ev: Option<EventId>, value: Option<Value>, host: &mut NullHost) {
    match ev {
        Some(ev) => m.go_event(ev, value, host).expect("reaction"),
        None => {
            let t = m.now() + TIMER_PERIOD_US;
            m.go_time(t, host).expect("reaction")
        }
    };
}

fn var(m: &Machine, name: &str) -> Option<i64> {
    let unique = m.program().slots.iter().find(|s| s.name.split('#').next() == Some(name))?;
    m.read_var(&unique.name).and_then(|v| v.as_int())
}

fn check_closed_form(m: &Machine, kind: Kind, inputs: &[i64], out: &mut Outcome) {
    let n = inputs.len() as i64;
    let want: Vec<(&str, i64)> = match kind {
        // v1 += 10 per Go; the emit chain derives v2 and v3 from it
        Kind::Dataflow => vec![("v1", 10 * n), ("v2", 10 * n + 1), ("v3", 2 * (10 * n + 1))],
        // every statement after the await adds a constant: v = x + 25
        Kind::Expr => vec![
            ("v", inputs.last().map_or(0, |x| x + 25)),
            ("acc", inputs.iter().map(|x| x + 25).sum()),
        ],
        Kind::Timer => vec![("ticks", n)],
    };
    for (name, value) in want {
        let got = var(m, name);
        out.check(got == Some(value), || {
            format!("bare {}: {name} = {got:?}, closed form says {value}", kind.name())
        });
    }
}
