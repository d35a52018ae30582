//! `serve_onboard`: a closed loop of tenant uploads, one at a time. Each
//! upload is `open_session` → boot settled → the file's `// run:` script
//! → settled → `close_session`.
//!
//! Sources are a seeded draw from `corpus/{accept,run,reject}` and from
//! a ladder of await-chain programs (the `dfa_scaling` bench's shape).
//! A seeded share of uploads carries a per-tenant comment nonce, which
//! makes it an `ArtifactCache` miss; the rest hit the cache. This is the
//! workload where the compile pipeline and admission do the work.

use crate::util::{self, mean, now_ns, quantile, Outcome, Rng, ROOT};
use ceu::analysis::{ConflictKind, DfaOptions};
use ceu::ast::TimeSpec;
use ceu::{Error, Value};
use ceu_serve::{AdmitError, SendError, ServeConfig, SessionId, SessionService, SessionState};
use std::path::Path;
use std::time::{Duration, Instant};

/// Share of uploads that carry a fresh nonce (forced cache misses). A
/// design parameter, not measured from any tenant trace; README shows
/// the per-layer figures at a second share.
pub const MISS_SHARE: f64 = 0.25;
/// Share of uploads drawn from the generated await chains (the rest are
/// corpus files). A design parameter, like [`MISS_SHARE`].
pub const CHAIN_SHARE: f64 = 0.2;
/// Await-chain programs: loop lengths `(2k, 2k + 1)` for `k` in
/// `1..=CHAIN_LENGTHS`, each once writing one variable from both loops
/// (rejected) and once writing two (accepted). Every seed compiles the
/// same ladder of DFA sizes; the seed decides which are uploaded when.
/// The DFA of an m×n chain has about lcm(m, n) ≤ 1,056 states, far below
/// `DfaOptions::max_states`, so every verdict is known.
pub const CHAIN_LENGTHS: u64 = 16;
const CHAINS: usize = 2 * CHAIN_LENGTHS as usize;
/// Upload trials per run; per-trial rates and quantiles are summarised
/// by their interquartile mean. A setup is timed after every trial.
const ROUNDS: usize = 40;
const SETTLE_TIMEOUT: Duration = Duration::from_secs(10);

/// What the compiler must say about a source.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Verdict {
    Accept,
    /// `parse-error`, `resolve-error`, `unbounded` or `nondeterministic …`
    Reject(String),
}

enum Step {
    Event(String, Option<i64>),
    Time(u64),
    /// Let queued asyncs run: the service slices them between epochs.
    Async,
}

enum Status {
    Running,
    Terminated(Option<i64>),
}

struct Source {
    name: String,
    text: String,
    verdict: Verdict,
    script: Vec<Step>,
    status: Vec<Status>,
    /// The pipeline's refusal, as the service reports it; `None` when
    /// the source compiles. Set by [`check_verdicts`].
    refusal: Option<String>,
}

fn directives<'a>(src: &'a str, key: &str) -> Vec<&'a str> {
    let prefix = format!("// {key}:");
    src.lines().filter_map(|l| l.trim().strip_prefix(&prefix)).map(str::trim).collect()
}

fn parse_source(name: String, text: String, dir: &str) -> Result<Source, String> {
    let verdict = match (dir, directives(&text, "expect").as_slice()) {
        ("run", []) | ("accept", ["ok"]) => Verdict::Accept,
        ("reject", [kind]) => Verdict::Reject(kind.to_string()),
        (_, other) => return Err(format!("{name}: unexpected expect directives {other:?}")),
    };
    let mut script = Vec::new();
    for d in directives(&text, "run") {
        let mut it = d.split_whitespace();
        script.push(match it.next() {
            Some("event") => {
                let ev = it.next().ok_or_else(|| format!("{name}: event without name"))?;
                let value = it.next().map(|v| v.parse::<i64>()).transpose();
                Step::Event(ev.to_string(), value.map_err(|e| format!("{name}: {e}"))?)
            }
            Some("time") => {
                let t = it.next().ok_or_else(|| format!("{name}: time without duration"))?;
                let us = TimeSpec::parse(t).map(|t| t.us).or_else(|| t.parse().ok());
                Step::Time(us.ok_or_else(|| format!("{name}: bad duration {t}"))?)
            }
            Some("async") => Step::Async,
            other => return Err(format!("{name}: unknown run directive {other:?}")),
        });
    }
    let mut status = Vec::new();
    for d in directives(&text, "assert-status") {
        let mut it = d.split_whitespace();
        status.push(match (it.next(), it.next()) {
            (Some("running"), None) => Status::Running,
            (Some("terminated"), v) => Status::Terminated(
                v.map(str::parse).transpose().map_err(|e| format!("{name}: {e}"))?,
            ),
            other => return Err(format!("{name}: bad assert-status {other:?}")),
        });
    }
    Ok(Source { name, text, verdict, script, status, refusal: None })
}

fn load_corpus(root: &Path) -> Result<Vec<Source>, String> {
    let mut out = Vec::new();
    for dir in ["accept", "run", "reject"] {
        let path = root.join(dir);
        let mut files: Vec<_> = std::fs::read_dir(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ceu"))
            .collect();
        files.sort();
        for f in files {
            let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
            let name = format!("{dir}/{}", f.file_name().unwrap_or_default().to_string_lossy());
            out.push(parse_source(name, text, dir)?);
        }
    }
    if out.is_empty() {
        return Err(format!("no corpus under {}", root.display()));
    }
    Ok(out)
}

/// Two parallel loops of `m` and `n` awaits on `A` (the `dfa_scaling`
/// bench's await chain). Writing one variable from both loops is a
/// conflict at depth lcm(m, n); writing two is deterministic.
fn chain_program(m: u64, n: u64, same_var: bool) -> String {
    let awaits = |k: u64| "  await A;\n".repeat(k as usize);
    let second = if same_var { "v" } else { "w" };
    format!(
        "input void A;\nint v, w;\npar do\n loop do\n{}  v = 1;\n end\nwith\n loop do\n{}  {second} = 1;\n end\nend\n",
        awaits(m),
        awaits(n)
    )
}

fn chains() -> Vec<Source> {
    let mut out = Vec::new();
    for k in 1..=CHAIN_LENGTHS {
        let (m, n) = (2 * k, 2 * k + 1);
        for same in [false, true] {
            out.push(Source {
                name: format!("chain/{m}x{n}{}", if same { "-same" } else { "" }),
                text: chain_program(m, n, same),
                verdict: if same {
                    Verdict::Reject("nondeterministic variable".into())
                } else {
                    Verdict::Accept
                },
                script: Vec::new(),
                status: Vec::new(),
                refusal: None,
            });
        }
    }
    out
}

/// One upload: which source, and its nonce if it must miss the cache.
struct Upload {
    source: usize,
    nonce: Option<u64>,
}

struct UploadGen {
    rng: Rng,
    corpus: usize,
    next_nonce: u64,
}

impl UploadGen {
    fn next(&mut self) -> Upload {
        let source = if self.rng.chance(CHAIN_SHARE) {
            self.corpus + self.rng.below(CHAINS as u64) as usize
        } else {
            self.rng.below(self.corpus as u64) as usize
        };
        let nonce = self.rng.chance(MISS_SHARE).then(|| {
            self.next_nonce += 1;
            self.next_nonce
        });
        Upload { source, nonce }
    }
}

struct Onboard {
    svc: SessionService,
    sources: Vec<Source>,
}

/// The timed setup: a service whose cache holds every base source.
fn start_service(sources: &[Source]) -> SessionService {
    let svc = SessionService::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    for s in sources {
        if let Ok(id) = svc.open_session(&s.text) {
            svc.settle(id, SETTLE_TIMEOUT);
            svc.close_session(id);
        }
    }
    svc
}

/// Per-upload timings, kept when traced.
#[derive(Default)]
struct UploadTrace {
    source: usize,
    hit: bool,
    admit_ns: u64,
    /// `open_session` returned → boot observed settled.
    boot_ns: Option<u64>,
    close_ns: Option<u64>,
}

/// Upload measurements gathered across trials.
#[derive(Default)]
struct Acc {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    all: Vec<u64>,
    cpu_ns: u64,
    completed: u64,
    traces: Vec<UploadTrace>,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Read and checked once, outside the timed setup.
    let mut sources = load_corpus(Path::new("corpus"))?;
    let corpus = sources.len();
    sources.extend(chains());
    let reference = check_verdicts(&mut sources, &mut out);

    let mut setups = Vec::new();
    let t = Instant::now();
    let svc = start_service(&sources);
    setups.push(t.elapsed().as_secs_f64());
    let ob = Onboard { svc, sources };

    let mut gen = UploadGen { rng: Rng::new(seed, 4), corpus, next_nonce: 0 };
    let mut acc = Acc::default();
    // Traced, every trial is followed by one stage-by-stage pass over all
    // sources, so the stage times and the admissions they are reconciled
    // with see the same phases of the host. Untraced or not, every trial
    // is followed by one more timed setup, so `setup_s` sees them too.
    let mut stage_passes: Vec<Vec<Stages>> = Vec::new();
    for _ in 0..ROUNDS {
        trial(&ob, &mut gen, seconds / ROUNDS as f64, traced, &mut acc, &mut out);
        if traced {
            stage_passes.push(ob.sources.iter().map(|s| stages(&s.text)).collect());
        }
        let t = Instant::now();
        let svc = start_service(&ob.sources);
        setups.push(t.elapsed().as_secs_f64());
        drop(svc);
    }
    out.put("setup_s", util::iqm(&mut setups), "s");
    out.put("ops_per_s", util::iqm(&mut acc.rates), "1/s");
    out.put("latency_p50_us", util::iqm(&mut acc.p50) / 1e3, "us");
    out.put("latency_p90_us", util::iqm(&mut acc.p90) / 1e3, "us");
    out.put("cpu_us_per_op", acc.cpu_ns as f64 / 1e3 / acc.completed.max(1) as f64, "us");
    out.note(format!(
        "serve_onboard: {} uploads in {ROUNDS} trials, {} boot latency samples, p99 {:.1} us over \
         all (informational)",
        acc.completed,
        acc.all.len(),
        quantile(&mut acc.all, 0.99) as f64 / 1e3
    ));
    let stats = ob.svc.drain(SETTLE_TIMEOUT).stats;
    out.check(stats.crashes() == 0, || {
        format!("serve_onboard: {} sessions crashed", stats.crashes())
    });
    if traced {
        layer_metrics(&reference, &acc.traces, &stage_passes, &mut out);
    }
    Ok(out)
}

/// Compiles every source stage by stage and checks that the pipeline
/// refuses it exactly where its header says: the stage, and for a DFA
/// refusal a conflict of the named kind. Records each refusal message,
/// which the service must then give for every upload of the source.
fn check_verdicts(sources: &mut [Source], out: &mut Outcome) -> Vec<Stages> {
    let reference: Vec<Stages> = sources.iter().map(|s| stages(&s.text)).collect();
    for (src, st) in sources.iter_mut().zip(&reference) {
        out.check(!st.truncated, || format!("stages {}: DFA truncated, verdict unknown", src.name));
        out.check(refused_as_expected(&src.verdict, st.refused.as_ref()), || {
            format!("stages {}: got {:?}, expected {:?}", src.name, st.refused, src.verdict)
        });
        src.refusal = st.refused.as_ref().map(Error::to_string);
    }
    reference
}

/// Whether `got` is the refusal the `// expect:` header `want` names,
/// matched as `tests/corpus.rs` matches it.
fn refused_as_expected(want: &Verdict, got: Option<&Error>) -> bool {
    let (Verdict::Reject(kind), Some(err)) = (want, got) else {
        return *want == Verdict::Accept && got.is_none();
    };
    match (kind.as_str(), err) {
        ("parse-error", Error::Parse(_))
        | ("resolve-error", Error::Resolve(_))
        | ("unbounded", Error::Unbounded(_)) => true,
        (kind, Error::Nondeterministic(cs)) => {
            let want = match kind.strip_prefix("nondeterministic ") {
                Some("variable") => ConflictKind::Variable,
                Some("internal-event") => ConflictKind::InternalEvent,
                Some("c-call") => ConflictKind::CCall,
                _ => return false,
            };
            cs.iter().any(|c| c.kind == want)
        }
        _ => false,
    }
}

/// Uploads for `seconds`, one at a time.
fn trial(
    ob: &Onboard,
    gen: &mut UploadGen,
    seconds: f64,
    traced: bool,
    acc: &mut Acc,
    out: &mut Outcome,
) {
    let mut latencies = Vec::new();
    let completed0 = acc.completed;
    // The driver polls while it waits for a session; that is its own
    // time, not serve's, and comes off the CPU count.
    let mut waited_ns = 0;
    let cpu0 = util::threads_cpu_ns();
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while t0.elapsed() < budget {
        let up = gen.next();
        let source = &ob.sources[up.source];
        let Some((id, op, start, end, root)) = admit(ob, up, traced, acc, out) else {
            continue;
        };
        // the boot: the latency of an upload is its admission and boot
        let waiting = now_ns();
        let settled = util::settle_polling(&ob.svc, id, SETTLE_TIMEOUT);
        let seen = now_ns();
        waited_ns += seen - waiting;
        if !settled {
            out.failed += 1;
            ob.svc.close_session(id);
            continue;
        }
        latencies.push(seen - start);
        if traced {
            out.spans.push(op, root, "serve.boot", end, seen);
            acc.traces[op as usize].boot_ns = Some(seen - end);
        }
        let s0 = now_ns();
        let replayed = replay(ob, source, id, out);
        let w0 = now_ns();
        let settled = replayed && util::settle_polling(&ob.svc, id, SETTLE_TIMEOUT);
        let w1 = now_ns();
        waited_ns += w1 - w0;
        if settled {
            check_status(source, ob.svc.status(id).map(|s| s.state), out);
            acc.completed += 1;
        } else {
            out.failed += 1;
        }
        ob.svc.close_session(id);
        let c1 = now_ns();
        if traced {
            out.spans.push(op, root, "serve.script", s0, w0);
            out.spans.push(op, root, "serve.settle", w0, w1);
            out.spans.push(op, root, "serve.close_session", w1, c1);
            out.spans.spans[root as usize].end_ns = c1;
            acc.traces[op as usize].close_ns = Some(c1 - w1);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    acc.cpu_ns += (util::threads_cpu_ns() - cpu0).saturating_sub(waited_ns);
    acc.rates.push((acc.completed - completed0) as f64 / wall);
    acc.p50.push(quantile(&mut latencies, 0.50) as f64);
    acc.p90.push(quantile(&mut latencies, 0.90) as f64);
    acc.all.extend_from_slice(&latencies);
}

/// Starts one upload: `open_session` and the admission verdict check.
/// Returns the admitted session, the op id, when `open_session` was
/// called and returned, and the op's root span; `None` when the upload
/// ended at admission (a rejection, right or wrong).
fn admit(
    ob: &Onboard,
    up: Upload,
    traced: bool,
    acc: &mut Acc,
    out: &mut Outcome,
) -> Option<(SessionId, u64, u64, u64, u32)> {
    let src = &ob.sources[up.source];
    // The nonce ends the first line, so no error position moves.
    let text = match up.nonce {
        Some(n) => {
            let (first, rest) = src.text.split_once('\n').unwrap_or((&src.text, ""));
            format!("{first} // tenant {n}\n{rest}")
        }
        None => src.text.clone(),
    };
    let misses0 = if traced { ob.svc.stats().cache.misses } else { 0 };
    let start = now_ns();
    let admitted = ob.svc.open_session(&text);
    let end = now_ns();
    out.attempted += 1;
    let op = acc.traces.len() as u64;
    let mut root = ROOT;
    if traced {
        let hit = ob.svc.stats().cache.misses == misses0;
        acc.traces.push(UploadTrace {
            source: up.source,
            hit,
            admit_ns: end - start,
            ..Default::default()
        });
        root = out.spans.push(op, ROOT, "serve.upload", start, end);
        out.spans.push(op, root, "serve.open_session", start, end);
    }
    // The refusal must be the one the pipeline gave this source, which
    // `check_verdicts` matched against its header.
    let got = match &admitted {
        Ok(_) => None,
        Err(AdmitError::CompileError { message, .. }) => Some(message),
        Err(other) => {
            out.failed += 1;
            out.mismatches.push(format!("serve_onboard {}: admission gave {other:?}", src.name));
            return None;
        }
    };
    if got != src.refusal.as_ref() {
        out.failed += 1;
        out.mismatches.push(format!(
            "serve_onboard {}: admission gave {got:?}, expected {:?}",
            src.name, src.refusal
        ));
        if let Ok(id) = admitted {
            ob.svc.close_session(id);
        }
        return None;
    }
    match admitted {
        Ok(id) => Some((id, op, start, end, root)),
        Err(_) => {
            acc.completed += 1;
            None
        }
    }
}

/// Replays the file's `// run:` script; `false` if the service refused a
/// step for any reason but the program having ended.
fn replay(ob: &Onboard, src: &Source, id: SessionId, out: &mut Outcome) -> bool {
    for step in &src.script {
        let r = match step {
            Step::Event(name, v) => ob.svc.send_event(id, name, v.map(Value::Int)),
            Step::Time(us) => ob.svc.advance_time(id, *us),
            Step::Async => Ok(()),
        };
        match r {
            Ok(()) => {}
            Err(SendError::Terminated) => return true,
            Err(e) => {
                out.mismatches.push(format!("serve_onboard {}: send refused: {e:?}", src.name));
                return false;
            }
        }
    }
    true
}

fn check_status(src: &Source, state: Option<SessionState>, out: &mut Outcome) {
    for want in &src.status {
        let ok = match (want, &state) {
            (Status::Running, Some(SessionState::Running)) => true,
            (Status::Terminated(None), Some(SessionState::Terminated(_))) => true,
            (Status::Terminated(v), Some(SessionState::Terminated(got))) => v == got,
            _ => false,
        };
        out.check(ok, || format!("serve_onboard {}: final state {state:?}", src.name));
    }
}

/// One source through the pipeline stage by stage, in
/// `Compiler::compile`'s order, with each stage timed.
#[derive(Default)]
struct Stages {
    ns: [u64; 6],
    /// The error that refused the program, as `Compiler::compile`
    /// would return it.
    refused: Option<Error>,
    /// The DFA hit `DfaOptions::max_states`: its verdict is not known.
    truncated: bool,
    dfa_states: usize,
    flat_before: usize,
    flat_after: usize,
}

const STAGE_NAMES: [&str; 6] = [
    "parser.parse_us",
    "ast.resolve_us",
    "analysis.bounded_us",
    "codegen.lower_us",
    "analysis.dfa_us",
    "codegen.opt_us",
];

fn stages(text: &str) -> Stages {
    let mut st = Stages::default();
    let mut t = Instant::now();
    let mut lap = |st: &mut Stages, i: usize| {
        st.ns[i] += t.elapsed().as_nanos() as u64;
        t = Instant::now();
    };
    let mut ast = match ceu::parser::parse(text) {
        Ok(ast) => ast,
        Err(e) => {
            st.refused = Some(Error::Parse(e));
            return st;
        }
    };
    lap(&mut st, 0);
    ceu::ast::desugar(&mut ast);
    ceu::ast::number(&mut ast);
    lap(&mut st, 1);
    let tight = ceu::analysis::check_bounded(&ast);
    lap(&mut st, 2);
    if !tight.is_empty() {
        st.refused = Some(Error::Unbounded(tight));
        return st;
    }
    let resolved = ceu::ast::resolve::resolve(ast);
    lap(&mut st, 1);
    let resolved = match resolved {
        Ok(r) => r,
        Err(e) => {
            st.refused = Some(Error::Resolve(e));
            return st;
        }
    };
    let mut prog = match ceu::codegen::compile(&resolved) {
        Ok(p) => p,
        Err(e) => {
            st.refused = Some(Error::Lower(e));
            return st;
        }
    };
    lap(&mut st, 3);
    let dfa = ceu::analysis::analyze(&prog, &DfaOptions::default());
    lap(&mut st, 4);
    st.dfa_states = dfa.states.len();
    st.truncated = dfa.truncated;
    if !dfa.conflicts.is_empty() {
        st.refused = Some(Error::Nondeterministic(dfa.conflicts));
        return st;
    }
    let opt = ceu::codegen::optimize(&mut prog);
    lap(&mut st, 5);
    st.flat_before = opt.flat_ops_before;
    st.flat_after = opt.flat_ops_after;
    st
}

fn layer_metrics(
    reference: &[Stages],
    traces: &[UploadTrace],
    passes: &[Vec<Stages>],
    out: &mut Outcome,
) {
    let ns_of = |f: &dyn Fn(&UploadTrace) -> Option<u64>| -> Vec<u64> {
        traces.iter().filter_map(f).collect()
    };
    let admit_hit = mean(&ns_of(&|t| t.hit.then_some(t.admit_ns))) / 1e3;
    let admit_miss = mean(&ns_of(&|t| (!t.hit).then_some(t.admit_ns))) / 1e3;
    let hits = traces.iter().filter(|t| t.hit).count();
    out.put("serve.admit_hit_us", admit_hit, "us");
    out.put("serve.admit_miss_us", admit_miss, "us");
    out.put("serve.cache_hit_ratio", hits as f64 / traces.len().max(1) as f64, "ratio");
    out.put("serve.boot_us", mean(&ns_of(&|t| t.boot_ns)) / 1e3, "us");
    out.put("serve.close_us", mean(&ns_of(&|t| t.close_ns)) / 1e3, "us");

    let sum = |f: fn(&Stages) -> usize| reference.iter().map(f).sum::<usize>() as f64;
    out.put("analysis.dfa_states", sum(|s| s.dfa_states), "count");
    out.put("codegen.flat_ops_before", sum(|s| s.flat_before), "count");
    out.put("codegen.flat_ops_after", sum(|s| s.flat_after), "count");

    // Each stage's time for each distinct source is its median over the
    // passes; the stage metrics weight those by what the service
    // compiled, one term per cache-missing upload.
    let median_ns: Vec<[u64; 6]> = (0..reference.len())
        .map(|k| {
            std::array::from_fn(|i| {
                let mut v: Vec<u64> = passes.iter().map(|p| p[k].ns[i]).collect();
                quantile(&mut v, 0.5)
            })
        })
        .collect();
    let misses: Vec<usize> = traces.iter().filter(|t| !t.hit).map(|t| t.source).collect();
    let n = misses.len().max(1) as f64;
    let mut stage_sum_us = 0.0;
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        let us = misses.iter().map(|&k| median_ns[k][i]).sum::<u64>() as f64 / n / 1e3;
        stage_sum_us += us;
        out.put(name, us, "us");
    }
    let diff = admit_miss - admit_hit;
    let err = (stage_sum_us - diff).abs() / diff.max(f64::EPSILON);
    out.note(format!(
        "reconcile serve_onboard: compile stages {stage_sum_us:.2} us vs admit miss-hit {diff:.2} us \
         (err {:.1}%, tolerance {:.0}%)",
        err * 100.0,
        crate::RECONCILE_COMPILE_TOL * 100.0
    ));
    out.check(err <= crate::RECONCILE_COMPILE_TOL, || {
        format!("reconcile serve_onboard: stages {stage_sum_us:.2} us vs miss-hit {diff:.2} us")
    });
}
