//! Shared measurement plumbing: the seeded input generator, quantiles,
//! process/thread CPU clocks read from procfs, the counting allocator,
//! the in-memory span store and the metric list a pass hands back.

use ceu_serve::{SessionId, SessionService};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input a workload generates.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// The `q`-quantile of `v` (nearest rank, `v` sorted in place); 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((v.len() as f64) * q).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median_f64(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `v` (sorted in
/// place). Per-trial values are summarised with it: unlike the median it
/// moves smoothly when a run's trials split between a fast and a slow
/// host phase, and unlike the mean it ignores a stalled trial.
pub fn iqm(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

pub fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}

/// Nanoseconds on the process-wide span clock (its epoch is the first
/// call), so spans of every trial share one time axis.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Least time between two polls of a session (see [`settle_polling`]).
pub const POLL_NS: u64 = 1_000;

/// `settle` that never parks the calling thread: polls its zero-timeout
/// form at most once per [`POLL_NS`]. On a virtual machine a parked
/// vCPU's wake-up costs 10-30 us and flips between a fast and a slow mode
/// with host load, which would otherwise dominate what is measured.
pub fn settle_polling(svc: &SessionService, id: SessionId, timeout: Duration) -> bool {
    let deadline = now_ns() + timeout.as_nanos() as u64;
    loop {
        if svc.settle(id, Duration::ZERO) {
            return true;
        }
        let next = now_ns() + POLL_NS;
        if next > deadline {
            return false;
        }
        while now_ns() < next {
            std::hint::spin_loop();
        }
    }
}

/// On-CPU nanoseconds summed over this process's live threads, from
/// `/proc/self/task/*/schedstat`. Exact to the nanosecond, but a thread
/// that exits takes its time with it: compare two readings only across
/// an interval in which no thread of interest ended.
pub fn threads_cpu_ns() -> u64 {
    named_threads_cpu_ns("")
}

/// On-CPU nanoseconds of this thread, from `/proc/thread-self/schedstat`.
pub fn thread_cpu_ns() -> u64 {
    schedstat("/proc/thread-self/schedstat")
}

/// Summed on-CPU nanoseconds of this process's threads whose name starts
/// with `prefix` (e.g. `serve-worker-`).
pub fn named_threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return 0 };
    let mut total = 0;
    for task in dir.flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            total += schedstat(&path.join("schedstat").to_string_lossy());
        }
    }
    total
}

fn schedstat(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Time the host ran something else while this guest's vCPUs were
/// ready (`steal` in `/proc/stat`), summed over vCPUs, in ms. Printed
/// with each result: a run with much steal is a run of a busy host.
pub fn host_steal_ms() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * 10)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// The system allocator plus a count of allocations made while counting
/// is switched on — the source of `runtime.allocs_per_event`. Off, it
/// costs one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded with the caller's layout (same contract).
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; `ptr`/`layout` satisfy the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts the allocations `f` makes (single-threaded use only).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// One recorded span: a layer boundary crossed by one operation.
pub struct Span {
    /// Operation id; every span of one op shares it.
    pub op: u64,
    /// Index of the parent span in the store, or `u32::MAX` for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const ROOT: u32 = u32::MAX;

/// In-memory span store. Nothing is written until [`Spans::write`] at
/// the end of the run, so recording is a `Vec` push.
#[derive(Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    /// Records a span and returns its index (for use as a parent).
    pub fn push(&mut self, op: u64, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        self.spans.push(Span { op, parent, name, start_ns: start, end_ns: end });
        (self.spans.len() - 1) as u32
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Tab-separated `index parent op name start_ns end_ns`, one span a line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// A measured value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload pass returns: its metrics, how many ops it
/// attempted and how many failed, and every correctness mismatch.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Informational lines (sample counts, p99, reconciliation detail).
    pub notes: Vec<String>,
    pub spans: Spans,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}
