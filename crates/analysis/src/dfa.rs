//! Temporal analysis: DFA construction and nondeterminism detection (§2.6).
//!
//! The compiled program is abstractly executed: a DFA state is the set of
//! possibly-active gates (plus par/and flags), with wall-clock gates
//! carrying their *relative* deadlines. From each state, one transition is
//! explored per external event with listeners, per expiring known deadline
//! (simultaneous deadlines fire together — that is how `10ms×10` against
//! `100ms` is caught), per unknown-duration timer (alone, paired with other
//! unknowns, and coinciding with the next known deadline), and per async
//! completion.
//!
//! Expanding a reaction explores **both** branches of every conditional
//! (may-semantics — the source of the paper's admitted false positives)
//! and tracks concurrency with *trail groups*: every `Spawn` forks a new
//! group; trails awakened by an internal `emit` become children of the
//! emitter (sequenced); escape/rejoin blocks run at their rank ("phase"),
//! sequenced after normal trails. Two accesses conflict when they come
//! from unrelated groups of the same phase and touch:
//!
//! * the same variable, at least one writing;
//! * the same internal event, at least one emitting (emit/emit or
//!   emit/await);
//! * C functions not declared `pure`/`deterministic`-compatible.
//!
//! The state space is exponential in the worst case (§6), so the constant
//! factor per state matters: states are sorted flat vectors interned once
//! by an in-tree Fx hash, accesses are `Copy` keys over variable and C
//! function ids interned once per analysis (names become strings only in a
//! reported [`Conflict`]), and every per-reaction buffer — configurations,
//! track queue, access log, trail groups — is recycled across expansions.

use ceu_ast::{EventId, Span};
use ceu_codegen::{
    AsyncId, BlockId, CompiledProgram, GateId, GateKind, Op, Place, Rv, SlotId, Term, TimeAmount,
};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem;

/// Analysis limits.
#[derive(Clone, Debug)]
pub struct DfaOptions {
    pub max_states: usize,
    /// Cap on branch combinations explored per reaction.
    pub max_paths_per_reaction: usize,
    /// Whether concurrent C calls are checked (§2.6).
    pub check_ccalls: bool,
}

impl Default for DfaOptions {
    fn default() -> Self {
        DfaOptions { max_states: 20_000, max_paths_per_reaction: 4_096, check_ccalls: true }
    }
}

/// Abstract gate status inside a DFA state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum GateSt {
    /// Awaiting an event (external or internal).
    Event,
    /// Timer with a known relative deadline (µs after state entry).
    Time(u64),
    /// Timer with a computed (unknown) deadline.
    TimeUnknown,
    /// `await forever`.
    Never,
    /// Awaiting an async completion.
    Async,
}

/// The possibly-active gates of a state and their status, in ascending
/// gate order.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct GateMap(Vec<(GateId, GateSt)>);

impl GateMap {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `(gate, status)` pairs in ascending gate order.
    pub fn iter(&self) -> impl Iterator<Item = (&GateId, &GateSt)> {
        self.0.iter().map(|(g, st)| (g, st))
    }

    pub fn values(&self) -> impl Iterator<Item = &GateSt> {
        self.0.iter().map(|(_, st)| st)
    }
}

/// The par/and flags set in a state, in ascending slot order.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct FlagSet(Vec<SlotId>);

impl FlagSet {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &SlotId> {
        self.0.iter()
    }
}

/// One DFA state: the possibly-active gates and the par/and flags.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct State {
    pub gates: GateMap,
    pub flags: FlagSet,
}

/// Transition label.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Label {
    Boot,
    Event(EventId),
    /// Expiry of the earliest known deadline, possibly coinciding with
    /// unknown-duration timers.
    Time {
        rel: u64,
        with_unknown: Vec<GateId>,
    },
    /// Unknown-duration timers firing (alone or together).
    Unknown(Vec<GateId>),
    AsyncDone(AsyncId),
}

/// A transition `from --label--> to`.
#[derive(Clone, Debug)]
pub struct Trans {
    pub from: usize,
    pub label: Label,
    pub to: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConflictKind {
    Variable,
    InternalEvent,
    CCall,
}

/// A detected source of nondeterminism.
#[derive(Clone, Debug)]
pub struct Conflict {
    pub kind: ConflictKind,
    /// Human-readable description of what is accessed concurrently.
    pub what: String,
    pub spans: (Span, Span),
    /// State in which the triggering reaction starts.
    pub state: usize,
    pub label: Label,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ConflictKind::Variable => "concurrent access to variable",
            ConflictKind::InternalEvent => "concurrent access to internal event",
            ConflictKind::CCall => "concurrent C calls",
        };
        write!(f, "nondeterminism: {kind} {} (at {} and {})", self.what, self.spans.0, self.spans.1)
    }
}

/// The limit that stopped an incomplete analysis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DfaLimit {
    /// [`DfaOptions::max_states`] states were built.
    MaxStates(usize),
    /// One reaction branched into [`DfaOptions::max_paths_per_reaction`]
    /// paths.
    MaxPathsPerReaction(usize),
    /// One reaction path ran this many blocks without halting.
    Steps(u32),
}

impl fmt::Display for DfaLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfaLimit::MaxStates(n) => write!(f, "max_states = {n}"),
            DfaLimit::MaxPathsPerReaction(n) => write!(f, "max_paths_per_reaction = {n}"),
            DfaLimit::Steps(n) => write!(f, "{n} steps per reaction path"),
        }
    }
}

/// The analysis result.
#[derive(Clone, Debug)]
pub struct Dfa {
    pub states: Vec<State>,
    pub transitions: Vec<Trans>,
    pub conflicts: Vec<Conflict>,
    /// `true` if a limit was hit and the DFA is incomplete.
    pub truncated: bool,
    /// The first limit hit; `Some` exactly when `truncated`.
    pub limit: Option<DfaLimit>,
}

impl Dfa {
    /// Is the program (locally) deterministic?
    pub fn deterministic(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// BFS distance (in input occurrences, boot excluded) from program
    /// start to the reaction that triggers the given conflict; the paper
    /// counts occurrences this way ("on the 6th occurrence of A").
    pub fn conflict_depth(&self, c: &Conflict) -> Option<usize> {
        // successors per state, in transition order (CSR offsets)
        let n = self.states.len();
        let mut start = vec![0usize; n + 1];
        for t in &self.transitions {
            start[t.from + 1] += 1;
        }
        for s in 0..n {
            start[s + 1] += start[s];
        }
        let mut fill = start.clone();
        let mut succ = vec![0usize; self.transitions.len()];
        for t in &self.transitions {
            succ[fill[t.from]] = t.to;
            fill[t.from] += 1;
        }
        let mut dist = vec![usize::MAX; n];
        let mut q = VecDeque::new();
        dist[0] = 0;
        q.push_back(0usize);
        while let Some(s) = q.pop_front() {
            if s == c.state {
                // dist already includes the boot transition; the conflict
                // fires on the *next* occurrence: +1 - 1 = dist
                return Some(dist[s]);
            }
            for &to in &succ[start[s]..start[s + 1]] {
                if dist[to] == usize::MAX {
                    dist[to] = dist[s] + 1;
                    q.push_back(to);
                }
            }
        }
        None
    }
}

// ---- hashing ----------------------------------------------------------------

/// The Fx hash (rustc's): one rotate-xor-multiply per machine word. Not
/// DoS-resistant, which the analysis does not need — its keys are small
/// integers and identifiers of the program under analysis.
#[derive(Clone, Copy, Default)]
struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxBuild = BuildHasherDefault<FxHasher>;

fn state_hash(gates: &[(GateId, GateSt)], flags: &[SlotId]) -> u64 {
    let mut h = FxHasher::default();
    gates.hash(&mut h);
    flags.hash(&mut h);
    h.finish()
}

// ---- access bookkeeping -----------------------------------------------------

/// Interned variable name (`Analyzer::var_names`).
type VarId = u32;
/// Interned C function name (`Analyzer::fn_names`).
type FnId = u32;

const NO_VAR: VarId = VarId::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum AccessKind {
    VarRead(VarId),
    VarWrite(VarId),
    EmitInt(EventId),
    AwaitInt(EventId),
    /// Output emission: concurrent emissions of the same output event are
    /// observably ordered by the environment → nondeterministic.
    EmitOut(EventId),
    CCall(FnId),
}

#[derive(Clone, Copy, Debug)]
struct Access {
    kind: AccessKind,
    group: u32,
    span: Span,
}

#[derive(Default, Debug)]
struct Groups {
    /// The parents (possibly several, for par/and rejoins) of every group,
    /// concatenated.
    parents: Vec<u32>,
    /// Per group: its `parents` range and its phase. A parent always has
    /// a smaller id than its child.
    info: Vec<(u32, u32, u8)>,
}

impl Groups {
    /// A new group with the given parents (duplicates dropped).
    fn fresh(&mut self, parents: impl IntoIterator<Item = u32>, phase: u8) -> u32 {
        let lo = self.parents.len();
        for p in parents {
            if !self.parents[lo..].contains(&p) {
                self.parents.push(p);
            }
        }
        self.info.push((lo as u32, self.parents.len() as u32, phase));
        (self.info.len() - 1) as u32
    }

    fn phase(&self, g: u32) -> u8 {
        self.info[g as usize].2
    }

    /// `true` when one of two distinct groups is an ancestor of the other
    /// (sequenced). `stack` is scratch space.
    fn related(&self, a: u32, b: u32, stack: &mut Vec<u32>) -> bool {
        let (anc, of) = if a < b { (a, b) } else { (b, a) };
        stack.clear();
        stack.push(of);
        while let Some(x) = stack.pop() {
            if x == anc {
                return true;
            }
            let (lo, hi, _) = self.info[x as usize];
            // a group below `anc` cannot have `anc` as an ancestor
            stack.extend(self.parents[lo as usize..hi as usize].iter().filter(|&&p| p >= anc));
        }
        false
    }

    fn clone_from(&mut self, src: &Groups) {
        self.parents.clone_from(&src.parents);
        self.info.clone_from(&src.info);
    }
}

// ---- abstract configurations -------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct QTrack {
    rank: u8,
    seq: u64,
    block: BlockId,
    group: u32,
}

/// One path of a reaction in progress. Configurations are recycled
/// through `Analyzer::pool`, so their buffers are reused, not reallocated.
#[derive(Default, Debug)]
struct Config {
    /// Sorted by gate.
    gates: Vec<(GateId, GateSt)>,
    /// Sorted.
    flags: Vec<SlotId>,
    queue: Vec<QTrack>,
    accesses: Vec<Access>,
    /// Dedup: one record per (kind, group) — duplicates add no conflict
    /// pairs and would blow up quadratic checking on looping paths.
    seen: HashSet<(AccessKind, u32), FxBuild>,
    groups: Groups,
    /// Which group set each par/and flag *in this reaction* (sequencing
    /// evidence for the rejoin continuation), sorted by flag.
    flag_owner: Vec<(SlotId, u32)>,
    seq: u64,
    steps: u32,
    terminated: bool,
}

impl Config {
    /// Starts a reaction from a DFA state.
    fn reset(&mut self, gates: &[(GateId, GateSt)], flags: &[SlotId]) {
        self.gates.clear();
        self.gates.extend_from_slice(gates);
        self.flags.clear();
        self.flags.extend_from_slice(flags);
        self.queue.clear();
        self.accesses.clear();
        self.seen.clear();
        self.groups.parents.clear();
        self.groups.info.clear();
        self.flag_owner.clear();
        self.seq = 0;
        self.steps = 0;
        self.terminated = false;
    }

    /// Forks `src`: the other branch of a conditional.
    fn clone_from(&mut self, src: &Config) {
        self.gates.clone_from(&src.gates);
        self.flags.clone_from(&src.flags);
        self.queue.clone_from(&src.queue);
        self.accesses.clone_from(&src.accesses);
        self.seen.clone_from(&src.seen);
        self.groups.clone_from(&src.groups);
        self.flag_owner.clone_from(&src.flag_owner);
        self.seq = src.seq;
        self.steps = src.steps;
        self.terminated = src.terminated;
    }

    fn set_gate(&mut self, g: GateId, st: GateSt) {
        match self.gates.binary_search_by_key(&g, |e| e.0) {
            Ok(i) => self.gates[i].1 = st,
            Err(i) => self.gates.insert(i, (g, st)),
        }
    }

    fn remove_gate(&mut self, g: GateId) {
        if let Ok(i) = self.gates.binary_search_by_key(&g, |e| e.0) {
            self.gates.remove(i);
        }
    }

    /// Records an access once per (kind, group) within a reaction path.
    fn record(&mut self, kind: AccessKind, group: u32, span: Span) {
        if self.seen.insert((kind, group)) {
            self.accesses.push(Access { kind, group, span });
        }
    }

    fn push_track(&mut self, prog: &CompiledProgram, block: BlockId, group: u32) {
        self.seq += 1;
        self.queue.push(QTrack { rank: prog.block(block).rank, seq: self.seq, block, group });
    }

    /// Used for emit-awakened trails: they run before previously queued
    /// tracks (stack policy approximation).
    fn push_front_track(&mut self, prog: &CompiledProgram, block: BlockId, group: u32) {
        self.queue.insert(0, QTrack { rank: prog.block(block).rank, seq: 0, block, group });
    }

    fn pop_track(&mut self) -> QTrack {
        let mut best = 0;
        for i in 1..self.queue.len() {
            let (q, b) = (&self.queue[i], &self.queue[best]);
            if (q.rank, q.seq) < (b.rank, b.seq) {
                best = i;
            }
        }
        self.queue.remove(best)
    }
}

/// Index range `[lo, hi)` of the sorted keys in `lo..hi`.
fn key_range<T>(v: &[T], key: impl Fn(&T) -> u32, lo: u32, hi: u32) -> std::ops::Range<usize> {
    let a = v.partition_point(|e| key(e) < lo);
    let b = v.partition_point(|e| key(e) < hi).max(a);
    a..b
}

const STEP_LIMIT: u32 = 100_000;

/// Interned DFA states: the first state index per hash, then a chain of
/// further states with the same hash.
#[derive(Default)]
struct Interner {
    first: HashMap<u64, u32, FxBuild>,
    next: Vec<u32>,
}

impl Interner {
    /// The index of the state `(gates, flags)`, adding it to the DFA (and
    /// to `work`) when it is new.
    fn intern(
        &mut self,
        dfa: &mut Dfa,
        work: &mut VecDeque<usize>,
        gates: &[(GateId, GateSt)],
        flags: &[SlotId],
    ) -> usize {
        let h = state_hash(gates, flags);
        let mut at = self.first.get(&h).copied().unwrap_or(u32::MAX);
        while at != u32::MAX {
            let s = &dfa.states[at as usize];
            if s.gates.0 == gates && s.flags.0 == flags {
                return at as usize;
            }
            at = self.next[at as usize];
        }
        let i = dfa.states.len();
        dfa.states.push(State { gates: GateMap(gates.to_vec()), flags: FlagSet(flags.to_vec()) });
        self.next.push(self.first.insert(h, i as u32).unwrap_or(u32::MAX));
        work.push_back(i);
        i
    }
}

struct Analyzer<'a> {
    prog: &'a CompiledProgram,
    opts: &'a DfaOptions,
    internal: Vec<bool>,
    /// slot → variable (arrays map their whole range); `NO_VAR` until an
    /// access to an unnamed slot interns `slot<N>`.
    slot_var: Vec<VarId>,
    var_names: Vec<Cow<'a, str>>,
    var_ids: HashMap<Cow<'a, str>, VarId, FxBuild>,
    /// The variable every access through a pointer maps to.
    pointer: VarId,
    fn_names: Vec<&'a str>,
    fn_ids: HashMap<&'a str, FnId, FxBuild>,
    // scratch, reused across expansions
    pool: Vec<Config>,
    done: Vec<Config>,
    rv_stack: Vec<&'a Rv>,
    group_stack: Vec<u32>,
    labels: Vec<(Label, usize, usize)>,
    roots: Vec<GateId>,
    listeners: Vec<(EventId, GateId)>,
}

/// Runs the temporal analysis over a compiled program.
pub fn analyze(prog: &CompiledProgram, opts: &DfaOptions) -> Dfa {
    let internal =
        prog.events.iter().map(|(_, e)| e.kind == ceu_ast::EventKind::Internal).collect();
    let mut az = Analyzer {
        prog,
        opts,
        internal,
        slot_var: vec![NO_VAR; prog.data_len as usize],
        var_names: Vec::new(),
        var_ids: HashMap::default(),
        pointer: NO_VAR,
        fn_names: Vec::new(),
        fn_ids: HashMap::default(),
        pool: Vec::new(),
        done: Vec::new(),
        rv_stack: Vec::new(),
        group_stack: Vec::new(),
        labels: Vec::new(),
        roots: Vec::new(),
        listeners: Vec::new(),
    };
    for s in &prog.slots {
        let v = az.intern_var(Cow::Borrowed(&s.name));
        let lo = (s.slot as usize).min(az.slot_var.len());
        let hi = (s.slot as usize + s.len as usize).min(az.slot_var.len());
        az.slot_var[lo..hi].fill(v);
    }
    az.pointer = az.intern_var(Cow::Borrowed("*<pointer>"));
    az.build()
}

/// Convenience: analyze with defaults and return only the conflicts.
pub fn check_determinism(prog: &CompiledProgram) -> Vec<Conflict> {
    analyze(prog, &DfaOptions::default()).conflicts
}

/// Marks the DFA incomplete, remembering the first limit hit.
fn stop(dfa: &mut Dfa, limit: DfaLimit) {
    dfa.truncated = true;
    dfa.limit.get_or_insert(limit);
}

impl<'a> Analyzer<'a> {
    fn intern_var(&mut self, name: Cow<'a, str>) -> VarId {
        if let Some(&v) = self.var_ids.get(name.as_ref()) {
            return v;
        }
        let v = self.var_names.len() as VarId;
        self.var_names.push(name.clone());
        self.var_ids.insert(name, v);
        v
    }

    fn var(&mut self, slot: SlotId) -> VarId {
        match self.slot_var.get(slot as usize) {
            Some(&v) if v != NO_VAR => v,
            _ => {
                let v = self.intern_var(Cow::Owned(format!("slot{slot}")));
                if let Some(at) = self.slot_var.get_mut(slot as usize) {
                    *at = v;
                }
                v
            }
        }
    }

    fn function(&mut self, name: &'a str) -> FnId {
        if let Some(&f) = self.fn_ids.get(name) {
            return f;
        }
        let f = self.fn_names.len() as FnId;
        self.fn_names.push(name);
        self.fn_ids.insert(name, f);
        f
    }

    fn build(mut self) -> Dfa {
        let mut dfa = Dfa {
            states: vec![State::default()],
            transitions: vec![],
            conflicts: vec![],
            truncated: false,
            limit: None,
        };
        let mut interner = Interner::default();
        interner.first.insert(state_hash(&[], &[]), 0);
        interner.next.push(u32::MAX);
        let mut work: VecDeque<usize> = VecDeque::new();

        // boot transition
        self.expand(&[], &[], &Label::Boot, &[], Some(self.prog.boot), &mut dfa);
        self.commit(0, &Label::Boot, &mut dfa, &mut interner, &mut work);

        // Conflicts are recorded with `state = usize::MAX` and fixed up
        // after each label's expansion. Boot conflicts stay pending until
        // the first expanded label claims them (or, with none, the end).
        let mut pending = 0;
        let mut src_gates = Vec::new();
        let mut src_flags = Vec::new();
        while let Some(s) = work.pop_front() {
            if dfa.states.len() >= self.opts.max_states {
                stop(&mut dfa, DfaLimit::MaxStates(self.opts.max_states));
                break;
            }
            src_gates.clone_from(&dfa.states[s].gates.0);
            src_flags.clone_from(&dfa.states[s].flags.0);
            self.labels_of(&src_gates);
            let labels = mem::take(&mut self.labels);
            let roots = mem::take(&mut self.roots);
            for (label, lo, hi) in &labels {
                self.expand(&src_gates, &src_flags, label, &roots[*lo..*hi], None, &mut dfa);
                self.commit(s, label, &mut dfa, &mut interner, &mut work);
                for c in &mut dfa.conflicts[pending..] {
                    c.state = s;
                    c.label = label.clone();
                }
                pending = dfa.conflicts.len();
            }
            self.labels = labels;
            self.roots = roots;
        }
        // boot-time conflicts
        for c in &mut dfa.conflicts[pending..] {
            c.state = 0;
            c.label = Label::Boot;
        }
        dedup_conflicts(&mut dfa.conflicts);
        dfa
    }

    /// Interns the state each finished path of the last expansion ends in
    /// and adds one transition per distinct target, in path order; then
    /// recycles the paths.
    fn commit(
        &mut self,
        from: usize,
        label: &Label,
        dfa: &mut Dfa,
        interner: &mut Interner,
        work: &mut VecDeque<usize>,
    ) {
        let first = dfa.transitions.len();
        for c in &self.done {
            let to = interner.intern(dfa, work, &c.gates, &c.flags);
            if !dfa.transitions[first..].iter().any(|t| t.to == to) {
                dfa.transitions.push(Trans { from, label: label.clone(), to });
            }
        }
        self.pool.append(&mut self.done);
    }

    /// All transition labels leaving a state, into `self.labels`, each
    /// with its root gates as a range of `self.roots`.
    fn labels_of(&mut self, gates: &[(GateId, GateSt)]) {
        let prog = self.prog;
        self.labels.clear();
        self.roots.clear();
        // external events with listeners, by event
        self.listeners.clear();
        for &(g, st) in gates {
            if st == GateSt::Event {
                if let GateKind::Evt(e) = prog.gate(g).kind {
                    if prog.events.get(e).external() {
                        self.listeners.push((e, g));
                    }
                }
            }
        }
        self.listeners.sort_unstable();
        let mut i = 0;
        while i < self.listeners.len() {
            let e = self.listeners[i].0;
            let lo = self.roots.len();
            while i < self.listeners.len() && self.listeners[i].0 == e {
                self.roots.push(self.listeners[i].1);
                i += 1;
            }
            self.labels.push((Label::Event(e), lo, self.roots.len()));
        }
        // known deadlines: earliest fires; simultaneous ones share a reaction
        let known = gates.iter().filter_map(|&(g, st)| match st {
            GateSt::Time(d) => Some((g, d)),
            _ => None,
        });
        let unknowns = || gates.iter().filter(|e| e.1 == GateSt::TimeUnknown).map(|e| e.0);
        if let Some(m) = known.clone().map(|(_, d)| d).min() {
            let lo = self.roots.len();
            self.roots.extend(known.filter(|&(_, d)| d == m).map(|(g, _)| g));
            let hi = self.roots.len();
            self.labels.push((Label::Time { rel: m, with_unknown: vec![] }, lo, hi));
            // an unknown-duration timer may coincide with the deadline
            for u in unknowns() {
                let at = self.roots.len();
                self.roots.extend_from_within(lo..hi);
                self.roots.push(u);
                let label = Label::Time { rel: m, with_unknown: vec![u] };
                self.labels.push((label, at, self.roots.len()));
            }
        }
        // unknown timers alone and pairwise
        for (i, u) in unknowns().enumerate() {
            let at = self.roots.len();
            self.roots.push(u);
            self.labels.push((Label::Unknown(vec![u]), at, at + 1));
            for v in unknowns().skip(i + 1) {
                let at = self.roots.len();
                self.roots.extend([u, v]);
                self.labels.push((Label::Unknown(vec![u, v]), at, at + 2));
            }
        }
        // async completions
        for &(g, st) in gates {
            if st == GateSt::Async {
                if let GateKind::AsyncDone(a) = prog.gate(g).kind {
                    let at = self.roots.len();
                    self.roots.push(g);
                    self.labels.push((Label::AsyncDone(a), at, at + 1));
                }
            }
        }
    }

    /// Expands one reaction: fires `roots` (or the boot block) from the
    /// state `(gates, flags)` and abstractly executes all paths, leaving
    /// the finished ones in `self.done`. Conflicts found are appended to
    /// `dfa.conflicts` with `state` set to `usize::MAX` (fixed up by the
    /// caller).
    fn expand(
        &mut self,
        gates: &[(GateId, GateSt)],
        flags: &[SlotId],
        label: &Label,
        roots: &[GateId],
        boot: Option<BlockId>,
        dfa: &mut Dfa,
    ) {
        let prog = self.prog;
        let mut cfg = self.pool.pop().unwrap_or_default();
        cfg.reset(gates, flags);
        // age known deadlines when time passes
        if let Label::Time { rel, .. } = *label {
            for (_, st) in &mut cfg.gates {
                if let GateSt::Time(d) = st {
                    *d -= rel.min(*d);
                }
            }
        }
        if let Some(b) = boot {
            let g = cfg.groups.fresh([], 0);
            cfg.push_track(prog, b, g);
        }
        for &root in roots {
            cfg.remove_gate(root);
            let g = cfg.groups.fresh([], 0);
            cfg.push_track(prog, prog.gate(root).cont, g);
        }
        let mut paths = 0usize;
        self.run(cfg, &mut paths, dfa);
        let done = mem::take(&mut self.done);
        for c in &done {
            self.find_conflicts(c, dfa);
        }
        self.done = done;
    }

    /// Abstractly drains the track queue of a config, splitting on branches.
    fn run(&mut self, mut cfg: Config, paths: &mut usize, dfa: &mut Dfa) {
        let prog = self.prog;
        if *paths >= self.opts.max_paths_per_reaction {
            stop(dfa, DfaLimit::MaxPathsPerReaction(self.opts.max_paths_per_reaction));
            self.pool.push(cfg);
            return;
        }
        loop {
            if cfg.terminated || cfg.queue.is_empty() {
                *paths += 1;
                self.done.push(cfg);
                return;
            }
            let t = cfg.pop_track();
            let mut cur = t.block;
            let mut group = t.group;
            // run one track to its halt, splitting on conditionals
            loop {
                cfg.steps += 1;
                if cfg.steps > STEP_LIMIT {
                    stop(dfa, DfaLimit::Steps(STEP_LIMIT));
                    *paths += 1;
                    self.done.push(cfg);
                    return;
                }
                let blk = prog.block(cur);
                let mut emitted = false;
                for instr in &blk.instrs {
                    self.exec_abs(&mut cfg, instr.op, instr.span, group);
                    emitted = matches!(instr.op, Op::EmitInt { .. });
                }
                match blk.term {
                    Term::Halt => break,
                    Term::Goto(b) => {
                        if emitted {
                            // stack policy: the emitter resumes only after
                            // the awakened trails (queued just above) react
                            cfg.push_track(prog, b, group);
                            break;
                        }
                        cur = b;
                    }
                    Term::If { cond, then_b, else_b } => {
                        self.reads(&mut cfg, prog.expr(cond), group, Span::default());
                        // explore both branches
                        let mut other = self.pool.pop().unwrap_or_default();
                        other.clone_from(&cfg);
                        other.push_front_track(prog, else_b, group);
                        self.run(other, paths, dfa);
                        cur = then_b;
                    }
                    Term::JoinAnd { lo, hi, cont } => {
                        // flags are tracked exactly, so the join outcome is
                        // deterministic per path
                        if (lo..hi).all(|s| cfg.flags.binary_search(&s).is_ok()) {
                            // the continuation is sequenced after *all*
                            // completed arms, not just the last one
                            let owners =
                                &cfg.flag_owner[key_range(&cfg.flag_owner, |e| e.0, lo, hi)];
                            let phase = cfg.groups.phase(group);
                            group = cfg.groups.fresh(
                                std::iter::once(group).chain(owners.iter().map(|e| e.1)),
                                phase,
                            );
                            cur = cont;
                        } else {
                            break;
                        }
                    }
                    Term::TerminateProgram { value } => {
                        if let Some(v) = value {
                            self.reads(&mut cfg, prog.expr(v), group, Span::default());
                        }
                        cfg.gates.clear();
                        cfg.queue.clear();
                        cfg.terminated = true;
                        break;
                    }
                    Term::TerminateAsync { .. } => break,
                }
            }
        }
    }

    fn exec_abs(&mut self, cfg: &mut Config, op: Op, span: Span, group: u32) {
        let prog = self.prog;
        match op {
            Op::Assign { dst, src } => {
                self.reads(cfg, prog.expr(src), group, span);
                self.write_place(cfg, dst, group, span);
            }
            Op::Eval(rv) => self.reads(cfg, prog.expr(rv), group, span),
            Op::ActivateEvt { gate } => {
                cfg.set_gate(gate, GateSt::Event);
                if let GateKind::Evt(e) = prog.gate(gate).kind {
                    if self.internal[e.index()] {
                        cfg.record(AccessKind::AwaitInt(e), group, span);
                    }
                }
            }
            Op::ActivateTime { gate, us } => {
                let st = match us {
                    TimeAmount::Const(c) => GateSt::Time(c),
                    TimeAmount::Dyn(rv) => {
                        self.reads(cfg, prog.expr(rv), group, span);
                        GateSt::TimeUnknown
                    }
                };
                cfg.set_gate(gate, st);
            }
            Op::ActivateNever { gate } => cfg.set_gate(gate, GateSt::Never),
            Op::ActivateAsync { gate, .. } => cfg.set_gate(gate, GateSt::Async),
            Op::ClearRegion(r) => {
                let region = prog.region(r);
                cfg.gates.drain(key_range(&cfg.gates, |e| e.0, region.lo, region.hi));
            }
            Op::Spawn(b) => {
                let phase = prog.block(b).rank;
                let child = cfg.groups.fresh([group], phase);
                cfg.push_track(prog, b, child);
            }
            Op::EmitInt { event, value } => {
                if let Some(v) = value {
                    self.reads(cfg, prog.expr(v), group, span);
                }
                cfg.record(AccessKind::EmitInt(event), group, span);
                // awaken listeners as children of the emitter (sequenced),
                // in ascending gate order
                for g in prog.gates_of_event(event) {
                    if let Ok(i) = cfg.gates.binary_search_by_key(&g, |e| e.0) {
                        if cfg.gates[i].1 == GateSt::Event {
                            cfg.gates.remove(i);
                            let child = cfg.groups.fresh([group], cfg.groups.phase(group));
                            cfg.push_track(prog, prog.gate(g).cont, child);
                        }
                    }
                }
            }
            Op::EmitOut { event, value } => {
                if let Some(v) = value {
                    self.reads(cfg, prog.expr(v), group, span);
                }
                cfg.record(AccessKind::EmitOut(event), group, span);
            }
            // async-only instructions: bodies are globally asynchronous and
            // excluded from the local-determinism analysis (§2.9)
            Op::EmitExt { .. } | Op::EmitTime(_) => {}
            Op::SetFlag(s) => {
                if let Err(i) = cfg.flags.binary_search(&s) {
                    cfg.flags.insert(i, s);
                }
                match cfg.flag_owner.binary_search_by_key(&s, |e| e.0) {
                    Ok(i) => cfg.flag_owner[i].1 = group,
                    Err(i) => cfg.flag_owner.insert(i, (s, group)),
                }
            }
            Op::ClearFlags { lo, hi } => {
                cfg.flags.drain(key_range(&cfg.flags, |&s| s, lo, hi));
            }
        }
    }

    fn write_place(&mut self, cfg: &mut Config, place: Place, group: u32, span: Span) {
        let prog = self.prog;
        match place {
            Place::Slot(s) => {
                let v = self.var(s);
                cfg.record(AccessKind::VarWrite(v), group, span);
            }
            Place::Index(s, idx) => {
                self.reads(cfg, prog.expr(idx), group, span);
                let v = self.var(s);
                cfg.record(AccessKind::VarWrite(v), group, span);
            }
            Place::Deref(rv) => {
                self.reads(cfg, prog.expr(rv), group, span);
                cfg.record(AccessKind::VarWrite(self.pointer), group, span);
            }
        }
    }

    fn reads(&mut self, cfg: &mut Config, rv: &'a Rv, group: u32, span: Span) {
        let mut stack = mem::take(&mut self.rv_stack);
        stack.push(rv);
        while let Some(r) = stack.pop() {
            match r {
                Rv::Slot(s) | Rv::AddrOf(s) => {
                    let v = self.var(*s);
                    cfg.record(AccessKind::VarRead(v), group, span);
                }
                Rv::Un(_, a) | Rv::Cast(a) | Rv::Field(a, _, _) => stack.push(a),
                Rv::Deref(a) => {
                    cfg.record(AccessKind::VarRead(self.pointer), group, span);
                    stack.push(a);
                }
                Rv::Bin(_, a, b) | Rv::Index(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Rv::CCall(name, args) => {
                    let f = self.function(name);
                    cfg.record(AccessKind::CCall(f), group, span);
                    stack.extend(args);
                }
                _ => {}
            }
        }
        self.rv_stack = stack;
    }

    /// Pairwise conflict check over the accesses of one finished path.
    fn find_conflicts(&mut self, cfg: &Config, dfa: &mut Dfa) {
        let acc = &cfg.accesses;
        for (i, a) in acc.iter().enumerate() {
            for b in &acc[i + 1..] {
                let kind = match (a.kind, b.kind) {
                    (AccessKind::VarWrite(x), AccessKind::VarWrite(y))
                    | (AccessKind::VarWrite(x), AccessKind::VarRead(y))
                    | (AccessKind::VarRead(x), AccessKind::VarWrite(y))
                        if x == y =>
                    {
                        ConflictKind::Variable
                    }
                    (AccessKind::EmitOut(x), AccessKind::EmitOut(y))
                    | (AccessKind::EmitInt(x), AccessKind::EmitInt(y))
                    | (AccessKind::EmitInt(x), AccessKind::AwaitInt(y))
                    | (AccessKind::AwaitInt(x), AccessKind::EmitInt(y))
                        if x == y =>
                    {
                        ConflictKind::InternalEvent
                    }
                    (AccessKind::CCall(_), AccessKind::CCall(_)) if self.opts.check_ccalls => {
                        ConflictKind::CCall
                    }
                    _ => continue,
                };
                let groups = &cfg.groups;
                if a.group == b.group
                    || groups.phase(a.group) != groups.phase(b.group)
                    || groups.related(a.group, b.group, &mut self.group_stack)
                {
                    continue;
                }
                let what = match (a.kind, b.kind) {
                    (AccessKind::VarWrite(x) | AccessKind::VarRead(x), _) => {
                        format!("`{}`", strip(&self.var_names[x as usize]))
                    }
                    (AccessKind::EmitOut(x), _) => {
                        format!("`{}` (output)", self.prog.events.get(x).name)
                    }
                    (AccessKind::EmitInt(x) | AccessKind::AwaitInt(x), _) => {
                        format!("`{}`", self.prog.events.get(x).name)
                    }
                    (AccessKind::CCall(f), AccessKind::CCall(g)) => {
                        let (f, g) = (self.fn_names[f as usize], self.fn_names[g as usize]);
                        if self.prog.annotations.compatible(f, g) {
                            continue;
                        }
                        format!("`_{f}` and `_{g}`")
                    }
                    (AccessKind::CCall(_), _) => unreachable!("C calls pair only with C calls"),
                };
                dfa.conflicts.push(Conflict {
                    kind,
                    what,
                    spans: (a.span, b.span),
                    state: usize::MAX,
                    label: Label::Boot,
                });
            }
        }
    }
}

/// Strips the alpha-renaming suffix for display (`v#3` → `v`).
fn strip(unique: &str) -> &str {
    unique.split('#').next().unwrap_or(unique)
}

fn dedup_conflicts(conflicts: &mut Vec<Conflict>) {
    let mut seen = BTreeSet::new();
    conflicts.retain(|c| {
        let mut spans = [c.spans.0, c.spans.1];
        spans.sort_by_key(|s| (s.line, s.col));
        let key = (
            c.kind as u8,
            c.what.clone(),
            spans[0].line,
            spans[0].col,
            spans[1].line,
            spans[1].col,
        );
        seen.insert(key)
    });
}

/// Renders the DFA as Graphviz dot (Figure 2 reproduction).
pub fn to_dot(dfa: &Dfa, prog: &CompiledProgram) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("digraph dfa {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
    let conflict_states: BTreeSet<usize> = dfa.conflicts.iter().map(|c| c.state).collect();
    for (i, s) in dfa.states.iter().enumerate() {
        let mut label = format!("DFA #{i}\\n");
        for (&g, st) in s.gates.iter() {
            let gi = prog.gate(g);
            let what = match gi.kind {
                GateKind::Evt(e) => format!("await {}", prog.events.get(e).name),
                GateKind::Timer => match st {
                    GateSt::Time(d) => format!("await {d}us"),
                    _ => "await (expr)".into(),
                },
                GateKind::Never => "await forever".into(),
                GateKind::AsyncDone(a) => format!("await async{a}"),
            };
            let _ = write!(label, "g{g}: {what} [{}]\\n", gi.span);
        }
        let style = if conflict_states.contains(&i) { ", color=red, penwidth=2" } else { "" };
        let _ = writeln!(out, "  s{i} [label=\"{label}\"{style}];");
    }
    for t in &dfa.transitions {
        let lab = match &t.label {
            Label::Boot => "boot".to_string(),
            Label::Event(e) => prog.events.get(*e).name.clone(),
            Label::Time { rel, with_unknown } if with_unknown.is_empty() => format!("{rel}us"),
            Label::Time { rel, .. } => format!("{rel}us+?"),
            Label::Unknown(gs) => format!("?x{}", gs.len()),
            Label::AsyncDone(a) => format!("async{a}"),
        };
        let _ = writeln!(out, "  s{} -> s{} [label=\"{lab}\"];", t.from, t.to);
    }
    out.push_str("}\n");
    out
}
