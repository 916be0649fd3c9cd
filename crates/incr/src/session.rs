//! The [`Session`] type: a settled verifier plus content hashes, and the
//! warm-start re-verification pipeline behind [`Session::apply`].

use scald_netlist::{DeltaError, Netlist, NetlistDelta, PrimId, SignalId};
use scald_trace::TraceSink;
use scald_verifier::{
    Case, CaseSet, CheckpointPolicy, EvalCache, MemoStats, PrefixStats, Report, RunOptions,
    Verifier, VerifierBuilder, VerifyError,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A design to open a [`Session`] on — the one input type shared by the
/// CLI, the `scald-serve` daemon and library callers, so every consumer
/// constructs sessions identically ([`SessionBuilder::open`]).
#[derive(Debug, Clone)]
// Consumed by value the moment a session opens — the size gap between
// the variants never sits in long-lived storage, so boxing would only
// tax every construction site.
#[allow(clippy::large_enum_variant)]
pub enum DesignInput {
    /// HDL source text; the design's `case` blocks become the session's
    /// case set (one empty base case when it declares none).
    Source(String),
    /// Verilog source text, compiled through the `scald-rtl` frontend;
    /// the design's `// scald: case` pragmas become the session's case
    /// set (one empty base case when it declares none).
    Verilog(String),
    /// An already-built netlist plus an explicit case set (pass
    /// `vec![Case::new()]` for a single base case).
    Netlist {
        /// The elaborated design.
        netlist: Netlist,
        /// The cases to analyse on every verification.
        cases: Vec<Case>,
    },
}

impl DesignInput {
    /// Source-text input (convenience over the variant).
    pub fn source(src: impl Into<String>) -> DesignInput {
        DesignInput::Source(src.into())
    }

    /// Verilog-source input (convenience over the variant).
    pub fn verilog(src: impl Into<String>) -> DesignInput {
        DesignInput::Verilog(src.into())
    }

    /// Netlist input (convenience over the variant).
    #[must_use]
    pub fn netlist(netlist: Netlist, cases: Vec<Case>) -> DesignInput {
        DesignInput::Netlist { netlist, cases }
    }
}

/// An edit to re-verify against a [`Session`].
#[derive(Debug, Clone)]
pub enum Delta {
    /// Replace the whole design from HDL source text. The source is
    /// re-expanded by `scald-hdl`; because expanded instance names are
    /// stable across re-expansion (per-block ordinals), primitives whose
    /// definition did not change hash identically and stay warm. The
    /// design's `case` blocks replace the session's case set.
    Source(String),
    /// Replace the whole design from Verilog source text, re-compiled
    /// through the `scald-rtl` frontend. Lowered primitive names are
    /// stable across re-compilation (per-body ordinals mirroring the
    /// expander), so unchanged logic hashes identically and stays warm.
    /// The design's `// scald: case` pragmas replace the case set.
    Verilog(String),
    /// Apply structural edits ([`NetlistDelta`]) to the current netlist:
    /// add/remove/retime primitives, change assertions. The case set is
    /// kept.
    Netlist(NetlistDelta),
    /// Replace the case set only; the netlist (and its settled base
    /// fixed point) carries over untouched.
    Cases(Vec<Case>),
}

/// Effort accounting for one [`Session::apply`] (or initial open).
#[derive(Debug, Clone, Copy)]
pub struct IncrStats {
    /// `false` when the session fell back to a cold run (initial open,
    /// or a design-configuration change).
    pub warm: bool,
    /// Primitives whose content hash changed (or that are new).
    pub dirty_prims: usize,
    /// Primitives seeded into the worklist (the dirty frontier).
    pub seeded_prims: usize,
    /// Size of the structurally affected cone
    /// ([`Netlist::affected_cone`]): the upper bound on what re-settling
    /// may touch.
    pub cone_prims: usize,
    /// Total primitives in the (edited) design.
    pub total_prims: usize,
    /// Signal-change events this re-verification processed (base settle
    /// plus all cases).
    pub events: u64,
    /// Primitive evaluations this re-verification processed.
    pub evaluations: u64,
    /// Shared-prefix settle effort (zero when the cases share no prefix
    /// and no delay corner).
    pub prefix: PrefixStats,
    /// Checker/storage memoization counters of the sweep scheduler
    /// (no node passes and no hits when the cases share nothing).
    pub memo: MemoStats,
    /// Wall-clock time of the re-verification.
    pub wall: Duration,
}

impl IncrStats {
    /// The affected cone as a fraction of the design, in `[0, 1]`.
    #[must_use]
    pub fn cone_fraction(&self) -> f64 {
        if self.total_prims == 0 {
            0.0
        } else {
            self.cone_prims as f64 / self.total_prims as f64
        }
    }
}

/// What one verification pass produced: the full [`Report`] plus the
/// incremental-effort statistics.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The report, exactly as a cold run of the same design would
    /// produce it (modulo effort counters; see [`Report::strip_effort`]).
    pub report: Report,
    /// How much of the design the pass actually touched.
    pub stats: IncrStats,
}

/// Errors from opening a session or applying a delta.
#[derive(Debug)]
pub enum SessionError {
    /// The HDL source failed to compile.
    Compile(scald_hdl::HdlError),
    /// The Verilog source failed to compile.
    Rtl(scald_rtl::RtlError),
    /// A [`NetlistDelta`] failed to apply.
    Delta(DeltaError),
    /// Verification failed (oscillation, unknown case signal).
    Verify(VerifyError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Compile(e) => write!(f, "{e}"),
            SessionError::Rtl(e) => write!(f, "{e}"),
            SessionError::Delta(e) => write!(f, "{e}"),
            SessionError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<scald_hdl::HdlError> for SessionError {
    fn from(e: scald_hdl::HdlError) -> SessionError {
        SessionError::Compile(e)
    }
}

impl From<scald_rtl::RtlError> for SessionError {
    fn from(e: scald_rtl::RtlError) -> SessionError {
        SessionError::Rtl(e)
    }
}

impl From<DeltaError> for SessionError {
    fn from(e: DeltaError) -> SessionError {
        SessionError::Delta(e)
    }
}

impl From<VerifyError> for SessionError {
    fn from(e: VerifyError) -> SessionError {
        SessionError::Verify(e)
    }
}

/// Configures and opens a [`Session`].
#[derive(Default)]
pub struct SessionBuilder {
    jobs: Option<usize>,
    trace: Option<Arc<dyn TraceSink>>,
    /// Inverted so `Default` means "cache on".
    no_eval_cache: bool,
    /// A caller-supplied memo table; overrides `no_eval_cache`.
    shared_cache: Option<Arc<EvalCache>>,
}

impl SessionBuilder {
    /// A builder with defaults: worker count chosen by the engine, no
    /// trace sink.
    #[must_use]
    pub fn new() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Case-analysis worker count for every verification this session
    /// runs.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> SessionBuilder {
        self.jobs = Some(jobs.max(1));
        self
    }

    /// Attaches a trace sink to every verifier the session builds. The
    /// sink outlives individual passes, so per-session counters (e.g. a
    /// `CounterSink`, or the JSONL stream behind `scald-tv --watch
    /// --trace`) accumulate across edits; warm starts are marked with a
    /// `warm_start` event.
    #[must_use]
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> SessionBuilder {
        self.trace = Some(sink);
        self
    }

    /// Enables or disables the shared evaluation memo table (on by
    /// default). When enabled, one [`EvalCache`] spans every
    /// re-verification of the session, so evaluations in regions an edit
    /// did not touch replay from the table; results are byte-identical
    /// either way.
    #[must_use]
    pub fn eval_cache(mut self, enabled: bool) -> SessionBuilder {
        self.no_eval_cache = !enabled;
        self
    }

    /// Uses a caller-owned [`EvalCache`] instead of a private one, so
    /// several sessions (e.g. every `scald-serve` client of one popular
    /// design) share a single memo table: evaluations one session
    /// performed replay in every other. Overrides
    /// [`eval_cache`](Self::eval_cache).
    #[must_use]
    pub fn shared_eval_cache(mut self, cache: Arc<EvalCache>) -> SessionBuilder {
        self.shared_cache = Some(cache);
        self
    }

    /// Opens a session on a [`DesignInput`] — the single constructor the
    /// CLI, the `scald-serve` daemon and library callers all use.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if source input fails to compile or
    /// the initial cold verification fails.
    pub fn open(
        self,
        input: DesignInput,
        label: impl Into<String>,
    ) -> Result<Session, SessionError> {
        let (netlist, cases) = match input {
            DesignInput::Source(src) => compile(&src)?,
            DesignInput::Verilog(src) => compile_rtl(&src)?,
            DesignInput::Netlist { netlist, cases } => (netlist, cases),
        };
        let eval_cache = match &self.shared_cache {
            Some(cache) => Some(Arc::clone(cache)),
            None => (!self.no_eval_cache).then(|| Arc::new(EvalCache::new())),
        };
        let mut session = Session {
            // Placeholder until the first verify() snapshot replaces it;
            // it never evaluates, so skip building it a cache.
            settled: VerifierBuilder::new(netlist.clone())
                .eval_cache(false)
                .build(),
            sigs: BTreeMap::new(),
            prims: BTreeMap::new(),
            cases,
            label: label.into(),
            jobs: self.jobs,
            trace: self.trace,
            eval_cache,
            last: None,
        };
        let outcome = session.verify(netlist, None)?;
        session.last = Some(outcome);
        Ok(session)
    }
}

/// An incremental re-verification session. See the [crate docs](crate).
pub struct Session {
    /// Verifier snapshotted at its settled base fixed point — the
    /// `prior` of the next warm start. Never holds a case overlay.
    settled: Verifier,
    /// Signal base name -> (id, content hash) in `settled`'s netlist.
    sigs: BTreeMap<String, (SignalId, u64)>,
    /// Primitive name -> (id, content hash); ambiguous (duplicate) names
    /// are excluded and therefore always re-verify dirty.
    prims: BTreeMap<String, (PrimId, u64)>,
    cases: Vec<Case>,
    label: String,
    jobs: Option<usize>,
    trace: Option<Arc<dyn TraceSink>>,
    /// One memo table across every re-verification of this session
    /// (`None` when disabled): unchanged regions of an edited design
    /// replay their evaluations instead of re-running the kernels.
    eval_cache: Option<Arc<EvalCache>>,
    last: Option<SessionOutcome>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("label", &self.label)
            .field("signals", &self.sigs.len())
            .field("prims", &self.prims.len())
            .field("cases", &self.cases.len())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// [`SessionBuilder::open`] with default options.
    ///
    /// # Errors
    ///
    /// As for [`SessionBuilder::open`].
    pub fn open(input: DesignInput, label: impl Into<String>) -> Result<Session, SessionError> {
        SessionBuilder::new().open(input, label)
    }

    /// The current (edited-to-date) netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.settled.netlist()
    }

    /// The current case set.
    #[must_use]
    pub fn cases(&self) -> &[Case] {
        &self.cases
    }

    /// The session's design label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Overrides the worker budget for every subsequent verification
    /// (`None` lets the engine choose). `scald-serve` uses this to split
    /// one daemon-wide `--jobs` budget across concurrent clients;
    /// results are byte-identical for any value.
    pub fn set_jobs(&mut self, jobs: Option<usize>) {
        self.jobs = jobs.map(|j| j.max(1));
    }

    /// The shared evaluation memo table, when caching is enabled.
    #[must_use]
    pub fn eval_cache(&self) -> Option<&Arc<EvalCache>> {
        self.eval_cache.as_ref()
    }

    /// Cumulative hit/miss/entry counters of the session's memo table
    /// (`None` when caching is disabled). For a shared table
    /// ([`SessionBuilder::shared_eval_cache`]) the counters span every
    /// session on it.
    #[must_use]
    pub fn cache_stats(&self) -> Option<scald_verifier::EvalCacheStats> {
        self.eval_cache.as_ref().map(|c| c.stats())
    }

    /// Content hash of the session's *current* design: netlist
    /// configuration, every signal and primitive content hash, and the
    /// case set. Two sessions with equal hashes verify identically, so
    /// this is the `scald-serve` pool key — see [`design_hash`].
    #[must_use]
    pub fn design_hash(&self) -> u64 {
        design_hash(self.settled.netlist(), &self.cases)
    }

    /// Re-verifies the current design as-is (no edit). With a prior
    /// fixed point everything is clean, so the pass warm-starts with an
    /// empty frontier and replays cheaply; the refreshed
    /// [`SessionOutcome`] is returned (and retained, see
    /// [`outcome`](Self::outcome)).
    ///
    /// # Errors
    ///
    /// As for [`Session::apply`].
    pub fn reverify(&mut self) -> Result<SessionOutcome, SessionError> {
        self.apply(Delta::Cases(self.cases.clone()))
    }

    /// The report and effort statistics of the most recent pass.
    ///
    /// # Panics
    ///
    /// Never panics: every constructed session has verified at least
    /// once.
    #[must_use]
    pub fn outcome(&self) -> &SessionOutcome {
        self.last.as_ref().expect("session verified on open")
    }

    /// The report of the most recent pass.
    #[must_use]
    pub fn report(&self) -> &Report {
        &self.outcome().report
    }

    /// Applies an edit and re-verifies, warm-starting from the prior
    /// fixed point. On success the session advances to the edited
    /// design; on error it is left unchanged (the prior state stays
    /// valid, so a failed edit can simply be corrected and re-applied).
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] if the delta fails to compile/apply or
    /// verification fails.
    pub fn apply(&mut self, delta: Delta) -> Result<SessionOutcome, SessionError> {
        let (netlist, cases) = match delta {
            Delta::Source(src) => {
                let (netlist, cases) = compile(&src)?;
                (netlist, Some(cases))
            }
            Delta::Verilog(src) => {
                let (netlist, cases) = compile_rtl(&src)?;
                (netlist, Some(cases))
            }
            Delta::Netlist(d) => (d.apply(self.settled.netlist())?, None),
            Delta::Cases(cases) => (self.settled.netlist().clone(), Some(cases)),
        };
        let outcome = self.verify(netlist, cases)?;
        self.last = Some(outcome.clone());
        Ok(outcome)
    }

    /// One verification pass over `netlist` (and, if given, a new case
    /// set), warm-started when a prior fixed point with a matching
    /// configuration exists. Commits the new snapshot/hashes/cases on
    /// success.
    fn verify(
        &mut self,
        netlist: Netlist,
        cases: Option<Vec<Case>>,
    ) -> Result<SessionOutcome, SessionError> {
        let new_sigs = index_signals(&netlist);
        let new_prims = index_prims(&netlist);
        let total_prims = netlist.prims().len();

        // A configuration change (period, clock units, skews, default
        // wire delay) invalidates every settled waveform: run cold. The
        // very first pass has empty hash maps, so it is naturally cold.
        let warm = !self.sigs.is_empty() && netlist.config() == self.settled.netlist().config();

        // The indexes are BTreeMaps, so these pair lists come out in
        // name order — never in per-process `RandomState` order, which
        // would leak into anything downstream that walks them.
        let mut sig_pairs: Vec<(SignalId, SignalId)> = Vec::new();
        let mut prim_pairs: Vec<(PrimId, PrimId)> = Vec::new();
        let mut dirty_sigs: Vec<SignalId> = Vec::new();
        let mut dirty_prims: Vec<PrimId> = Vec::new();
        for (name, &(nid, nh)) in &new_sigs {
            match self.sigs.get(name) {
                Some(&(oid, oh)) if warm && oh == nh => sig_pairs.push((nid, oid)),
                _ => dirty_sigs.push(nid),
            }
        }
        for (name, &(nid, nh)) in &new_prims {
            match self.prims.get(name) {
                Some(&(oid, oh)) if warm && oh == nh => prim_pairs.push((nid, oid)),
                _ => dirty_prims.push(nid),
            }
        }
        dirty_sigs.sort_unstable_by_key(|s| s.index());
        dirty_prims.sort_unstable_by_key(|p| p.index());

        let mut builder = VerifierBuilder::new(netlist.clone());
        if let Some(jobs) = self.jobs {
            builder = builder.jobs(jobs);
        }
        if let Some(trace) = &self.trace {
            builder = builder.trace(Arc::clone(trace));
        }
        match &self.eval_cache {
            Some(cache) => builder = builder.shared_eval_cache(Arc::clone(cache)),
            None => builder = builder.eval_cache(false),
        }
        let mut verifier = builder.build();

        let seeded_prims = if warm {
            // Seed frontier: edited primitives, plus the fan-out and the
            // drivers of every dirtied signal (its value must be
            // re-derived even when its driver itself is clean).
            let mut seeds: BTreeSet<PrimId> = dirty_prims.iter().copied().collect();
            for &sid in &dirty_sigs {
                seeds.extend(netlist.fanout(sid).iter().copied());
                seeds.extend(netlist.drivers(sid).iter().copied());
            }
            let seeds: Vec<PrimId> = seeds.into_iter().collect();
            verifier.warm_start(&self.settled, &sig_pairs, &prim_pairs, &seeds);
            seeds.len()
        } else {
            total_prims
        };
        let cone_prims = if warm {
            netlist.affected_cone(&dirty_sigs, &dirty_prims).len()
        } else {
            total_prims
        };

        let started = Instant::now();
        let cases = cases.unwrap_or_else(|| self.cases.clone());
        // Checkpoint at the base fixed point, *before* the last case's
        // overlay/hazards are installed — the next warm start must not
        // inherit a case's state as its base.
        let outcome = verifier.run(
            &RunOptions::new()
                .cases(CaseSet::list(cases.iter().cloned()))
                .checkpoint(CheckpointPolicy::SettledBase),
        )?;
        let snapshot = *outcome.checkpoint.expect("checkpoint was requested");
        let (prefix, memo) = (outcome.prefix, outcome.memo);
        let results = outcome.cases;
        let wall = started.elapsed();

        let mut report = verifier.report(self.label.clone(), &results);
        report.engine.verify_wall = Some(wall);
        if let Some(jobs) = self.jobs {
            report.engine.jobs = jobs;
        }
        let stats = IncrStats {
            warm,
            dirty_prims: if warm { dirty_prims.len() } else { total_prims },
            seeded_prims,
            cone_prims,
            total_prims,
            events: verifier.total_events(),
            evaluations: verifier.total_evaluations(),
            prefix,
            memo,
            wall,
        };

        self.settled = snapshot;
        self.sigs = new_sigs;
        self.prims = new_prims;
        self.cases = cases;
        Ok(SessionOutcome { report, stats })
    }
}

/// Compiles HDL source into the `(netlist, cases)` pair that
/// [`DesignInput::Source`] opens — exposed so callers that need the
/// netlist *before* opening (e.g. `scald-serve`, which keys its session
/// pool on [`design_hash`]) compile exactly once, exactly the way
/// [`SessionBuilder::open`] would.
///
/// # Errors
///
/// [`SessionError::Compile`] when the source fails to compile.
pub fn compile_source(src: &str) -> Result<(Netlist, Vec<Case>), SessionError> {
    compile(src)
}

/// Compiles Verilog source into the `(netlist, cases)` pair that
/// [`DesignInput::Verilog`] opens — the `scald-rtl` twin of
/// [`compile_source`], for callers that need the netlist before opening
/// a session.
///
/// # Errors
///
/// [`SessionError::Rtl`] when the source fails to compile.
pub fn compile_verilog(src: &str) -> Result<(Netlist, Vec<Case>), SessionError> {
    compile_rtl(src)
}

/// Compiles Verilog source into a netlist plus its case set (one empty
/// base case when the design declares none), mirroring [`compile`].
fn compile_rtl(src: &str) -> Result<(Netlist, Vec<Case>), SessionError> {
    let expansion = scald_rtl::compile(src)?;
    let cases: Vec<Case> = if expansion.cases.is_empty() {
        vec![Case::new()]
    } else {
        expansion
            .cases
            .iter()
            .map(|assigns| {
                assigns
                    .iter()
                    .fold(Case::new(), |c, (s, v)| c.assign(s.clone(), *v))
            })
            .collect()
    };
    Ok((expansion.netlist, cases))
}

/// Compiles HDL source into a netlist plus its case set (one empty base
/// case when the design declares none), mirroring `scald-tv`.
fn compile(src: &str) -> Result<(Netlist, Vec<Case>), SessionError> {
    let expansion = scald_hdl::compile(src)?;
    let cases: Vec<Case> = if expansion.cases.is_empty() {
        vec![Case::new()]
    } else {
        expansion
            .cases
            .iter()
            .map(|assigns| {
                assigns
                    .iter()
                    .fold(Case::new(), |c, (s, v)| c.assign(s.clone(), *v))
            })
            .collect()
    };
    Ok((expansion.netlist, cases))
}

/// Content hash of a whole design: the netlist configuration (period,
/// clock units, skews, default wire delay), every signal and primitive
/// content hash in name order, and the case set (labels + assignments).
///
/// Everything a verification result depends on feeds the hash, so equal
/// hashes mean byte-identical (effort-stripped) reports. `scald-serve`
/// keys its session pool on it: clients opening equal designs share one
/// [`EvalCache`] and can reuse each other's settled sessions.
#[must_use]
pub fn design_hash(netlist: &Netlist, cases: &[Case]) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", netlist.config()).hash(&mut h);
    // index_* are BTreeMaps: name order, never per-process hash order.
    // Duplicate-named primitives are excluded from the index, so fold in
    // the raw counts to distinguish designs that differ only there.
    netlist.signals().len().hash(&mut h);
    netlist.prims().len().hash(&mut h);
    for (name, &(_, sig_hash)) in &index_signals(netlist) {
        name.hash(&mut h);
        sig_hash.hash(&mut h);
    }
    for (name, &(_, prim_hash)) in &index_prims(netlist) {
        name.hash(&mut h);
        prim_hash.hash(&mut h);
    }
    cases.len().hash(&mut h);
    for case in cases {
        case.label().hash(&mut h);
        for (signal, value) in case.assignments() {
            signal.hash(&mut h);
            value.hash(&mut h);
        }
    }
    h.finish()
}

/// Content hash of a signal: everything that feeds the verifier's init
/// and wiring decisions for it — width, assertion, wire-delay override,
/// wired-OR flag, and the (sorted) names of its drivers. The settled
/// *value* is deliberately excluded: values are what warm starting
/// carries over.
fn hash_signal(netlist: &Netlist, sid: SignalId) -> u64 {
    let sig = netlist.signal(sid);
    let mut h = DefaultHasher::new();
    sig.width.hash(&mut h);
    sig.full_name().hash(&mut h);
    format!("{:?}", sig.wire_delay).hash(&mut h);
    sig.wired_or.hash(&mut h);
    let mut drivers: Vec<&str> = netlist
        .drivers(sid)
        .iter()
        .map(|p| netlist.prim(*p).name.as_str())
        .collect();
    drivers.sort_unstable();
    drivers.hash(&mut h);
    h.finish()
}

/// Content hash of a primitive: kind (with parameters), delays, and each
/// connection — source signal full name, the source's wire-delay
/// override, inversion, directive, per-connection wire delay — plus the
/// output signal name. Any attribute change that could alter the
/// primitive's evaluation changes the hash.
fn hash_prim(netlist: &Netlist, pid: PrimId) -> u64 {
    let p = netlist.prim(pid);
    let mut h = DefaultHasher::new();
    format!("{:?}", p.kind).hash(&mut h);
    format!("{:?}", p.delay).hash(&mut h);
    format!("{:?}", p.edge_delays).hash(&mut h);
    for conn in &p.inputs {
        let src = netlist.signal(conn.signal);
        src.full_name().hash(&mut h);
        format!("{:?}", src.wire_delay).hash(&mut h);
        conn.invert.hash(&mut h);
        conn.directive.hash(&mut h);
        format!("{:?}", conn.wire_delay).hash(&mut h);
    }
    match p.output {
        Some(out) => netlist.signal(out).name.hash(&mut h),
        None => 0_u8.hash(&mut h),
    }
    h.finish()
}

fn index_signals(netlist: &Netlist) -> BTreeMap<String, (SignalId, u64)> {
    netlist
        .iter_signals()
        .map(|(sid, sig)| (sig.name.clone(), (sid, hash_signal(netlist, sid))))
        .collect()
}

/// Primitive names are not guaranteed unique (the expander makes them
/// so, hand-built netlists might not); duplicates are dropped from the
/// index so they can never be matched as clean.
fn index_prims(netlist: &Netlist) -> BTreeMap<String, (PrimId, u64)> {
    let mut map: BTreeMap<String, (PrimId, u64)> = BTreeMap::new();
    let mut dup: Vec<String> = Vec::new();
    for (pid, p) in netlist.iter_prims() {
        if map
            .insert(p.name.clone(), (pid, hash_prim(netlist, pid)))
            .is_some()
        {
            dup.push(p.name.clone());
        }
    }
    for name in dup {
        map.remove(&name);
    }
    map
}
