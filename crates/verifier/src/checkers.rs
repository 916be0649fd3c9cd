//! Constraint checking: the post-fixed-point pass of §2.9 that examines
//! every checker primitive, every `&A`/`&H` gating directive, and every
//! stable assertion on a generated signal.
//!
//! # One verdict per checker situation
//!
//! A vector carries one timing value for all its bits, so a large design
//! has tens of thousands of checker primitives but only a handful of
//! distinct *situations*: on a 100k-primitive scale design, 26,331
//! checkers fall into 13. A situation is everything `pin_wave`,
//! `pin_wave_pulse_view` and the checks read:
//! - the checker's [`PrimKind`] with its set-up/hold/width parameters,
//!   and the [`DelayCorner`];
//! - for each of its (at most two) input connections: the inversion, the
//!   directive and the resolved wire delay, and the source state's
//!   interned wave (store tag and [`WaveId`]), [`Skew`] and remaining
//!   eval string.
//!
//! The key borrows the two strings, so building it allocates nothing.
//! [`checker_verdict`] computes a checker's margins (set-up, hold and
//! pulse slack) and whether it fires; the checker pass and the slack
//! view both look each situation up in a [`VerdictTable`] and compute it
//! only on a miss.
//!
//! The table lives for one pass on one thread: it is never stored in the
//! verifier or shared through the evaluation cache. So it needs no lock,
//! keeps no memory after the pass, counts its hits deterministically
//! for any worker count, and works the same with the evaluation cache
//! off. The period is constant within a pass and stays out of the key.
//!
//! A verdict that did not fire stands for the checker: it reports
//! nothing. A checker whose verdict fired re-runs the full check, so each
//! of its violations still names its own source, observed signals and
//! fan-in provenance.

use scald_logic::Value;
use scald_netlist::{Netlist, PrimId, PrimKind, Primitive, Signal, SignalId};
use scald_wave::{
    edge_windows, pulses, DelayCorner, DelayRange, Edge, EdgeWindow, Skew, Span, Time, WaveId,
    Waveform,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use crate::eval::{pin_wave, pin_wave_pulse_view};
use crate::report::{Provenance, ProvenanceHop, Violation, ViolationKind};
use crate::state::EvalStr;
use crate::view::StateView;

/// Fan-in walk caps: deep enough to cross several levels of gating, small
/// enough that a wide bus cone doesn't swamp the report.
const PROVENANCE_MAX_DEPTH: usize = 8;
const PROVENANCE_MAX_HOPS: usize = 24;

/// Walks the fan-in cone back from `anchor` (breadth-first) and records,
/// at each signal, the windows where it may be changing — the arrival
/// time it feeds forward. The walk stops at asserted signals (their
/// timing is a designer-stated fact, the §2.5 root-cause boundary) and
/// at undriven sources, and is capped by depth and hop count.
pub(crate) fn provenance_for<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    anchor: SignalId,
) -> Provenance {
    let mut hops = Vec::new();
    let mut truncated = false;
    let mut visited = BTreeSet::new();
    let mut queue = VecDeque::new();
    visited.insert(anchor);
    queue.push_back((anchor, 0usize));
    while let Some((sid, depth)) = queue.pop_front() {
        if hops.len() >= PROVENANCE_MAX_HOPS {
            truncated = true;
            break;
        }
        let sig = netlist.signal(sid);
        let driver = netlist.driver(sid);
        let wave = states.state_at(sid.index()).resolved();
        hops.push(ProvenanceHop {
            signal: sig.full_name(),
            depth,
            via: driver.map(|pid| netlist.prim(pid).name.clone()),
            arrival: wave.spans_where(|v| !v.is_quiescent()),
        });
        if driver.is_none() || sig.assertion.is_some() {
            continue;
        }
        if depth >= PROVENANCE_MAX_DEPTH {
            truncated = true;
            continue;
        }
        for pid in netlist.drivers(sid) {
            for input in netlist.prim(*pid).input_signals() {
                if visited.insert(input) {
                    queue.push_back((input, depth + 1));
                }
            }
        }
    }
    Provenance { hops, truncated }
}

/// Attaches the fan-in provenance of `anchor` to every violation in
/// `slice` — computed once per batch, only when a check actually fired.
fn attach_provenance<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    anchor: SignalId,
    slice: &mut [Violation],
) {
    if slice.is_empty() {
        return;
    }
    let p = provenance_for(netlist, states, anchor);
    for v in slice {
        v.provenance = Some(p.clone());
    }
}

/// How long `wave` has been quiescent immediately before instant `t`
/// (up to one full period). Zero if the signal may be changing just
/// before `t`.
fn quiescent_before(wave: &Waveform, t: Time) -> Time {
    let period = wave.period();
    let probe = (t - Time::from_ps(1)).rem_period(period);
    if !wave.value_at(probe).is_quiescent() {
        return Time::ZERO;
    }
    for q in wave.spans_where_iter(Value::is_quiescent) {
        if q.is_full(period) {
            return period;
        }
        if q.contains(probe, period) {
            return (t - q.start()).rem_period(period);
        }
    }
    Time::ZERO
}

/// How long `wave` stays quiescent from instant `t` onward (up to one full
/// period). Zero if the signal may be changing at `t`.
fn quiescent_after(wave: &Waveform, t: Time) -> Time {
    let period = wave.period();
    let t = t.rem_period(period);
    if !wave.value_at(t).is_quiescent() {
        return Time::ZERO;
    }
    for q in wave.spans_where_iter(Value::is_quiescent) {
        if q.is_full(period) {
            return period;
        }
        if q.contains(t, period) {
            let end = q.start() + q.width();
            return (end - t).rem_period(period).max(
                // t == q.start of a span whose width is the distance
                Time::ZERO,
            );
        }
    }
    Time::ZERO
}

fn observed_line(label: &str, name: &str, wave: &Waveform) -> String {
    format!("{label} = {name}: {wave}")
}

/// The first span where `clock` carries `U`, if any.
fn first_undefined(clock: &Waveform) -> Option<Span> {
    clock.spans_where_iter(|v| v == Value::Unknown).next()
}

/// Emits an `UndefinedClock` diagnostic when a checker clock carries `U`
/// anywhere — a missing assertion or unconnected clock is far easier to
/// act on than the avalanche of set-up noise it would otherwise cause.
fn check_clock_defined(
    source: &str,
    clock_name: &str,
    clock: &Waveform,
    out: &mut Vec<Violation>,
) -> bool {
    let Some(undefined) = first_undefined(clock) else {
        return true;
    };
    out.push(Violation {
        kind: ViolationKind::UndefinedClock,
        source: source.to_owned(),
        constraint: format!("CLOCK {clock_name} HAS NO DEFINED VALUE"),
        missed_by: None,
        at: Some(undefined),
        observed: vec![observed_line("CK INPUT  ", clock_name, clock)],
        provenance: None,
    });
    false
}

/// Runs the `SETUP HOLD CHK` semantics (§2.4.4): the input must be
/// quiescent from `setup` before until `hold` after each rising edge of
/// the clock. Returns one violation per failed edge/phase.
#[allow(clippy::too_many_arguments)]
fn check_setup_hold_edges(
    source: &str,
    setup: Time,
    hold: Time,
    input: &Waveform,
    input_name: &str,
    clock: &Waveform,
    clock_name: &str,
    edges: &[EdgeWindow],
    out: &mut Vec<Violation>,
) {
    let period = input.period();
    // The diagnostic text is built only for a check that fails.
    let violation = |kind, missed_by, at| Violation {
        kind,
        source: source.to_owned(),
        constraint: format!("SETUP TIME = {setup}, HOLD TIME = {hold}"),
        missed_by: Some(missed_by),
        at: Some(at),
        observed: vec![
            observed_line("CK INPUT  ", clock_name, clock),
            observed_line("DATA INPUT", input_name, input),
        ],
        provenance: None,
    };
    for e in edges {
        let w = e.span;
        // Data changing during the edge window itself: the full set-up is
        // missed (the register may sample mid-transition).
        let window_quiescent = input.quiescent_throughout(w);
        if !window_quiescent && setup > Time::ZERO {
            out.push(violation(ViolationKind::Setup, setup, w));
        } else if setup > Time::ZERO {
            let avail = quiescent_before(input, w.start());
            if avail < setup {
                out.push(violation(ViolationKind::Setup, setup - avail, w));
            }
        }
        if hold > Time::ZERO {
            let edge_end = w.end(period);
            let avail = quiescent_after(input, edge_end);
            if avail < hold {
                out.push(violation(ViolationKind::Hold, hold - avail, w));
            }
        }
    }
}

/// Pairs each rising window with the nearest following falling window
/// (the clock's asserted pulse).
fn clock_pulses(clock: &Waveform) -> Vec<(EdgeWindow, EdgeWindow)> {
    let period = clock.period();
    let rising = edge_windows(clock, Edge::Rising);
    let falling = edge_windows(clock, Edge::Falling);
    let mut out = Vec::new();
    for r in &rising {
        let after_r = r.span.end(period);
        if let Some(f) = falling
            .iter()
            .min_by_key(|f| (f.span.start() - after_r).rem_period(period))
        {
            out.push((*r, *f));
        }
    }
    out
}

/// The definitely-high interior of a clock pulse (rise window end to fall
/// window start), where a `SETUP RISE HOLD FALL` input must stay
/// quiescent; `None` when there is no proper interior to check. The edge
/// windows themselves are covered by the set-up and hold checks, so each
/// cause reports once.
fn pulse_interior(rise: EdgeWindow, fall: EdgeWindow, period: Time) -> Option<Span> {
    let start = rise.span.end(period);
    let interior = (fall.span.start() - start).rem_period(period);
    let high = Span::new(start, interior, period);
    (interior > Time::ZERO && !high.is_full(period)).then_some(high)
}

/// The timing margin of one checker: how much headroom each of its
/// constraints has. Negative slack corresponds to a reported violation.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckMargin {
    /// Checker instance name.
    pub checker: String,
    /// The checked input signal.
    pub signal: String,
    /// Worst set-up slack across all clock edges: available stability
    /// minus required set-up. `None` if the check did not apply (no
    /// set-up requirement or no edges).
    pub setup_slack: Option<Time>,
    /// Worst hold slack across all clock edges.
    pub hold_slack: Option<Time>,
    /// Worst pulse-width slack (min possible width minus required), over
    /// both polarities of a `MIN PULSE WIDTH` check.
    pub pulse_slack: Option<Time>,
}

/// What one checker makes of its inputs: the margin of each of its
/// constraints (as in [`CheckMargin`]) and whether it fires.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Verdict {
    setup_slack: Option<Time>,
    hold_slack: Option<Time>,
    pulse_slack: Option<Time>,
    /// `check_checker_prim` reports at least one violation.
    fired: bool,
}

/// Folds one constraint's slack into the worst seen so far.
fn fold_worst(worst: &mut Option<Time>, slack: Time) {
    *worst = Some(worst.map_or(slack, |w| w.min(slack)));
}

/// Computes a checker primitive's margins and verdict against `states`.
///
/// Available stability and pulse widths are measured exactly as
/// `check_checker_prim` measures them, and available stability is never
/// negative, so a set-up, hold or width check fires exactly when its
/// slack is negative (a requirement of zero or less never fires). The
/// two checks without a margin are tested directly: a clock carrying
/// `U`, and an input changing inside a clock pulse's high interior.
fn checker_verdict<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    prim: &Primitive,
    corner: DelayCorner,
) -> Verdict {
    let period = netlist.config().timing.period;
    let mut v = Verdict::default();
    let mut unmeasured = false;
    match prim.kind {
        PrimKind::SetupHold { setup, hold } => {
            let input = pin_wave(netlist, prim, &prim.inputs[0], states, corner);
            let clock = pin_wave(netlist, prim, &prim.inputs[1], states, corner);
            unmeasured = first_undefined(&clock).is_some();
            for e in edge_windows(&clock, Edge::Rising) {
                // Data changing during the edge window misses the full
                // set-up.
                let avail_setup = if input.quiescent_throughout(e.span) {
                    quiescent_before(&input, e.span.start())
                } else {
                    Time::ZERO
                };
                fold_worst(&mut v.setup_slack, avail_setup - setup);
                let avail_hold = quiescent_after(&input, e.span.end(period));
                fold_worst(&mut v.hold_slack, avail_hold - hold);
            }
        }
        PrimKind::SetupRiseHoldFall { setup, hold } => {
            let input = pin_wave(netlist, prim, &prim.inputs[0], states, corner);
            let clock = pin_wave(netlist, prim, &prim.inputs[1], states, corner);
            unmeasured = first_undefined(&clock).is_some();
            for (r, f) in clock_pulses(&clock) {
                unmeasured |= pulse_interior(r, f, period)
                    .is_some_and(|high| !input.quiescent_throughout(high));
                let avail_setup = quiescent_before(&input, r.span.start());
                fold_worst(&mut v.setup_slack, avail_setup - setup);
                let avail_hold = quiescent_after(&input, f.span.end(period));
                fold_worst(&mut v.hold_slack, avail_hold - hold);
            }
        }
        PrimKind::MinPulseWidth { high, low } => {
            let input = pin_wave_pulse_view(netlist, prim, &prim.inputs[0], states, corner);
            for (polarity, required) in [(true, high), (false, low)] {
                if required > Time::ZERO {
                    for p in pulses(&input, polarity) {
                        fold_worst(&mut v.pulse_slack, p.min_possible_width - required);
                    }
                }
            }
        }
        _ => {}
    }
    v.fired = unmeasured
        || [v.setup_slack, v.hold_slack, v.pulse_slack]
            .into_iter()
            .flatten()
            .any(|slack| slack < Time::ZERO);
    v
}

/// One checker input as `pin_wave`/`pin_wave_pulse_view` read it.
#[derive(PartialEq, Eq, Hash)]
struct PinKey<'a> {
    invert: bool,
    directive: Option<&'a str>,
    wire_delay: DelayRange,
    /// Tag of the store that issued `wave` (ids only compare within one
    /// store).
    store: u32,
    wave: WaveId,
    skew: Skew,
    /// Remaining letters of the source's evaluation string.
    eval: Option<&'a str>,
}

/// A checker situation: everything its verdict depends on within one
/// pass (see the module documentation).
#[derive(PartialEq, Eq, Hash)]
struct CheckKey<'a> {
    kind: PrimKind,
    corner: DelayCorner,
    /// Checkers read at most their first two inputs.
    pins: [Option<PinKey<'a>>; 2],
}

/// The verdicts of one pass, one per distinct checker situation. Built
/// and dropped by the pass that uses it.
#[derive(Default)]
struct VerdictTable<'a> {
    verdicts: HashMap<CheckKey<'a>, Verdict>,
}

impl<'a> VerdictTable<'a> {
    /// The verdict of checker `prim` against `states`, and whether it
    /// was served from the table rather than computed.
    fn lookup<S: StateView + ?Sized>(
        &mut self,
        netlist: &'a Netlist,
        states: &'a S,
        prim: &'a Primitive,
        corner: DelayCorner,
    ) -> (Verdict, bool) {
        let pin = |i: usize| {
            prim.inputs.get(i).map(|conn| {
                let st = states.state_at(conn.signal.index());
                PinKey {
                    invert: conn.invert,
                    directive: conn.directive.as_deref(),
                    wire_delay: netlist.wire_delay(conn),
                    store: st.wave.store_tag(),
                    wave: st.wave.id(),
                    skew: st.skew,
                    eval: st.eval.as_ref().map(EvalStr::remaining),
                }
            })
        };
        let key = CheckKey {
            kind: prim.kind,
            corner,
            pins: [pin(0), pin(1)],
        };
        match self.verdicts.entry(key) {
            Entry::Occupied(e) => (*e.get(), true),
            Entry::Vacant(e) => (
                *e.insert(checker_verdict(netlist, states, prim, corner)),
                false,
            ),
        }
    }
}

/// Computes the timing margins of every checker primitive against the
/// settled states — the slack view designers use to see how much headroom
/// a passing design has (and by how much a failing one misses). Each
/// distinct checker situation is computed once.
pub(crate) fn slack_report<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    corner: DelayCorner,
) -> Vec<CheckMargin> {
    let mut table = VerdictTable::default();
    let mut out: Vec<CheckMargin> = netlist
        .iter_prims()
        .filter(|(_, prim)| prim.kind.is_checker())
        .map(|(_, prim)| {
            let (v, _) = table.lookup(netlist, states, prim, corner);
            CheckMargin {
                checker: prim.name.clone(),
                signal: netlist.signal(prim.inputs[0].signal).name.clone(),
                setup_slack: v.setup_slack,
                hold_slack: v.hold_slack,
                pulse_slack: v.pulse_slack,
            }
        })
        .collect();
    // Worst margins first.
    out.sort_by_key(|m| {
        [m.setup_slack, m.hold_slack, m.pulse_slack]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Time::from_ps(i64::MAX))
    });
    out
}

/// The empty-verdict summary of one checker pass: which units (checker
/// primitives, hazard-flagged gates, asserted signals) fired at least one
/// violation. Everything *not* listed here produced an empty verdict, and
/// an empty verdict depends only on the unit's direct input states — so a
/// child state whose inputs to that unit are unchanged can inherit the
/// emptiness without re-running the check (§2.7 incremental case
/// analysis, applied to the checker pass).
#[derive(Debug, Clone, Default)]
pub(crate) struct CheckCache {
    /// Checker primitives (`SetupHold`/`SetupRiseHoldFall`/`MinPulseWidth`)
    /// that reported at least one violation.
    pub violating_prims: BTreeSet<PrimId>,
    /// `(gate, asserted input index)` hazard units that reported.
    pub violating_hazards: BTreeSet<(PrimId, usize)>,
    /// Asserted generated signals whose assertion check reported.
    pub violating_asserts: BTreeSet<SignalId>,
}

/// Parent context for a memoized checker pass.
pub(crate) struct CheckMemo<'a> {
    /// The parent state's empty-verdict summary.
    pub cache: &'a CheckCache,
    /// The parent state's hazard set — a hazard unit may only be
    /// inherited if the parent actually checked it.
    pub hazards: &'a BTreeSet<(PrimId, usize)>,
    /// Signal indices whose state differs from the parent (effective
    /// view). A unit touching none of these has the same inputs as the
    /// parent's pass.
    pub dirty: &'a HashSet<usize>,
}

/// Outcome of one (possibly memoized) checker pass.
pub(crate) struct CheckPass {
    pub violations: Vec<Violation>,
    pub cache: CheckCache,
    /// Units actually evaluated against `states`.
    pub evaluated: u64,
    /// Units inherited as clean-and-empty from the parent.
    pub inherited: u64,
    /// Evaluated checker units whose verdict came from the pass's
    /// [`VerdictTable`] without firing, so nothing re-ran.
    pub table_hits: u64,
}

/// True if every direct input signal of `prim` is outside `dirty`.
fn inputs_clean(prim: &Primitive, dirty: &HashSet<usize>) -> bool {
    prim.input_signals().all(|s| !dirty.contains(&s.index()))
}

/// Runs one checker primitive (the three `PrimKind` checker variants)
/// against `states`, appending any violations. Reads only the prim's
/// direct input states — except through `attach_provenance`, which walks
/// the fan-in cone but only when a violation actually fired.
fn check_checker_prim<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    prim: &Primitive,
    corner: DelayCorner,
    out: &mut Vec<Violation>,
) {
    let period = netlist.config().timing.period;
    match prim.kind {
        PrimKind::SetupHold { setup, hold } => {
            let input = pin_wave(netlist, prim, &prim.inputs[0], states, corner);
            let clock = pin_wave(netlist, prim, &prim.inputs[1], states, corner);
            let in_name = &netlist.signal(prim.inputs[0].signal).name;
            let ck_name = &netlist.signal(prim.inputs[1].signal).name;
            let len_before = out.len();
            if !check_clock_defined(&prim.name, ck_name, &clock, out) {
                attach_provenance(
                    netlist,
                    states,
                    prim.inputs[1].signal,
                    &mut out[len_before..],
                );
                return;
            }
            let edges = edge_windows(&clock, Edge::Rising);
            check_setup_hold_edges(
                &prim.name, setup, hold, &input, in_name, &clock, ck_name, &edges, out,
            );
            attach_provenance(
                netlist,
                states,
                prim.inputs[0].signal,
                &mut out[len_before..],
            );
        }
        PrimKind::SetupRiseHoldFall { setup, hold } => {
            let input = pin_wave(netlist, prim, &prim.inputs[0], states, corner);
            let clock = pin_wave(netlist, prim, &prim.inputs[1], states, corner);
            let in_name = &netlist.signal(prim.inputs[0].signal).name;
            let ck_name = &netlist.signal(prim.inputs[1].signal).name;
            let len_before = out.len();
            if !check_clock_defined(&prim.name, ck_name, &clock, out) {
                attach_provenance(
                    netlist,
                    states,
                    prim.inputs[1].signal,
                    &mut out[len_before..],
                );
                return;
            }
            let violation = |kind, missed_by, at| Violation {
                kind,
                source: prim.name.clone(),
                constraint: format!("SETUP (RISE) = {setup}, HOLD (FALL) = {hold}"),
                missed_by,
                at: Some(at),
                observed: vec![
                    observed_line("CK INPUT  ", ck_name, &clock),
                    observed_line("DATA INPUT", in_name, &input),
                ],
                provenance: None,
            };
            for (r, f) in clock_pulses(&clock) {
                if let Some(high) = pulse_interior(r, f, period) {
                    if !input.quiescent_throughout(high) {
                        out.push(violation(ViolationKind::StableWhileTrue, None, high));
                    }
                }
                if setup > Time::ZERO {
                    let avail = quiescent_before(&input, r.span.start());
                    if avail < setup {
                        out.push(violation(ViolationKind::Setup, Some(setup - avail), r.span));
                    }
                }
                if hold > Time::ZERO {
                    let avail = quiescent_after(&input, f.span.end(period));
                    if avail < hold {
                        out.push(violation(ViolationKind::Hold, Some(hold - avail), f.span));
                    }
                }
            }
            attach_provenance(
                netlist,
                states,
                prim.inputs[0].signal,
                &mut out[len_before..],
            );
        }
        PrimKind::MinPulseWidth { high, low } => {
            // Pulse widths are measured with skew kept separate: skew
            // shifts both edges of a pulse together (§2.8).
            let input = pin_wave_pulse_view(netlist, prim, &prim.inputs[0], states, corner);
            let name = &netlist.signal(prim.inputs[0].signal).name;
            let len_before = out.len();
            let observed = || vec![observed_line("INPUT     ", name, &input)];
            if high > Time::ZERO {
                for p in pulses(&input, true) {
                    if p.min_possible_width < high {
                        let glitch = if p.certain {
                            ""
                        } else {
                            " (POTENTIAL SPURIOUS PULSE)"
                        };
                        out.push(Violation {
                            kind: ViolationKind::MinPulseHigh,
                            source: prim.name.clone(),
                            constraint: format!(
                                "MIN HIGH WIDTH = {high}, POSSIBLE WIDTH = {}{glitch}",
                                p.min_possible_width
                            ),
                            missed_by: Some(high - p.min_possible_width),
                            at: Some(p.possible),
                            observed: observed(),
                            provenance: None,
                        });
                    }
                }
            }
            if low > Time::ZERO {
                for p in pulses(&input, false) {
                    if p.min_possible_width < low {
                        let glitch = if p.certain {
                            ""
                        } else {
                            " (POTENTIAL SPURIOUS PULSE)"
                        };
                        out.push(Violation {
                            kind: ViolationKind::MinPulseLow,
                            source: prim.name.clone(),
                            constraint: format!(
                                "MIN LOW WIDTH = {low}, POSSIBLE WIDTH = {}{glitch}",
                                p.min_possible_width
                            ),
                            missed_by: Some(low - p.min_possible_width),
                            at: Some(p.possible),
                            observed: observed(),
                            provenance: None,
                        });
                    }
                }
            }
            attach_provenance(
                netlist,
                states,
                prim.inputs[0].signal,
                &mut out[len_before..],
            );
        }
        _ => {}
    }
}

/// Runs one `&A`/`&H` directive check (§2.6) for `(pid, clock_idx)`: the
/// other inputs of the gate must be quiescent whenever the asserted
/// (clock) input could be true.
fn check_hazard_gate<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    pid: PrimId,
    clock_idx: usize,
    corner: DelayCorner,
    out: &mut Vec<Violation>,
) {
    let prim = netlist.prim(pid);
    let clock = pin_wave(netlist, prim, &prim.inputs[clock_idx], states, corner);
    let asserted = clock.spans_where(Value::could_be_high);
    let ck_name = &netlist.signal(prim.inputs[clock_idx].signal).name;
    for (i, conn) in prim.inputs.iter().enumerate() {
        if i == clock_idx {
            continue;
        }
        let other = pin_wave(netlist, prim, conn, states, corner);
        let name = &netlist.signal(conn.signal).name;
        for span in &asserted {
            if !other.quiescent_throughout(*span) {
                out.push(Violation {
                    kind: ViolationKind::Hazard,
                    source: prim.name.clone(),
                    constraint: format!("CONTROL MUST BE STABLE WHILE {ck_name} ASSERTED"),
                    missed_by: None,
                    at: Some(*span),
                    observed: vec![
                        observed_line("CLOCK     ", ck_name, &clock),
                        observed_line("CONTROL   ", name, &other),
                    ],
                    provenance: Some(provenance_for(netlist, states, conn.signal)),
                });
                break; // one report per (gate, control input)
            }
        }
    }
}

/// True if `sig` carries the §2.5.2 assertion-check unit: a non-clock
/// assertion on a generated (driven) signal.
fn has_assertion_unit(netlist: &Netlist, sid: SignalId, sig: &Signal) -> bool {
    sig.assertion
        .as_ref()
        .is_some_and(|a| !a.kind.is_clock() && netlist.driver(sid).is_some())
}

/// Checks one stable assertion on a generated signal (§2.5.2): the
/// designer's assertion against the actual settled timing. Reads only
/// `sid`'s own state (plus provenance, computed only on failure).
fn check_signal_assertion<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    sid: SignalId,
    sig: &Signal,
    out: &mut Vec<Violation>,
) {
    let timing = netlist.config().timing;
    let assertion = sig.assertion.as_ref().expect("assertion unit");
    let (asserted_wave, _) = assertion.to_state(&timing);
    let actual = states.state_at(sid.index()).resolved();
    for span in asserted_wave.spans_where_iter(|v| v == Value::Stable) {
        if !actual.quiescent_throughout(span) {
            out.push(Violation {
                kind: ViolationKind::AssertionViolated,
                source: sig.full_name(),
                constraint: format!("ASSERTED STABLE {span}"),
                missed_by: None,
                at: Some(span),
                observed: vec![observed_line("ACTUAL    ", &sig.name, &actual)],
                provenance: Some(provenance_for(netlist, states, sid)),
            });
        }
    }
}

/// Verifies all checker primitives, `&A`/`&H` gate directives and stable
/// assertions against the settled signal states, optionally inheriting
/// empty verdicts from a parent pass. `hazards` lists `(gate, asserted
/// input index)` pairs collected during evaluation.
///
/// With `parent: Some(memo)`, a unit is *skipped* — its (empty) verdict
/// inherited — exactly when the parent evaluated the same unit, found
/// nothing, and none of the unit's direct input signals are dirty. Units
/// that fired at the parent are always re-evaluated so the violations
/// (and their cone-walking provenance) come out byte-identical to a full
/// pass; units with a dirty input are re-evaluated because their verdict
/// may have changed. Violations are appended in netlist order, the same
/// order as a full pass, so the memoized result *is* the full result.
pub(crate) fn run_checks_cached<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
    parent: Option<&CheckMemo<'_>>,
) -> CheckPass {
    let mut out = Vec::new();
    let mut cache = CheckCache::default();
    let mut evaluated = 0u64;
    let mut inherited = 0u64;
    let mut table_hits = 0u64;

    let mut table = VerdictTable::default();
    for (pid, prim) in netlist.iter_prims() {
        if !prim.kind.is_checker() {
            continue;
        }
        let clean = parent.is_some_and(|m| {
            !m.cache.violating_prims.contains(&pid) && inputs_clean(prim, m.dirty)
        });
        if clean {
            inherited += 1;
            continue;
        }
        evaluated += 1;
        let (verdict, from_table) = table.lookup(netlist, states, prim, corner);
        if !verdict.fired {
            table_hits += u64::from(from_table);
            continue;
        }
        // A firing checker runs in full: its violations carry its own
        // source, observed lines and provenance.
        let before = out.len();
        check_checker_prim(netlist, states, prim, corner, &mut out);
        debug_assert!(
            out.len() > before,
            "{}: verdict fired, check did not",
            prim.name
        );
        if out.len() > before {
            cache.violating_prims.insert(pid);
        }
    }

    for &(pid, clock_idx) in hazards {
        // A hazard unit may only be inherited if the parent's hazard set
        // contained the same (gate, input) pair — a unit new to this
        // state was never checked before.
        let clean = parent.is_some_and(|m| {
            m.hazards.contains(&(pid, clock_idx))
                && !m.cache.violating_hazards.contains(&(pid, clock_idx))
                && inputs_clean(netlist.prim(pid), m.dirty)
        });
        if clean {
            inherited += 1;
            continue;
        }
        evaluated += 1;
        let before = out.len();
        check_hazard_gate(netlist, states, pid, clock_idx, corner, &mut out);
        if out.len() > before {
            cache.violating_hazards.insert((pid, clock_idx));
        }
    }

    for (sid, sig) in netlist.iter_signals() {
        if !has_assertion_unit(netlist, sid, sig) {
            continue;
        }
        let clean = parent.is_some_and(|m| {
            !m.cache.violating_asserts.contains(&sid) && !m.dirty.contains(&sid.index())
        });
        if clean {
            inherited += 1;
            continue;
        }
        evaluated += 1;
        let before = out.len();
        check_signal_assertion(netlist, states, sid, sig, &mut out);
        if out.len() > before {
            cache.violating_asserts.insert(sid);
        }
    }

    CheckPass {
        violations: out,
        cache,
        evaluated,
        inherited,
        table_hits,
    }
}

/// Verifies all checker primitives, `&A`/`&H` gate directives and stable
/// assertions against the settled signal states — the full, unmemoized
/// checker pass. `hazards` lists `(gate, asserted input index)` pairs
/// collected during evaluation.
pub(crate) fn run_all_checks<S: StateView + ?Sized>(
    netlist: &Netlist,
    states: &S,
    hazards: &[(PrimId, usize)],
    corner: DelayCorner,
) -> Vec<Violation> {
    run_checks_cached(netlist, states, hazards, corner, None).violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_logic::Value::*;

    const P: Time = Time::from_ps(50_000);

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    #[test]
    fn quiescent_before_measures_stable_run() {
        let w = Waveform::from_intervals(P, Stable, [(ns(5.0), ns(10.0), Change)]);
        assert_eq!(quiescent_before(&w, ns(20.0)), ns(10.0));
        assert_eq!(quiescent_before(&w, ns(10.0)), Time::ZERO);
        assert_eq!(quiescent_before(&w, ns(7.0)), Time::ZERO);
        // Wrapping: stable 10..50 and 0..5 => at t=3 the run is 43 ns.
        assert_eq!(quiescent_before(&w, ns(3.0)), ns(43.0));
    }

    /// A quiescent run through the end of the period counts in full: at
    /// 12.999 ns the input has been quiescent since 48 ns.
    #[test]
    fn quiescent_before_measures_a_run_through_the_period_end() {
        let w = Waveform::from_transitions(
            P,
            vec![
                (ns(0.0), One),
                (ns(12.0), Stable),
                (ns(22.0), Change),
                (ns(37.0), Fall),
                (ns(48.0), One),
            ],
        );
        assert_eq!(quiescent_before(&w, ns(12.999)), ns(14.999));
    }

    #[test]
    fn quiescent_before_full_period() {
        let w = Waveform::constant(P, Stable);
        assert_eq!(quiescent_before(&w, ns(20.0)), P);
    }

    #[test]
    fn quiescent_after_measures_stable_run() {
        let w = Waveform::from_intervals(P, Stable, [(ns(5.0), ns(10.0), Change)]);
        assert_eq!(quiescent_after(&w, ns(10.0)), ns(45.0)); // 10..50 + 0..5
        assert_eq!(quiescent_after(&w, ns(48.0)), ns(7.0));
        assert_eq!(quiescent_after(&w, ns(6.0)), Time::ZERO);
    }

    #[test]
    fn setup_hold_edges_report_margins() {
        // Paper example shape: data stable at 11.5, clock edge window
        // starting at 11.5 => setup of 3.5 missed by the full 3.5 ns.
        let data = Waveform::from_intervals(P, Stable, [(ns(0.5), ns(11.5), Change)]);
        let clock = Waveform::from_intervals(P, Zero, [(ns(11.5), ns(13.5), Rise)])
            .overwrite(Span::new(ns(13.5), ns(16.5), P), One);
        let edges = edge_windows(&clock, Edge::Rising);
        let mut v = Vec::new();
        check_setup_hold_edges(
            "CHK",
            ns(3.5),
            ns(1.0),
            &data,
            "ADR",
            &clock,
            "WE",
            &edges,
            &mut v,
        );
        assert_eq!(v.len(), 1, "violations: {v:#?}");
        assert_eq!(v[0].kind, ViolationKind::Setup);
        assert_eq!(v[0].missed_by, Some(ns(3.5)));
    }

    #[test]
    fn setup_satisfied_with_enough_margin() {
        let data = Waveform::from_intervals(P, Stable, [(ns(0.5), ns(5.5), Change)]);
        let clock = Waveform::from_intervals(P, Zero, [(ns(20.0), ns(25.0), One)]);
        let edges = edge_windows(&clock, Edge::Rising);
        let mut v = Vec::new();
        check_setup_hold_edges(
            "CHK",
            ns(3.5),
            ns(1.0),
            &data,
            "D",
            &clock,
            "CK",
            &edges,
            &mut v,
        );
        assert!(v.is_empty(), "unexpected: {v:#?}");
    }

    #[test]
    fn hold_violation_detected() {
        // Data starts changing 0.5 ns after the clock edge; hold is 1.5.
        let clock = Waveform::from_intervals(P, Zero, [(ns(20.0), ns(25.0), One)]);
        let data = Waveform::from_intervals(P, Stable, [(ns(20.5), ns(30.0), Change)]);
        let edges = edge_windows(&clock, Edge::Rising);
        let mut v = Vec::new();
        check_setup_hold_edges(
            "CHK",
            ns(2.0),
            ns(1.5),
            &data,
            "D",
            &clock,
            "CK",
            &edges,
            &mut v,
        );
        let holds: Vec<_> = v.iter().filter(|x| x.kind == ViolationKind::Hold).collect();
        assert_eq!(holds.len(), 1);
        assert_eq!(holds[0].missed_by, Some(ns(1.0)));
    }

    #[test]
    fn negative_hold_never_violates_after_edge() {
        // The thesis' register file specifies a hold of -1.0 ns.
        let clock = Waveform::from_intervals(P, Zero, [(ns(20.0), ns(25.0), One)]);
        let data = Waveform::from_intervals(P, Stable, [(ns(21.0), ns(30.0), Change)]);
        let edges = edge_windows(&clock, Edge::Rising);
        let mut v = Vec::new();
        check_setup_hold_edges(
            "CHK",
            ns(2.0),
            ns(-1.0),
            &data,
            "D",
            &clock,
            "CK",
            &edges,
            &mut v,
        );
        assert!(v.is_empty(), "negative hold must not fire: {v:#?}");
    }

    #[test]
    fn clock_pulse_pairing() {
        let clock = Waveform::from_intervals(P, Zero, [(ns(10.0), ns(20.0), One)]);
        let pairs = clock_pulses(&clock);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0.span.start(), ns(10.0));
        assert_eq!(pairs[0].1.span.start(), ns(20.0));
    }

    // ---- The table oracle -------------------------------------------

    use crate::engine::{Case, RunOptions, VerifierBuilder};
    use crate::CaseSet;
    use scald_gen::corpus::every_violation_kind;
    use scald_gen::s1::{s1_like_netlist, S1Options};
    use scald_gen::scale::{scale_netlist, ScaleOptions};
    use scald_netlist::{Config, Conn, NetlistBuilder};
    use scald_rng::Rng;
    use scald_wave::DelayRange;

    /// `run_checks_cached` as it was written before checker units were
    /// looked up in a per-pass verdict table: every unit runs its full
    /// check. Kept verbatim as the oracle the table pass must match.
    fn reference_run_checks<S: StateView + ?Sized>(
        netlist: &Netlist,
        states: &S,
        hazards: &[(PrimId, usize)],
        corner: DelayCorner,
        parent: Option<&CheckMemo<'_>>,
    ) -> CheckPass {
        let mut out = Vec::new();
        let mut cache = CheckCache::default();
        let mut evaluated = 0u64;
        let mut inherited = 0u64;

        for (pid, prim) in netlist.iter_prims() {
            if !matches!(
                prim.kind,
                PrimKind::SetupHold { .. }
                    | PrimKind::SetupRiseHoldFall { .. }
                    | PrimKind::MinPulseWidth { .. }
            ) {
                continue;
            }
            let clean = parent.is_some_and(|m| {
                !m.cache.violating_prims.contains(&pid) && inputs_clean(prim, m.dirty)
            });
            if clean {
                inherited += 1;
                continue;
            }
            evaluated += 1;
            let before = out.len();
            check_checker_prim(netlist, states, prim, corner, &mut out);
            if out.len() > before {
                cache.violating_prims.insert(pid);
            }
        }

        for &(pid, clock_idx) in hazards {
            let clean = parent.is_some_and(|m| {
                m.hazards.contains(&(pid, clock_idx))
                    && !m.cache.violating_hazards.contains(&(pid, clock_idx))
                    && inputs_clean(netlist.prim(pid), m.dirty)
            });
            if clean {
                inherited += 1;
                continue;
            }
            evaluated += 1;
            let before = out.len();
            check_hazard_gate(netlist, states, pid, clock_idx, corner, &mut out);
            if out.len() > before {
                cache.violating_hazards.insert((pid, clock_idx));
            }
        }

        for (sid, sig) in netlist.iter_signals() {
            if !has_assertion_unit(netlist, sid, sig) {
                continue;
            }
            let clean = parent.is_some_and(|m| {
                !m.cache.violating_asserts.contains(&sid) && !m.dirty.contains(&sid.index())
            });
            if clean {
                inherited += 1;
                continue;
            }
            evaluated += 1;
            let before = out.len();
            check_signal_assertion(netlist, states, sid, sig, &mut out);
            if out.len() > before {
                cache.violating_asserts.insert(sid);
            }
        }

        CheckPass {
            violations: out,
            cache,
            evaluated,
            inherited,
            table_hits: 0,
        }
    }

    /// `slack_report` as it was written before it read the verdict
    /// table: its own set-up/hold/pulse edge loops. Kept verbatim as the
    /// oracle for the slack view.
    fn reference_slack_report<S: StateView + ?Sized>(
        netlist: &Netlist,
        states: &S,
        corner: DelayCorner,
    ) -> Vec<CheckMargin> {
        let period = netlist.config().timing.period;
        let mut out = Vec::new();
        for (_, prim) in netlist.iter_prims() {
            match prim.kind {
                PrimKind::SetupHold { setup, hold } => {
                    let input = pin_wave(netlist, prim, &prim.inputs[0], states, corner);
                    let clock = pin_wave(netlist, prim, &prim.inputs[1], states, corner);
                    let mut setup_slack: Option<Time> = None;
                    let mut hold_slack: Option<Time> = None;
                    for e in edge_windows(&clock, Edge::Rising) {
                        let avail_setup = if input.quiescent_throughout(e.span) {
                            quiescent_before(&input, e.span.start())
                        } else {
                            Time::ZERO
                        };
                        let s = avail_setup - setup;
                        setup_slack = Some(setup_slack.map_or(s, |m| m.min(s)));
                        let avail_hold = quiescent_after(&input, e.span.end(period));
                        let h = avail_hold - hold;
                        hold_slack = Some(hold_slack.map_or(h, |m| m.min(h)));
                    }
                    out.push(CheckMargin {
                        checker: prim.name.clone(),
                        signal: netlist.signal(prim.inputs[0].signal).name.clone(),
                        setup_slack,
                        hold_slack,
                        pulse_slack: None,
                    });
                }
                PrimKind::SetupRiseHoldFall { setup, hold } => {
                    let input = pin_wave(netlist, prim, &prim.inputs[0], states, corner);
                    let clock = pin_wave(netlist, prim, &prim.inputs[1], states, corner);
                    let mut setup_slack: Option<Time> = None;
                    let mut hold_slack: Option<Time> = None;
                    for (r, f) in clock_pulses(&clock) {
                        let s = quiescent_before(&input, r.span.start()) - setup;
                        setup_slack = Some(setup_slack.map_or(s, |m| m.min(s)));
                        let h = quiescent_after(&input, f.span.end(period)) - hold;
                        hold_slack = Some(hold_slack.map_or(h, |m| m.min(h)));
                    }
                    out.push(CheckMargin {
                        checker: prim.name.clone(),
                        signal: netlist.signal(prim.inputs[0].signal).name.clone(),
                        setup_slack,
                        hold_slack,
                        pulse_slack: None,
                    });
                }
                PrimKind::MinPulseWidth { high, low } => {
                    let input = pin_wave_pulse_view(netlist, prim, &prim.inputs[0], states, corner);
                    let mut pulse_slack: Option<Time> = None;
                    if high > Time::ZERO {
                        for p in pulses(&input, true) {
                            let s = p.min_possible_width - high;
                            pulse_slack = Some(pulse_slack.map_or(s, |m| m.min(s)));
                        }
                    }
                    if low > Time::ZERO {
                        for p in pulses(&input, false) {
                            let s = p.min_possible_width - low;
                            pulse_slack = Some(pulse_slack.map_or(s, |m| m.min(s)));
                        }
                    }
                    out.push(CheckMargin {
                        checker: prim.name.clone(),
                        signal: netlist.signal(prim.inputs[0].signal).name.clone(),
                        setup_slack: None,
                        hold_slack: None,
                        pulse_slack,
                    });
                }
                _ => {}
            }
        }
        // Worst margins first.
        out.sort_by_key(|m| {
            [m.setup_slack, m.hold_slack, m.pulse_slack]
                .into_iter()
                .flatten()
                .min()
                .unwrap_or(Time::from_ps(i64::MAX))
        });
        out
    }

    fn assert_same_pass(label: &str, got: &CheckPass, want: &CheckPass) {
        assert_eq!(got.violations, want.violations, "{label}: violations");
        assert_eq!(
            got.cache.violating_prims, want.cache.violating_prims,
            "{label}: violating checkers"
        );
        assert_eq!(
            got.cache.violating_hazards, want.cache.violating_hazards,
            "{label}: violating hazard units"
        );
        assert_eq!(
            got.cache.violating_asserts, want.cache.violating_asserts,
            "{label}: violating assertions"
        );
        assert_eq!(
            (got.evaluated, got.inherited),
            (want.evaluated, want.inherited),
            "{label}: unit counts"
        );
    }

    /// The checker pass — full, and memoized against its own summary
    /// with a random dirty set — and the slack view match the oracle on
    /// one settled state. Returns the number of violations, so callers
    /// can see the corpus fired.
    fn assert_matches_reference<S: StateView + ?Sized>(
        label: &str,
        netlist: &Netlist,
        states: &S,
        hazards: &[(PrimId, usize)],
        corner: DelayCorner,
        rng: &mut Rng,
    ) -> usize {
        let full = run_checks_cached(netlist, states, hazards, corner, None);
        let reference = reference_run_checks(netlist, states, hazards, corner, None);
        assert_same_pass(label, &full, &reference);

        let hazard_set: BTreeSet<(PrimId, usize)> = hazards.iter().copied().collect();
        let dirty: HashSet<usize> = (0..netlist.signals().len())
            .filter(|_| rng.range_u32(0, 4) == 0)
            .collect();
        let memo = CheckMemo {
            cache: &reference.cache,
            hazards: &hazard_set,
            dirty: &dirty,
        };
        assert_same_pass(
            &format!("{label} (memoized)"),
            &run_checks_cached(netlist, states, hazards, corner, Some(&memo)),
            &reference_run_checks(netlist, states, hazards, corner, Some(&memo)),
        );

        assert_eq!(
            slack_report(netlist, states, corner),
            reference_slack_report(netlist, states, corner),
            "{label}: slack view"
        );
        reference.violations.len()
    }

    /// Runs `netlist` as one case at `corner` and holds the installed
    /// state to the oracle.
    fn assert_design_matches_reference(
        label: &str,
        netlist: &Netlist,
        corner: DelayCorner,
        rng: &mut Rng,
    ) -> usize {
        let mut v = VerifierBuilder::new(netlist.clone()).jobs(1).build();
        v.run(&RunOptions::new().cases(CaseSet::list([Case::new().corner(corner)])))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let (netlist, states, hazards, corner) = v.checker_inputs();
        assert_matches_reference(label, netlist, states, &hazards, corner, rng)
    }

    const CORNERS: [DelayCorner; 3] = [DelayCorner::Min, DelayCorner::Max, DelayCorner::Worst];

    fn design(file: &str) -> String {
        let path = format!("{}/../../designs/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// Set-up/hold checker pairs whose situations differ in exactly one
    /// field — the input's skew, the clock connection's inversion, the
    /// wire delay, the directive — so a lookup that ignored the field
    /// would serve one checker the other's margins.
    fn one_field_apart() -> Netlist {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
        let wire = |s, max| Conn::new(s).with_wire_delay(DelayRange::from_ns(0.0, max));
        let ck = b.signal("CK .P2-3 (0,0)").unwrap();
        let src = b.signal("SRC .S1-6").unwrap();
        // One wave, two skews: the buffers share a minimum delay.
        for (name, max) in [("NARROW", 2.0), ("WIDE", 4.0)] {
            let d = b.signal(&format!("{name} SKEW")).unwrap();
            b.buf(
                format!("{name} BUF"),
                DelayRange::from_ns(1.0, max),
                z(src),
                d,
            );
            b.setup_hold(format!("{name} CHK"), ns(2.5), ns(1.5), z(d), z(ck));
        }
        b.setup_hold("TRUE CK CHK", ns(2.5), ns(1.5), z(src), z(ck));
        b.setup_hold(
            "INVERTED CK CHK",
            ns(2.5),
            ns(1.5),
            z(src),
            z(ck).inverted(),
        );
        b.setup_hold("SHORT WIRE CHK", ns(2.5), ns(1.5), wire(src, 1.0), z(ck));
        b.setup_hold("LONG WIRE CHK", ns(2.5), ns(1.5), wire(src, 3.0), z(ck));
        b.setup_hold(
            "ZEROED WIRE CHK",
            ns(2.5),
            ns(1.5),
            wire(src, 3.0).with_directive("W"),
            z(ck),
        );
        b.finish().unwrap()
    }

    #[test]
    fn table_pass_matches_reference_on_the_violation_corpus() {
        let mut rng = Rng::seed_from_u64(0x7ab1e);
        let corpus = [
            ("every_kind", every_violation_kind()),
            ("one_field_apart", one_field_apart()),
            (
                "register_file.scald",
                scald_hdl::compile(&design("register_file.scald"))
                    .expect("design compiles")
                    .netlist,
            ),
            (
                "cascade_race.v",
                scald_rtl::compile(&design("cascade_race.v"))
                    .expect("design compiles")
                    .netlist,
            ),
        ];
        for (name, netlist) in &corpus {
            for corner in CORNERS {
                let label = format!("{name} {corner}");
                let fired = assert_design_matches_reference(&label, netlist, corner, &mut rng);
                if corner == DelayCorner::Worst {
                    assert!(fired > 0, "{name}: the corpus design fires");
                }
            }
        }
    }

    /// Fifty seeded designs, each at every corner: S-1-like designs
    /// (clean) alternate with scale-sweep designs of one to four clock
    /// phases (some of which fire).
    #[test]
    fn table_pass_matches_reference_on_fifty_seeded_designs() {
        let mut rng = Rng::seed_from_u64(0x0eac1e);
        let mut fired = 0;
        for design in 0..50 {
            let netlist = if design % 2 == 0 {
                s1_like_netlist(S1Options {
                    chips: rng.range_usize(6, 30),
                    seed: rng.next_u64(),
                })
                .0
            } else {
                let mut opts = ScaleOptions::prims(rng.range_usize(500, 1500));
                opts.clocks = rng.range_usize(1, 5);
                opts.depth = rng.range_f64(0.5, 0.9);
                opts.seed = rng.next_u64();
                scale_netlist(&opts).0
            };
            for corner in CORNERS {
                fired += assert_design_matches_reference(
                    &format!("design {design} {corner}"),
                    &netlist,
                    corner,
                    &mut rng,
                );
            }
        }
        assert!(fired > 0, "some seeded design fires a check");
    }

    /// On one full pass the table counter is the checker count minus
    /// the number of distinct checker situations (the design is clean,
    /// so no hit re-runs).
    #[test]
    fn table_hits_are_units_minus_distinct_situations() {
        let (netlist, _) = scale_netlist(&ScaleOptions::prims(10_000));
        let mut v = VerifierBuilder::new(netlist).jobs(1).build();
        let outcome = v.run(&RunOptions::new()).expect("settles");
        assert!(outcome.cases[0].violations.is_empty());
        let (netlist, states, _, corner) = v.checker_inputs();
        let mut table = VerdictTable::default();
        let mut units = 0u64;
        for (_, prim) in netlist.iter_prims() {
            if prim.kind.is_checker() {
                table.lookup(netlist, states, prim, corner);
                units += 1;
            }
        }
        let distinct = table.verdicts.len() as u64;
        assert!(
            distinct * 100 < units,
            "{units} checkers in {distinct} situations"
        );
        assert_eq!(outcome.memo.check_table_hits, units - distinct);
    }

    /// Two set-up/hold checkers that see the same waves through the same
    /// kind of connection — one situation — and both fire. Each keeps
    /// its own source, observed lines and provenance.
    #[test]
    fn checkers_sharing_a_situation_keep_their_own_diagnostics() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
        let ck = b.signal("CK .P2-3 (0,0)").unwrap();
        for side in ["A", "B"] {
            let src = b.signal(&format!("SRC {side} .S2-6")).unwrap();
            let d = b.signal(&format!("D {side}")).unwrap();
            b.buf(
                format!("BUF {side}"),
                DelayRange::from_ns(1.0, 2.0),
                z(src),
                d,
            );
            b.setup_hold(format!("CHK {side}"), ns(2.5), ns(1.5), z(d), z(ck));
        }
        let netlist = b.finish().unwrap();
        let mut v = VerifierBuilder::new(netlist).jobs(1).build();
        v.run(&RunOptions::new()).expect("settles");
        let (netlist, states, hazards, corner) = v.checker_inputs();
        let mut rng = Rng::seed_from_u64(1);
        assert_matches_reference("pair", netlist, states, &hazards, corner, &mut rng);

        let mut table = VerdictTable::default();
        for (_, prim) in netlist.iter_prims() {
            if prim.kind.is_checker() {
                table.lookup(netlist, states, prim, corner);
            }
        }
        assert_eq!(
            table.verdicts.len(),
            1,
            "the two checkers share a situation"
        );

        let violations = run_checks_cached(netlist, states, &hazards, corner, None).violations;
        for side in ["A", "B"] {
            let own: Vec<&Violation> = violations
                .iter()
                .filter(|v| v.source == format!("CHK {side}"))
                .collect();
            assert!(!own.is_empty(), "CHK {side} fires: {violations:#?}");
            for v in own {
                assert!(
                    v.observed[1].contains(&format!("D {side}")),
                    "{:?}",
                    v.observed
                );
                let hops = &v.provenance.as_ref().expect("provenance").hops;
                assert_eq!(hops[0].signal, format!("D {side}"));
                assert_eq!(hops[0].via.as_deref(), Some(format!("BUF {side}").as_str()));
                assert!(hops[1].signal.starts_with(&format!("SRC {side}")));
            }
        }
    }
}
