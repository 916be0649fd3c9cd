//! Clock-edge and pulse extraction from waveforms.
//!
//! The checker primitives (§2.4.4–2.4.5) need to know *where a clock could
//! transition*: set-up/hold checks are anchored on rising-edge windows,
//! `SETUP RISE HOLD FALL` checks additionally on falling-edge windows, and
//! minimum-pulse-width checks on the narrowest pulse the signal could
//! produce. This module derives those from a [`Waveform`], conservatively:
//! any behaviour the seven-value waveform admits is covered.

use crate::{Span, Time, Waveform};
use scald_logic::Value;

/// Direction of a clock transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// A zero-to-one transition.
    Rising,
    /// A one-to-zero transition.
    Falling,
}

impl Edge {
    /// Could a signal holding `v` contain a transition in this direction?
    ///
    /// `C` and `U` could contain either; `R` only a rise; `F` only a fall;
    /// quiescent values none.
    #[must_use]
    pub fn possible_within(self, v: Value) -> bool {
        match self {
            Edge::Rising => matches!(v, Value::Rise | Value::Change | Value::Unknown),
            Edge::Falling => matches!(v, Value::Fall | Value::Change | Value::Unknown),
        }
    }

    /// Could a transition in this direction occur exactly at a boundary
    /// from value `a` to value `b`?
    ///
    /// A rise needs the signal to possibly be low before and possibly high
    /// after; dually for a fall. This is what catches the hazard of
    /// Fig 1-5, where a `0 → F` boundary marks the instant a spurious
    /// clock pulse could begin.
    #[must_use]
    pub fn possible_at_boundary(self, a: Value, b: Value) -> bool {
        match self {
            Edge::Rising => a.could_be_low() && b.could_be_high(),
            Edge::Falling => a.could_be_high() && b.could_be_low(),
        }
    }
}

/// A window of time over which a clock transition could occur.
///
/// With no skew an ideal clock produces zero-width windows at its edges;
/// skew and gate-delay spreads widen them. `certain` distinguishes edges
/// that definitely happen (a `0 … 1` crossing) from ones that merely might
/// (hazards, `C` regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeWindow {
    /// When the transition could occur.
    pub span: Span,
    /// `true` if the transition is guaranteed to occur somewhere in the
    /// window (the signal is definitely low on one side and definitely
    /// high on the other).
    pub certain: bool,
}

/// A possible pulse on a signal, used by minimum-pulse-width checking
/// (§2.4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pulse {
    /// The maximal span over which the signal could be at the pulse level.
    pub possible: Span,
    /// The narrowest the pulse could be: the width of the shortest
    /// guaranteed-at-level run inside the span, or zero if the signal is
    /// never guaranteed at the level (a potential glitch that might be
    /// arbitrarily narrow).
    pub min_possible_width: Time,
    /// `true` if a pulse definitely occurs (the signal is guaranteed at the
    /// level at some point in the span).
    pub certain: bool,
}

/// Finds all windows over which `wave` could make a transition in the
/// direction `edge`.
///
/// A window is a maximal run of values that could contain the transition
/// ([`Edge::possible_within`]), possibly zero-width when the transition can
/// only occur at an instantaneous boundary (e.g. `0 → 1` for a rise).
/// Windows are returned in order of their start time. A constant signal has
/// no edges. A signal whose every segment could contain the transition
/// (e.g. all `C`) yields one full-period window.
#[must_use]
pub fn edge_windows(wave: &Waveform, edge: Edge) -> Vec<EdgeWindow> {
    if wave.is_constant() {
        return Vec::new();
    }
    let period = wave.period();
    let n = wave.segment_count();

    // Per-segment "could contain the edge" flags.
    let within = |k: usize| edge.possible_within(wave.segment(k).1);

    if (0..n).all(within) {
        return vec![EdgeWindow {
            span: Span::full(period),
            certain: false,
        }];
    }

    // A window is a maximal run of `within` segments, extended to include
    // instantaneous boundary edges at its ends; an isolated boundary edge
    // (e.g. a direct 0 -> 1 transition) is a zero-width window.
    //
    // Work in "boundary space": boundary i sits between segment i-1 and
    // segment i (circularly).
    let seg_val = |i: usize| wave.segment(i % n).1;
    let boundary_edge = |i: usize| {
        // Only a real transition can host an instantaneous edge; the
        // artificial segment split at the period wrap (equal values on
        // both sides) is not one. And only when neither neighbouring
        // segment already could contain the edge (else the run covers it).
        seg_val(i + n - 1) != seg_val(i)
            && edge.possible_at_boundary(seg_val(i + n - 1), seg_val(i))
            && !within((i + n - 1) % n)
            && !within(i % n)
    };

    let mut windows = Vec::new();
    let mut i = 0;
    while i < n {
        if within(i) && (i > 0 || !within(n - 1)) {
            // Maximal run starting at segment i.
            let start = wave.segment(i).0;
            let mut width = Time::ZERO;
            let mut j = i;
            while within(j % n) {
                width += wave.segment(j % n).2;
                j += 1;
                if j % n == i {
                    break;
                }
            }
            // Certainty: the value before the run is definitely on the
            // "from" side and the value after definitely on the "to" side.
            let before = seg_val(i + n - 1);
            let after = seg_val(j);
            let certain = match edge {
                Edge::Rising => !before.could_be_high() && !after.could_be_low(),
                Edge::Falling => !before.could_be_low() && !after.could_be_high(),
            };
            windows.push(EdgeWindow {
                span: Span::new(start, width, period),
                certain,
            });
            i = j.min(n);
        } else {
            if boundary_edge(i) {
                let (a, b) = (seg_val(i + n - 1), seg_val(i));
                let certain = match edge {
                    Edge::Rising => !a.could_be_high() && !b.could_be_low(),
                    Edge::Falling => !a.could_be_low() && !b.could_be_high(),
                };
                windows.push(EdgeWindow {
                    span: Span::instant(wave.segment(i).0, period),
                    certain,
                });
            }
            i += 1;
        }
    }
    windows.sort_by_key(|w| w.span.start());
    windows
}

/// Finds all possible pulses at the given `level` (`true` = high pulses,
/// `false` = low pulses) for minimum-pulse-width checking.
///
/// A pulse span is a maximal circular run of values that *could* be at the
/// level, bounded on both sides by values that cannot be. The
/// `min_possible_width` is the narrowest contiguous run of values
/// *guaranteed* at the level within the span (`1` segments for high
/// pulses), or zero when there is none — a potential glitch like the 5 ns
/// spurious clock pulse of Fig 1-5.
///
/// If the signal could be at the level for the entire period no pulse is
/// reported (there is no bounded pulse to measure).
#[must_use]
pub fn pulses(wave: &Waveform, level: bool) -> Vec<Pulse> {
    let period = wave.period();
    let could = |v: Value| {
        if level {
            v.could_be_high()
        } else {
            v.could_be_low()
        }
    };
    let guaranteed = |v: Value| {
        if level {
            v == Value::One
        } else {
            v == Value::Zero
        }
    };

    let n = wave.segment_count();
    let could_at = |k: usize| could(wave.segment(k).1);
    if (0..n).all(could_at) {
        return Vec::new();
    }

    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        if could_at(i) && (i > 0 || !could_at(n - 1)) {
            let start = wave.segment(i).0;
            let mut width = Time::ZERO;
            let mut j = i;
            // Track guaranteed runs inside the pulse.
            let mut min_guaranteed: Option<Time> = None;
            let mut run: Option<Time> = None;
            let mut certain = false;
            while could_at(j % n) {
                let (_, v, w) = wave.segment(j % n);
                width += w;
                if guaranteed(v) {
                    certain = true;
                    run = Some(run.unwrap_or(Time::ZERO) + w);
                } else if let Some(r) = run.take() {
                    min_guaranteed = Some(min_guaranteed.map_or(r, |m| m.min(r)));
                }
                j += 1;
                if j % n == i {
                    break;
                }
            }
            if let Some(r) = run {
                min_guaranteed = Some(min_guaranteed.map_or(r, |m| m.min(r)));
            }
            out.push(Pulse {
                possible: Span::new(start, width, period),
                min_possible_width: min_guaranteed.unwrap_or(Time::ZERO),
                certain,
            });
            i = j.min(n);
        } else {
            i += 1;
        }
    }
    out.sort_by_key(|p| p.possible.start());
    out
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
    fn ideal_clock_has_instant_edges() {
        let clk = Waveform::from_intervals(P, Zero, [(ns(10.0), ns(20.0), One)]);
        let rising = edge_windows(&clk, Edge::Rising);
        assert_eq!(rising.len(), 1);
        assert_eq!(rising[0].span, Span::instant(ns(10.0), P));
        assert!(rising[0].certain);
        let falling = edge_windows(&clk, Edge::Falling);
        assert_eq!(falling.len(), 1);
        assert_eq!(falling[0].span, Span::instant(ns(20.0), P));
        assert!(falling[0].certain);
    }

    #[test]
    fn skewed_clock_has_window_edges() {
        let clk = Waveform::from_intervals(P, Zero, [(ns(10.0), ns(20.0), One)])
            .with_skew_applied(crate::Skew::from_ns(1.0, 1.0));
        let rising = edge_windows(&clk, Edge::Rising);
        assert_eq!(rising.len(), 1);
        assert_eq!(rising[0].span.start(), ns(9.0));
        assert_eq!(rising[0].span.width(), ns(2.0));
        assert!(rising[0].certain);
    }

    #[test]
    fn constant_signal_has_no_edges() {
        for v in [Zero, One, Stable, Change] {
            let w = Waveform::constant(P, v);
            assert!(edge_windows(&w, Edge::Rising).is_empty());
            assert!(edge_windows(&w, Edge::Falling).is_empty());
        }
    }

    #[test]
    fn hazard_pulse_yields_uncertain_rising_edge() {
        // Fig 1-5: REG CLOCK is 0 except for a possible glitch 20..25 (F:
        // it rose iff the enable was still high, then falls).
        let w = Waveform::from_intervals(P, Zero, [(ns(20.0), ns(25.0), Fall)]);
        let rising = edge_windows(&w, Edge::Rising);
        assert_eq!(rising.len(), 1, "the spurious clock edge must be found");
        assert_eq!(rising[0].span, Span::instant(ns(20.0), P));
        assert!(!rising[0].certain);
        // And the glitch also admits a falling edge within the F run.
        let falling = edge_windows(&w, Edge::Falling);
        assert_eq!(falling.len(), 1);
        assert_eq!(falling[0].span.start(), ns(20.0));
        assert_eq!(falling[0].span.width(), ns(5.0));
    }

    #[test]
    fn change_region_between_levels_is_one_window() {
        let w = Waveform::from_intervals(P, Zero, [(ns(10.0), ns(14.0), Change)])
            .overwrite(Span::new(ns(14.0), ns(6.0), P), One);
        let rising = edge_windows(&w, Edge::Rising);
        assert_eq!(rising.len(), 1);
        assert_eq!(rising[0].span.start(), ns(10.0));
        assert_eq!(rising[0].span.width(), ns(4.0));
        assert!(rising[0].certain, "0 .. C .. 1 must cross");
    }

    #[test]
    fn falling_region_hosts_no_rise_within_it() {
        // 1 (0..10), F (10..14), 0 (14..50): the fall can only happen in
        // the F window; the only possible rise is the instantaneous 0 -> 1
        // at the period wrap (the clock is periodic, so it must come back
        // up at t = 0).
        let w = Waveform::from_intervals(
            P,
            One,
            [(ns(10.0), ns(14.0), Fall), (ns(14.0), ns(50.0), Zero)],
        );
        let falling = edge_windows(&w, Edge::Falling);
        assert_eq!(falling.len(), 1);
        assert_eq!(falling[0].span.start(), ns(10.0));
        assert_eq!(falling[0].span.width(), ns(4.0));
        assert!(falling[0].certain);
        let rising = edge_windows(&w, Edge::Rising);
        assert_eq!(rising.len(), 1);
        assert_eq!(rising[0].span, Span::instant(ns(0.0), P));
        assert!(rising[0].certain);
    }

    #[test]
    fn wrapping_edge_window() {
        // R run that wraps: R from 48..50 and 0..2, 1 after, 0 before.
        let w = Waveform::from_intervals(P, Zero, [(ns(30.0), ns(48.0), Zero)])
            .overwrite(Span::wrapping(ns(48.0), ns(2.0), P), Rise)
            .overwrite(Span::new(ns(2.0), ns(20.0), P), One);
        let rising = edge_windows(&w, Edge::Rising);
        assert_eq!(rising.len(), 1);
        assert_eq!(rising[0].span.start(), ns(48.0));
        assert_eq!(rising[0].span.width(), ns(4.0));
        assert!(rising[0].certain);
    }

    #[test]
    fn all_change_is_full_period_window() {
        let w = Waveform::from_intervals(P, Change, [(ns(0.0), ns(1.0), Change)]);
        assert!(w.is_constant());
        assert!(
            edge_windows(&w, Edge::Rising).is_empty(),
            "constant C: no anchor"
        );
        // But a C period with a single 1 segment: rest is one wrapping window.
        let w = Waveform::from_intervals(P, Change, [(ns(10.0), ns(12.0), One)]);
        let rising = edge_windows(&w, Edge::Rising);
        assert_eq!(rising.len(), 1);
        assert_eq!(rising[0].span.start(), ns(12.0));
        assert_eq!(rising[0].span.width(), ns(48.0));
    }

    #[test]
    fn clean_pulse_width() {
        let w = Waveform::from_intervals(P, Zero, [(ns(10.0), ns(20.0), One)]);
        let high = pulses(&w, true);
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].min_possible_width, ns(10.0));
        assert!(high[0].certain);
        let low = pulses(&w, false);
        assert_eq!(low.len(), 1);
        assert_eq!(low[0].min_possible_width, ns(40.0));
        assert_eq!(low[0].possible.start(), ns(20.0));
    }

    #[test]
    fn skewed_pulse_min_width_is_guaranteed_run() {
        // R 9..11, 1 11..19, F 19..21: narrowest possible pulse is 8 ns.
        let w = Waveform::from_intervals(P, Zero, [(ns(10.0), ns(20.0), One)])
            .with_skew_applied(crate::Skew::from_ns(1.0, 1.0));
        let high = pulses(&w, true);
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].possible.start(), ns(9.0));
        assert_eq!(high[0].possible.width(), ns(12.0));
        assert_eq!(high[0].min_possible_width, ns(8.0));
        assert!(high[0].certain);
    }

    #[test]
    fn glitch_has_zero_min_width() {
        let w = Waveform::from_intervals(P, Zero, [(ns(20.0), ns(25.0), Fall)]);
        let high = pulses(&w, true);
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].min_possible_width, Time::ZERO);
        assert!(!high[0].certain);
    }

    #[test]
    fn interrupted_high_reports_narrowest_segment() {
        // 1 for 10, C for 2, 1 for 3: pulse could break during C, so the
        // narrowest possible pulse is the 3 ns run.
        let w = Waveform::from_intervals(
            P,
            Zero,
            [
                (ns(10.0), ns(20.0), One),
                (ns(20.0), ns(22.0), Change),
                (ns(22.0), ns(25.0), One),
            ],
        );
        let high = pulses(&w, true);
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].possible.width(), ns(15.0));
        assert_eq!(high[0].min_possible_width, ns(3.0));
    }

    #[test]
    fn always_possibly_high_has_no_pulses() {
        let w = Waveform::constant(P, Stable);
        assert!(pulses(&w, true).is_empty());
        assert!(pulses(&w, false).is_empty());
    }

    #[test]
    fn wrapping_pulse() {
        let w = Waveform::from_intervals(P, One, [(ns(10.0), ns(40.0), Zero)]);
        let high = pulses(&w, true);
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].possible.start(), ns(40.0));
        assert_eq!(high[0].possible.width(), ns(20.0));
        assert_eq!(high[0].min_possible_width, ns(20.0));
    }
}

#[cfg(test)]
mod wrap_regression {
    use super::*;
    use scald_logic::Value::*;

    const P: Time = Time::from_ps(50_000);

    fn ns(x: f64) -> Time {
        Time::from_ns(x)
    }

    /// Regression: a transitioning run crossing the period wrap is split
    /// into two segments by `segments()`; the artificial boundary between
    /// the equal-valued halves must not be mistaken for an instantaneous
    /// edge of the opposite polarity.
    #[test]
    fn wrap_split_is_not_a_phantom_edge() {
        // F spanning 49..2.5 (wraps), 0 until 42.75, a real pulse after.
        let w = Waveform::from_transitions(
            P,
            vec![
                (ns(49.0), Fall),
                (ns(2.5), Zero),
                (ns(42.75), Rise),
                (ns(46.25), One),
            ],
        );
        let rising = edge_windows(&w, Edge::Rising);
        // Exactly one rising window: the real one at 42.75..46.25. No
        // phantom zero-width edge at the wrap instant 0.
        assert_eq!(rising.len(), 1, "{rising:?}");
        assert_eq!(rising[0].span.start(), ns(42.75));
        assert_eq!(rising[0].span.width(), ns(3.5));
    }
}
