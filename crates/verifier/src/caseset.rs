//! Sweep construction for case analysis (§2.7): the [`CaseSet`] builder.
//!
//! The thesis' case analysis takes a hand-enumerated list of
//! `signal = 0/1` assignment sets. At modern scale the list is almost
//! always *generated* — an exhaustive sweep over mode bits, a cross
//! product of independent axes, a min/typ/max delay-corner sweep — so
//! [`RunOptions::cases`](crate::RunOptions::cases) accepts a `CaseSet`
//! built by the constructors here instead of a hand-rolled `Vec<Case>`.
//!
//! Generated sweeps also carry structure the engine can exploit: cases
//! built by [`CaseSet::exhaustive`]/[`CaseSet::product`] share long
//! assignment prefixes, which the case-tree engine settles once per
//! prefix instead of once per case (see DESIGN.md § "The case tree").
//!
//! ```
//! use scald_verifier::{Case, CaseSet};
//! use scald_wave::DelayCorner;
//!
//! // All four combinations of two mode bits...
//! let sweep = CaseSet::exhaustive(["MODE0", "MODE1"]);
//! assert_eq!(sweep.len(), 4);
//! assert_eq!(sweep.cases()[0].label(), "MODE0 = 0; MODE1 = 0");
//!
//! // ...at every delay corner.
//! let swept = sweep.cross_corners([DelayCorner::Min, DelayCorner::Max]);
//! assert_eq!(swept.len(), 8);
//! assert_eq!(swept.cases()[1].label(), "corner=max; MODE0 = 0; MODE1 = 0");
//! ```

use scald_wave::DelayCorner;

use crate::engine::Case;

/// An ordered set of [`Case`]s for one verification run — what
/// [`RunOptions::cases`](crate::RunOptions::cases) accepts.
///
/// Constructors: [`exhaustive`](Self::exhaustive) (all 0/1 combinations
/// of named signals), [`product`](Self::product) (cross product of
/// independent axes), [`corners`](Self::corners) (one case per delay
/// corner), [`list`](Self::list) (an explicit list). Sets compose:
/// [`cross_corners`](Self::cross_corners) crosses an existing set with
/// a corner axis.
///
/// The set is eager — constructors materialize the full `Vec<Case>` up
/// front — so [`exhaustive`](Self::exhaustive) refuses absurd widths
/// rather than exhaust memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaseSet {
    cases: Vec<Case>,
}

impl CaseSet {
    /// An explicit list of cases — the escape hatch when no generator
    /// fits. `CaseSet::list([])` is the empty set, which
    /// [`RunOptions::cases`](crate::RunOptions::cases) treats as "just
    /// the base case".
    pub fn list(cases: impl IntoIterator<Item = Case>) -> CaseSet {
        CaseSet {
            cases: cases.into_iter().collect(),
        }
    }

    /// Every 0/1 combination of the named signals: `2^n` cases for `n`
    /// signals, in binary counting order with the *last* signal varying
    /// fastest. No signals yields the single empty case.
    ///
    /// # Panics
    ///
    /// Panics if more than 20 signals are given (over a million cases)
    /// or if a signal name appears twice (the duplicate's cases would
    /// collide: two assignments per case to one signal, last one
    /// winning) — either is almost certainly a generator bug, not a
    /// sweep.
    pub fn exhaustive<I>(signals: I) -> CaseSet
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let signals: Vec<String> = signals.into_iter().map(Into::into).collect();
        let n = signals.len();
        assert!(
            n <= 20,
            "CaseSet::exhaustive over {n} signals would enumerate 2^{n} cases"
        );
        for (i, name) in signals.iter().enumerate() {
            assert!(
                !signals[..i].contains(name),
                "CaseSet::exhaustive names signal {name:?} twice"
            );
        }
        let cases = (0..1usize << n)
            .map(|i| {
                let mut case = Case::new();
                for (j, name) in signals.iter().enumerate() {
                    case = case.assign(name.clone(), (i >> (n - 1 - j)) & 1 == 1);
                }
                case
            })
            .collect();
        CaseSet { cases }
    }

    /// The cross product of independent axes: one case per combination,
    /// merging each axis' assignments, with *later* axes varying
    /// fastest. When two axes assign the same signal the later axis
    /// wins, and a later axis' explicit (non-worst) delay corner
    /// replaces an earlier one. An empty axis annihilates the product
    /// (no combinations exist); no axes yields the single empty case.
    pub fn product<I, A>(axes: I) -> CaseSet
    where
        I: IntoIterator<Item = A>,
        A: Into<CaseSet>,
    {
        let mut cases = vec![Case::new()];
        for axis in axes {
            let axis: CaseSet = axis.into();
            cases = cases
                .iter()
                .flat_map(|base| axis.cases.iter().map(|c| merge(base, c)))
                .collect();
        }
        CaseSet { cases }
    }

    /// One assignment-free case per delay corner, in the given order —
    /// the min/typ/max sweep of §1.4.1.2's delay-range discussion.
    pub fn corners(corners: impl IntoIterator<Item = DelayCorner>) -> CaseSet {
        CaseSet {
            cases: corners.into_iter().map(|c| Case::new().corner(c)).collect(),
        }
    }

    /// Crosses this set with a delay-corner axis: every case of `self`
    /// at every given corner, corners varying fastest.
    #[must_use]
    pub fn cross_corners(self, corners: impl IntoIterator<Item = DelayCorner>) -> CaseSet {
        CaseSet::product([self, CaseSet::corners(corners)])
    }

    /// Appends one case to the set.
    pub fn push(&mut self, case: Case) {
        self.cases.push(case);
    }

    /// The cases in run order.
    #[must_use]
    pub fn cases(&self) -> &[Case] {
        &self.cases
    }

    /// Consumes the set into its cases.
    #[must_use]
    pub fn into_cases(self) -> Vec<Case> {
        self.cases
    }

    /// Number of cases in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Whether the set holds no cases (a run then analyses the implicit
    /// base case).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }
}

/// Combines two cases: `a`'s assignments not re-assigned by `b`, then
/// `b`'s, with `b`'s explicit corner winning over `a`'s.
fn merge(a: &Case, b: &Case) -> Case {
    let mut out = Case::new();
    for (name, v) in a.assignments() {
        if !b.assignments().iter().any(|(bn, _)| bn == name) {
            out = out.assign(name.clone(), *v);
        }
    }
    for (name, v) in b.assignments() {
        out = out.assign(name.clone(), *v);
    }
    let corner = if b.delay_corner() == DelayCorner::Worst {
        a.delay_corner()
    } else {
        b.delay_corner()
    };
    out.corner(corner)
}

impl From<Case> for CaseSet {
    fn from(case: Case) -> CaseSet {
        CaseSet { cases: vec![case] }
    }
}

impl IntoIterator for CaseSet {
    type Item = Case;
    type IntoIter = std::vec::IntoIter<Case>;
    fn into_iter(self) -> Self::IntoIter {
        self.cases.into_iter()
    }
}

impl FromIterator<Case> for CaseSet {
    fn from_iter<I: IntoIterator<Item = Case>>(iter: I) -> CaseSet {
        CaseSet::list(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_counts_in_binary_with_last_signal_fastest() {
        let set = CaseSet::exhaustive(["A", "B"]);
        let labels: Vec<String> = set.cases().iter().map(Case::label).collect();
        assert_eq!(
            labels,
            [
                "A = 0; B = 0",
                "A = 0; B = 1",
                "A = 1; B = 0",
                "A = 1; B = 1",
            ]
        );
        assert_eq!(CaseSet::exhaustive(Vec::<String>::new()).len(), 1);
    }

    #[test]
    #[should_panic(expected = "names signal \"A\" twice")]
    fn exhaustive_rejects_duplicate_signals() {
        let _ = CaseSet::exhaustive(["A", "B", "A"]);
    }

    #[test]
    fn product_merges_axes_with_later_axis_winning() {
        let set = CaseSet::product([
            CaseSet::list([
                Case::new().assign("M", false),
                Case::new().assign("M", true),
            ]),
            CaseSet::list([Case::new().assign("N", true)]),
        ]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.cases()[1].label(), "M = 1; N = 1");

        let clash = CaseSet::product([
            CaseSet::list([Case::new().assign("M", false)]),
            CaseSet::list([Case::new().assign("M", true)]),
        ]);
        assert_eq!(clash.cases()[0].label(), "M = 1");

        let empty_axis = CaseSet::product([CaseSet::exhaustive(["A"]), CaseSet::list([])]);
        assert!(empty_axis.is_empty());
    }

    #[test]
    fn corner_sweeps_label_and_cross() {
        let set = CaseSet::corners(DelayCorner::ALL);
        assert_eq!(set.len(), 4);
        assert_eq!(set.cases()[0].label(), "no case overrides");
        assert_eq!(set.cases()[1].label(), "corner=min");

        let crossed =
            CaseSet::exhaustive(["A"]).cross_corners([DelayCorner::Min, DelayCorner::Max]);
        let labels: Vec<String> = crossed.cases().iter().map(Case::label).collect();
        assert_eq!(
            labels,
            [
                "corner=min; A = 0",
                "corner=max; A = 0",
                "corner=min; A = 1",
                "corner=max; A = 1",
            ]
        );
    }
}
