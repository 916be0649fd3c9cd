//! Report diffing for the `--baseline` workflow: which violations did an
//! edit introduce, and which did it fix?

use scald_verifier::{Report, Violation};
use std::collections::HashMap;

/// The violation-level difference between two reports.
#[derive(Debug, Clone, Default)]
pub struct ReportDiff {
    /// Violations present in the new report but not the old one.
    pub introduced: Vec<Violation>,
    /// Violations present in the old report but not the new one.
    pub fixed: Vec<Violation>,
}

impl ReportDiff {
    /// `true` when the edit neither introduced nor fixed anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.introduced.is_empty() && self.fixed.is_empty()
    }
}

/// A violation's identity for diffing: the case it occurred in, its
/// kind, the checked signal and the constraint. Timing details (how much
/// the constraint was missed by, observed values, provenance) are
/// deliberately excluded — a violation that persists across an edit with
/// a shifted margin is neither introduced nor fixed.
fn key(case: &str, v: &Violation) -> String {
    format!(
        "{case}\u{1f}{:?}\u{1f}{}\u{1f}{}",
        v.kind, v.source, v.constraint
    )
}

/// Diffs two reports case-by-case (cases are matched by name, violations
/// by kind/source/constraint, with multiset semantics). Typically both
/// reports come from the same [`Session`](crate::Session) — the old one
/// saved before [`apply`](crate::Session::apply) — or from two
/// [`Session`](crate::Session)s opened on the before/after sources, as `scald-tv
/// --baseline` does.
#[must_use]
pub fn report_diff(old: &Report, new: &Report) -> ReportDiff {
    let mut old_counts: HashMap<String, usize> = HashMap::new();
    for case in &old.cases {
        for v in &case.violations {
            *old_counts.entry(key(&case.name, v)).or_insert(0) += 1;
        }
    }
    let mut new_counts: HashMap<String, usize> = HashMap::new();
    let mut introduced = Vec::new();
    for case in &new.cases {
        for v in &case.violations {
            let k = key(&case.name, v);
            let seen = new_counts.entry(k.clone()).or_insert(0);
            *seen += 1;
            if *seen > old_counts.get(&k).copied().unwrap_or(0) {
                introduced.push(v.clone());
            }
        }
    }
    let mut fixed = Vec::new();
    let mut fixed_budget: HashMap<String, usize> = HashMap::new();
    for case in &old.cases {
        for v in &case.violations {
            let k = key(&case.name, v);
            let used = fixed_budget.entry(k.clone()).or_insert(0);
            let old_n = old_counts.get(&k).copied().unwrap_or(0);
            let new_n = new_counts.get(&k).copied().unwrap_or(0);
            if old_n - new_n > *used {
                *used += 1;
                fixed.push(v.clone());
            }
        }
    }
    ReportDiff { introduced, fixed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_verifier::{CaseResult, EngineStats, Report, StorageReport, ViolationKind};
    use scald_wave::Time;

    fn violation(kind: ViolationKind, source: &str) -> Violation {
        Violation {
            kind,
            source: source.to_owned(),
            constraint: "SETUP TIME = 2.5".to_owned(),
            missed_by: None,
            at: None,
            observed: Vec::new(),
            provenance: None,
        }
    }

    fn report(cases: Vec<(&str, Vec<Violation>)>) -> Report {
        Report {
            design: "T".to_owned(),
            cases: cases
                .into_iter()
                .map(|(name, violations)| CaseResult {
                    name: name.to_owned(),
                    violations,
                    events: 0,
                    evaluations: 0,
                    value_records: 0,
                })
                .collect(),
            engine: EngineStats {
                signals: 0,
                prims: 0,
                cases: 1,
                jobs: 1,
                events: 0,
                evaluations: 0,
                verify_wall: None,
                eval_cache: None,
            },
            slack: Vec::new(),
            storage: StorageReport {
                circuit_description: 0,
                signal_values: 0,
                signal_names: 0,
                string_space: 0,
                call_list: 0,
                miscellaneous: 0,
                value_records: 0,
                signal_count: 0,
            },
            assumed_stable: Vec::new(),
            clock_driver_notes: Vec::new(),
            waves: Vec::new(),
            period: Time::from_ns(50.0),
            probabilistic: None,
        }
    }

    #[test]
    fn identical_reports_diff_empty() {
        let r = report(vec![(
            "base",
            vec![violation(ViolationKind::Setup, "S1/CHK")],
        )]);
        let d = report_diff(&r, &r.clone());
        assert!(d.is_empty());
    }

    #[test]
    fn introduced_and_fixed_are_detected() {
        let old = report(vec![(
            "base",
            vec![violation(ViolationKind::Setup, "S1/CHK")],
        )]);
        let new = report(vec![(
            "base",
            vec![violation(ViolationKind::Hold, "S2/CHK")],
        )]);
        let d = report_diff(&old, &new);
        assert_eq!(d.introduced.len(), 1);
        assert_eq!(d.introduced[0].source, "S2/CHK");
        assert_eq!(d.fixed.len(), 1);
        assert_eq!(d.fixed[0].source, "S1/CHK");
    }

    #[test]
    fn same_violation_in_a_different_case_counts() {
        let old = report(vec![
            ("A", vec![violation(ViolationKind::Setup, "S1/CHK")]),
            ("B", Vec::new()),
        ]);
        let new = report(vec![
            ("A", Vec::new()),
            ("B", vec![violation(ViolationKind::Setup, "S1/CHK")]),
        ]);
        let d = report_diff(&old, &new);
        assert_eq!(d.introduced.len(), 1, "moved to case B = introduced there");
        assert_eq!(d.fixed.len(), 1, "gone from case A = fixed there");
    }

    #[test]
    fn multiset_semantics_count_duplicates() {
        let old = report(vec![(
            "base",
            vec![
                violation(ViolationKind::Setup, "S1/CHK"),
                violation(ViolationKind::Setup, "S1/CHK"),
            ],
        )]);
        let new = report(vec![(
            "base",
            vec![violation(ViolationKind::Setup, "S1/CHK")],
        )]);
        let d = report_diff(&old, &new);
        assert!(d.introduced.is_empty());
        assert_eq!(d.fixed.len(), 1, "one of two duplicates went away");
    }

    #[test]
    fn margin_shift_is_neither_introduced_nor_fixed() {
        let old = report(vec![(
            "base",
            vec![Violation {
                missed_by: Some(Time::from_ns(0.5)),
                ..violation(ViolationKind::Setup, "S1/CHK")
            }],
        )]);
        let new = report(vec![(
            "base",
            vec![Violation {
                missed_by: Some(Time::from_ns(1.5)),
                ..violation(ViolationKind::Setup, "S1/CHK")
            }],
        )]);
        assert!(report_diff(&old, &new).is_empty());
    }
}
