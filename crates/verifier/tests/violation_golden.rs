//! Violation-report goldens: full JSON reports of designs that fail, so
//! the diagnostic text the checkers build — each violation's `source`,
//! `constraint` and `observed` lines, and its provenance — is pinned
//! byte for byte. (`soa_golden` pins a clean report, which carries no
//! violation text at all.)
//!
//! The corpus is one hand-built netlist that fires every
//! [`ViolationKind`] (`scald_gen::corpus::every_violation_kind`), plus
//! the shipped `register_file.scald` (SCALD HDL) and `cascade_race.v`
//! (Verilog) designs. The golden files under
//! `tests/data/` were captured before the checkers built their
//! diagnostics lazily; a diff means a diagnostic changed.
//!
//! Regenerate (only when the report schema itself changes, never to
//! paper over a checker diff) with:
//! `SCALD_WRITE_GOLDEN=1 cargo test -p scald-verifier --test violation_golden`

use scald_gen::corpus::every_violation_kind;
use scald_netlist::Netlist;
use scald_verifier::{Report, RunOptions, VerifierBuilder, ViolationKind};

/// The report of one single-case run at one worker, with the only
/// nondeterministic field (wall clock) and the worker count cleared.
fn report_for(netlist: Netlist, label: &str) -> Report {
    let mut verifier = VerifierBuilder::new(netlist).build();
    let outcome = verifier
        .run(&RunOptions::new().jobs(1))
        .expect("the corpus design settles");
    let mut report = verifier.report(label, &outcome.cases);
    report.engine.jobs = 0;
    report.engine.verify_wall = None;
    report
}

fn check_golden(name: &str, report: &Report) {
    assert_eq!(
        report.stripped_json_value(),
        report.strip_effort().json_value(),
        "{name}: the stripped document must not depend on how it is built"
    );
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    let json = report.to_json();
    if std::env::var_os("SCALD_WRITE_GOLDEN").is_some() {
        std::fs::write(&path, &json).expect("write golden report");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (regenerate with SCALD_WRITE_GOLDEN=1)"));
    assert_eq!(json, golden, "{name}: report diverged from the golden");
}

fn design_source(file: &str) -> String {
    let path = format!("{}/../../designs/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_violation_kind_matches_golden() {
    let report = report_for(every_violation_kind(), "every_kind");
    let case = &report.cases[0];
    for kind in [
        ViolationKind::Setup,
        ViolationKind::Hold,
        ViolationKind::StableWhileTrue,
        ViolationKind::MinPulseHigh,
        ViolationKind::MinPulseLow,
        ViolationKind::Hazard,
        ViolationKind::UndefinedClock,
        ViolationKind::AssertionViolated,
    ] {
        assert!(
            !case.of_kind(kind).is_empty(),
            "{} never fired:\n{case}",
            kind.token()
        );
    }
    assert!(
        case.violations
            .iter()
            .any(|v| v.constraint.contains("POTENTIAL SPURIOUS PULSE")),
        "the ungated runt pulse is reported as potential:\n{case}"
    );
    check_golden("golden_violations_every_kind.json", &report);
}

#[test]
fn register_file_report_matches_golden() {
    let expansion =
        scald_hdl::compile(&design_source("register_file.scald")).expect("design compiles");
    let report = report_for(expansion.netlist, "register_file.scald");
    assert!(!report.is_clean(), "the demo design reports violations");
    check_golden("golden_register_file.json", &report);
}

#[test]
fn cascade_race_report_matches_golden() {
    let expansion = scald_rtl::compile(&design_source("cascade_race.v")).expect("design compiles");
    let report = report_for(expansion.netlist, "cascade_race.v");
    assert!(!report.is_clean(), "the cascade race is flagged");
    check_golden("golden_cascade_race.json", &report);
}
