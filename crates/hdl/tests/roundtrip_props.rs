//! Randomized property tests (seeded, std-only): print → parse round
//! trips for randomly generated designs, and expansion determinism.

mod random_designs;

use random_designs::{buf_stmt, design, two_macro_design};
use scald_hdl::ast::{Design, ScopeMark, Stmt};
use scald_hdl::{expand, parse, print};
use scald_rng::Rng;

const CASES: usize = 128;

fn strip(design: &mut Design) {
    fn strip_stmt(s: &mut Stmt) {
        match s {
            Stmt::Prim { line, .. }
            | Stmt::Use { line, .. }
            | Stmt::SignalDecl { line, .. }
            | Stmt::WiredOr { line, .. }
            | Stmt::WireDelay { line, .. } => *line = 0,
        }
    }
    for m in &mut design.macros {
        m.line = 0;
        for s in &mut m.body {
            strip_stmt(s);
        }
    }
    for s in &mut design.top {
        strip_stmt(s);
    }
}

/// print -> parse reconstructs the AST exactly (modulo line numbers).
#[test]
fn print_parse_round_trip() {
    let mut rng = Rng::seed_from_u64(0x1d1_0001);
    for _ in 0..CASES {
        let d = design(&mut rng);
        let printed = print(&d);
        let mut parsed = match parse(&printed) {
            Ok(p) => p,
            Err(e) => panic!("printed text failed to parse: {e}\n{printed}"),
        };
        strip(&mut parsed);
        let mut original = d;
        strip(&mut original);
        // The macro body may be unused; still must round trip.
        assert_eq!(parsed, original, "printed:\n{printed}");
    }
}

/// If the design expands at all, a second expansion from the printed
/// text gives the same primitive and signal counts.
#[test]
fn expansion_agrees_across_round_trip() {
    let mut rng = Rng::seed_from_u64(0x1d1_0002);
    for _ in 0..CASES {
        let d = design(&mut rng);
        let Ok(a) = expand(&d) else { continue };
        let printed = print(&d);
        let reparsed = parse(&printed).expect("printed parses");
        let b = expand(&reparsed).expect("round-tripped design expands");
        assert_eq!(a.netlist.prims().len(), b.netlist.prims().len());
        assert_eq!(a.netlist.signals().len(), b.netlist.signals().len());
        assert_eq!(
            a.netlist.primitive_histogram(),
            b.netlist.primitive_histogram()
        );
    }
}

/// The guarantee `scald-incr` warm starts rest on: expanded instance
/// names are *stable* under macro-body edits. Growing `HB`'s body must
/// not rename any primitive outside the `HB` instances — with the old
/// global-ordinal naming, an extra statement inside one macro body
/// shifted the ordinals of every primitive expanded after it.
#[test]
fn macro_body_edit_keeps_outside_prim_names_stable() {
    use std::collections::BTreeSet;
    let mut rng = Rng::seed_from_u64(0x1d1_0003);
    for _ in 0..32 {
        let original = two_macro_design(&mut rng);
        let a = expand(&original).expect("original expands");

        let mut edited = original.clone();
        edited.macros[1]
            .body
            .push(buf_stmt("A", "PATCH", Some(ScopeMark::Local)));
        let b = expand(&edited).expect("edited design expands");

        let names = |e: &scald_hdl::Expansion| -> BTreeSet<String> {
            e.netlist.prims().iter().map(|p| p.name.clone()).collect()
        };
        let outside = |s: &BTreeSet<String>| -> BTreeSet<String> {
            s.iter().filter(|n| !n.contains("HB#")).cloned().collect()
        };
        let (before, after) = (names(&a), names(&b));
        assert_eq!(
            outside(&before),
            outside(&after),
            "names outside the edited macro must not move"
        );
        // The edit itself landed: one new primitive per HB instance.
        let hb_instances = before.iter().filter(|n| n.contains("HB#")).count() > 0;
        if hb_instances {
            assert!(after.len() > before.len(), "edited body grew the design");
        }
    }
}
