//! Equivalence oracle for the macro expander. `reference` holds the
//! two-pass expander as it stood before the single-walk rewrite; for every
//! input here the shipped expander must agree with it exactly. Either both
//! return a netlist with the same signals (order, name, width, assertion,
//! wire delay, wired-OR), the same primitives (order, name, kind, delays,
//! edge delays, connections), configuration, cases and `ExpandStats`
//! counts — or both fail with the same diagnostic and line.

mod random_designs;
mod reference;

use scald_gen::rtl_pairs::paired_design;
use scald_gen::s1::{s1_like_hdl, S1Options};
use scald_hdl::ast::Design;
use scald_hdl::{expand, parse, Expansion, HdlError};
use scald_rng::Rng;

fn line_of(e: &HdlError) -> Option<u32> {
    match e {
        HdlError::Expand { line, .. } => Some(*line),
        _ => None,
    }
}

fn assert_same(label: &str, new: &Result<Expansion, HdlError>, old: &Result<Expansion, HdlError>) {
    match (new, old) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.netlist.config(), b.netlist.config(), "{label}: config");
            assert_eq!(a.netlist.signals(), b.netlist.signals(), "{label}: signals");
            assert_eq!(a.netlist.prims(), b.netlist.prims(), "{label}: primitives");
            assert_eq!(a.cases, b.cases, "{label}: cases");
            let counts = |e: &Expansion| {
                (
                    e.stats.macros_defined,
                    e.stats.instances_expanded,
                    e.stats.prims_emitted,
                    e.stats.signals,
                )
            };
            assert_eq!(counts(a), counts(b), "{label}: stats");
        }
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{label}: diagnostic");
            assert_eq!(line_of(a), line_of(b), "{label}: line");
        }
        (Ok(_), Err(b)) => panic!("{label}: reference failed with {b}, expander succeeded"),
        (Err(a), Ok(_)) => panic!("{label}: expander failed with {a}, reference succeeded"),
    }
}

fn check(label: &str, design: &Design) -> bool {
    let new = expand(design);
    assert_same(label, &new, &reference::expand(design));
    new.is_ok()
}

/// Checks a source text; parse errors are the parser's business and
/// identical for both expanders, so they are skipped.
fn check_src(label: &str, src: &str) -> bool {
    match parse(src) {
        Ok(design) => check(label, &design),
        Err(_) => false,
    }
}

#[test]
fn s1_like_designs_expand_identically() {
    for chips in [60, 6357] {
        for seed in [1, 1009] {
            let src = s1_like_hdl(S1Options { chips, seed });
            assert!(check_src(&format!("s1 chips {chips} seed {seed}"), &src));
        }
    }
}

#[test]
fn rtl_pair_twins_expand_identically() {
    for seed in 0..50 {
        let src = paired_design(seed).scald;
        assert!(check_src(&format!("rtl pair seed {seed}"), &src));
    }
}

#[test]
fn shipped_designs_expand_identically() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("designs directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "scald") {
            let src = std::fs::read_to_string(&path).expect("readable design");
            assert!(check_src(&path.display().to_string(), &src));
            seen += 1;
        }
    }
    assert!(seen >= 5, "expected the shipped designs, found {seen}");
}

#[test]
fn random_designs_expand_identically() {
    let mut ok = 0;
    for seed in [0x1d1_0001, 0x1d1_0002, 0x0a_c1e5] {
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..128 {
            let mut d = random_designs::design(&mut rng);
            // Give every statement its own line so diagnostics are told
            // apart by line as well as by message.
            number_lines(&mut d);
            if check(&format!("random design {seed:#x}/{i}"), &d) {
                ok += 1;
            }
        }
    }
    let mut rng = Rng::seed_from_u64(0x1d1_0003);
    for i in 0..32 {
        let d = random_designs::two_macro_design(&mut rng);
        assert!(check(&format!("two-macro design {i}"), &d));
    }
    assert!(ok > 0, "some random designs must expand");
}

fn number_lines(design: &mut Design) {
    use scald_hdl::ast::Stmt;
    let mut next = 1;
    let mut number = |s: &mut Stmt| {
        let (Stmt::Prim { line, .. }
        | Stmt::Use { line, .. }
        | Stmt::SignalDecl { line, .. }
        | Stmt::WiredOr { line, .. }
        | Stmt::WireDelay { line, .. }) = s;
        *line = next;
        next += 1;
    };
    for m in &mut design.macros {
        m.body.iter_mut().for_each(&mut number);
    }
    design.top.iter_mut().for_each(&mut number);
}

/// Hand-written corner cases: every diagnostic the walker and the netlist
/// builder can produce, and the rare paths where a flat name is re-split.
#[test]
fn corner_cases_expand_identically() {
    const HEAD: &str = "design D; period 50.0; clock_unit 6.25;\n";
    let cases: &[&str] = &[
        // Clean hierarchy: directives and inversion through ports, locals,
        // widths from a declaration, a mux, asymmetric edge delays.
        "macro M (SIZE=2) (CK, A<0:SIZE-1>/P) -> (Q<0:SIZE-1>/P);\n  signal T<0:SIZE-1>/M;\n  \
         buf (A) -> (T/M);\n  reg delay=1.5:4.5 (CK, T/M) -> (Q);\nend;\n\
         top;\n  signal BUS<0:3>;\n  use M SIZE=4 ('CLK .P2-3', -BUS &H) -> ('R Q');\n  \
         mux delay=1.0 (S, 'R Q', BUS) -> (MQ);\n  not rise=1.0:2.0 (MQ) -> (NQ);\nend;\n",
        // The same base with and without an assertion, in both orders.
        "top;\n  buf (A) -> (Q);\n  buf ('A .S0-4') -> (R);\n  buf ('B .C2-3 L') -> (S);\n  \
         buf (B) -> (T);\nend;\n",
        // Conflicting assertions, directly and through a port.
        "macro M (A/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\n\
         top;\n  use M ('A .S0-4') -> (Q);\n  buf ('A .S1-4') -> (R);\nend;\n",
        // A malformed assertion in a reference, a port and a wire delay.
        "top;\n  buf ('A .S0-') -> (B);\nend;\n",
        "macro M ('A .S0-4'/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\ntop;\n  use M (X) -> (Y);\nend;\n",
        "top;\n  wire_delay 'A .Sx' 0.0 1.0;\nend;\n",
        // A malformed name in a macro that is never instantiated.
        "macro UNUSED (A/P) -> (Q/P);\n  buf ('A .S0-') -> (Q);\nend;\ntop;\n  buf (X) -> (Y);\nend;\n",
        // Fractional and fixed-width assertion ranges, explicit skews.
        "top;\n  buf ('CK .C2+10.25') -> (A);\n  buf ('D .P1.5-2.75 (-0.125,0.5) L') -> (B);\nend;\n",
        // Wire delays and wired-OR marks on used and unused signals, with
        // widths only a declaration gave, and on bases that themselves
        // read like an assertion once split.
        "top;\n  signal BUS<0:7>;\n  wire_delay BUS 0.0 6.0;\n  wired_or 'W OR';\n  \
         buf (A) -> ('W OR');\n  buf (B) -> ('W OR');\n  wire_delay 'A .P1 .S0-6' 0.0 1.0;\n  \
         wired_or 'LONE .S2-3';\nend;\n",
        // A global whose name collides with a macro-local flat name.
        "macro M (A/P) -> (Q/P);\n  buf (A) -> (T/M);\n  buf (T/M) -> (Q);\nend;\n\
         top;\n  use M (X) -> (Y);\n  buf ('TOP/M#1/T') -> (Z);\nend;\n",
        // Macro names that contain an assertion-like suffix, with plain and
        // asserted locals.
        "macro 'X .P1' (A/P) -> (Q/P);\n  buf (A) -> (T/M);\n  buf (T/M) -> (Q);\nend;\n\
         top;\n  use 'X .P1' (I) -> (O);\nend;\n",
        "macro 'X .S1-2' (A/P) -> (Q/P);\n  buf (A) -> ('T .S0-4'/M);\n  buf ('T .S0-4'/M) -> (Q);\nend;\n\
         top;\n  use 'X .S1-2' (I) -> (O);\nend;\n",
        // Width conflicts: direct, through a port, on a local.
        "top;\n  signal W<0:3>;\n  buf (W<0:7>) -> (Z);\nend;\n",
        "macro M8 (A<0:7>/P) -> (Q<0:7>/P);\n  buf (A) -> (Q);\nend;\n\
         top;\n  signal BUS<0:3>;\n  use M8 (BUS) -> (Y);\nend;\n",
        "macro M (A/P) -> (Q/P);\n  signal T<0:1>/M;\n  buf (A<0:2>) -> (T<0:2>/M);\nend;\n\
         top;\n  use M (X) -> (Y);\nend;\n",
        // Parameter, port-count and primitive diagnostics.
        "macro M (SIZE=1) (A/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\ntop;\n  use M SIZE=1.5 (X) -> (Y);\nend;\n",
        "macro M (SIZE=1) (A/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\ntop;\n  use M SIZE=1:2 (X) -> (Y);\nend;\n",
        "top;\n  setup_hold setup=1.0:2.0 (A, CK);\nend;\n",
        "top;\n  buf (A) -> (Q1, Q2);\nend;\n",
        "macro M (A/P) -> (Q/P);\n  buf ('A'<0:1>) -> (Q);\nend;\ntop;\n  use M (X<0:SIZE>) -> (Y);\nend;\n",
        // Netlist-level diagnostics after a clean walk.
        "top;\n  reg (CK) -> (Q);\nend;\n",
        "top;\n  and (A &HX, B) -> (Q);\nend;\n",
        "top;\n  buf (A) -> (Q);\n  buf (B) -> (Q);\nend;\n",
        // Oversized ranges and range arithmetic that overflows.
        "top;\n  signal 'A'<0:5000000000>;\n  buf (A) -> (B);\nend;\n",
        "macro M (SIZE=1) (A<0:SIZE*4000000000>/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\n\
         top;\n  use M SIZE=4000000000 (X) -> (Y);\nend;\n",
        // Edge delays on inverters and buffers.
        "top;\n  not rise=1.0:2.0 fall=3.0 ('A .P1.6-4.8 (0,0)') -> (B);\n  \
         buf fall=0.5:1.5 (B) -> (C);\nend;\n",
        // Case blocks ride along untouched.
        "top;\n  buf (A) -> (Q);\nend;\ncase A = 1;\ncase A = 0, Q = 1;\n",
    ];
    for (i, body) in cases.iter().enumerate() {
        let src = format!("{HEAD}{body}");
        assert!(parse(&src).is_ok(), "corner case {i} must parse:\n{src}");
        check_src(&format!("corner case {i}"), &src);
    }
}
