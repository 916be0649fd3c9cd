//! Error-path tests for the macro expander: the diagnostics a designer
//! actually hits.

use scald_hdl::{compile, HdlError};

fn head(src_body: &str) -> String {
    format!("design D; period 50.0; clock_unit 6.25;\n{src_body}")
}

fn expect_expand_error(src: &str, needle: &str) {
    match compile(src) {
        Err(HdlError::Expand { message, .. }) => {
            assert!(
                message.contains(needle),
                "expected {needle:?} in {message:?}"
            );
        }
        Err(other) => panic!("expected expansion error, got: {other}"),
        Ok(_) => panic!("expected expansion error, compiled fine"),
    }
}

#[test]
fn unknown_macro() {
    let src = head("top;\n  use NOPE (A) -> (B);\nend;\n");
    expect_expand_error(&src, "unknown macro");
}

#[test]
fn unknown_parameter() {
    let src = head(
        "macro M (SIZE=1) (A<0:SIZE-1>/P) -> (B<0:SIZE-1>/P);\n  buf (A) -> (B);\nend;\n\
         top;\n  use M WIDTH=8 (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "no parameter");
}

#[test]
fn missing_parameter_value() {
    // A parameter without a default (after one with, so the list is
    // recognized) must be supplied at every call site.
    let src = head(
        "macro M (SIZE=1, N) (A<0:SIZE-1>/P) -> (B<0:SIZE-1>/P);\n  buf (A) -> (B);\nend;\n\
         top;\n  use M (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "has no value");
}

#[test]
fn port_count_mismatch() {
    let src = head(
        "macro M (A/P, B/P) -> (Q/P);\n  and (A, B) -> (Q);\nend;\n\
         top;\n  use M (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "expects 2 input(s)");
}

#[test]
fn width_conflict_through_ports() {
    let src = head(
        "macro M8 (A<0:7>/P) -> (Q<0:7>/P);\n  buf (A) -> (Q);\nend;\n\
         macro M16 (A<0:15>/P) -> (Q<0:15>/P);\n  buf (A) -> (Q);\nend;\n\
         top;\n  use M8 (BUS) -> (Y8);\n  use M16 (BUS) -> (Y16);\nend;\n",
    );
    expect_expand_error(&src, "width");
}

#[test]
fn recursive_macro_detected() {
    let src = head(
        "macro LOOPY (A/P) -> (Q/P);\n  use LOOPY (A) -> (Q);\nend;\n\
         top;\n  use LOOPY (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "recursive");
}

#[test]
fn checker_with_output_rejected() {
    let src = head("top;\n  setup_hold setup=1.0 hold=1.0 (A, CK) -> (Q);\nend;\n");
    expect_expand_error(&src, "cannot drive an output");
}

#[test]
fn gate_without_output_rejected() {
    let src = head("top;\n  and (A, B);\nend;\n");
    expect_expand_error(&src, "exactly one output");
}

#[test]
fn complemented_output_rejected() {
    let src = head("top;\n  and (A, B) -> (-Q);\nend;\n");
    expect_expand_error(&src, "cannot be complemented");
}

#[test]
fn rise_fall_on_wrong_primitive() {
    let src = head("top;\n  and rise=1.0:2.0 (A, B) -> (Q);\nend;\n");
    expect_expand_error(&src, "only supported on not/buf");
}

#[test]
fn port_reference_with_assertion_rejected() {
    let src = head(
        "macro M (A/P) -> (Q/P);\n  buf ('A .S0-4') -> (Q);\nend;\n\
         top;\n  use M (X) -> (Y);\nend;\n",
    );
    expect_expand_error(&src, "cannot carry an assertion");
}

#[test]
fn multiple_drivers_caught_by_netlist_validation() {
    let src = head("top;\n  buf (A) -> (Q);\n  buf (B) -> (Q);\nend;\n");
    match compile(&src) {
        Err(HdlError::Netlist(e)) => {
            assert!(e.to_string().contains("driven by both"), "{e}");
        }
        other => panic!("expected netlist error, got {other:?}"),
    }
}

#[test]
fn error_messages_carry_line_numbers() {
    let src = head("top;\n  use NOPE (A) -> (B);\nend;\n");
    match compile(&src) {
        Err(e @ HdlError::Expand { line, .. }) => {
            assert_eq!(line, 3);
            assert!(e.to_string().contains("line 3"));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn edge_delay_attrs_produce_asymmetric_primitive() {
    let src = head("top;\n  not rise=1.0:2.0 fall=3.0:5.0 ('A .P1.6-4.8 (0,0)') -> (B);\nend;\n");
    let expansion = compile(&src).expect("compiles");
    let prim = &expansion.netlist.prims()[0];
    let ed = prim.edge_delays.expect("asymmetric delays set");
    assert_eq!(ed.rise, scald_wave::DelayRange::from_ns(1.0, 2.0));
    assert_eq!(ed.fall, scald_wave::DelayRange::from_ns(3.0, 5.0));
    // The symmetric delay holds the conservative envelope.
    assert_eq!(prim.delay, scald_wave::DelayRange::from_ns(1.0, 5.0));
}

/// The full diagnostic and, for expansion errors, its line.
fn diagnostic(src: &str) -> (String, Option<u32>) {
    match compile(src) {
        Err(e @ HdlError::Expand { line, .. }) => (e.to_string(), Some(line)),
        Err(e) => (e.to_string(), None),
        Ok(_) => panic!("expected an error, compiled fine"),
    }
}

// Error precedence. Every expansion error outranks every netlist error,
// wherever the two sit in the source: the hierarchy walk finishes before
// any signal reaches the netlist builder.

#[test]
fn expansion_error_outranks_earlier_conflicting_assertions() {
    let src = head(
        "top;\n  buf ('A .S0-4') -> (Q1);\n  buf ('A .S1-4') -> (Q2);\n  \
         use NOPE (X) -> (Y);\nend;\n",
    );
    assert_eq!(
        diagnostic(&src),
        (
            "expansion error at line 5: unknown macro \"NOPE\"".to_owned(),
            Some(5)
        )
    );
}

#[test]
fn width_conflict_outranks_earlier_second_driver() {
    let src = head(
        "top;\n  buf (A) -> (Q);\n  buf (B) -> (Q);\n  signal W<0:3>;\n  \
         buf (W<0:7>) -> (Z);\nend;\n",
    );
    assert_eq!(
        diagnostic(&src),
        (
            "expansion error at line 6: signal \"W\" used with widths 4 and 8".to_owned(),
            Some(6)
        )
    );
}

#[test]
fn expansion_error_inside_a_macro_outranks_earlier_netlist_errors() {
    let src = head(
        "macro M (A/P) -> (Q/P);\n  buf (A) -> (Q);\n  and rise=1.0 (A, A) -> (T/M);\nend;\n\
         top;\n  buf ('C .S0-4') -> (R1);\n  buf ('C .S1-4') -> (R2);\n  \
         buf (D) -> (R1);\n  use M (X) -> (Y);\nend;\n",
    );
    assert_eq!(
        diagnostic(&src),
        (
            "expansion error at line 4: rise/fall delays are only supported on \
             not/buf, not \"and\""
                .to_owned(),
            Some(4)
        )
    );
}

// Among netlist errors, signal conflicts surface as the primitives are
// emitted (first in emission order), before whole-netlist validation
// such as the multiple-driver check.

#[test]
fn conflicting_assertions_outrank_an_earlier_second_driver() {
    let src = head(
        "top;\n  buf (A) -> (Q);\n  buf (B) -> (Q);\n  buf ('C .S0-4') -> (R1);\n  \
         buf ('C .S1-4') -> (R2);\nend;\n",
    );
    assert_eq!(
        diagnostic(&src),
        (
            "netlist error: signal \"C\" declared twice with different assertions \
             (.S0-4 vs .S1-4)"
                .to_owned(),
            None
        )
    );
}

#[test]
fn first_conflict_in_emission_order_wins() {
    let src = head(
        "macro M (A/P) -> (Q/P);\n  buf ('K .S2-3') -> (Q);\nend;\n\
         top;\n  buf ('K .S0-1') -> (R1);\n  buf ('J .S0-4') -> (R2);\n  \
         buf ('J .S1-4') -> (R3);\n  use M (X) -> (Y);\nend;\n",
    );
    assert_eq!(
        diagnostic(&src),
        (
            "netlist error: signal \"J\" declared twice with different assertions \
             (.S0-4 vs .S1-4)"
                .to_owned(),
            None
        )
    );
}

// Bit ranges and range arithmetic that leave the integer ranges are
// diagnostics on the statement's line, never panics.

#[test]
fn oversized_signal_range_is_an_error() {
    let src = head("top;\n  signal 'A'<0:5000000000>;\n  buf (A) -> (B);\nend;\n");
    assert_eq!(
        diagnostic(&src),
        (
            "expansion error at line 3: bit range <0:5000000000> is wider than 4294967295 bits"
                .to_owned(),
            Some(3)
        )
    );
}

#[test]
fn oversized_macro_port_range_is_an_error() {
    let src = head(
        "macro M (SIZE=1) (A<0:SIZE*4000000000>/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\n\
         top;\n  use M SIZE=2 (X) -> (Y);\nend;\n",
    );
    assert_eq!(
        diagnostic(&src),
        (
            "expansion error at line 6: bit range <0:8000000000> is wider than 4294967295 bits"
                .to_owned(),
            Some(6)
        )
    );
}

#[test]
fn range_arithmetic_overflow_is_an_error() {
    for (size, range) in [
        ("4000000000", "<0:SIZE*4000000000>"),
        ("9223372036854775807", "<0:SIZE+1>"),
        ("9223372036854775807", "<0:0-SIZE-2>"),
    ] {
        let src = head(&format!(
            "macro M (SIZE=1) (A{range}/P) -> (Q/P);\n  buf (A) -> (Q);\nend;\n\
             top;\n  use M SIZE={size} (X) -> (Y);\nend;\n"
        ));
        assert_eq!(
            diagnostic(&src),
            (
                "expansion error at line 6: range expression overflows a 64-bit integer".to_owned(),
                Some(6)
            ),
            "{range} with SIZE={size}"
        );
    }
}

// A `not`/`buf` with edge delays keeps every input it is given, so a
// wrong input count is a validation error like any other primitive's.

#[test]
fn edge_delay_primitive_without_input_is_an_error() {
    let src = head("top;\n  not rise=1.0:2.0 () -> (B);\nend;\n");
    assert_eq!(
        diagnostic(&src),
        (
            "netlist error: primitive \"TOP/not#1\" (NOT) needs 1 input(s), found 0".to_owned(),
            None
        )
    );
}

#[test]
fn edge_delay_primitive_with_two_inputs_is_an_error() {
    let src = head("top;\n  buf fall=1.0 (A, C) -> (B);\nend;\n");
    assert_eq!(
        diagnostic(&src),
        (
            "netlist error: primitive \"TOP/buf#1\" (BUF) needs 1 input(s), found 2".to_owned(),
            None
        )
    );
}
