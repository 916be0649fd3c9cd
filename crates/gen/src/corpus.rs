//! Hand-built diagnostic corpora: small netlists built to make the
//! checkers fire, shared by the violation goldens and the checker-pass
//! oracle tests.

use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, PrimKind};
use scald_wave::{DelayRange, Time};

fn ns(x: f64) -> Time {
    Time::from_ns(x)
}

/// A netlist with at least one firing of every violation kind, on a
/// 50 ns cycle of eight 6.25 ns clock units.
///
/// # Panics
///
/// Panics only if the internal builder is inconsistent (a bug).
#[must_use]
pub fn every_violation_kind() -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let z = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);

    // Set-up: data goes stable exactly as the clock rises at 12.5 ns.
    let ck = b.signal("CK .P2-3 (0,0)").unwrap();
    let d_late = b.signal_vec("D LATE .S2-6", 16).unwrap();
    b.setup_hold("SETUP CHK", ns(2.5), ns(1.5), z(d_late), z(ck));

    // Hold: data stable 0..13.125 ns, so it changes 0.625 ns after the
    // 12.5 ns edge against a 1.5 ns hold.
    let d_early = b.signal_vec("D EARLY .S0-2.1", 8).unwrap();
    b.setup_hold("HOLD CHK", ns(2.5), ns(1.5), z(d_early), z(ck));

    // Stable-while-true (plus rise set-up and fall hold): a write enable
    // high 12.5..25 ns while the address changes from 15.625 ns.
    let we = b.signal("WE .P2-4 (0,0)").unwrap();
    let adr = b.signal_vec("ADR .S0-2.5", 4).unwrap();
    b.setup_rise_hold_fall("RAM WE CHK", ns(1.0), ns(1.0), z(adr), z(we));

    // Minimum pulse widths: a 2.5 ns high pulse, and its complement as a
    // 2.5 ns low pulse, against 4 ns minimums.
    let narrow = b.signal("NARROW .P2-2.4 (0,0)").unwrap();
    b.min_pulse_width("HIGH WIDTH", ns(4.0), ns(0.0), z(narrow));
    b.min_pulse_width(
        "LOW WIDTH",
        ns(0.0),
        ns(4.0),
        Conn::new(narrow)
            .inverted()
            .with_wire_delay(DelayRange::ZERO),
    );

    // Hazard (Fig 1-5): a late enable gates a clock through an `&A` AND;
    // the ungated twin without the directive leaves a potential runt
    // pulse for the width checker.
    let clock = b.signal("CLOCK .P3.2-4.8 (0,0)").unwrap();
    let disable = b.signal("DISABLE .P3.2-4.8 (0,0)").unwrap();
    let enable = b.signal("ENABLE").unwrap();
    let gated = b.signal("GATED CLOCK").unwrap();
    let runt = b.signal("RUNT CLOCK").unwrap();
    b.not("EN GATE", DelayRange::from_ns(0.0, 5.0), z(disable), enable);
    b.and2(
        "CK GATE",
        DelayRange::ZERO,
        Conn::new(clock)
            .with_directive("A")
            .with_wire_delay(DelayRange::ZERO),
        z(enable),
        gated,
    );
    b.and2("RUNT GATE", DelayRange::ZERO, z(clock), z(enable), runt);
    b.min_pulse_width("RUNT WIDTH", ns(4.0), ns(0.0), z(runt));

    // Undefined clock: a clock fed back through an XOR of itself stays U.
    let fb = b.signal("CK FB").unwrap();
    let mystery = b.signal("MYSTERY CLK").unwrap();
    b.gate(
        "XORLOOP",
        PrimKind::Xor,
        DelayRange::from_ns(1.0, 1.0),
        [z(mystery), z(mystery)],
        fb,
    );
    b.buf("CKBUF", DelayRange::from_ns(1.0, 1.0), z(fb), mystery);
    b.setup_hold("MYSTERY CHK", ns(2.5), ns(1.5), z(d_late), z(mystery));

    // Assertion violated: an adder output asserted stable 0-4 whose
    // input only goes stable at unit 4.
    let input = b.signal("IN .S4-8").unwrap();
    let sum = b.signal("SUM .S0-4").unwrap();
    b.chg("ADDER", DelayRange::from_ns(3.0, 6.0), [z(input)], sum);

    b.finish().unwrap()
}
