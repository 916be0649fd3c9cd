//! Workload generators for the SCALD Timing Verifier reproduction.
//!
//! Three families:
//!
//! * [`figures`] — the thesis' example circuits (the Fig 1-5 gated-clock
//!   hazard, the Fig 2-5 register file, the Fig 2-6 case-analysis
//!   circuit, the Fig 3-12 ALU pipeline stage, and the Fig 4-1/4-2
//!   correlation circuit), built with the data-sheet timing values the
//!   thesis quotes.
//! * [`hdl_sources`] — the same component library as SCALD HDL text
//!   (Figs 3-5..3-9), exercising the macro expander.
//! * [`corpus`] — hand-built netlists that make every checker fire,
//!   shared by the violation goldens and the checker-pass oracle.
//! * [`ablation`] — the bit-blast transform that undoes the vector-width
//!   symmetry, so the §3.3.2 saving can be measured.
//! * [`rtl_pairs`] — seeded *twin* designs rendered both as
//!   synthesisable Verilog and as SCALD HDL, used to property-test that
//!   the two frontends lower to identical netlists and byte-identical
//!   reports.
//! * [`s1`] — a seeded synthetic generator matched to the published
//!   statistics of the S-1 Mark IIA evaluation design (6357 chips, 8 282
//!   primitives, ≈1.3 primitives/chip, ≈6.5-bit average width), used to
//!   regenerate Tables 3-1, 3-2 and 3-3.
//! * [`scale`] — a size-sweep generator (10^3..10^6 primitives) with
//!   independent depth, fanout and clock-count knobs, used by the
//!   `BENCH_scale.json` scale sweep.
//! * [`sweep`] — a mode-sweep generator whose exhaustive case sweeps
//!   share long assignment prefixes (one heavy master mode bit, many
//!   light block bits), used by the `BENCH_cases.json` case-tree
//!   benchmark.

#![warn(missing_docs)]

pub mod ablation;
pub mod corpus;
pub mod figures;
pub mod hdl_sources;
pub mod rtl_pairs;
pub mod s1;
pub mod scale;
pub mod sweep;

/// Deterministic std-only PRNG used by the generators (re-exported from
/// [`scald_rng`] so workloads and tests share one implementation). The
/// repo builds offline: no external `rand` dependency.
pub mod prng {
    pub use scald_rng::{Rng, SplitMix64};
}
