#!/usr/bin/env sh
# Full CI gate, runnable offline on any machine with the Rust toolchain.
# Mirrors .github/workflows/ci.yml.
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# Tier-1: release build plus the root integration suites.
cargo build --release
cargo test -q

# Everything else: every crate's unit, integration and property tests.
# (tests/cli.rs drives the scald-tv binary end to end: exit codes,
# --help coverage, and the --format json golden round-trip.)
cargo test --workspace -q

# The CLI integration suite alone, named so a red run points here.
cargo test -q --test cli

# The engine-determinism property suites alone, same reason: the wave
# engine, the case fan-out and the evaluation cache must stay
# byte-identical for every worker count (and cache on/off), and the
# interning store must stay bounded.
cargo test -q -p scald-verifier --test parallel_settle --test parallel_cases --test eval_cache --test store_growth

# The case-tree suite alone: 50-seed property that tree-factored sweeps
# at 1/2/8 workers produce stripped reports byte-identical to running
# each case as its own one-case run, plus the shared-prefix error paths
# and the no-shared-prefix guard (no node, full passes, input order).
cargo test -q -p scald-verifier --test case_tree
cargo test -q -p scald-wave --test store_props

# The daemon suites alone: protocol robustness (malformed frames, torn
# lines, disconnects, timeouts, shutdown-while-busy) and the 50-design
# property that daemon reports are byte-identical to direct runs.
cargo test -q -p scald-serve --test daemon --test serve_props

# The RTL frontend suites: the cascade-race lowering, the spanned-
# diagnostics failure surface, and the 50-seed cross-frontend property
# that Verilog and SCALD HDL twins produce byte-identical reports.
cargo test -q -p scald-rtl --test cascade_race --test failures
cargo test -q --test cross_frontend

# The HDL expander suites alone: expand-vs-netlist error precedence and
# overflow diagnostics, print/parse round trips, and the oracle that
# holds the single-walk expander to the two-pass reference (identical
# netlists, statistics and diagnostics).
cargo test -q -p scald-hdl --test expand_errors --test roundtrip_props --test expand_oracle

# Smoke Table 3-1, which reads ExpandStats' pass 1 / pass 2 timings.
cargo run -q -p scald-bench --release --bin table_3_1 -- --chips 60

# The gated-clock RTL design must be *red*: the verifier has to flag the
# cascade race (exit 1), not pass it.
! cargo run -q --release --bin scald-tv -- designs/cascade_race.v

# Smoke the settle-scaling and cache A/B bench harnesses (tiny design);
# the full runs regenerate BENCH_settle.json / BENCH_cache.json.
cargo run -q -p scald-bench --release --bin settle_scaling -- --chips 40 --workers 1 --out target/BENCH_settle_smoke.json
cargo run -q -p scald-bench --release --bin cache_stats -- --chips 40 --out target/BENCH_cache_smoke.json

# Smoke the scale sweep at ~5k primitives (the committed BENCH_scale.json
# sweeps 1k..1M; this proves the generator + sweep harness stay runnable).
cargo run -q -p scald-bench --release --bin scale_sweep -- --steps 5000 --reps 1 --out target/BENCH_scale_smoke.json

# Smoke the serve loadtest with 4 concurrent clients on a small design
# (the committed BENCH_serve.json uses --chips 400 --rounds 3).
cargo run -q -p scald-bench --release --bin loadtest -- --clients 4 --chips 60 --rounds 1 --out target/BENCH_serve_smoke.json

# Smoke the case-tree sweep bench, 1000 cases on a slimmed design (the
# committed BENCH_cases.json uses the default --master 1500): proves the
# sweep generator + trie engine handle a 1000-case run end to end, and
# records settle effort and per-leaf fixed work against the same cases
# run one by one.
cargo run -q -p scald-bench --release --bin case_tree -- --counts 10,1000 --master 100 --block 4 --out target/BENCH_cases_smoke.json

# The layered benchmark (its own package under perfbench/) compiles
# against the crates above: build it and run its unit tests.
cargo test --offline --manifest-path perfbench/Cargo.toml

# Examples must keep building; incr_session doubles as a smoke test of
# the incremental re-verification subsystem (it asserts the warm report
# is byte-identical to a cold run).
cargo build --examples
cargo run -q --example incr_session

# Rendered docs must stay warning-free; the report JSON schema lives in
# crates/verifier/src/report.rs module docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
