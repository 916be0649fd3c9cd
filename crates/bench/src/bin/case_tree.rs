//! Case-tree benchmark: each case as its own one-case run vs. one sweep
//! through the shared-prefix trie, at 10/100/1000 cases of one
//! exhaustive mode sweep.
//!
//! The [`scald_gen::sweep`] design has one heavy master mode bit and
//! many light block bits, so every one-case run pays the master's cone
//! while the case tree settles it once per root branch. Run singly,
//! every case also pays a full checker pass and a full storage
//! measurement — the per-leaf *fixed* work — which the tree memoizes on
//! its prefix nodes so a leaf re-checks only the units in its dirty
//! cone. This harness records, per case count and per side: wall clock,
//! settle effort (prefix + per-case events and evaluations), the
//! one-case runs' return-to-base settles (reported apart, since a sweep
//! has none), the trie shape, and the checker/storage memoization
//! counters — into `BENCH_cases.json`. The acceptance signals are the
//! *settle-evaluation ratio* (one-case effort grows linearly with the
//! case count, tree effort sublinearly) and the *per-leaf fixed-work
//! drop*.
//!
//! Both sides produce byte-identical stripped reports (property tested
//! in `crates/verifier/tests/case_tree.rs`); this harness measures only
//! cost, but still cross-checks violation counts.
//!
//! Usage: `cargo run -p scald-bench --bin case_tree --release`
//! (`--counts 10,100,1000` for the sweep sizes, `--master N` /
//! `--block N` for slice counts, `--jobs N` for the worker pool, and
//! `--out FILE` to redirect the record, as the CI smoke run does.)

use std::time::Instant;

use scald_gen::sweep::{sweep_netlist, SweepOptions};
use scald_netlist::Netlist;
use scald_trace::json::Json;
use scald_verifier::{CaseSet, MemoStats, RunOptions, RunOutcome, Verifier};

fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// One measured side on a warm engine (the base settle is paid before
/// the clock starts, so the counters hold only sweep effort).
#[derive(Default)]
struct Measured {
    wall_ns: u64,
    cases: u64,
    events: u64,
    evaluations: u64,
    /// Return-to-base settles between one-case runs (zero for the tree).
    base_evaluations: u64,
    prefix_nodes: usize,
    memo: MemoStats,
    violations: usize,
}

impl Measured {
    /// Folds one run's outcome into the totals.
    fn add(&mut self, outcome: &RunOutcome) {
        self.cases += outcome.cases.len() as u64;
        self.events += outcome.prefix.events + outcome.cases.iter().map(|c| c.events).sum::<u64>();
        self.evaluations +=
            outcome.prefix.evaluations + outcome.cases.iter().map(|c| c.evaluations).sum::<u64>();
        self.base_evaluations += outcome.base.evaluations;
        self.prefix_nodes += outcome.prefix.nodes;
        self.violations += outcome
            .cases
            .iter()
            .map(|c| c.violations.len())
            .sum::<usize>();
        let (m, o) = (&mut self.memo, &outcome.memo);
        m.node_passes += o.node_passes;
        m.node_check_evals += o.node_check_evals;
        m.node_check_hits += o.node_check_hits;
        m.releases += o.releases;
        m.leaf_check_evals += o.leaf_check_evals;
        m.leaf_check_hits += o.leaf_check_hits;
        m.leaf_storage_evals += o.leaf_storage_evals;
        m.leaf_storage_hits += o.leaf_storage_hits;
    }

    /// Checker evaluations + storage measurements actually executed per
    /// leaf — the fixed work the memoization attacks. Node passes count
    /// against the whole sweep, amortized here over the leaves.
    fn fixed_work_per_leaf(&self) -> f64 {
        let evals =
            self.memo.leaf_check_evals + self.memo.leaf_storage_evals + self.memo.node_check_evals;
        evals as f64 / self.cases.max(1) as f64
    }
}

/// Times `cases` on a freshly built, base-settled verifier: as one
/// sweep, or (`singly`) as one one-case run per case.
fn measure(netlist: &Netlist, cases: &CaseSet, singly: bool, jobs: usize) -> Measured {
    let mut v = Verifier::new(netlist.clone());
    v.run(&RunOptions::new().jobs(jobs)).expect("base settles");
    let mut m = Measured::default();
    let t = Instant::now();
    if singly {
        for case in cases.cases() {
            let outcome = v
                .run(&RunOptions::new().case(case.clone()).jobs(jobs))
                .expect("case settles");
            m.add(&outcome);
        }
    } else {
        let outcome = v
            .run(&RunOptions::new().cases(cases.clone()).jobs(jobs))
            .expect("sweep settles");
        m.add(&outcome);
    }
    m.wall_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    m
}

fn measured_json(m: &Measured) -> Json {
    Json::Obj(vec![
        ("wall_ns".into(), Json::from(m.wall_ns)),
        ("settle_events".into(), Json::from(m.events)),
        ("settle_evaluations".into(), Json::from(m.evaluations)),
        ("base_evaluations".into(), Json::from(m.base_evaluations)),
        ("prefix_nodes".into(), Json::from(m.prefix_nodes as u64)),
        ("node_passes".into(), Json::from(m.memo.node_passes)),
        (
            "node_check_evals".into(),
            Json::from(m.memo.node_check_evals),
        ),
        (
            "leaf_check_evals".into(),
            Json::from(m.memo.leaf_check_evals),
        ),
        ("leaf_check_hits".into(), Json::from(m.memo.leaf_check_hits)),
        (
            "leaf_storage_evals".into(),
            Json::from(m.memo.leaf_storage_evals),
        ),
        (
            "leaf_storage_hits".into(),
            Json::from(m.memo.leaf_storage_hits),
        ),
        ("leaf_hit_rate".into(), Json::from(m.memo.leaf_hit_rate())),
        (
            "fixed_work_per_leaf".into(),
            Json::from(m.fixed_work_per_leaf()),
        ),
        ("violations".into(), Json::from(m.violations as u64)),
    ])
}

fn main() {
    let counts: Vec<usize> = flag_value("--counts")
        .unwrap_or_else(|| "10,100,1000".to_owned())
        .split(',')
        .map(|s| s.trim().parse().expect("--counts takes case counts"))
        .collect();
    let opts = SweepOptions {
        master_slices: flag_value("--master").map_or(1500, |s| s.parse().expect("--master N")),
        block_slices: flag_value("--block").map_or(10, |s| s.parse().expect("--block N")),
        ..SweepOptions::default()
    };
    let jobs = flag_value("--jobs")
        .map_or_else(scald_bench::default_jobs, |s| s.parse().expect("--jobs N"));
    let out = flag_value("--out").unwrap_or_else(|| "BENCH_cases.json".to_owned());

    let (netlist, stats) = sweep_netlist(&opts);
    let full = CaseSet::exhaustive(stats.mode_bits.iter().cloned());
    println!(
        "CASE-TREE SWEEP — {} prims, {} mode bits ({} exhaustive cases), {jobs} jobs\n",
        stats.prims,
        stats.mode_bits.len(),
        full.len()
    );
    println!(
        "{:>7} {:>12} {:>12} {:>11} {:>11} {:>11} {:>7} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "CASES",
        "SINGLY WALL",
        "TREE WALL",
        "SINGLY EVAL",
        "REBASE EVAL",
        "TREE EVAL",
        "NODES",
        "RATIO",
        "SINGLY/LF",
        "TREE/LF",
        "HIT RATE",
        "DROP"
    );

    let mut steps = Vec::new();
    for &count in &counts {
        let count = count.min(full.len());
        let cases = CaseSet::list(full.cases()[..count].iter().cloned());
        let singly = measure(&netlist, &cases, true, jobs);
        let tree = measure(&netlist, &cases, false, jobs);
        assert_eq!(
            singly.violations, tree.violations,
            "one-case runs and the sweep must agree on violations"
        );
        // Per-case settle effort only: the return-to-base settles are
        // printed beside it, not folded into the ratio.
        let ratio = singly.evaluations as f64 / tree.evaluations.max(1) as f64;
        let drop = singly.fixed_work_per_leaf() / tree.fixed_work_per_leaf().max(1e-9);
        println!(
            "{:>7} {:>10.2}ms {:>10.2}ms {:>11} {:>11} {:>11} {:>7} {:>7.1}x {:>10.1} {:>10.2} {:>7.1}% {:>7.1}x",
            count,
            singly.wall_ns as f64 / 1e6,
            tree.wall_ns as f64 / 1e6,
            singly.evaluations,
            singly.base_evaluations,
            tree.evaluations,
            tree.prefix_nodes,
            ratio,
            singly.fixed_work_per_leaf(),
            tree.fixed_work_per_leaf(),
            100.0 * tree.memo.leaf_hit_rate(),
            drop,
        );
        steps.push(Json::Obj(vec![
            ("cases".into(), Json::from(count as u64)),
            ("singly".into(), measured_json(&singly)),
            ("tree".into(), measured_json(&tree)),
            ("evaluations_ratio".into(), Json::from(ratio)),
            ("fixed_work_drop".into(), Json::from(drop)),
        ]));
    }

    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("scald-bench-cases")),
        ("version".into(), Json::from(2u64)),
        ("jobs".into(), Json::from(jobs as u64)),
        (
            "design".into(),
            Json::Obj(vec![
                ("prims".into(), Json::from(stats.prims as u64)),
                ("signals".into(), Json::from(stats.signals as u64)),
                (
                    "mode_bits".into(),
                    Json::Arr(stats.mode_bits.iter().map(Json::str).collect()),
                ),
                (
                    "master_slices".into(),
                    Json::from(opts.master_slices as u64),
                ),
                ("block_slices".into(), Json::from(opts.block_slices as u64)),
            ]),
        ),
        ("steps".into(), Json::Arr(steps)),
    ]);
    std::fs::write(&out, doc.to_string_pretty() + "\n").expect("write the JSON record");
    println!("\nwrote {out}");
}
