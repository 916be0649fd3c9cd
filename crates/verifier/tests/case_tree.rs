//! Property tests for the case-tree engine: a sweep must be observably
//! indistinguishable from running each of its cases as its own one-case
//! run.
//!
//! The engine settles shared assignment prefixes once per trie node and
//! fans only the leaf suffixes across workers, so effort counters differ —
//! but everything a user can observe (violations, waveforms, storage
//! records, the installed final state, the report JSON) must be
//! byte-identical to the one-case runs at every worker count. These tests
//! pin that down over seeded random sweeps, and check the error path: a
//! failure inside a shared prefix takes down the whole run cleanly.

use std::sync::Arc;

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_gen::scale::{scale_netlist, ScaleOptions};
use scald_netlist::{Config, Conn, Netlist, NetlistBuilder, PrimKind};
use scald_rng::Rng;
use scald_trace::CounterSink;
use scald_verifier::{
    Case, CaseResult, CaseSet, MemoStats, RunOptions, Verifier, VerifierBuilder, VerifyError,
};
use scald_wave::{DelayCorner, DelayRange};

/// The S-1-like generator always emits 24 control signals named
/// `CTL {i}` regardless of chip count; sweeps are built over those.
fn ctl(i: u64) -> String {
    format!("CTL {i}")
}

fn fresh_verifier(chips: usize) -> Verifier {
    let (netlist, _) = s1_like_netlist(S1Options {
        chips,
        seed: 0x5ca1d,
    });
    Verifier::new(netlist)
}

/// A random sweep with deliberate prefix sharing: a few groups, each a
/// shared prefix of control-signal assignments fanned into several
/// suffix variants, with an occasional delay corner thrown in. Signals
/// are drawn in ascending-id order so the prefixes survive the engine's
/// canonical assignment sort.
fn random_sweep(rng: &mut Rng) -> CaseSet {
    let mut set = CaseSet::list([]);
    let groups = rng.range_u64(1, 3);
    for g in 0..groups {
        // Distinct ascending signal ids per group; groups overlap freely.
        let base = g * 8 + rng.below(3);
        let prefix: Vec<(String, bool)> = (0..rng.range_u64(1, 3))
            .map(|k| (ctl(base + k), rng.bool()))
            .collect();
        let corner = if rng.bool_with(0.25) {
            *rng.choose(&[DelayCorner::Min, DelayCorner::Typ, DelayCorner::Max])
        } else {
            DelayCorner::Worst
        };
        for _ in 0..rng.range_u64(2, 4) {
            let mut case = Case::new().corner(corner);
            for (name, v) in &prefix {
                case = case.assign(name.clone(), *v);
            }
            // Suffix over ids strictly above the prefix block.
            let suffix_len = rng.below(3);
            for k in 0..suffix_len {
                case = case.assign(ctl(base + 3 + k), rng.bool());
            }
            set.push(case);
        }
    }
    set
}

/// What running every case of a set as its own one-case run produced:
/// the per-case results (named as one sweep would name them) and the
/// summed prefix-node count and memoization counters. The verifier is
/// left holding the last case's installed state, as a sweep leaves it.
struct OneCaseRuns {
    cases: Vec<CaseResult>,
    prefix_nodes: usize,
    memo: MemoStats,
}

/// The reference every sweep is held to: each case as its own one-case
/// run on the same warm verifier, in input order. For a worst-corner
/// case that is a settle from the base with a full checker pass and a
/// full storage measurement — what independence means. The first
/// failing case's error is returned, as a sweep returns it.
fn one_case_runs(v: &mut Verifier, set: &CaseSet, jobs: usize) -> Result<OneCaseRuns, VerifyError> {
    let mut runs = OneCaseRuns {
        cases: Vec::new(),
        prefix_nodes: 0,
        memo: MemoStats::default(),
    };
    for (i, case) in set.cases().iter().enumerate() {
        let outcome = v.run(&RunOptions::new().case(case.clone()).jobs(jobs))?;
        runs.prefix_nodes += outcome.prefix.nodes;
        let (m, o) = (&mut runs.memo, &outcome.memo);
        m.node_passes += o.node_passes;
        m.node_check_evals += o.node_check_evals;
        m.node_check_hits += o.node_check_hits;
        m.releases += o.releases;
        m.leaf_check_evals += o.leaf_check_evals;
        m.leaf_check_hits += o.leaf_check_hits;
        m.leaf_storage_evals += o.leaf_storage_evals;
        m.leaf_storage_hits += o.leaf_storage_hits;
        m.check_table_hits += o.check_table_hits;
        let mut result = outcome.into_sole();
        result.name = format!("case {}: {}", i + 1, case.label());
        runs.cases.push(result);
    }
    Ok(runs)
}

/// Renders the effort-stripped report of a verifier's last results —
/// the full user-observable surface (violations, waves, storage, slack)
/// minus the scheduling-dependent counters.
fn stripped(v: &Verifier, cases: &[CaseResult]) -> String {
    v.report("case-tree", cases)
        .strip_effort()
        .to_json()
        .to_string()
}

/// Runs one sweep and renders its stripped report.
fn sweep_report(v: &mut Verifier, set: &CaseSet, jobs: usize) -> String {
    let outcome = v
        .run(&RunOptions::new().cases(set.clone()).jobs(jobs))
        .unwrap();
    stripped(v, &outcome.cases)
}

/// Runs every case of a set singly and renders the stripped report.
fn one_case_report(v: &mut Verifier, set: &CaseSet) -> String {
    let runs = one_case_runs(v, set, 1).unwrap();
    stripped(v, &runs.cases)
}

/// The tentpole property: over 50 seeded random sweeps, the tree engine
/// at 1, 2 and 8 workers produces stripped reports byte-identical to
/// the sweep's cases run one by one. Verifiers are reused (warm) across
/// seeds so the property also covers warm-start bases and corner-state
/// resets.
#[test]
fn sweeps_match_one_case_runs_over_50_seeds() {
    let mut singly = fresh_verifier(16);
    let mut tree: Vec<Verifier> = (0..3).map(|_| fresh_verifier(16)).collect();

    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let sweep = random_sweep(&mut rng);
        let baseline = one_case_report(&mut singly, &sweep);
        for (v, jobs) in tree.iter_mut().zip([1usize, 2, 8]) {
            let got = sweep_report(v, &sweep, jobs);
            assert_eq!(
                got, baseline,
                "seed {seed}, jobs {jobs}: sweep diverged from one-case runs"
            );
        }
    }
}

/// The same property over 50 four-clock `scale_netlist` designs of
/// 2k–5k primitives, whose checkers fire (the S-1-like designs above
/// never do): violation text and provenance, and the `violating_*`
/// memo sets behind the leaves' delta checker passes, are held to the
/// one-case runs at 1, 2 and 8 workers. Every worst-corner case must
/// fire, so this coverage cannot silently lapse.
#[test]
fn violating_sweeps_match_one_case_runs_over_50_seeds() {
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let (netlist, _) = scale_netlist(&ScaleOptions {
            clocks: 4,
            seed: rng.next_u64(),
            ..ScaleOptions::prims(rng.range_usize(2_000, 5_000))
        });
        let sweep = random_sweep(&mut rng);
        let mut singly = Verifier::new(netlist.clone());
        let runs = one_case_runs(&mut singly, &sweep, 1).unwrap();
        let violations = |cases: &[CaseResult]| -> String {
            format!(
                "{:?}",
                cases.iter().map(|c| &c.violations).collect::<Vec<_>>()
            )
        };
        for (case, result) in sweep.cases().iter().zip(&runs.cases) {
            // At a point corner the staggered clocks can all meet
            // their windows; the worst-case corner always fires.
            if case.delay_corner() == DelayCorner::Worst {
                assert!(
                    !result.violations.is_empty(),
                    "seed {seed}: {} fired nothing",
                    result.name
                );
            }
        }
        let baseline = stripped(&singly, &runs.cases);
        for jobs in [1usize, 2, 8] {
            let mut v = Verifier::new(netlist.clone());
            let outcome = v
                .run(&RunOptions::new().cases(sweep.clone()).jobs(jobs))
                .unwrap();
            assert_eq!(
                violations(&outcome.cases),
                violations(&runs.cases),
                "seed {seed}, jobs {jobs}: violations diverged from one-case runs"
            );
            assert_eq!(
                stripped(&v, &outcome.cases),
                baseline,
                "seed {seed}, jobs {jobs}: sweep diverged from one-case runs"
            );
        }
    }
}

/// The checker verdict-table counter is a deterministic total: over the
/// 50 seeded sweeps (warm verifiers, as above) it is identical at 1, 2
/// and 8 workers, because each table belongs to one pass. The design is
/// larger than the suite's 16 chips, whose three checkers share no
/// situation.
#[test]
fn check_table_hits_match_for_any_worker_count() {
    let mut tree: Vec<Verifier> = (0..3).map(|_| fresh_verifier(60)).collect();
    let mut total = 0;
    for seed in 0..50u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let sweep = random_sweep(&mut rng);
        let hits: Vec<u64> = tree
            .iter_mut()
            .zip([1usize, 2, 8])
            .map(|(v, jobs)| {
                v.run(&RunOptions::new().cases(sweep.clone()).jobs(jobs))
                    .unwrap()
                    .memo
                    .check_table_hits
            })
            .collect();
        assert_eq!(hits, vec![hits[0]; 3], "seed {seed}: hits at jobs 1, 2, 8");
        total += hits[0];
    }
    assert!(total > 0, "the sweeps' checkers share situations");
}

/// Delay-corner sweeps are first-class case axes: a `cross_corners`
/// sweep (which forces a reseed-everything root per corner group) must
/// be byte-identical to its one-case runs, cold, at several worker
/// counts.
#[test]
fn corner_sweeps_match_one_case_runs() {
    let sweep = CaseSet::exhaustive([ctl(0), ctl(1)]).cross_corners(DelayCorner::ALL);
    let baseline = one_case_report(&mut fresh_verifier(12), &sweep);
    for jobs in [1usize, 4] {
        let got = sweep_report(&mut fresh_verifier(12), &sweep, jobs);
        assert_eq!(got, baseline, "jobs {jobs}");
    }
}

/// The point of the trie: shared prefixes settle once. On an exhaustive
/// sweep the run must report prefix nodes, and the total settle effort
/// (prefix + per-case) must come in strictly below the per-case total of
/// the same cases run one by one (where no run has a prefix node).
#[test]
fn tree_spends_less_settle_effort_on_shared_prefixes() {
    let sweep = CaseSet::exhaustive((0..5).map(ctl));

    let singly = one_case_runs(&mut fresh_verifier(16), &sweep, 1).unwrap();
    assert_eq!(singly.prefix_nodes, 0, "a one-case run has no trie node");
    let naive_evals: u64 = singly.cases.iter().map(|c| c.evaluations).sum();

    let mut factored = fresh_verifier(16);
    let tree_out = factored
        .run(&RunOptions::new().cases(sweep.clone()))
        .unwrap();
    assert!(tree_out.prefix.nodes > 0, "exhaustive sweep must share");
    let tree_evals: u64 =
        tree_out.prefix.evaluations + tree_out.cases.iter().map(|c| c.evaluations).sum::<u64>();

    // Cold verifiers fold the base settle into case 1 on both sides;
    // the later one-case runs' return-to-base settles are not counted.
    assert!(
        tree_evals < naive_evals,
        "tree ({tree_evals} evals) must beat one-case runs ({naive_evals} evals)"
    );
}

/// Error path: an unknown signal inside a *shared prefix* fails the
/// whole run before any evaluation — not one leaf, and not after
/// settling half the trie. Run singly, the first case fails the same
/// way.
#[test]
fn unknown_signal_in_shared_prefix_fails_whole_subtree() {
    let sweep = CaseSet::list([
        Case::new()
            .assign("NO SUCH SIGNAL", true)
            .assign(ctl(0), false),
        Case::new()
            .assign("NO SUCH SIGNAL", true)
            .assign(ctl(0), true),
    ]);
    let expected = VerifyError::UnknownCaseSignal {
        name: "NO SUCH SIGNAL".to_owned(),
    };
    let mut v = fresh_verifier(8);
    let err = v.run(&RunOptions::new().cases(sweep.clone())).unwrap_err();
    assert_eq!(err, expected);
    assert_eq!(
        v.total_evaluations(),
        0,
        "resolution must precede all settling"
    );

    let mut singly = fresh_verifier(8);
    let err = one_case_runs(&mut singly, &sweep, 1).err();
    assert_eq!(err, Some(expected));
    assert_eq!(singly.total_evaluations(), 0);
}

/// The memoization ledger must balance: every leaf examines the same
/// unit universe as the one-case runs (evaluated + inherited in the
/// sweep equals evaluated singly, for checkers and for storage), the
/// sweep actually inherits most of it, and the counters are
/// deterministic totals — identical for every worker count.
#[test]
fn memo_counters_account_for_every_checker_unit() {
    let sweep = CaseSet::exhaustive((0..5).map(ctl));

    let singly = one_case_runs(&mut fresh_verifier(16), &sweep, 1).unwrap();
    assert_eq!(singly.memo.node_passes, 0, "no node in a one-case run");
    assert_eq!(singly.memo.leaf_check_hits, 0);
    assert_eq!(singly.memo.leaf_storage_hits, 0);
    let check_units = singly.memo.leaf_check_evals;
    let storage_units = singly.memo.leaf_storage_evals;
    assert!(check_units > 0 && storage_units > 0);

    let mut reference: Option<MemoStats> = None;
    for jobs in [1usize, 2, 8] {
        let mut v = fresh_verifier(16);
        let out = v
            .run(&RunOptions::new().cases(sweep.clone()).jobs(jobs))
            .unwrap();
        let memo = out.memo;
        assert_eq!(
            memo.leaf_check_evals + memo.leaf_check_hits,
            check_units,
            "jobs {jobs}: every leaf checks the same checker-unit universe"
        );
        assert_eq!(
            memo.leaf_storage_evals + memo.leaf_storage_hits,
            storage_units,
            "jobs {jobs}: every leaf accounts the same signal universe"
        );
        assert!(
            memo.leaf_check_hits > memo.leaf_check_evals,
            "jobs {jobs}: shared prefixes must carry most checker work"
        );
        assert!(memo.node_passes > 0 && memo.releases > 0);
        match &reference {
            None => reference = Some(memo),
            Some(first) => assert_eq!(
                memo, *first,
                "jobs {jobs}: memo counters are deterministic totals"
            ),
        }
    }
}

/// Cases that share no prefix and no corner build a tree with no node.
/// Such a sweep must do exactly the work of its one-case runs: no base
/// checker pass to inherit from (a full pass per leaf instead), and
/// cases started in input order, not the trie's sorted order — here the
/// cases name their signals in descending id order, so the two differ.
#[test]
fn cases_sharing_nothing_run_like_one_case_runs() {
    let sweep = CaseSet::list((0..5).rev().map(|i| Case::new().assign(ctl(i), i % 2 == 0)));
    let singly = one_case_runs(&mut fresh_verifier(12), &sweep, 1).unwrap();

    let counters = Arc::new(CounterSink::new());
    let mut v = VerifierBuilder::new(fresh_verifier(12).netlist().clone())
        .trace(counters.clone())
        .build();
    let out = v
        .run(&RunOptions::new().cases(sweep.clone()).jobs(1))
        .unwrap();
    assert_eq!(out.prefix.nodes, 0, "no shared prefix, no node");
    assert_eq!(out.memo.node_passes, 0, "no base pass is computed");
    assert_eq!(out.memo.leaf_check_hits, 0);
    assert_eq!(out.memo.leaf_storage_hits, 0);
    assert_eq!(
        out.memo, singly.memo,
        "every leaf runs the full checker pass and storage measurement"
    );
    let signals = v.netlist().signals().len() as u64;
    assert_eq!(out.memo.leaf_storage_evals, 5 * signals);

    let started: Vec<(u32, String)> = counters
        .snapshot()
        .cases
        .into_iter()
        .map(|c| (c.case, c.label))
        .collect();
    let expected: Vec<(u32, String)> = sweep
        .cases()
        .iter()
        .enumerate()
        .map(|(i, c)| (i as u32, c.label()))
        .collect();
    assert_eq!(started, expected, "jobs 1 starts cases in input order");
}

/// A design whose base settles in a handful of evaluations but where
/// asserting `GATE` wakes a clocked inverter ring that never settles.
/// `EN` is a self-loop `EN = EN OR GATE`: it starts `U`, and `U OR S`
/// is `U`, so in the base the ring's AND gate sees an unknown enable and
/// its output stays `U` while the clock is high — a fixed point after a
/// few evaluations. `GATE = 1` drives `EN` to `1`, and the ring then
/// behaves like `parallel_cases.rs`'s busy ring: its 2 ps feedback keeps
/// generating new edge positions every pass. `SEL` is an unrelated input
/// giving two such cases distinct suffixes, which forces `GATE` into a
/// shared node.
fn gated_ring_netlist() -> Netlist {
    let mut b = NetlistBuilder::new(Config::s1_example());
    let w = |s| Conn::new(s).with_wire_delay(DelayRange::ZERO);
    // Creation order fixes signal ids: GATE below SEL, so the canonical
    // assignment sort puts GATE first and the two cases share it.
    let gate = b.signal("GATE").unwrap();
    let sel = b.signal("SEL").unwrap();
    let selbar = b.signal("SELBAR").unwrap();
    b.not("SELINV", DelayRange::ZERO, w(sel), selbar);
    let en = b.signal("EN").unwrap();
    b.or2("LATCH", DelayRange::ZERO, w(en), w(gate), en);
    let clk = b.signal("CK .P0-4 (0,0)").unwrap();
    let fb = b.signal("FB").unwrap();
    let out = b.signal("OUT").unwrap();
    b.gate(
        "A",
        PrimKind::And,
        DelayRange::ZERO,
        [w(fb), w(clk), w(en)],
        out,
    );
    b.not("INV", DelayRange::from_ns(0.002, 0.002), w(out), fb);
    b.finish().unwrap()
}

/// Error path of the dependency-release scheduler: when a shared prefix
/// node's settle fails (here: oscillation budget), every leaf under it
/// fails, the run returns the error, and the worker pool drains — no
/// deadlock — identically at 1, 2 and 8 workers.
#[test]
fn failing_prefix_node_fails_its_subtree_without_deadlocking() {
    // The base settles well inside the budget; the `GATE = 1` ring
    // never settles, so the shared prefix node trips whatever the
    // budget, not because its trajectory happens to be long.
    const BUDGET: u64 = 1000;
    let netlist = gated_ring_netlist();
    let base = VerifierBuilder::new(netlist.clone())
        .oscillation_budget(BUDGET)
        .build()
        .run(&RunOptions::new())
        .expect("the base settles");
    assert!(base.base.evaluations < 20, "{:?}", base.base);
    let sweep = CaseSet::list([
        Case::new().assign("GATE", true).assign("SEL", false),
        Case::new().assign("GATE", true).assign("SEL", true),
    ]);

    let mut reference: Option<VerifyError> = None;
    for jobs in [1usize, 2, 8] {
        let mut v = VerifierBuilder::new(netlist.clone())
            .oscillation_budget(BUDGET)
            .build();
        let err = v
            .run(&RunOptions::new().cases(sweep.clone()).jobs(jobs))
            .unwrap_err();
        assert!(
            matches!(err, VerifyError::Oscillation { .. }),
            "jobs {jobs}: expected the prefix settle to trip the budget, got {err:?}"
        );
        match &reference {
            None => reference = Some(err),
            Some(first) => assert_eq!(err, *first, "jobs {jobs}: error differs"),
        }
    }

    // Run one by one, the cases fail too (each settles the ring).
    let mut singly = VerifierBuilder::new(netlist)
        .oscillation_budget(BUDGET)
        .build();
    let err = one_case_runs(&mut singly, &sweep, 1).err();
    assert!(matches!(err, Some(VerifyError::Oscillation { .. })));
}

/// `RunOutcome::try_sole` is the non-panicking accessor: `Ok` for a
/// single-case run, a `MultiCaseError` naming the case count otherwise.
#[test]
fn try_sole_rejects_multi_case_runs() {
    let mut v = fresh_verifier(8);
    let single = v.run(&RunOptions::new()).unwrap();
    assert!(single.try_sole().is_ok());

    let multi = v
        .run(&RunOptions::new().cases(CaseSet::exhaustive([ctl(0)])))
        .unwrap();
    let err = multi.try_sole().unwrap_err();
    assert_eq!(err.cases, 2);
    assert!(err.to_string().contains("2 cases"));
}
