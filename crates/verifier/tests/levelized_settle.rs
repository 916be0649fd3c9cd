//! Effort of the levelized settle: the worklist is drained one rank at
//! a time (a primitive's longest-path depth in the SCC condensation of
//! the fan-out graph), so the cold base settle of an acyclic design
//! evaluates every primitive exactly once. These are deterministic
//! counters: the same at every worker count and on every host.

use scald_gen::s1::{s1_like_netlist, S1Options};
use scald_gen::scale::{scale_netlist, ScaleOptions};
use scald_gen::sweep::{sweep_netlist, SweepOptions};
use scald_netlist::Netlist;
use scald_verifier::{RunOptions, VerifierBuilder};

/// Whether the prim → fan-out-prim graph has no cycle (self-loops
/// included): an iterative three-colour depth-first search, independent
/// of the engine's own rank pass.
fn is_acyclic(netlist: &Netlist) -> bool {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let prims = netlist.prims();
    let succ = |p: usize| {
        prims[p]
            .output
            .map_or(&[][..], |out| netlist.fanout(out))
            .iter()
            .map(|q| q.index())
    };
    let mut colour = vec![WHITE; prims.len()];
    for root in 0..prims.len() {
        if colour[root] != WHITE {
            continue;
        }
        colour[root] = GREY;
        let mut stack = vec![(root, succ(root))];
        while let Some((p, edges)) = stack.last_mut() {
            let p = *p;
            match edges.next() {
                Some(q) if colour[q] == GREY => return false,
                Some(q) if colour[q] == WHITE => {
                    colour[q] = GREY;
                    stack.push((q, succ(q)));
                }
                Some(_) => {}
                None => {
                    colour[p] = BLACK;
                    stack.pop();
                }
            }
        }
    }
    true
}

/// Base-settle evaluations of a cold plain run at `jobs` workers.
fn base_evaluations(netlist: &Netlist, jobs: usize) -> u64 {
    let mut v = VerifierBuilder::new(netlist.clone()).jobs(jobs).build();
    v.run(&RunOptions::new().jobs(jobs))
        .expect("design settles")
        .base
        .evaluations
}

fn assert_once_per_prim(name: &str, netlist: &Netlist) {
    assert!(is_acyclic(netlist), "{name}: expected an acyclic design");
    let prims = netlist.prims().len() as u64;
    for jobs in [1, 2] {
        assert_eq!(
            base_evaluations(netlist, jobs),
            prims,
            "{name}, jobs {jobs}: base evaluations != primitives"
        );
    }
}

#[test]
fn acyclic_generated_designs_evaluate_each_primitive_once() {
    for clocks in [2, 4] {
        let (netlist, _) = scale_netlist(&ScaleOptions {
            clocks,
            ..ScaleOptions::prims(10_000)
        });
        assert_once_per_prim(&format!("scale 10k, {clocks} clocks"), &netlist);
    }
    for chips in [60, 400] {
        let (netlist, _) = s1_like_netlist(S1Options {
            chips,
            seed: 0x5ca1d,
        });
        assert_once_per_prim(&format!("s1_like {chips} chips"), &netlist);
    }
    let (netlist, _) = sweep_netlist(&SweepOptions::default());
    assert_once_per_prim("default sweep design", &netlist);
}

/// Every shipped design whose fan-out graph is acyclic settles in one
/// evaluation per primitive; the test names the ones it skipped.
#[test]
fn acyclic_shipped_designs_evaluate_each_primitive_once() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("designs directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.sort();
    let mut checked = Vec::new();
    let mut cyclic = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("design file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let netlist = match path.extension().and_then(|e| e.to_str()) {
            Some("scald") => scald_hdl::compile(&src).expect("design compiles").netlist,
            Some("v") => scald_rtl::compile(&src).expect("design compiles").netlist,
            _ => continue,
        };
        if is_acyclic(&netlist) {
            assert_once_per_prim(&name, &netlist);
            checked.push(name);
        } else {
            cyclic.push(name);
        }
    }
    assert!(
        checked.len() >= 5,
        "acyclic: {checked:?}; cyclic (skipped): {cyclic:?}"
    );
}
