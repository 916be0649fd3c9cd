//! Cross-wave, cross-case, cross-session memoization of primitive
//! evaluations.
//!
//! [`evaluate`](crate::eval) is a pure function of a primitive's static
//! description (kind, delays, per-connection inversion/directive/wire
//! delay, and the clock period) and the dynamic states of its input
//! signals. With waveforms hash-consed ([`scald_wave::WaveStore`]), a
//! dynamic input state is fully captured by the compact triple *(interned
//! wave handle, skew, remaining eval string)* — so a small key identifies
//! an evaluation exactly and the outcome can be served from a table
//! instead of re-running the kernels.
//!
//! Invalidation is by construction: everything `evaluate` reads is in the
//! key. The static half — period, kind, delays and each connection's
//! inversion, directive and resolved wire delay — is a structural
//! *descriptor* (`PrimDescriptor`) interned to a `u32` signature. The
//! interner hashes each primitive's fields where they lie in the netlist
//! and compares them against the stored descriptors, so only a
//! primitive with a description not seen before allocates. Netlist edits
//! between `scald-incr` re-verifications produce new signatures for
//! changed primitives and identical ones for untouched primitives —
//! stale entries are unreachable, not purged.
//!
//! The table is sharded like the wave store: hits take a shard read-lock,
//! misses insert under the shard write-lock, so the wave engine's
//! evaluation workers share one cache without serializing.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use scald_netlist::{EdgeDelays, Netlist, PrimKind, Primitive};
use scald_wave::{DelayCorner, DelayRange, Skew, Time, WaveId};

use crate::eval::EvalOutcome;
use crate::view::StateView;

const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// The dynamic half of the key: one input signal's state, compressed to
/// the interned wave handle plus the fields `evaluate` actually reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct InputKey {
    /// Tag of the store that issued the handle (ids are only comparable
    /// within one store).
    store: u32,
    wave: WaveId,
    skew: Skew,
    /// Remaining letters of the propagating evaluation string, if any.
    eval: Option<Box<str>>,
}

/// Full cache key: the primitive's interned descriptor signature plus
/// the dynamic state of each input, in connection order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct EvalKey {
    sig: u32,
    /// The delay corner in force — corner sweeps collapse every
    /// [`DelayRange`](scald_wave::DelayRange) the kernels read, so
    /// outcomes from different corners must never alias.
    corner: DelayCorner,
    inputs: Vec<InputKey>,
}

/// Hit/miss/size counters for an [`EvalCache`], surfaced through the
/// report's engine-stats listing and the `cache_stats` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Lookups served from the table.
    pub hits: u64,
    /// Lookups that fell through to the evaluation kernels.
    pub misses: u64,
    /// Distinct evaluation outcomes currently stored.
    pub entries: usize,
}

impl EvalCacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters accumulated since `earlier` (a prior snapshot of the
    /// same cache): per-request attribution on a shared, long-lived
    /// table, where the cumulative numbers span every client.
    /// `entries` stays absolute — the table only grows.
    #[must_use]
    pub fn since(&self, earlier: &EvalCacheStats) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
        }
    }
}

/// A sharded memo table of primitive-evaluation outcomes.
///
/// One cache is created per [`Verifier`](crate::Verifier) unless a shared
/// one is injected ([`VerifierBuilder::shared_eval_cache`]); `scald-incr`
/// sessions inject one cache across every re-verification so unchanged
/// regions of an edited design replay from the table.
///
/// [`VerifierBuilder::shared_eval_cache`]: crate::VerifierBuilder::shared_eval_cache
pub struct EvalCache {
    /// Descriptor → signature interner, bucketed by the descriptor's
    /// hash under `hasher`. Identical primitive descriptions (across
    /// netlists, sessions, rebuilds) map to the same signature, which is
    /// what makes warm-session reuse work.
    sigs: Mutex<SigTable>,
    hasher: RandomState,
    shards: [RwLock<HashMap<EvalKey, EvalOutcome>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl EvalCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> EvalCache {
        EvalCache {
            sigs: Mutex::new(SigTable::default()),
            hasher: RandomState::new(),
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Interns the static descriptor of every primitive of `netlist`, in
    /// primitive order, returning each signature — or `None` for checker
    /// kinds, which compute nothing during the fixed point and are not
    /// worth a table slot.
    pub(crate) fn prim_sigs(&self, netlist: &Netlist) -> Vec<Option<u32>> {
        let mut sigs = self.sigs.lock().expect("eval cache poisoned");
        netlist
            .prims()
            .iter()
            .map(|prim| {
                if prim.kind.is_checker() {
                    return None;
                }
                let hash = descriptor_hash(&self.hasher, netlist, prim);
                Some(sigs.intern(hash, netlist, prim))
            })
            .collect()
    }

    /// Builds the full key for evaluating `prim` (signature `sig`)
    /// against the input states visible in `states`.
    pub(crate) fn key_for<S: StateView + ?Sized>(
        sig: u32,
        prim: &Primitive,
        states: &S,
        corner: DelayCorner,
    ) -> EvalKey {
        let inputs = prim
            .inputs
            .iter()
            .map(|conn| {
                let src = states.state_at(conn.signal.index());
                InputKey {
                    store: src.wave.store_tag(),
                    wave: src.wave.id(),
                    skew: src.skew,
                    eval: src.eval.as_ref().map(|e| e.remaining().into()),
                }
            })
            .collect();
        EvalKey {
            sig,
            corner,
            inputs,
        }
    }

    /// Looks `key` up, counting a hit or a miss.
    pub(crate) fn lookup(&self, key: &EvalKey) -> Option<EvalOutcome> {
        let shard = self.shard_of(key);
        let found = self.shards[shard]
            .read()
            .expect("eval cache poisoned")
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores the outcome for `key`. Racing inserts of the same key keep
    /// the first value; outcomes for equal keys are equal, so which copy
    /// wins is unobservable.
    pub(crate) fn insert(&self, key: EvalKey, outcome: &EvalOutcome) {
        let shard = self.shard_of(&key);
        self.shards[shard]
            .write()
            .expect("eval cache poisoned")
            .entry(key)
            .or_insert_with(|| outcome.clone());
    }

    fn shard_of(&self, key: &EvalKey) -> usize {
        (self.hasher.hash_one(key) as usize) & (SHARDS - 1)
    }

    /// Distinct outcomes currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("eval cache poisoned").len())
            .sum()
    }

    /// `true` if no outcome has been stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the hit/miss/size counters.
    #[must_use]
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache::new()
    }
}

impl fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("EvalCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// The static half of an evaluation key: everything `evaluate` reads
/// from the netlist for one primitive — period, kind (with parameters),
/// delays, and each connection's inversion, directive and *resolved*
/// wire delay. Two primitives with equal descriptors evaluate
/// identically on equal inputs — the invalidation-by-construction
/// invariant.
struct PrimDescriptor {
    period: Time,
    kind: PrimKind,
    delay: DelayRange,
    edge_delays: Option<EdgeDelays>,
    inputs: Box<[ConnDescriptor]>,
}

/// One connection's part of a [`PrimDescriptor`].
struct ConnDescriptor {
    invert: bool,
    directive: Option<Box<str>>,
    wire_delay: DelayRange,
}

impl PrimDescriptor {
    fn new(netlist: &Netlist, prim: &Primitive) -> PrimDescriptor {
        PrimDescriptor {
            period: netlist.config().timing.period,
            kind: prim.kind,
            delay: prim.delay,
            edge_delays: prim.edge_delays,
            inputs: prim
                .inputs
                .iter()
                .map(|conn| ConnDescriptor {
                    invert: conn.invert,
                    directive: conn.directive.as_deref().map(Box::from),
                    wire_delay: netlist.wire_delay(conn),
                })
                .collect(),
        }
    }

    /// `true` if `prim` (in `netlist`) has exactly this description.
    fn describes(&self, netlist: &Netlist, prim: &Primitive) -> bool {
        self.period == netlist.config().timing.period
            && self.kind == prim.kind
            && self.delay == prim.delay
            && self.edge_delays == prim.edge_delays
            && self.inputs.len() == prim.inputs.len()
            && self.inputs.iter().zip(&prim.inputs).all(|(d, conn)| {
                d.invert == conn.invert
                    && d.directive.as_deref() == conn.directive.as_deref()
                    && d.wire_delay == netlist.wire_delay(conn)
            })
    }
}

/// Hashes the fields a [`PrimDescriptor`] of `prim` would hold, read in
/// place from the netlist.
fn descriptor_hash(hasher: &RandomState, netlist: &Netlist, prim: &Primitive) -> u64 {
    let mut h = hasher.build_hasher();
    netlist.config().timing.period.hash(&mut h);
    prim.kind.hash(&mut h);
    prim.delay.hash(&mut h);
    prim.edge_delays.hash(&mut h);
    prim.inputs.len().hash(&mut h);
    for conn in &prim.inputs {
        conn.invert.hash(&mut h);
        conn.directive.as_deref().hash(&mut h);
        netlist.wire_delay(conn).hash(&mut h);
    }
    h.finish()
}

/// The signature interner: descriptors bucketed by [`descriptor_hash`],
/// each with the signature it was assigned in order of first sight.
#[derive(Default)]
struct SigTable {
    buckets: HashMap<u64, Vec<(PrimDescriptor, u32)>>,
    len: u32,
}

impl SigTable {
    /// The signature of `prim`, whose descriptor hashes to `hash`; a new
    /// description gets the next free signature.
    fn intern(&mut self, hash: u64, netlist: &Netlist, prim: &Primitive) -> u32 {
        let bucket = self.buckets.entry(hash).or_default();
        if let Some((_, sig)) = bucket.iter().find(|(d, _)| d.describes(netlist, prim)) {
            return *sig;
        }
        let sig = self.len;
        self.len += 1;
        bucket.push((PrimDescriptor::new(netlist, prim), sig));
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scald_gen::s1::{s1_like_netlist, S1Options};
    use scald_gen::scale::{scale_netlist, ScaleOptions};
    use scald_gen::sweep::{sweep_netlist, SweepOptions};
    use scald_logic::Value;
    use scald_netlist::{Config, NetlistBuilder};
    use scald_wave::Waveform;
    use std::fmt::Write as _;

    use crate::state::SignalState;

    /// The descriptor the interner keyed on before it went structural:
    /// the `Debug` rendering of every field `evaluate` reads. Kept as the
    /// oracle the structural descriptor must partition primitives like.
    fn prim_descriptor(netlist: &Netlist, prim: &Primitive) -> String {
        let mut d = String::with_capacity(96);
        let _ = write!(
            d,
            "{:?}|{:?}|{:?}|{:?}",
            netlist.config().timing.period,
            prim.kind,
            prim.delay,
            prim.edge_delays,
        );
        for conn in &prim.inputs {
            let _ = write!(
                d,
                "|{}:{:?}:{:?}",
                conn.invert,
                conn.directive,
                netlist.wire_delay(conn),
            );
        }
        d
    }

    /// Asserts that two primitives of `netlist` share a signature exactly
    /// when they share the old descriptor string, and that interning a
    /// rebuilt copy of the netlist returns the same signatures.
    fn assert_partition_matches_strings(label: &str, netlist: &Netlist, rebuilt: &Netlist) {
        let cache = EvalCache::new();
        let sigs = cache.prim_sigs(netlist);
        let mut by_string: HashMap<String, u32> = HashMap::new();
        let mut by_sig: HashMap<u32, String> = HashMap::new();
        for (prim, sig) in netlist.prims().iter().zip(&sigs) {
            let Some(sig) = *sig else {
                assert!(
                    prim.kind.is_checker(),
                    "{label}: {} has no signature",
                    prim.name
                );
                continue;
            };
            let desc = prim_descriptor(netlist, prim);
            assert_eq!(
                *by_string.entry(desc.clone()).or_insert(sig),
                sig,
                "{label}: equal descriptor strings got different signatures: {desc}"
            );
            assert_eq!(
                *by_sig.entry(sig).or_insert_with(|| desc.clone()),
                desc,
                "{label}: signature {sig} covers different descriptor strings"
            );
        }
        assert!(!by_sig.is_empty(), "{label}: nothing was interned");
        assert_eq!(
            cache.prim_sigs(rebuilt),
            sigs,
            "{label}: a rebuilt netlist must reuse every signature"
        );
    }

    #[test]
    fn structural_signatures_partition_like_descriptor_strings() {
        let s1 = || s1_like_netlist(S1Options::default()).0;
        assert_partition_matches_strings("s1_like", &s1(), &s1());
        let scale = || scale_netlist(&ScaleOptions::prims(10_000)).0;
        assert_partition_matches_strings("scale 10k", &scale(), &scale());
        let sweep = || sweep_netlist(&SweepOptions::default()).0;
        assert_partition_matches_strings("sweep", &sweep(), &sweep());

        let designs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs");
        let mut files: Vec<_> = std::fs::read_dir(designs)
            .expect("designs directory")
            .map(|e| e.expect("directory entry").path())
            .collect();
        files.sort();
        let mut shipped = 0;
        for path in files {
            let src = std::fs::read_to_string(&path).expect("design source");
            let compile = || match path.extension().and_then(|e| e.to_str()) {
                Some("scald") => Some(scald_hdl::compile(&src).expect("design compiles").netlist),
                Some("v") => Some(scald_rtl::compile(&src).expect("design compiles").netlist),
                _ => None,
            };
            if let (Some(netlist), Some(rebuilt)) = (compile(), compile()) {
                assert_partition_matches_strings(&path.display().to_string(), &netlist, &rebuilt);
                shipped += 1;
            }
        }
        assert!(shipped >= 5, "every shipped design was checked");
    }

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let a = b.signal("A").unwrap();
        let q = b.signal("Q").unwrap();
        let r = b.signal("R").unwrap();
        b.prim(
            "BUF",
            PrimKind::Buf,
            DelayRange::from_ns(1.0, 2.0),
            vec![a.into()],
            Some(q),
        );
        b.prim(
            "INV",
            PrimKind::Not,
            DelayRange::from_ns(1.0, 2.0),
            vec![a.into()],
            Some(r),
        );
        b.finish().unwrap()
    }

    #[test]
    fn signatures_distinguish_prims_and_dedupe_equal_descriptors() {
        let n = tiny();
        let cache = EvalCache::new();
        let sigs = cache.prim_sigs(&n);
        assert!(sigs.iter().all(Option::is_some));
        assert_ne!(sigs[0], sigs[1], "different kinds, different signatures");
        // Re-interning (as a rebuilt session would) is stable.
        assert_eq!(cache.prim_sigs(&n), sigs);
    }

    #[test]
    fn lookup_hits_only_on_matching_key_and_counts() {
        let n = tiny();
        let cache = EvalCache::new();
        let prim = &n.prims()[0];
        let sig = cache.prim_sigs(&n)[0].unwrap();
        let period = n.config().timing.period;
        let states = vec![
            SignalState::new(Waveform::constant(period, Value::Zero)),
            SignalState::new(Waveform::constant(period, Value::Unknown)),
            SignalState::new(Waveform::constant(period, Value::Unknown)),
        ];
        let key = EvalCache::key_for(sig, prim, states.as_slice(), DelayCorner::Worst);
        assert!(cache.lookup(&key).is_none());
        let outcome = crate::eval::evaluate(&n, prim, states.as_slice(), DelayCorner::Worst);
        cache.insert(key.clone(), &outcome);
        let back = cache.lookup(&key).expect("second lookup hits");
        assert_eq!(format!("{back:?}"), format!("{outcome:?}"));

        // A different input wave is a different key.
        let other = vec![
            SignalState::new(Waveform::constant(period, Value::One)),
            states[1].clone(),
        ];
        let miss = EvalCache::key_for(sig, prim, other.as_slice(), DelayCorner::Worst);
        assert_ne!(key, miss);
        assert!(cache.lookup(&miss).is_none());

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn checker_prims_are_not_cached() {
        let mut b = NetlistBuilder::new(Config::s1_example());
        let d = b.signal("D").unwrap();
        let c = b.signal("C .P0-2").unwrap();
        b.prim(
            "CHK",
            PrimKind::SetupHold {
                setup: Time::from_ns(5.0),
                hold: Time::from_ns(1.0),
            },
            DelayRange::ZERO,
            vec![d.into(), c.into()],
            None,
        );
        let n = b.finish().unwrap();
        let cache = EvalCache::new();
        assert_eq!(cache.prim_sigs(&n), vec![None]);
        assert!(cache.is_empty());
    }
}
