//! The benchmark's metric catalogue, per-layer aggregation with counter
//! stability, and the printed result.

use crate::probe::mib;
use crate::spans::{self_ns, Span};
use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("eco_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("alloc_mb_per_op", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. Units
/// `count` and `ratio` are counters and get a stability label.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hdl.parse_ms", "ms"),
    ("hdl.expand_ms", "ms"),
    ("hdl.expand_alloc_mb", "MiB"),
    ("hdl.prims_emitted", "count"),
    ("verifier.build_ms", "ms"),
    ("verifier.build_alloc_mb", "MiB"),
    ("verifier.cache_entries", "count"),
    ("verifier.settle_base_ms", "ms"),
    ("verifier.events", "count"),
    ("verifier.evaluations", "count"),
    ("verifier.cases_ms", "ms"),
    ("verifier.prefix_nodes", "count"),
    ("verifier.prefix_evaluations", "count"),
    ("verifier.leaf_check_evals", "count"),
    ("verifier.leaf_hit_rate", "ratio"),
    ("verifier.cache_hits", "count"),
    ("verifier.cache_misses", "count"),
    ("verifier.cache_hit_rate", "ratio"),
    ("verifier.report_ms", "ms"),
    ("verifier.report_json_ms", "ms"),
    ("trace.render_ms", "ms"),
    ("verifier.report_alloc_mb", "MiB"),
    ("trace.render_alloc_mb", "MiB"),
    ("trace.report_bytes", "count"),
    ("incr.apply_ms", "ms"),
    ("incr.reverify_ms", "ms"),
    ("incr.cone_prims", "count"),
    ("incr.events", "count"),
    ("serve.apply_rtt_ms", "ms"),
    ("serve.run_rtt_ms", "ms"),
    ("serve.report_rtt_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.proto_encode_ms", "ms"),
    ("serve.proto_parse_ms", "ms"),
    ("serve.reply_bytes", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.errors", "count"),
    ("wave.store_entries", "count"),
    ("op.uncovered_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.nproc", "count"),
    ("host.jobs", "count"),
];

/// The catalogue's own name for a per-layer metric read back as text.
pub fn layer_name(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|&(n, _)| n)
}

/// Counters that are known to differ between identical runs at
/// `jobs >= 2`, with the reason printed beside them.
pub const RACING_CACHE_NOTE: &str = "eval-cache hit/miss counts race between workers at jobs >= 2";

/// Why the report's byte count may differ between identical ops.
pub const REPORT_BYTES_NOTE: &str =
    "the effort-carrying report holds wall-clock fields whose digit count varies";

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value (stability label, percentile, ...).
    pub note: String,
}

/// What one benchmark run prints.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metric table.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or_else(|| panic!("{name} is not in the catalogue"), |&(_, u)| u);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// The human-readable lines, then the one-line JSON result last.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        let rate = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "error_rate = {rate} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<28} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Per-layer values of one traced op (or one traced request cycle).
/// Ops of the same `group` did the same work, so their counters must
/// agree for the counter to be stable.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub group: u32,
    pub values: BTreeMap<&'static str, f64>,
}

impl LayerSample {
    pub fn new(group: u32) -> LayerSample {
        LayerSample {
            group,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Multiplies every time (unit `ms`) by `factor`.
    pub fn scale_times(&mut self, factor: f64) {
        for (name, value) in &mut self.values {
            if PER_LAYER.iter().any(|&(n, u)| n == *name && u == "ms") {
                *value *= factor;
            }
        }
    }

    /// Adds to a value (for layers called more than once per op).
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }
}

/// Folds traced samples into every per-layer metric: the median over
/// the samples that measured it, `0` for a layer the workload bypasses.
/// Counters are labelled stable when every group saw one value, and
/// unstable otherwise; `notes` adds a known cause beside a counter.
pub fn per_layer(
    out: &mut Outcome,
    samples: &[LayerSample],
    fixed: &[(&'static str, f64)],
    notes: &[(&'static str, &str)],
) {
    for &(name, unit) in PER_LAYER {
        let counter = unit == "count" || unit == "ratio";
        let note = notes
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, note)| format!(" ({note})"))
            .collect::<String>();
        if let Some(&(_, v)) = fixed.iter().find(|(n, _)| *n == name) {
            out.push(name, v, note.trim_start().to_owned());
            continue;
        }
        let values: Vec<(u32, f64)> = samples
            .iter()
            .filter_map(|s| s.values.get(name).map(|&v| (s.group, v)))
            .collect();
        if values.is_empty() {
            let label = if counter { "stable, " } else { "" };
            out.push(name, 0.0, format!("{label}not exercised{note}"));
            continue;
        }
        let plain: Vec<f64> = values.iter().map(|&(_, v)| v).collect();
        let label = if counter {
            let mut by_group: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
            for &(g, v) in &values {
                by_group.entry(g).or_default().push(v);
            }
            let compared = by_group.values().filter(|v| v.len() >= 2).count();
            let stable = by_group
                .values()
                .all(|v| v.iter().all(|x| x.to_bits() == v[0].to_bits()));
            match (stable, compared) {
                (_, 0) => format!("unchecked: one sample per group{note}"),
                (true, _) => format!("stable over {} samples{note}", values.len()),
                (false, _) => {
                    let lo = plain.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = plain.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    format!("UNSTABLE over {} samples: {lo}..{hi}{note}", values.len())
                }
            }
        } else {
            format!("median of {}{note}", values.len())
        };
        out.push(name, median(&plain), label);
    }
}

/// Layer metrics of one op from its spans `spans[range]`: each layer
/// call's duration, its allocation where the catalogue has one, and the
/// op's uncovered rest.
pub fn span_metrics(spans: &[Span], range: Range<usize>, sample: &mut LayerSample) {
    for i in range {
        let s = &spans[i];
        let ms = s.duration_ns() as f64 / 1e6;
        let alloc = mib(s.alloc_bytes);
        match s.name.as_str() {
            "op" => sample.add("op.uncovered_ms", self_ns(spans, i) as f64 / 1e6),
            "hdl.parse" => sample.add("hdl.parse_ms", ms),
            "hdl.expand" => {
                sample.add("hdl.expand_ms", ms);
                sample.add("hdl.expand_alloc_mb", alloc);
            }
            "verifier.build" => {
                sample.add("verifier.build_ms", ms);
                sample.add("verifier.build_alloc_mb", alloc);
            }
            "verifier.settle_base" => sample.add("verifier.settle_base_ms", ms),
            "verifier.cases" => sample.add("verifier.cases_ms", ms),
            "verifier.report" => {
                sample.add("verifier.report_ms", ms);
                sample.add("verifier.report_alloc_mb", alloc);
            }
            "verifier.report_json" => {
                sample.add("verifier.report_json_ms", ms);
                sample.add("verifier.report_alloc_mb", alloc);
            }
            "trace.render" => {
                sample.add("trace.render_ms", ms);
                sample.add("trace.render_alloc_mb", alloc);
            }
            "incr.apply" => sample.add("incr.apply_ms", ms),
            "incr.reverify" => sample.add("incr.reverify_ms", ms),
            "serve.proto_encode" => sample.add("serve.proto_encode_ms", ms),
            "serve.proto_parse" => sample.add("serve.proto_parse_ms", ms),
            "serve.apply" => sample.add("serve.apply_rtt_ms", ms),
            "serve.run" => sample.add("serve.run_rtt_ms", ms),
            "serve.report" => sample.add("serve.report_rtt_ms", ms),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let doc = scald_trace::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn counters_are_labelled_and_none_is_dropped() {
        let mut a = LayerSample::new(0);
        a.set("verifier.cache_hits", 10.0);
        a.set("verifier.events", 5.0);
        a.set("hdl.parse_ms", 1.0);
        let mut b = a.clone();
        b.set("verifier.cache_hits", 11.0);
        let mut out = Outcome::default();
        per_layer(&mut out, &[a, b], &[("host.nproc", 2.0)], &[]);
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        let note = |n: &str| &out.metrics.iter().find(|m| m.name == n).unwrap().note;
        assert!(note("verifier.cache_hits").starts_with("UNSTABLE"));
        assert!(note("verifier.events").starts_with("stable"));
        assert!(note("incr.events").contains("not exercised"));
        let line = out.render();
        let last = line.lines().last().unwrap();
        let doc = scald_trace::json::parse(last).expect("last line is JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("verifier.cache_hits"))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(10.5)
        );
    }
}
