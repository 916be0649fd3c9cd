//! The batch workloads: one op is one verification pipeline in a fresh
//! process, from source text or a generated netlist to report bytes.
//!
//! A fresh process per op matters because the waveform store is
//! process-global and append-only: every `scald-tv` invocation starts
//! with an empty one, and so does every op here.

use crate::metrics::{
    per_layer, span_metrics, LayerSample, Outcome, RACING_CACHE_NOTE, REPORT_BYTES_NOTE,
};
use crate::probe::{allocated_bytes, calibrate, mib, nproc, to_reference, vm_hwm_kib};
use crate::spans::{Recorder, Span};
use crate::stats::{median, tail};
use crate::{repeat_setup, Args};
use scald_gen::s1::{s1_like_hdl, S1Options};
use scald_gen::scale::{scale_netlist, ScaleOptions};
use scald_gen::sweep::{sweep_netlist, SweepOptions};
use scald_netlist::Netlist;
use scald_trace::json::{self, Json};
use scald_verifier::{Case, CaseSet, Report, RunOptions, VerifierBuilder};
use scald_wave::WaveStore;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Chips in the thesis' S-1 Mark IIA evaluation design.
pub const S1_CHIPS: usize = 6357;
/// Primitives in the generated scale design.
const SCALE_PRIMS: usize = 100_000;
/// Cases taken from the head of the sweep design's exhaustive sweep.
const SWEEP_CASES: usize = 1000;
/// An op still running after this long is killed and counted failed.
const OP_TIMEOUT: Duration = Duration::from_secs(60);

const DESIGN_FILE: &str = "design.scald";
const REFERENCE_FILE: &str = "reference.json";

/// A batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// The S-1-sized HDL source: parse, expand, build, run, report, JSON.
    S1Cold,
    /// A generated 100k-primitive netlist: build, run, report, JSON.
    Scale100k,
    /// The sweep design with the first 1000 cases of its exhaustive
    /// sweep, at two workers.
    Sweep1000,
}

impl Batch {
    pub fn parse(name: &str) -> Option<Batch> {
        match name {
            "s1_cold" => Some(Batch::S1Cold),
            "scale_100k" => Some(Batch::Scale100k),
            "sweep_1000" => Some(Batch::Sweep1000),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Batch::S1Cold => "s1_cold",
            Batch::Scale100k => "scale_100k",
            Batch::Sweep1000 => "sweep_1000",
        }
    }

    /// Worker budget of the op.
    pub fn jobs(self) -> usize {
        match self {
            Batch::Sweep1000 => 2,
            Batch::S1Cold | Batch::Scale100k => 1,
        }
    }
}

/// The S-1-sized HDL source for `seed`.
pub fn s1_source(seed: u64) -> String {
    s1_like_hdl(S1Options {
        chips: S1_CHIPS,
        seed,
    })
}

/// A design's `case` blocks as engine cases (one base case when it
/// declares none), the way `scald-tv` builds them.
fn cases_of(raw: &[Vec<(String, bool)>]) -> Vec<Case> {
    if raw.is_empty() {
        return vec![Case::new()];
    }
    raw.iter()
        .map(|assigns| {
            assigns
                .iter()
                .fold(Case::new(), |c, (s, v)| c.assign(s.clone(), *v))
        })
        .collect()
}

/// The reference output for HDL source, compiled the way `scald-tv`
/// does (see [`reference`]).
///
/// # Errors
///
/// A parse, expansion or verification error, as text.
pub fn source_reference(src: &str, label: &str) -> Result<String, String> {
    let exp = scald_hdl::compile(src).map_err(|e| e.to_string())?;
    reference(exp.netlist, cases_of(&exp.cases), label)
}

/// The reference output: a direct in-process run at one worker, effort
/// stripped.
///
/// # Errors
///
/// A verification error, as text.
fn reference(netlist: Netlist, cases: Vec<Case>, label: &str) -> Result<String, String> {
    let mut verifier = VerifierBuilder::new(netlist).jobs(1).build();
    let outcome = verifier
        .run(&RunOptions::new().cases(CaseSet::list(cases)).jobs(1))
        .map_err(|e| e.to_string())?;
    Ok(verifier
        .report(label, &outcome.cases)
        .strip_effort()
        .to_json())
}

/// The generated netlist and cases of a workload without source.
fn generate(w: Batch, seed: u64) -> (Netlist, Vec<Case>) {
    match w {
        Batch::Scale100k => {
            let opts = ScaleOptions {
                seed,
                ..ScaleOptions::prims(SCALE_PRIMS)
            };
            (scale_netlist(&opts).0, vec![Case::new()])
        }
        Batch::Sweep1000 => {
            let (netlist, stats) = sweep_netlist(&SweepOptions {
                seed,
                ..SweepOptions::default()
            });
            let cases = CaseSet::exhaustive(stats.mode_bits)
                .into_cases()
                .into_iter()
                .take(SWEEP_CASES)
                .collect();
            (netlist, cases)
        }
        Batch::S1Cold => unreachable!("s1_cold verifies source text"),
    }
}

/// What an op starts from. Consumed by the op that builds it, so the
/// size gap between the variants never sits in long-lived storage.
#[allow(clippy::large_enum_variant)]
enum Input {
    /// A design file, read inside the op like `scald-tv` does.
    Source(PathBuf),
    /// A netlist generated before the op starts.
    Generated(Netlist, Vec<Case>),
}

/// One op's pipeline. Untraced it mirrors `scald-tv --format json`;
/// traced it wraps a span around each layer call and settles the base
/// before running the cases, so the two phases are timed apart.
fn pipeline(
    w: Batch,
    input: Input,
    rec: &mut Recorder,
    sample: &mut LayerSample,
) -> Result<Report, String> {
    let (netlist, cases) = match input {
        Input::Source(path) => {
            let src = rec
                .time("op.read", || fs::read_to_string(&path))
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let design = rec
                .time("hdl.parse", || scald_hdl::parse(&src))
                .map_err(|e| e.to_string())?;
            let exp = rec
                .time("hdl.expand", || scald_hdl::expand(&design))
                .map_err(|e| e.to_string())?;
            sample.set("hdl.prims_emitted", exp.stats.prims_emitted as f64);
            (exp.netlist, cases_of(&exp.cases))
        }
        Input::Generated(netlist, cases) => (netlist, cases),
    };
    let jobs = w.jobs();
    let mut verifier = rec.time("verifier.build", || {
        VerifierBuilder::new(netlist).jobs(jobs).build()
    });
    if rec.enabled() {
        let (events, evaluations) = rec
            .time("verifier.settle_base", || verifier.settle_base())
            .map_err(|e| e.to_string())?;
        sample.set("verifier.events", events as f64);
        sample.set("verifier.evaluations", evaluations as f64);
    }
    let started = Instant::now();
    let outcome = rec
        .time("verifier.cases", || {
            verifier.run(&RunOptions::new().cases(CaseSet::list(cases)).jobs(jobs))
        })
        .map_err(|e| e.to_string())?;
    let verify_wall = started.elapsed();
    sample.set("verifier.prefix_nodes", outcome.prefix.nodes as f64);
    sample.set(
        "verifier.prefix_evaluations",
        outcome.prefix.evaluations as f64,
    );
    sample.set(
        "verifier.leaf_check_evals",
        outcome.memo.leaf_check_evals as f64,
    );
    sample.set("verifier.leaf_hit_rate", outcome.memo.leaf_hit_rate());

    let mut report = rec.time("verifier.report", || {
        verifier.report(w.name(), &outcome.cases)
    });
    report.engine.verify_wall = Some(verify_wall);
    report.engine.jobs = jobs;
    let doc = rec.time("verifier.report_json", || report.json_value());
    let bytes = rec.time("trace.render", || doc.to_string_pretty());
    black_box(&bytes);
    sample.set("trace.report_bytes", bytes.len() as f64);
    if let Some(cache) = report.engine.eval_cache {
        sample.set("verifier.cache_entries", cache.entries as f64);
        sample.set("verifier.cache_hits", cache.hits as f64);
        sample.set("verifier.cache_misses", cache.misses as f64);
        sample.set("verifier.cache_hit_rate", cache.hit_rate());
    }
    sample.set("wave.store_entries", WaveStore::global().len() as f64);
    // `scald-tv` frees these before it exits too; timed on their own so
    // the op's uncovered rest stays small.
    rec.time("op.drop", || drop((verifier, outcome, doc, bytes)));
    Ok(report)
}

/// The result of one op, as a child process prints it.
#[derive(Debug, Default)]
struct OpRun {
    ok: bool,
    error: Option<String>,
    op_ns: u64,
    alloc_bytes: u64,
    hwm_kib: u64,
    /// Calibration kernel time (see `probe::calibrate`) in the op
    /// process right after the op; the parent replaces it with the mean
    /// of that and its own calibration right before starting the process.
    cal_ms: f64,
    /// Wall time of the op process, start to exit, as the parent saw it.
    process_ms: f64,
    spans: Vec<Span>,
    sample: LayerSample,
}

impl OpRun {
    fn failed(error: String) -> OpRun {
        OpRun {
            error: Some(error),
            ..OpRun::default()
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ok".into(), Json::from(self.ok)),
            (
                "error".into(),
                self.error.as_ref().map_or(Json::Null, Json::str),
            ),
            ("op_ns".into(), Json::from(self.op_ns)),
            ("alloc_bytes".into(), Json::from(self.alloc_bytes)),
            ("hwm_kib".into(), Json::from(self.hwm_kib)),
            ("cal_ms".into(), Json::from(self.cal_ms)),
            (
                "spans".into(),
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
            (
                "counts".into(),
                Json::Obj(
                    self.sample
                        .values
                        .iter()
                        .map(|(&k, &v)| (k.to_owned(), Json::from(v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Option<OpRun> {
        let mut sample = LayerSample::new(0);
        for (k, v) in doc.get("counts")?.as_object()? {
            sample.set(crate::metrics::layer_name(k)?, v.as_f64()?);
        }
        Some(OpRun {
            ok: doc.get("ok")?.as_bool()?,
            error: doc.get("error")?.as_str().map(str::to_owned),
            op_ns: doc.get("op_ns")?.as_u64()?,
            alloc_bytes: doc.get("alloc_bytes")?.as_u64()?,
            hwm_kib: doc.get("hwm_kib")?.as_u64()?,
            cal_ms: doc.get("cal_ms")?.as_f64()?,
            process_ms: 0.0,
            spans: doc
                .get("spans")?
                .as_array()?
                .iter()
                .map(Span::from_json)
                .collect::<Option<_>>()?,
            sample,
        })
    }
}

/// Entry point of an op process: `--child-op WORKLOAD --seed N --dir D
/// --traced 0|1`. Prints one JSON line and exits 0 when the op ran and
/// its output check passed.
pub fn child_main(args: &[String]) -> ExitCode {
    let run = match child_args(args) {
        Ok((w, seed, dir, traced)) => child_op(w, seed, &dir, traced),
        Err(e) => OpRun::failed(e),
    };
    println!("{}", run.to_json());
    if run.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn child_args(args: &[String]) -> Result<(Batch, u64, PathBuf, bool), String> {
    let mut it = args.iter();
    let w = it
        .next()
        .and_then(|n| Batch::parse(n))
        .ok_or("--child-op expects a batch workload")?;
    let (mut seed, mut dir, mut traced) = (None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--seed" => seed = value.parse().ok(),
            "--dir" => dir = Some(PathBuf::from(value)),
            "--traced" => traced = value == "1",
            other => return Err(format!("unknown op argument {other}")),
        }
    }
    Ok((
        w,
        seed.ok_or("--seed expects a number")?,
        dir.ok_or("--dir is required")?,
        traced,
    ))
}

fn child_op(w: Batch, seed: u64, dir: &Path, traced: bool) -> OpRun {
    let reference = match fs::read_to_string(dir.join(REFERENCE_FILE)) {
        Ok(r) => r,
        Err(e) => return OpRun::failed(format!("cannot read the reference: {e}")),
    };
    let input = match w {
        Batch::S1Cold => Input::Source(dir.join(DESIGN_FILE)),
        _ => {
            let (netlist, cases) = generate(w, seed);
            Input::Generated(netlist, cases)
        }
    };
    let mut rec = Recorder::new(traced);
    let mut sample = LayerSample::new(0);
    let alloc_before = allocated_bytes();
    let started = Instant::now();
    let root = rec.begin("op");
    let result = pipeline(w, input, &mut rec, &mut sample);
    rec.end(root);
    let op_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let alloc_bytes = allocated_bytes() - alloc_before;
    let hwm_kib = vm_hwm_kib(None).unwrap_or(0);
    // After the peak is read, so the kernel's own memory is not in it.
    let cal_ms = calibrate(w.jobs());
    let error = match result {
        Err(e) => Some(e),
        Ok(report) if report.strip_effort().to_json() != reference => {
            Some("stripped report differs from the reference".to_owned())
        }
        Ok(_) => None,
    };
    OpRun {
        ok: error.is_none(),
        error,
        op_ns,
        alloc_bytes,
        hwm_kib,
        cal_ms,
        process_ms: 0.0,
        spans: rec.into_spans(),
        sample,
    }
}

/// Runs one op in a fresh process and collects its result. A crash,
/// timeout, non-zero exit or unreadable result is a failed op.
fn spawn_op(w: Batch, seed: u64, work: &Path, traced: bool) -> OpRun {
    let out_path = work.join("op.out");
    let run = || -> Result<OpRun, String> {
        let out = fs::File::create(&out_path).map_err(|e| e.to_string())?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .arg("--child-op")
            .arg(w.name())
            .args(["--seed", &seed.to_string(), "--traced"])
            .arg(if traced { "1" } else { "0" })
            .arg("--dir")
            .arg(work)
            .stdin(Stdio::null())
            .stdout(out)
            .spawn()
            .map_err(|e| format!("cannot start an op process: {e}"))?;
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if started.elapsed() > OP_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("op timed out after {OP_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let text = fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
        let run = text
            .lines()
            .last()
            .and_then(|l| json::parse(l).ok())
            .and_then(|doc| OpRun::from_json(&doc))
            .ok_or_else(|| format!("op process ({status}) printed no result"))?;
        if run.ok && !status.success() {
            return Err(format!("op process exited with {status}"));
        }
        Ok(OpRun {
            process_ms: started.elapsed().as_secs_f64() * 1e3,
            ..run
        })
    };
    run().unwrap_or_else(OpRun::failed)
}

/// One set-up: generate the input, compute the reference, and warm up
/// with one op that must pass its check.
fn setup(w: Batch, seed: u64, work: &Path) -> Result<(), String> {
    let reference = match w {
        Batch::S1Cold => {
            let src = s1_source(seed);
            fs::write(work.join(DESIGN_FILE), &src).map_err(|e| e.to_string())?;
            source_reference(&src, w.name())?
        }
        _ => {
            let (netlist, cases) = generate(w, seed);
            reference(netlist, cases, w.name())?
        }
    };
    fs::write(work.join(REFERENCE_FILE), reference).map_err(|e| e.to_string())?;
    let warm = spawn_op(w, seed, work, false);
    match warm.error {
        None => Ok(()),
        Some(e) => Err(format!("warm-up op failed: {e}")),
    }
}

/// Runs a batch workload for `args.seconds` and returns what to print.
///
/// # Errors
///
/// Set-up failed (the input did not compile or verify, or the warm-up
/// op failed).
pub fn run(w: Batch, args: &Args, work: &Path) -> Result<(Outcome, Vec<Span>), String> {
    let ((), setup_times) = repeat_setup(|| setup(w, args.seed, work), |()| Ok(()))?;
    let mut out = Outcome::default();
    out.lines.push(format!(
        "workload {} seed {} nproc {} jobs {}: one op at a time, each in a fresh process",
        w.name(),
        args.seed,
        nproc(),
        w.jobs()
    ));

    // Untraced runs time ops only; traced runs alternate untraced and
    // traced ops so the tracing overhead is measured in the same run.
    // Each op is bracketed by two calibrations: one here right before
    // the op process starts (so the kernel's memory stays out of the
    // process's peak), one in the process right after the op.
    let deadline = Instant::now() + args.seconds;
    let started = Instant::now();
    let mut plain: Vec<OpRun> = Vec::new();
    let mut traced: Vec<OpRun> = Vec::new();
    loop {
        let enough = if args.trace {
            traced.len() >= 2 && !plain.is_empty()
        } else {
            !plain.is_empty()
        };
        if enough && Instant::now() >= deadline {
            break;
        }
        let trace_this = args.trace && plain.len() > traced.len();
        let before = calibrate(w.jobs());
        let mut op = spawn_op(w, args.seed, work, trace_this);
        op.cal_ms = (before + op.cal_ms) / 2.0;
        if trace_this {
            traced.push(op);
        } else {
            plain.push(op);
        }
    }
    let wall = started.elapsed().as_secs_f64();

    out.attempted = (plain.len() + traced.len()) as u64;
    for op in plain.iter().chain(&traced).filter(|op| !op.ok) {
        out.failed += 1;
        out.lines.push(format!(
            "failed op: {}",
            op.error.as_deref().unwrap_or("unknown")
        ));
    }
    let plain: Vec<OpRun> = plain.into_iter().filter(|op| op.ok).collect();
    let traced: Vec<OpRun> = traced.into_iter().filter(|op| op.ok).collect();
    // Op times in reference ms, and as measured.
    let ref_ms = |ops: &[OpRun]| -> Vec<f64> {
        ops.iter()
            .map(|op| op.op_ns as f64 / 1e6 * to_reference(op.cal_ms))
            .collect()
    };
    let raw_ms =
        |ops: &[OpRun]| -> Vec<f64> { ops.iter().map(|op| op.op_ns as f64 / 1e6).collect() };
    let factors: Vec<f64> = plain.iter().map(|op| to_reference(op.cal_ms)).collect();
    out.lines.push(format!(
        "host speed factor (reference ms per measured ms): median {:.3}, range {:.3}..{:.3}",
        median(&factors),
        factors.iter().copied().fold(f64::INFINITY, f64::min),
        factors.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    ));
    let plain_ms = ref_ms(&plain);
    let mut all_spans = Recorder::new(true);
    if args.trace {
        let traced_ms = ref_ms(&traced);
        let mut samples = Vec::new();
        for (i, op) in traced.into_iter().enumerate() {
            let mut sample = op.sample;
            span_metrics(&op.spans, 0..op.spans.len(), &mut sample);
            sample.scale_times(to_reference(op.cal_ms));
            samples.push(sample);
            all_spans.absorb(op.spans, i as u64);
        }
        let overhead = median(&traced_ms) - median(&plain_ms);
        out.lines.push(format!(
            "traced ops {} (op median {:.3} ms), untraced ops {} (op median {:.3} ms)",
            traced_ms.len(),
            median(&traced_ms),
            plain_ms.len(),
            median(&plain_ms)
        ));
        let notes: Vec<(&str, &str)> = if w.jobs() >= 2 {
            vec![
                ("verifier.cache_hits", RACING_CACHE_NOTE),
                ("verifier.cache_misses", RACING_CACHE_NOTE),
                ("verifier.cache_hit_rate", RACING_CACHE_NOTE),
                ("trace.report_bytes", REPORT_BYTES_NOTE),
            ]
        } else {
            vec![("trace.report_bytes", REPORT_BYTES_NOTE)]
        };
        per_layer(
            &mut out,
            &samples,
            &[
                ("trace.overhead_ms", overhead),
                ("host.nproc", nproc() as f64),
                ("host.jobs", w.jobs() as f64),
            ],
            &notes,
        );
    } else {
        let t = tail(&plain_ms);
        let p50 = median(&plain_ms);
        let raw = raw_ms(&plain);
        out.push(
            "op_p50_ms",
            p50,
            format!("median of {} ops; raw {:.3}", t.samples, median(&raw)),
        );
        out.push(
            "op_tail_ms",
            t.value,
            format!(
                "p{:.1} of {} ops, {} beyond; raw {:.3}",
                t.percentile,
                t.samples,
                t.beyond,
                tail(&raw).value
            ),
        );
        // Each op process's wall time, start to exit, in reference s.
        let busy: f64 = plain
            .iter()
            .map(|op| op.process_ms / 1e3 * to_reference(op.cal_ms))
            .sum();
        let rate = plain.len() as f64 / wall;
        out.push(
            "ops_per_s",
            plain.len() as f64 / busy,
            format!("{} ops in {wall:.3} s; raw {rate:.4}", plain.len()),
        );
        out.push("eco_p50_ms", p50, "batch: an edit is answered by a full op");
        let hwm: Vec<f64> = plain.iter().map(|op| op.hwm_kib as f64 / 1024.0).collect();
        out.push(
            "peak_rss_mb",
            median(&hwm),
            "VmHWM of the op process, median",
        );
        let alloc: Vec<f64> = plain.iter().map(|op| mib(op.alloc_bytes)).collect();
        out.push("alloc_mb_per_op", median(&alloc), "median over ops");
        setup_times.push(&mut out);
    }
    Ok((out, all_spans.into_spans()))
}
