//! `perfbench`: the verifier's layered end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload s1_cold|scale_100k|sweep_1000|serve_eco \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Untraced runs (`--trace 0`) print the
//! end-to-end metrics; traced runs print the per-layer metrics. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md` for the
//! workloads, the metrics and how they relate.

mod batch;
mod metrics;
mod probe;
mod serve;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Where runs keep their scratch files and span dumps, relative to the
/// repository root.
const OUT_DIR: &str = "perfbench/target";

/// The benchmark's command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Set-up times of one run, in reference seconds and as measured.
pub struct SetupTimes {
    reference: Vec<f64>,
    raw: Vec<f64>,
}

impl SetupTimes {
    /// Adds `setup_s`: the median in reference seconds.
    pub fn push(&self, out: &mut metrics::Outcome) {
        out.push(
            "setup_s",
            stats::median(&self.reference),
            format!("median of {SETUP_REPS} set-ups; raw {:?} s", self.raw),
        );
    }
}

/// Runs a workload's set-up `SETUP_REPS` times, handing all but the last
/// to `discard`, and times each between two calibrations.
///
/// # Errors
///
/// The first error of `setup` or `discard`.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, SetupTimes), String> {
    let mut times = SetupTimes {
        reference: Vec::new(),
        raw: Vec::new(),
    };
    probe::calibrate(1);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let cal_before = probe::calibrate(1);
        let started = std::time::Instant::now();
        let made = setup()?;
        let secs = started.elapsed().as_secs_f64();
        let cal_after = probe::calibrate(1);
        times.raw.push(secs);
        times
            .reference
            .push(secs * probe::to_reference((cal_before + cal_after) / 2.0));
        if rep + 1 < SETUP_REPS {
            discard(made)?;
        } else {
            kept = Some(made);
        }
    }
    Ok((kept.expect("SETUP_REPS is at least 1"), times))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects a number")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "--seconds expects a number")?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn bench_main(args: &[String]) -> Result<String, String> {
    let args = parse_args(args)?;
    if !Path::new("perfbench/Cargo.toml").is_file() {
        return Err("run from the repository root".to_owned());
    }
    let work = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let result = match (args.workload.as_str(), batch::Batch::parse(&args.workload)) {
        ("serve_eco", _) => serve::run(&args, &work),
        (_, Some(w)) => batch::run(w, &args, &work),
        (other, None) => Err(format!(
            "unknown workload {other} (s1_cold, scale_100k, sweep_1000, serve_eco)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    let (mut outcome, spans) = result?;
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        spans::write_jsonl(&path, &spans).map_err(|e| e.to_string())?;
        outcome.lines.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        ));
        outcome.lines.extend(spans::self_time_table(&spans));
    }
    Ok(outcome.render())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--child-op") => batch::child_main(&args[1..]),
        Some("--daemon") => serve::daemon_main(&args[1..]),
        _ => match bench_main(&args) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
