//! The `serve_eco` workload: a `scald-serve` daemon in a child process
//! and two closed-loop client connections on the S-1-sized source.
//!
//! The *editor* loops apply-delta → run → report, toggling one slice's
//! input assertion between two values; the *reader* loops run → report
//! on the unedited design. Every report reply must be byte-identical to
//! the effort-stripped report of a direct run of the same source.

use crate::batch::{s1_source, source_reference};
use crate::metrics::{per_layer, span_metrics, LayerSample, Outcome, RACING_CACHE_NOTE};
use crate::probe::{allocated_bytes, calibrate, live_bytes, mib, nproc, to_reference, vm_hwm_kib};
use crate::spans::{Recorder, Span};
use crate::stats::{median, tail};
use crate::{repeat_setup, Args};
use scald_incr::{Delta, DesignInput, SessionBuilder};
use scald_serve::{serve, Client, DeltaSpec, Frame, Request, Response, RunSummary, ServeOptions};
use scald_trace::json;
use scald_wave::WaveStore;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

const LABEL: &str = "serve_eco";
/// The daemon's worker budget.
const DAEMON_JOBS: usize = 2;
/// In-process replay cycles of a traced run (two per edit direction).
const REPLAY_CYCLES: usize = 4;
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// The two versions of the design the editor toggles between, with the
/// reference report of each.
struct Inputs {
    srcs: [String; 2],
    refs: [String; 2],
    /// The edited slice's instance line, for the output.
    target: String,
}

/// The S-1-sized source, and a copy with one slice's input assertion
/// moved later; the slice is picked by `seed`.
fn inputs(seed: u64) -> Result<Inputs, String> {
    let src = s1_source(seed);
    let slices = src.matches(" IN .S3-8'").count();
    let slice = scald_rng::Rng::seed_from_u64(seed).range_usize(0, slices);
    let from = format!("'S{slice} IN .S3-8'");
    if src.matches(&from).count() != 1 {
        return Err(format!("slice {slice} has no unique input assertion"));
    }
    let edited = src.replacen(&from, &format!("'S{slice} IN .S4-8'"), 1);
    let refs = [
        source_reference(&src, LABEL)?,
        source_reference(&edited, LABEL)?,
    ];
    if refs[0] == refs[1] {
        return Err(format!("editing slice {slice} does not change the report"));
    }
    let target = src
        .lines()
        .find(|l| l.contains(&from))
        .unwrap_or_default()
        .trim()
        .to_owned();
    Ok(Inputs {
        srcs: [src, edited],
        refs,
        target,
    })
}

/// Entry point of the daemon process: `--daemon --socket PATH`.
/// Besides serving, it answers each `mark` line on stdin with its
/// allocation counter, its peak heap in use since the last mark
/// (sampled every 2 ms), and its waveform-store size.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let socket = match args {
        [flag, path] if flag == "--socket" => PathBuf::from(path),
        _ => {
            eprintln!("--daemon expects --socket PATH");
            return ExitCode::from(2);
        }
    };
    // Heap in use is sampled rather than kept as a high-water mark on
    // every allocation: a mark shared by every worker thread would cost
    // the daemon more than anything it measures.
    let peak = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (peak, stop) = (Arc::clone(&peak), Arc::clone(&stop));
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(live_bytes(), Ordering::Relaxed);
                thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let marker = {
        let peak = Arc::clone(&peak);
        thread::spawn(move || {
            for line in io::stdin().lock().lines() {
                let Ok(line) = line else { break };
                if line.trim() == "mark" {
                    let window_peak = peak.swap(live_bytes(), Ordering::Relaxed);
                    let mut out = io::stdout().lock();
                    let _ = writeln!(
                        out,
                        "{} {window_peak} {}",
                        allocated_bytes(),
                        WaveStore::global().len()
                    );
                    let _ = out.flush();
                }
            }
        })
    };
    let served = serve(&ServeOptions {
        socket: Some(socket),
        jobs: DAEMON_JOBS,
        ..ServeOptions::default()
    });
    stop.store(true, Ordering::Relaxed);
    let _ = sampler.join();
    // The parent closes stdin before it asks for shutdown.
    let _ = marker.join();
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A daemon child process, killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
}

impl Daemon {
    fn start(work: &Path) -> Result<Daemon, String> {
        let socket = work.join("serve.sock");
        let _ = std::fs::remove_file(&socket);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let daemon = Daemon {
            child,
            stdin,
            stdout,
            socket,
        };
        let started = Instant::now();
        while !daemon.socket.exists() {
            if started.elapsed() > STOP_TIMEOUT {
                return Err("the daemon did not bind its socket".to_owned());
            }
            thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    /// Connects a client and opens a session on `src`.
    fn open(&self, src: &str) -> Result<Conn, String> {
        let mut client = Client::connect_unix(&self.socket).map_err(|e| e.to_string())?;
        match client.open_source(src, LABEL).map_err(|e| e.to_string())? {
            Response::Opened { session, .. } => Ok(Conn { client, session }),
            other => Err(format!("open failed: {other:?}")),
        }
    }

    /// The daemon's allocation counter, peak heap in use since the last
    /// mark, and waveform-store size.
    fn mark(&mut self) -> Result<Mark, String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin is closed")?;
        writeln!(stdin, "mark").map_err(|e| e.to_string())?;
        stdin.flush().map_err(|e| e.to_string())?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| format!("bad mark reply {line:?}"))?;
        match fields[..] {
            [allocated, peak_live, store] => Ok(Mark {
                allocated,
                peak_live,
                store,
            }),
            _ => Err(format!("bad mark reply {line:?}")),
        }
    }

    /// Shuts the daemon down once `conns` have disconnected, and waits
    /// for it to exit.
    fn stop(mut self, conns: Vec<Conn>) -> Result<(), String> {
        drop(self.stdin.take());
        let mut admin = Client::connect_unix(&self.socket).map_err(|e| e.to_string())?;
        let ack = admin.shutdown().map_err(|e| e.to_string())?;
        drop(admin);
        drop(conns);
        let started = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return match (status.success(), ack) {
                    (true, Response::ShuttingDown { .. }) => Ok(()),
                    (_, ack) => Err(format!("daemon stop: {status}, {ack:?}")),
                };
            }
            if started.elapsed() > STOP_TIMEOUT {
                return Err("the daemon did not drain".to_owned());
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What the daemon reports on a `mark` line.
struct Mark {
    allocated: u64,
    peak_live: u64,
    store: u64,
}

/// One client connection and its session.
struct Conn {
    client: Client,
    session: String,
}

/// A daemon with both connections open and warmed up.
struct Live {
    daemon: Daemon,
    editor: Conn,
    reader: Conn,
    /// The editor's current version (0 = unedited).
    state: usize,
}

impl Live {
    fn stop(self) -> Result<(), String> {
        self.daemon.stop(vec![self.editor, self.reader])
    }
}

fn setup(seed: u64, work: &Path) -> Result<(Inputs, Live), String> {
    let inputs = inputs(seed)?;
    let daemon = Daemon::start(work)?;
    let editor = daemon.open(&inputs.srcs[0])?;
    let reader = daemon.open(&inputs.srcs[0])?;
    let mut live = Live {
        daemon,
        editor,
        reader,
        state: 0,
    };
    // One round trip of each edit direction, then one reader cycle.
    let quiet = RwLock::new(());
    let mut rec = Recorder::new(false);
    let window = |max_cycles| Window {
        until: Instant::now(),
        max_cycles,
        quiet: &quiet,
    };
    let warm = editor_loop(
        &mut live.editor,
        &inputs,
        &mut live.state,
        &window(2),
        &mut rec,
    );
    let read = reader_loop(&mut live.reader, &inputs.refs[0], &window(1), &mut rec);
    match warm.failures.iter().chain(&read.failures).next() {
        None => Ok((inputs, live)),
        Some(e) => Err(format!("warm-up failed: {e}")),
    }
}

/// The limits of one measurement window, and the lock that lets the
/// editor calibrate while the daemon is idle: every reader request holds
/// it shared, every calibration exclusively. (The editor calibrates
/// between its own requests, so only the reader's can be in flight.)
struct Window<'a> {
    until: Instant,
    max_cycles: usize,
    quiet: &'a RwLock<()>,
}

/// A time measured by a client loop.
#[derive(Debug, Clone, Copy)]
struct Timed {
    /// The request's span name, or the cycle's.
    kind: &'static str,
    at: Instant,
    ms: f64,
}

/// What one client loop did.
#[derive(Default)]
struct LoopResult {
    /// Round-trip time of every request that got a well-formed reply.
    rtt: Vec<Timed>,
    /// Every cycle whose requests all succeeded: first request sent →
    /// last reply read and checked. An editor cycle is one ECO edit.
    cycles: Vec<Timed>,
    /// Editor only: calibrations at every cycle start and after the last.
    cals: Vec<(Instant, f64)>,
    /// Cycles begun, and cycles with a failed request or check.
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Run-type replies' summaries.
    summaries: Vec<RunSummary>,
    /// One per cycle when traced, with the cycle's start.
    samples: Vec<(Instant, LayerSample)>,
}

/// How fast the host ran over a window, from the editor's calibrations.
struct HostSpeed {
    cals: Vec<(Instant, f64)>,
}

impl HostSpeed {
    /// The factor from measured to reference time at `at`: from the mean
    /// of the two calibrations around it (the nearest one at the ends).
    fn factor_at(&self, at: Instant) -> f64 {
        let i = self.cals.partition_point(|&(t, _)| t <= at);
        let ms = match (i.checked_sub(1).map(|j| self.cals[j]), self.cals.get(i)) {
            (Some((_, a)), Some(&(_, b))) => (a + b) / 2.0,
            (Some((_, a)), None) => a,
            (None, Some(&(_, b))) => b,
            (None, None) => return 1.0,
        };
        to_reference(ms)
    }

    /// `times` in reference ms.
    fn reference(&self, times: &[Timed]) -> Vec<f64> {
        times.iter().map(|t| t.ms * self.factor_at(t.at)).collect()
    }

    /// The span `from..to` in reference seconds.
    fn reference_s(&self, from: Instant, to: Instant) -> f64 {
        let mut edges: Vec<Instant> = self
            .cals
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| t > from && t < to)
            .collect();
        edges.insert(0, from);
        edges.push(to);
        edges
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * self.factor_at(w[0]))
            .sum()
    }

    /// Every calibration's factor.
    fn factors(&self) -> Vec<f64> {
        self.cals.iter().map(|&(_, ms)| to_reference(ms)).collect()
    }
}

/// One request, timed from frame written to reply read.
fn request(
    res: &mut LoopResult,
    rec: &mut Recorder,
    span: &'static str,
    f: impl FnOnce() -> io::Result<Response>,
) -> Option<Response> {
    let at = Instant::now();
    let idx = rec.begin(span);
    let reply = f();
    rec.end(idx);
    let ms = at.elapsed().as_secs_f64() * 1e3;
    match reply {
        Ok(Response::Error { kind, message, .. }) => {
            res.failures
                .push(format!("{span}: error reply {}: {message}", kind.token()));
            None
        }
        Ok(reply) => {
            res.rtt.push(Timed { kind: span, at, ms });
            Some(reply)
        }
        Err(e) => {
            res.failures.push(format!("{span}: {e}"));
            None
        }
    }
}

/// Checks a report reply against its reference. On a match returns the
/// reply's frame size in bytes, re-encoded only when `measure` is set.
fn check_report(
    res: &mut LoopResult,
    reply: Response,
    reference: &str,
    measure: bool,
) -> Option<usize> {
    let Response::Report { report, .. } = &reply else {
        res.failures
            .push(format!("report: unexpected reply {reply:?}"));
        return None;
    };
    if report.to_string_pretty() != reference {
        res.failures
            .push("report: reply differs from the direct run's stripped report".to_owned());
        return None;
    }
    Some(if measure {
        Frame::Response(reply).to_json().to_string().len() + 1
    } else {
        0
    })
}

/// The summary of a run-type reply.
fn summary(res: &mut LoopResult, reply: Option<Response>) -> Option<RunSummary> {
    match reply? {
        Response::Applied { summary, .. } | Response::Ran { summary, .. } => {
            res.summaries.push(summary);
            Some(summary)
        }
        other => {
            res.failures.push(format!("unexpected reply {other:?}"));
            None
        }
    }
}

/// Whether the last failure lost the connection (rather than being an
/// error reply on a live one).
fn connection_lost(res: &LoopResult) -> bool {
    res.failures
        .last()
        .is_some_and(|f| !f.contains("error reply"))
}

/// Closes a traced cycle: its request spans become layer metrics.
fn end_cycle(
    res: &mut LoopResult,
    rec: &mut Recorder,
    root: Option<usize>,
    at: Instant,
    mut sample: LayerSample,
) {
    rec.end(root);
    if let Some(root) = root {
        span_metrics(rec.spans(), root..rec.spans().len(), &mut sample);
        res.samples.push((at, sample));
    }
}

/// Calibrates while no reader request is in flight.
fn quiet_calibration(res: &mut LoopResult, quiet: &RwLock<()>) {
    let _quiet = quiet.write().unwrap_or_else(PoisonError::into_inner);
    res.cals.push((Instant::now(), calibrate(DAEMON_JOBS)));
}

/// The editor: apply-delta → run → report, toggling the design, until
/// the window ends.
fn editor_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    state: &mut usize,
    window: &Window,
    rec: &mut Recorder,
) -> LoopResult {
    let mut res = LoopResult::default();
    let traced = rec.enabled();
    for cycle in 0..window.max_cycles {
        if cycle > 0 && Instant::now() >= window.until {
            break;
        }
        quiet_calibration(&mut res, window.quiet);
        res.attempted += 1;
        let failures_before = res.failures.len();
        let next = 1 - *state;
        let mut sample = LayerSample::new(next as u32);
        let delta = DeltaSpec::Source(inputs.srcs[next].clone());
        let (client, session) = (&mut conn.client, conn.session.as_str());
        let root = rec.begin("serve.editor_cycle");
        let at = Instant::now();
        let applied = request(&mut res, rec, "serve.apply", || {
            client.apply(session, delta)
        });
        let applied = summary(&mut res, applied);
        if applied.is_some() {
            *state = next;
            let ran = request(&mut res, rec, "serve.run", || client.run(session));
            summary(&mut res, ran);
            let reply = request(&mut res, rec, "serve.report", || {
                client.report(session, false)
            });
            let ms = at.elapsed().as_secs_f64() * 1e3;
            let bytes = reply.and_then(|r| check_report(&mut res, r, &inputs.refs[next], traced));
            if res.failures.len() == failures_before {
                res.cycles.push(Timed {
                    kind: "serve.editor_cycle",
                    at,
                    ms,
                });
            }
            if let Some(bytes) = bytes.filter(|_| traced) {
                sample.set("serve.reply_bytes", bytes as f64);
            }
        }
        if let Some(applied) = applied {
            sample.set("serve.engine_ms", applied.wall_ns as f64 / 1e6);
            if let Some(cache) = applied.cache {
                let lookups = (cache.hits + cache.misses) as f64;
                sample.set("verifier.cache_hits", cache.hits as f64);
                sample.set("verifier.cache_misses", cache.misses as f64);
                sample.set("verifier.cache_entries", cache.entries as f64);
                sample.set(
                    "verifier.cache_hit_rate",
                    cache.hits as f64 / lookups.max(1.0),
                );
            }
        }
        end_cycle(&mut res, rec, root, at, sample);
        if res.failures.len() > failures_before {
            res.failed += 1;
            if connection_lost(&res) {
                break;
            }
        }
    }
    quiet_calibration(&mut res, window.quiet);
    res
}

/// The reader: run → report on the unedited design, until the window
/// ends.
fn reader_loop(
    conn: &mut Conn,
    reference: &str,
    window: &Window,
    rec: &mut Recorder,
) -> LoopResult {
    let mut res = LoopResult::default();
    let traced = rec.enabled();
    let quiet = || window.quiet.read().unwrap_or_else(PoisonError::into_inner);
    for cycle in 0..window.max_cycles {
        if cycle > 0 && Instant::now() >= window.until {
            break;
        }
        res.attempted += 1;
        let failures_before = res.failures.len();
        let mut sample = LayerSample::new(2);
        let (client, session) = (&mut conn.client, conn.session.as_str());
        let root = rec.begin("serve.reader_cycle");
        let at = Instant::now();
        let ran = request(&mut res, rec, "serve.run", || {
            let _quiet = quiet();
            client.run(session)
        });
        summary(&mut res, ran);
        let reply = request(&mut res, rec, "serve.report", || {
            let _quiet = quiet();
            client.report(session, false)
        });
        let ms = at.elapsed().as_secs_f64() * 1e3;
        let bytes = reply.and_then(|r| check_report(&mut res, r, reference, traced));
        if res.failures.len() == failures_before {
            res.cycles.push(Timed {
                kind: "serve.reader_cycle",
                at,
                ms,
            });
        }
        if let Some(bytes) = bytes.filter(|_| traced) {
            sample.set("serve.reply_bytes", bytes as f64);
        }
        end_cycle(&mut res, rec, root, at, sample);
        if res.failures.len() > failures_before {
            res.failed += 1;
            if connection_lost(&res) {
                break;
            }
        }
    }
    res
}

/// One measurement window: both connections for `seconds`, concurrently.
struct Measured {
    editor: LoopResult,
    reader: LoopResult,
    speed: HostSpeed,
    /// The window in reference seconds.
    reference_s: f64,
    spans: Vec<Span>,
}

impl Measured {
    /// Every completed cycle of both connections, in reference ms.
    fn cycles(&self) -> Vec<f64> {
        let mut v = self.speed.reference(&self.editor.cycles);
        v.extend(self.speed.reference(&self.reader.cycles));
        v
    }

    fn attempted(&self) -> u64 {
        self.editor.attempted + self.reader.attempted
    }

    fn failed(&self) -> u64 {
        self.editor.failed + self.reader.failed
    }

    fn failures(&self) -> impl Iterator<Item = &String> {
        self.editor.failures.iter().chain(&self.reader.failures)
    }
}

fn measure(live: &mut Live, inputs: &Inputs, seconds: Duration, traced: bool) -> Measured {
    let epoch = Instant::now();
    let quiet = RwLock::new(());
    let window = Window {
        until: epoch + seconds,
        max_cycles: usize::MAX,
        quiet: &quiet,
    };
    let Live {
        editor,
        reader,
        state,
        ..
    } = live;
    let mut erec = Recorder::new_at(traced, epoch);
    let mut rrec = Recorder::new_at(traced, epoch);
    let (mut ed, mut rd) = thread::scope(|s| {
        let e = s.spawn(|| editor_loop(editor, inputs, state, &window, &mut erec));
        let r = s.spawn(|| reader_loop(reader, &inputs.refs[0], &window, &mut rrec));
        (
            e.join().expect("editor thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    let end = Instant::now();
    let speed = HostSpeed {
        cals: std::mem::take(&mut ed.cals),
    };
    for (at, sample) in ed.samples.iter_mut().chain(&mut rd.samples) {
        sample.scale_times(speed.factor_at(*at));
    }
    let mut all = Recorder::new(true);
    all.absorb(erec.into_spans(), 0);
    all.absorb(rrec.into_spans(), 1);
    Measured {
        reference_s: speed.reference_s(epoch, end),
        editor: ed,
        reader: rd,
        speed,
        spans: all.into_spans(),
    }
}

/// The traced run's in-process replay of the editor's edits: the same
/// source versions through `scald_hdl` and a `scald_incr::Session`, and
/// the same frames through `scald_serve::proto`, to attribute the round
/// trip to layers.
fn replay(inputs: &Inputs, rec: &mut Recorder, first_op: u64) -> Result<Vec<LayerSample>, String> {
    let mut session = SessionBuilder::new()
        .jobs(1)
        .open(DesignInput::source(inputs.srcs[0].clone()), LABEL)
        .map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    let mut state = 0;
    for cycle in 0..REPLAY_CYCLES {
        let next = 1 - state;
        let src = &inputs.srcs[next];
        let mut sample = LayerSample::new(next as u32);
        rec.set_op(first_op + cycle as u64);
        let cal_before = calibrate(1);
        let first_span = rec.spans().len();
        let root = rec.begin("op");
        let design = rec
            .time("hdl.parse", || scald_hdl::parse(src))
            .map_err(|e| e.to_string())?;
        let exp = rec
            .time("hdl.expand", || scald_hdl::expand(&design))
            .map_err(|e| e.to_string())?;
        sample.set("hdl.prims_emitted", exp.stats.prims_emitted as f64);
        drop((design, exp));
        let request = Request::ApplyDelta {
            id: 1,
            session: "s1".to_owned(),
            delta: DeltaSpec::Source(src.clone()),
        };
        let frame = rec.time("serve.proto_encode", || request.to_json().to_string());
        drop(frame);
        let applied = rec
            .time("incr.apply", || session.apply(Delta::Source(src.clone())))
            .map_err(|e| e.to_string())?;
        sample.set("incr.cone_prims", applied.stats.cone_prims as f64);
        sample.set("incr.events", applied.stats.events as f64);
        rec.time("incr.reverify", || session.reverify())
            .map_err(|e| e.to_string())?;
        let stripped = session.report().strip_effort();
        let doc = rec.time("verifier.report_json", || stripped.json_value());
        let reply = Frame::Response(Response::Report {
            id: 3,
            report: doc,
            effort: false,
        });
        let line = rec.time("trace.render", || reply.to_json().to_string());
        sample.set("trace.report_bytes", (line.len() + 1) as f64);
        let parsed = rec.time("serve.proto_parse", || {
            json::parse(&line)
                .map_err(|e| e.to_string())
                .and_then(|j| Frame::parse(&j).map_err(|e| e.to_string()))
        })?;
        rec.end(root);
        match parsed {
            Frame::Response(Response::Report { report, .. })
                if report.to_string_pretty() == inputs.refs[next] => {}
            _ => {
                return Err(format!(
                    "replay cycle {cycle}: report differs from the reference"
                ))
            }
        }
        span_metrics(rec.spans(), first_span..rec.spans().len(), &mut sample);
        sample.scale_times(to_reference((cal_before + calibrate(1)) / 2.0));
        samples.push(sample);
        state = next;
    }
    Ok(samples)
}

/// Runs `serve_eco` for `args.seconds` and returns what to print. An op
/// is one client cycle: the editor's apply-delta → run → report, or the
/// reader's run → report.
///
/// # Errors
///
/// Set-up failed, or the daemon could not be stopped cleanly.
pub fn run(args: &Args, work: &Path) -> Result<(Outcome, Vec<Span>), String> {
    let ((inputs, mut live), setup_times) =
        repeat_setup(|| setup(args.seed, work), |(_, live)| live.stop())?;
    let mut out = Outcome::default();
    out.lines.push(format!(
        "workload serve_eco seed {} nproc {} daemon jobs {DAEMON_JOBS}: \
         closed loop, 2 connections (editor, reader)",
        args.seed,
        nproc()
    ));
    out.lines
        .push(format!("ECO edit target: {}", inputs.target));

    // Traced runs split the time: an untraced window for the overhead
    // baseline, a traced window, then the in-process replay.
    let window = if args.trace {
        args.seconds.mul_f64(0.4)
    } else {
        args.seconds
    };
    let client_before = allocated_bytes();
    let before = live.daemon.mark()?;
    let plain = measure(&mut live, &inputs, window, false);
    let after = live.daemon.mark()?;
    let client_alloc = allocated_bytes() - client_before;
    let hwm_kib = vm_hwm_kib(Some(live.daemon.child.id())).map_err(|e| e.to_string())?;

    let mut failures: Vec<String> = plain.failures().cloned().collect();
    let (mut attempted, mut failed) = (plain.attempted(), plain.failed());
    let plain_ops = plain.cycles();
    let factors = plain.speed.factors();
    out.lines.push(format!(
        "host speed factor (reference ms per measured ms): median {:.3}, range {:.3}..{:.3}",
        median(&factors),
        factors.iter().copied().fold(f64::INFINITY, f64::min),
        factors.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    ));
    let mut spans = Vec::new();
    if args.trace {
        let traced = measure(&mut live, &inputs, window, true);
        let store_end = live.daemon.mark()?.store;
        failures.extend(traced.failures().cloned());
        attempted += traced.attempted();
        failed += traced.failed();
        let traced_ops = traced.cycles();
        let serve_errors = traced.failures().count() as f64;
        let (hits, misses) = traced
            .editor
            .summaries
            .iter()
            .chain(&traced.reader.summaries)
            .filter_map(|s| s.cache)
            .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
        let serve_hit_rate = hits as f64 / ((hits + misses) as f64).max(1.0);
        let mut samples: Vec<LayerSample> = traced
            .editor
            .samples
            .into_iter()
            .chain(traced.reader.samples)
            .map(|(_, sample)| sample)
            .collect();

        let mut rec = Recorder::new(true);
        rec.absorb(traced.spans, 0);
        attempted += REPLAY_CYCLES as u64;
        match replay(&inputs, &mut rec, 1) {
            Ok(replayed) => samples.extend(replayed),
            Err(e) => {
                failed += 1;
                failures.push(format!("replay: {e}"));
            }
        }
        spans = rec.into_spans();

        let overhead = median(&traced_ops) - median(&plain_ops);
        out.lines.push(format!(
            "traced cycles {} (median {:.3} ms), untraced cycles {} (median {:.3} ms), \
             replay cycles {REPLAY_CYCLES}",
            traced_ops.len(),
            median(&traced_ops),
            plain_ops.len(),
            median(&plain_ops)
        ));
        let store_note = format!(
            "daemon store {} -> {} -> {store_end} entries over the run: {}",
            before.store,
            after.store,
            if before.store == store_end {
                "stable"
            } else {
                "UNSTABLE: the store is append-only for the daemon's life"
            }
        );
        per_layer(
            &mut out,
            &samples,
            &[
                ("serve.cache_hit_rate", serve_hit_rate),
                ("serve.errors", serve_errors),
                ("wave.store_entries", store_end as f64),
                ("trace.overhead_ms", overhead),
                ("host.nproc", nproc() as f64),
                ("host.jobs", DAEMON_JOBS as f64),
            ],
            &[
                ("verifier.cache_hits", RACING_CACHE_NOTE),
                ("verifier.cache_misses", RACING_CACHE_NOTE),
                ("verifier.cache_hit_rate", RACING_CACHE_NOTE),
                ("serve.cache_hit_rate", "window total over both connections"),
                ("serve.errors", "window total"),
                ("wave.store_entries", &store_note),
            ],
        );
    } else {
        let t = tail(&plain_ops);
        let raw: Vec<f64> = plain
            .editor
            .cycles
            .iter()
            .chain(&plain.reader.cycles)
            .map(|t| t.ms)
            .collect();
        for kind in ["serve.apply", "serve.run", "serve.report"] {
            let of_kind = |r: &LoopResult| -> Vec<f64> {
                let timed: Vec<Timed> = r.rtt.iter().filter(|t| t.kind == kind).copied().collect();
                plain.speed.reference(&timed)
            };
            let (e, r) = (of_kind(&plain.editor), of_kind(&plain.reader));
            out.lines.push(format!(
                "{kind}: editor {} requests, median {:.3} ms; reader {} requests, median {:.3} ms",
                e.len(),
                median(&e),
                r.len(),
                median(&r)
            ));
        }
        out.push(
            "op_p50_ms",
            median(&plain_ops),
            format!("median of {} cycles; raw {:.3}", t.samples, median(&raw)),
        );
        out.push(
            "op_tail_ms",
            t.value,
            format!(
                "p{:.1} of {} cycles, {} beyond; raw {:.3}",
                t.percentile,
                t.samples,
                t.beyond,
                tail(&raw).value
            ),
        );
        let ops = plain_ops.len() as f64;
        out.push(
            "ops_per_s",
            ops / plain.reference_s,
            format!("{ops} cycles over 2 connections"),
        );
        let eco = plain.speed.reference(&plain.editor.cycles);
        let eco_raw: Vec<f64> = plain.editor.cycles.iter().map(|t| t.ms).collect();
        out.push(
            "eco_p50_ms",
            median(&eco),
            format!(
                "apply-delta -> report reply, {} edits; raw {:.3}",
                eco.len(),
                median(&eco_raw)
            ),
        );
        out.push(
            "peak_rss_mb",
            mib(after.peak_live),
            format!(
                "daemon's peak heap in use over the window; its VmHWM reads {:.1}",
                hwm_kib as f64 / 1024.0
            ),
        );
        let daemon_alloc = after.allocated - before.allocated;
        out.push(
            "alloc_mb_per_op",
            mib(daemon_alloc + client_alloc) / ops.max(1.0),
            format!(
                "daemon {:.1} MiB + clients {:.1} MiB over the window",
                mib(daemon_alloc),
                mib(client_alloc)
            ),
        );
        setup_times.push(&mut out);
    }
    out.attempted = attempted;
    out.failed = failed;
    out.lines
        .extend(failures.iter().map(|f| format!("failed op: {f}")));
    live.stop()?;
    Ok((out, spans))
}
