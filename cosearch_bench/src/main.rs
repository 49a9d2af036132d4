//! Co-search benchmark: times the paper's Alg. 1 loop end to end on one
//! workload and, under `--trace 1`, breaks it down by layer from the
//! spans and counters the program emits.
//!
//! ```sh
//! cargo run --release --offline --manifest-path cosearch_bench/Cargo.toml -- \
//!     --workload tiny-train --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Human-readable report lines come first; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. The exit code is 0 only when every check passed.

mod host;
mod stats;
mod workload;

use host::Timing;
use stats::{breakdown, median, quantile_with_tail, steal_share};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;
use workload::{Kind, RunStats, ScrapeStats, Workload, SCRAPE_EVERY};

/// Warm set-ups timed after the cold one, spread over the run; `setup_s`
/// is the median of their CPU times.
const SETUP_REPEATS: usize = 9;
/// `resume_s` is the mean, over processes, of each process's median
/// resume CPU time. A solo resume (0.04-0.1 s) runs in `RESUME_PROBES`
/// fresh processes, each timing `PROBE_RESUMES` resumes after one warm-up.
/// Its user time drifts with the host by up to a third over a few
/// seconds, and on the same checkpoint from process to process, so
/// `PROBES_PER_RUN` probes run before each timed search that has a
/// finished run to resume, and the rest after the timed loop. A fleet
/// resume (1.2 s, four chain replays) runs `FLEET_RESUMES` times in the
/// workload's own process.
const RESUME_PROBES: usize = 12;
const PROBE_RESUMES: usize = 3;
const PROBES_PER_RUN: usize = 2;
const FLEET_RESUMES: usize = 5;
/// Latency samples an untraced run collects at least, so that p90 has
/// ten samples beyond it.
const MIN_ITER_SAMPLES: usize = 110;
/// Phase spans of one co-search iteration, in loop order.
const PHASES: [&str; 6] = [
    "das_sweep",
    "rollout",
    "loss_backward",
    "optimizer_step",
    "eval",
    "checkpoint_io",
];

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a resume probe: the target from `Workload::resume_target`.
    resume_probe: Option<String>,
    /// Set in a resume source process: the directory to checkpoint into.
    resume_source: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut resume_probe, mut resume_source) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--resume-probe" => resume_probe = Some(value),
            "--resume-source" => resume_source = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?}; one of tiny-train, short-distill-ckpt, fleet-delta-obs"
        )
    })?;
    let seconds = seconds.unwrap_or(20.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        kind,
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        resume_probe,
        resume_source,
    })
}

/// Operations attempted and the problems of those that failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    problems: Vec<String>,
}

impl Checks {
    fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|e| self.problems.push(format!("{what}: {e}")))
            .ok()
    }
}

/// Runs of one timed loop, untraced or traced.
#[derive(Default)]
struct Loop {
    runs: Vec<RunStats>,
}

impl Loop {
    fn steps(&self) -> u64 {
        self.runs.iter().map(|r| r.steps).sum()
    }
    fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.time.wall_s).sum()
    }
    fn cpu_s(&self) -> f64 {
        self.runs.iter().map(|r| r.time.cpu_s).sum()
    }
    fn driver_cpu_s(&self) -> f64 {
        self.runs.iter().map(|r| r.time.driver_cpu_s).sum()
    }
    /// Env steps per second of wall time.
    fn steps_per_s(&self) -> f64 {
        self.steps() as f64 / self.wall_s().max(f64::MIN_POSITIVE)
    }
    /// Env steps per second of process CPU time.
    fn steps_per_cpu_s(&self) -> f64 {
        self.steps() as f64 / self.cpu_s().max(f64::MIN_POSITIVE)
    }
    /// Env steps per second of the driver thread's CPU time: the wall
    /// throughput the run would reach if the driver never waited.
    fn steps_per_driver_cpu_s(&self) -> f64 {
        self.steps() as f64 / self.driver_cpu_s().max(f64::MIN_POSITIVE)
    }
    fn iterations(&self) -> u64 {
        self.runs.iter().map(|r| r.iterations).sum()
    }
    fn iter_ms(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.iter_ms.iter().copied())
            .collect()
    }
    fn iter_cpu_ms(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.iter_cpu_ms.iter().copied())
            .collect()
    }
}

/// One set-up, timed and checked.
fn set_up(wl: &mut dyn Workload, checks: &mut Checks, into: &mut Vec<Timing>) {
    if let Some(t) = checks.record("setup", wl.setup()) {
        into.push(t);
    }
}

/// Repeat complete runs until `seconds` have passed and at least
/// `min_samples` latencies are in; check every fingerprint against the
/// first one seen in the process. `between` runs before each run, so
/// that repeated set-ups and resumes sample the host across the run
/// instead of in one burst.
fn timed_loop(
    wl: &mut dyn Workload,
    seconds: f64,
    min_samples: usize,
    reference: &mut Option<u64>,
    checks: &mut Checks,
    between: &mut dyn FnMut(&mut dyn Workload, &mut Checks),
) -> Loop {
    let mut out = Loop::default();
    let t0 = Instant::now();
    let mut failures = 0;
    while out.runs.is_empty()
        || t0.elapsed().as_secs_f64() < seconds
        || out.iter_ms().len() < min_samples
    {
        between(wl, checks);
        let Some(stats) = checks.record("run", wl.run()) else {
            failures += 1;
            if failures >= 3 {
                break;
            }
            continue;
        };
        let expected = *reference.get_or_insert(stats.fingerprint);
        checks.record(
            "fingerprint",
            if stats.fingerprint == expected {
                Ok(())
            } else {
                Err(format!(
                    "result {:016x} differs from {expected:016x}",
                    stats.fingerprint
                ))
            },
        );
        out.runs.push(stats);
    }
    out
}

struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cosearch_bench: {e}");
            std::process::exit(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let code = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only once no other run still works under the parent.
    let _ = std::fs::remove_dir(".bench_work");
    std::process::exit(code);
}

fn run(args: &Args, work: &std::path::Path) -> i32 {
    let mut wl = match args.kind.build(args.seed, work) {
        Ok(wl) => wl,
        Err(e) => {
            eprintln!("cosearch_bench: {e}");
            return 1;
        }
    };
    if let Some(target) = &args.resume_probe {
        return resume_probe(wl.as_mut(), target);
    }
    if let Some(dir) = &args.resume_source {
        return make_resume_source(wl.as_mut(), dir);
    }
    let cpu_before = host::cpu_times();
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {} rev {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        host::git_rev()
    );

    let mut checks = Checks::default();
    let mut cold = Vec::new();
    set_up(wl.as_mut(), &mut checks, &mut cold);
    let cold = cold.first().copied().unwrap_or_default();
    let mut warm: Vec<Timing> = Vec::new();
    let mut resumes: Vec<Timing> = Vec::new();

    // A workload whose timed runs write no checkpoints resumes from a
    // checkpointed search made in a child process, so that its checkpoint
    // writes stay out of this process's peak RSS, and made up front, so
    // that resume probes can run between the timed searches.
    let mut ckpt_bytes_per_iter = 0.0;
    if !args.trace && !wl.checkpoints_runs() {
        let dir = work.join("resume-source");
        ckpt_bytes_per_iter = spawn_resume_source(args, wl.as_mut(), &dir, &mut checks);
    }

    let mut reference = None;
    let scraping = checks.record("scraper", wl.start_scraping()).is_some();
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let min_samples = if args.trace { 0 } else { MIN_ITER_SAMPLES };
    let untraced = timed_loop(
        wl.as_mut(),
        untraced_seconds,
        min_samples,
        &mut reference,
        &mut checks,
        &mut |wl: &mut dyn Workload, checks: &mut Checks| {
            if warm.len() < SETUP_REPEATS {
                set_up(wl, checks, &mut warm);
            }
            if !args.trace {
                probe_resumes(args, wl, checks, &mut resumes, PROBES_PER_RUN);
            }
        },
    );
    // Peak RSS of set-up plus the timed searches. Solo resumes and
    // tiny-train's checkpointed search run in child processes, and fleet
    // resumes come later, so all of them stay out.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(0.0);
    let traced = args.trace.then(|| {
        let session = telemetry::Session::start();
        let t = Instant::now();
        let traced = timed_loop(
            wl.as_mut(),
            args.seconds / 2.0,
            0,
            &mut reference,
            &mut checks,
            &mut |_, _| {},
        );
        (traced, session.finish(), t.elapsed().as_secs_f64())
    });
    let scrapes = if scraping {
        wl.stop_scraping()
    } else {
        ScrapeStats::default()
    };
    checks.attempted += scrapes.attempted;
    checks
        .problems
        .extend(scrapes.problems.iter().map(|p| format!("scrape: {p}")));

    if !args.trace {
        if let Some(last) = untraced.runs.last().filter(|_| wl.checkpoints_runs()) {
            ckpt_bytes_per_iter = last.ckpt_bytes as f64 / last.iterations.max(1) as f64;
        }
        if wl.resume_target().is_some() {
            probe_resumes(args, wl.as_mut(), &mut checks, &mut resumes, RESUME_PROBES);
        } else {
            let samples: Vec<Timing> = (0..FLEET_RESUMES)
                .filter_map(|_| checks.record("resume", wl.resume()))
                .collect();
            if !samples.is_empty() {
                resumes.push(median_timing(&samples));
            }
        }
    }
    for _ in warm.len()..SETUP_REPEATS {
        set_up(wl.as_mut(), &mut checks, &mut warm);
    }
    let steal = steal_share(cpu_before, host::cpu_times());

    let setup = median_timing(&warm);
    let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let resume_cpu_s = mean(resumes.iter().map(|t| t.cpu_s).collect());
    let resume_wall_s = mean(resumes.iter().map(|t| t.wall_s).collect());
    println!(
        "untraced: {} runs, {} env steps in {:.3} s wall / {:.3} s cpu / {:.3} s driver cpu -> {:.2} env steps/s, {:.2} per cpu s, {:.2} per driver cpu s",
        untraced.runs.len(),
        untraced.steps(),
        untraced.wall_s(),
        untraced.cpu_s(),
        untraced.driver_cpu_s(),
        untraced.steps_per_s(),
        untraced.steps_per_cpu_s(),
        untraced.steps_per_driver_cpu_s()
    );
    println!(
        "set-up: cold {:.3} ms cpu; warm median {:.3} ms cpu, {:.3} ms wall of {}",
        cold.cpu_s * 1e3,
        setup.cpu_s * 1e3,
        setup.wall_s * 1e3,
        warm.len()
    );
    println!(
        "resume: {:.3} ms cpu, {:.3} ms wall, mean of {} per-process medians; ckpt {ckpt_bytes_per_iter:.0} B/iter; host steal {:.2}%",
        resume_cpu_s * 1e3,
        resume_wall_s * 1e3,
        resumes.len(),
        steal * 100.0
    );

    let mut metrics = Metrics {
        entries: Vec::new(),
    };
    if let Some((traced, trace, traced_wall)) = &traced {
        layer_metrics(
            &mut metrics,
            &mut checks,
            &untraced,
            traced,
            trace,
            *traced_wall,
            &scrapes,
        );
        metrics.put("setup.cold_ms", cold.cpu_s * 1e3, "ms");
        metrics.put("host.steal_share", steal, "ratio");
    } else {
        let latency = |samples: &[f64], what: &str| {
            let p50 = quantile_with_tail(samples, 0.5, 10).unwrap_or(0.0);
            let p90 = quantile_with_tail(samples, 0.9, 10);
            println!(
                "{what}: p50 {p50:.3} ms, p90 {:.3} ms over {} samples",
                p90.unwrap_or(0.0),
                samples.len()
            );
            (p50, p90)
        };
        latency(&untraced.iter_ms(), "iteration wall latency");
        let (p50, p90) = latency(&untraced.iter_cpu_ms(), "iteration cpu time");
        if p90.is_none() {
            checks
                .problems
                .push("too few iterations: p90 lacks ten samples beyond it".to_string());
        }
        metrics.put("env_steps_per_cpu_s", untraced.steps_per_cpu_s(), "1/s");
        metrics.put(
            "env_steps_per_driver_cpu_s",
            untraced.steps_per_driver_cpu_s(),
            "1/s",
        );
        metrics.put("iter_cpu_ms_p50", p50, "ms");
        metrics.put("iter_cpu_ms_p90", p90.unwrap_or(0.0), "ms");
        metrics.put("setup_s", setup.cpu_s, "s");
        metrics.put("resume_s", resume_cpu_s, "s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MiB");
        metrics.put("ckpt_bytes_per_iter", ckpt_bytes_per_iter, "B");
    }

    for p in &checks.problems {
        println!("FAILED {p}");
    }
    let failed = checks.problems.len() as u64;
    let attempted = checks.attempted.max(failed).max(1);
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json()
    );
    i32::from(failed != 0)
}

/// Median CPU and wall time of `samples`, each taken separately.
fn median_timing(samples: &[Timing]) -> Timing {
    let of = |f: fn(&Timing) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    Timing {
        wall_s: of(|t| t.wall_s).unwrap_or(0.0),
        cpu_s: of(|t| t.cpu_s).unwrap_or(0.0),
        driver_cpu_s: of(|t| t.driver_cpu_s).unwrap_or(0.0),
    }
}

/// Body of a resume probe process: one warm-up resume of `target`, then
/// `PROBE_RESUMES` timed ones. Prints `probe <cpu_s> <wall_s>` per timed
/// resume and `probe-failed <problem>` per failed one.
fn resume_probe(wl: &mut dyn Workload, target: &str) -> i32 {
    if let Err(e) = wl.adopt_resume_target(target) {
        println!("probe-failed {e}");
        return 1;
    }
    let mut failed = false;
    for n in 0..=PROBE_RESUMES {
        match wl.resume() {
            Ok(t) if n > 0 => println!("probe {} {}", t.cpu_s, t.wall_s),
            Ok(_) => {}
            Err(e) => {
                println!("probe-failed {e}");
                failed = true;
            }
        }
    }
    i32::from(failed)
}

/// Up to `count` more resume probes of the last finished run, while
/// `into` holds fewer than `RESUME_PROBES`; none when the workload has
/// nothing to resume in a fresh process.
fn probe_resumes(
    args: &Args,
    wl: &mut dyn Workload,
    checks: &mut Checks,
    into: &mut Vec<Timing>,
    count: usize,
) {
    let Some(target) = wl.resume_target() else {
        return;
    };
    for _ in 0..count.min(RESUME_PROBES.saturating_sub(into.len())) {
        into.extend(spawn_resume_probe(args, &target, checks));
    }
}

/// Body of a resume source process: one checkpointed search into `dir`.
/// Prints `source <checkpoint bytes> <iterations> <resume target>`, or
/// `source-failed <problem>`.
fn make_resume_source(wl: &mut dyn Workload, dir: &str) -> i32 {
    let made = wl.make_resume_source(Path::new(dir)).and_then(|src| {
        let target = wl
            .resume_target()
            .ok_or("the search left nothing to resume")?;
        Ok((src, target))
    });
    match made {
        Ok((src, target)) => {
            println!("source {} {} {target}", src.ckpt_bytes, src.iterations);
            0
        }
        Err(e) => {
            println!("source-failed {e}");
            1
        }
    }
}

/// Run this benchmark again as a child process with `flag value`, and
/// wait for it.
fn child(args: &Args, flag: &str, value: &str) -> Result<Output, String> {
    std::env::current_exe()
        .and_then(|exe| {
            Command::new(exe)
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args([flag, value])
                .output()
        })
        .map_err(|e| format!("start {flag}: {e}"))
}

/// Make the resume source in a child process and adopt it; the
/// checkpoint bytes it wrote per iteration (0 if it failed).
fn spawn_resume_source(args: &Args, wl: &mut dyn Workload, dir: &Path, checks: &mut Checks) -> f64 {
    let made = child(args, "--resume-source", &dir.display().to_string()).and_then(|output| {
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let mut words = line.splitn(4, ' ');
        match (words.next(), words.next(), words.next(), words.next()) {
            (Some("source"), Some(bytes), Some(iterations), Some(target))
                if output.status.success() =>
            {
                let (Ok(bytes), Ok(iterations)) = (bytes.parse::<u64>(), iterations.parse::<u64>())
                else {
                    return Err(format!("malformed source line {line:?}"));
                };
                wl.adopt_resume_target(target)?;
                Ok(bytes as f64 / iterations.max(1) as f64)
            }
            _ => Err(format!("exited with {}: {line}", output.status)),
        }
    });
    checks.record("resume source", made).unwrap_or(0.0)
}

/// Run one resume probe process over `target` and wait for it; the
/// median of its timed resumes, if all of them succeeded.
fn spawn_resume_probe(args: &Args, target: &str, checks: &mut Checks) -> Option<Timing> {
    let output = checks.record("resume probe", child(args, "--resume-probe", target))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut samples = Vec::new();
    for line in stdout.lines() {
        let mut words = line.split(' ');
        match words.next() {
            Some("probe") => {
                let mut value = || words.next().and_then(|w| w.parse::<f64>().ok());
                let sample = match (value(), value()) {
                    (Some(cpu_s), Some(wall_s)) => Ok(Timing {
                        cpu_s,
                        wall_s,
                        driver_cpu_s: 0.0,
                    }),
                    _ => Err(format!("malformed probe line {line:?}")),
                };
                samples.extend(checks.record("resume", sample));
            }
            Some("probe-failed") => {
                checks.record::<()>("resume", Err(line["probe-failed ".len()..].to_string()));
            }
            _ => {}
        }
    }
    let complete = output.status.success() && samples.len() == PROBE_RESUMES;
    checks.record(
        "resume probe",
        if complete {
            Ok(median_timing(&samples))
        } else {
            Err(format!(
                "exited with {} after {} of {PROBE_RESUMES} timed resumes",
                output.status,
                samples.len()
            ))
        },
    )
}

/// Per-layer metrics of a traced loop, and the printed breakdown.
fn layer_metrics(
    metrics: &mut Metrics,
    checks: &mut Checks,
    untraced: &Loop,
    traced: &Loop,
    trace: &telemetry::Trace,
    traced_wall: f64,
    scrapes: &ScrapeStats,
) {
    let b = breakdown(trace.spans());
    let iters = b.iterations.max(1) as f64;
    let per_iter_ms = |ns: i64| ns as f64 / iters / 1e6;
    checks.record(
        "phase balance",
        if b.balances() && b.iterations == traced.iterations() {
            Ok(())
        } else {
            Err(format!(
                "{} iteration spans for {} iterations; phases + iteration self = {} ns, iteration total = {} ns",
                b.iterations,
                traced.iterations(),
                b.iteration_self_ns + b.phases.values().map(|p| p.0).sum::<i64>(),
                b.iteration_total_ns
            ))
        },
    );
    checks.record(
        "phase names",
        match b.phases.keys().find(|n| !PHASES.contains(n)) {
            Some(n) => Err(format!(
                "span {n:?} inside an iteration is not a known phase"
            )),
            None => Ok(()),
        },
    );

    println!(
        "traced: {} runs, {} iterations, {:.2} env steps/s, {:.2} per cpu s",
        traced.runs.len(),
        b.iterations,
        traced.steps_per_s(),
        traced.steps_per_cpu_s()
    );
    println!(
        "{:<16} {:>12} {:>8} {:>8}",
        "phase", "self ms/iter", "share", "calls"
    );
    let total = b.iteration_total_ns.max(1) as f64;
    let rows = PHASES
        .iter()
        .map(|&p| (p, b.phase_ns(p), b.phases.get(p).map_or(0, |x| x.1)))
        .chain([("iteration_self", b.iteration_self_ns, b.iterations)]);
    for (name, ns, calls) in rows {
        println!(
            "{name:<16} {:>12.3} {:>7.2}% {calls:>8}",
            per_iter_ms(ns),
            ns as f64 / total * 100.0
        );
        metrics.put(&format!("phase.{name}_ms"), per_iter_ms(ns), "ms");
    }
    metrics.put("phase.derive_ms", per_iter_ms(b.outside_ns("derive")), "ms");

    let m = &trace.metrics;
    let per_iter = |name: &str| m.counter(name) as f64 / iters;
    let counters = [
        ("tensor.gemm_macs", "gemm.macs"),
        ("tensor.gemm_calls", "gemm.calls"),
        ("tensor.conv_macs", "conv.macs"),
        ("envs.steps", "env.steps"),
        ("drl.eval_steps", "eval.steps"),
        ("core.ckpt_payload_bytes", "checkpoint.bytes"),
        ("core.ckpt_written_bytes", "checkpoint.bytes_written"),
        ("core.ckpt_delta_frames", "checkpoint.delta_frames"),
        ("threadpool.tasks", "pool.tasks"),
    ];
    println!("per-iteration counters:");
    for (name, counter) in counters {
        println!("  {name:<26} {:>16.1}", per_iter(counter));
        metrics.put(name, per_iter(counter), "count");
    }
    let (hits, misses) = (
        m.counter("memo.hits") as f64,
        m.counter("memo.misses") as f64,
    );
    metrics.put(
        "accel.memo_hit_rate",
        hits / (hits + misses).max(1.0),
        "ratio",
    );

    let busy: u64 = trace.pool.iter().map(|l| l.busy_ns).sum();
    let lanes = host::nproc() as f64;
    let busy_share = busy as f64 / (lanes * traced_wall * 1e9).max(1.0);
    println!(
        "pool lanes (busy share {:.3} of {lanes} cores):",
        busy_share
    );
    for lane in &trace.pool {
        println!(
            "  lane {:>2}: {:>8} tasks, {:>10.3} ms busy",
            lane.lane,
            lane.tasks,
            lane.busy_ns as f64 / 1e6
        );
    }
    metrics.put("threadpool.busy_share", busy_share, "ratio");

    // Fleet layers: what a tick costs beyond the session step it runs
    // (iteration and derive spans) and the observability publish.
    let publish: Vec<f64> = traced
        .runs
        .iter()
        .flat_map(|r| r.publish_ms.iter().copied())
        .collect();
    let ticks = traced.iter_ms();
    let tick_self_ms = if publish.is_empty() {
        0.0
    } else {
        let spans_ms = (b.iteration_total_ns + b.outside_ns("derive")) as f64 / 1e6;
        (ticks.iter().sum::<f64>() - spans_ms - publish.iter().sum::<f64>())
            / ticks.len().max(1) as f64
    };
    metrics.put("fleet.tick_self_ms", tick_self_ms, "ms");
    metrics.put("obs.publish_ms_p50", median(&publish).unwrap_or(0.0), "ms");
    let scrape_p50 = median(&scrapes.latencies_ms).unwrap_or(0.0);
    let scrape_p90 = quantile_with_tail(&scrapes.latencies_ms, 0.9, 10).unwrap_or(0.0);
    metrics.put("obs.scrape_ms_p50", scrape_p50, "ms");
    metrics.put("obs.scrape_ms_p90", scrape_p90, "ms");
    metrics.put("obs.scrape_serve_cpu_ms", scrapes.serve_cpu_ms, "ms");
    if !publish.is_empty() {
        println!(
            "fleet: tick self {tick_self_ms:.3} ms over {} ticks; publish p50 {:.3} ms; scrape p50 {scrape_p50:.3} ms p90 {scrape_p90:.3} ms over {}",
            ticks.len(),
            median(&publish).unwrap_or(0.0),
            scrapes.latencies_ms.len()
        );
        // Share of the untraced searches' CPU time that serving scrapes
        // at a given interval would take.
        let cores = untraced.cpu_s() / untraced.wall_s().max(f64::MIN_POSITIVE);
        let share =
            |every_s: f64| scrapes.serve_cpu_ms / 1e3 / every_s / cores.max(f64::MIN_POSITIVE);
        println!(
            "obs: {:.3} ms server cpu per scrape; {:.4}% of the fleet's cpu at one scrape per {} s, {:.4}% at 20 per s",
            scrapes.serve_cpu_ms,
            share(SCRAPE_EVERY.as_secs_f64()) * 100.0,
            SCRAPE_EVERY.as_secs(),
            share(0.05) * 100.0
        );
    }

    // Tracing overhead in CPU time, which host steal does not move.
    let overhead = untraced.steps_per_cpu_s() / traced.steps_per_cpu_s().max(f64::MIN_POSITIVE);
    println!(
        "trace.overhead {overhead:.4} (untraced {:.2} vs traced {:.2} env steps per cpu s)",
        untraced.steps_per_cpu_s(),
        traced.steps_per_cpu_s()
    );
    // What the user waits on, beside the CPU-time figures the end-to-end
    // metrics gate on: wall throughput and how many cores it kept busy.
    metrics.put("wall.env_steps_per_s", untraced.steps_per_s(), "1/s");
    metrics.put(
        "host.cores_busy",
        untraced.cpu_s() / untraced.wall_s().max(f64::MIN_POSITIVE),
        "ratio",
    );
    metrics.put("trace.overhead", overhead, "ratio");
}
