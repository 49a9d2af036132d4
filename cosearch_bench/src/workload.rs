//! The three workloads, driven only through the program's stable calls:
//! `CoSearch::try_new`/`start_run`, `GuardedRun::step`/`finish`, the
//! `Fleet` session API, `ObsServer`/`ObsPublisher` and (in `main`)
//! `telemetry::Session`. Every operation checks its own output and
//! returns a description of the first thing that was wrong.

use crate::host::{Stopwatch, Timing};
use a3cs_bench::scale::SHORT;
use a3cs_bench::setup::{agent_with, build_backbone, cosearch_config, game_info};
use a3cs_core::{
    CoSearch, CoSearchConfig, CoSearchResult, RobustnessEventKind, RobustnessLog, StepOutcome,
};
use a3cs_drl::{ActorCritic, Checkpoint};
use a3cs_envs::{Breakout, Environment};
use a3cs_fleet::{Fleet, FleetConfig, SessionId, SessionState, SessionStatus, TickObserver};
use a3cs_obs::{ObsPublisher, ObsServer};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Env steps per solo search of `tiny-train`.
const TINY_STEPS: u64 = 2_000;
/// Env steps of the checkpointed tiny search `tiny-train` resumes from.
/// Its timed searches write no checkpoints, so this one exists only to
/// give `resume_s` and `ckpt_bytes_per_iter` something to measure.
const TINY_RESUME_STEPS: u64 = 400;
/// Env steps per solo search of `short-distill-ckpt`.
const SHORT_STEPS: u64 = 400;
/// Env steps per session of `fleet-delta-obs`.
const FLEET_STEPS: u64 = 600;
/// Sessions per fleet.
const FLEET_SESSIONS: u64 = 4;
/// The committed AC-distillation teacher (ResNet-20, `short` profile,
/// 12 000 steps, seed 4000).
const TEACHER_FILE: &str = "data/Breakout_short_12000_4000.json";
const TEACHER_SEED: u64 = 4_000;
/// Interval between the scrape client's requests while searches run:
/// the `scrape_interval` of the example configuration Prometheus ships
/// (its built-in default is one minute). The repository names no scrape
/// interval of its own.
pub const SCRAPE_EVERY: Duration = Duration::from_secs(15);
/// Back-to-back `/metrics` scrapes after the timed window. At one scrape
/// per 15 s a run sees too few for `obs.scrape_ms_p90`, which needs ten
/// samples beyond it; these give it enough without adding load to the
/// searches.
const SCRAPE_BURST: usize = 120;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Solo tiny co-search; no teacher, no checkpoints.
    TinyTrain,
    /// Solo 12-cell co-search with AC-distillation and full checkpoints.
    ShortDistillCkpt,
    /// Four tiny sessions under a fleet with delta checkpoints and a
    /// live, scraped observability server.
    FleetDeltaObs,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "tiny-train" => Some(Kind::TinyTrain),
            "short-distill-ckpt" => Some(Kind::ShortDistillCkpt),
            "fleet-delta-obs" => Some(Kind::FleetDeltaObs),
            _ => None,
        }
    }

    pub fn build(self, seed: u64, work: &Path) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::TinyTrain => Box::new(Solo::new(tiny_config(TINY_STEPS), seed, work, false)),
            Kind::ShortDistillCkpt => {
                let mut cfg = cosearch_config("Breakout", &SHORT).map_err(|e| e.to_string())?;
                cfg.total_steps = SHORT_STEPS;
                Box::new(Solo::new(cfg, seed, work, true))
            }
            Kind::FleetDeltaObs => Box::new(FleetRun::new(seed, work)),
        })
    }
}

/// One complete search (solo) or fleet run (all sessions), measured.
#[derive(Debug, Default, Clone)]
pub struct RunStats {
    /// Env steps taken.
    pub steps: u64,
    /// Wall and process CPU time from the first step through `finish`.
    pub time: Timing,
    /// Wall latency of each `GuardedRun::step` or post-set-up `Fleet::tick`.
    pub iter_ms: Vec<f64>,
    /// Process CPU time of each step or tick.
    pub iter_cpu_ms: Vec<f64>,
    /// Checkpoint bytes written.
    pub ckpt_bytes: u64,
    /// Co-search iterations run.
    pub iterations: u64,
    /// Hash of every result's arch, accelerator and score-curve bits.
    pub fingerprint: u64,
    /// Latency of each observability publish (fleet only).
    pub publish_ms: Vec<f64>,
}

impl RunStats {
    fn push_iteration(&mut self, t: Timing) {
        self.iter_ms.push(t.wall_s * 1e3);
        self.iter_cpu_ms.push(t.cpu_s * 1e3);
    }
}

/// Scrapes of the observability server and whether they succeeded.
#[derive(Debug, Default, Clone)]
pub struct ScrapeStats {
    /// Wall latency of each `/metrics` scrape of the closing burst.
    pub latencies_ms: Vec<f64>,
    /// CPU time the server spent per scrape of the closing burst: process
    /// CPU time minus the scraping thread's own.
    pub serve_cpu_ms: f64,
    pub attempted: u64,
    pub problems: Vec<String>,
}

impl ScrapeStats {
    /// Count one response and check it.
    fn record(&mut self, path: &str, response: Result<(u16, String), String>) {
        self.attempted += 1;
        let checked = response.and_then(|(code, body)| match path {
            "/metrics" => check_metrics(code, &body),
            _ => check_healthz(code, &body),
        });
        if let Err(e) = checked {
            self.problems.push(e);
        }
    }
}

/// A workload as the harness drives it.
pub trait Workload {
    /// One in-process set-up, timed; the state it builds is dropped.
    fn setup(&mut self) -> Result<Timing, String>;
    /// One complete search or fleet run, checked.
    fn run(&mut self) -> Result<RunStats, String>;
    /// Whether the timed runs write checkpoints. Resumes then start from
    /// the last of them, whose checkpoint bytes are reported.
    fn checkpoints_runs(&self) -> bool;
    /// For a workload whose timed runs write no checkpoints: one
    /// checkpointed search into `dir` for resumes to start from.
    fn make_resume_source(&mut self, _dir: &Path) -> Result<RunStats, String> {
        Err("the timed runs are the resume source".to_string())
    }
    /// One resume over the last finished run's checkpoints, timed and
    /// checked against the state that run persisted last.
    fn resume(&mut self) -> Result<Timing, String>;
    /// What a fresh process needs to resume the last finished run, for
    /// workloads whose resumes are timed in fresh processes.
    fn resume_target(&self) -> Option<String> {
        None
    }
    /// Take the last finished run from another process's
    /// [`Workload::resume_target`].
    fn adopt_resume_target(&mut self, _target: &str) -> Result<(), String> {
        Err("this workload resumes in its own process".to_string())
    }
    /// Start the scrape client, if the workload has one.
    fn start_scraping(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Stop and join the scrape client, then time a burst of scrapes.
    fn stop_scraping(&mut self) -> ScrapeStats {
        ScrapeStats::default()
    }
}

fn breakout(seed: u64) -> Box<dyn Environment> {
    Box::new(Breakout::new(seed))
}

fn tiny_config(steps: u64) -> CoSearchConfig {
    let mut cfg = CoSearchConfig::tiny(3, 12, 12, 3);
    cfg.total_steps = steps;
    cfg
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn fresh_dir(path: PathBuf) -> PathBuf {
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// FNV-1a over the parts of a result that must repeat bit for bit.
fn fingerprint(result: &CoSearchResult, mut h: u64) -> u64 {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(format!(
        "{:?}|{:?}|{}",
        result.arch, result.accelerator, result.steps
    )
    .as_bytes());
    for (steps, score) in &result.score_curve {
        eat(&steps.to_le_bytes());
        eat(&score.to_bits().to_le_bytes());
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every event in `log` is one of `allowed`.
fn only_events(
    log: &RobustnessLog,
    allowed: &[RobustnessEventKind],
    what: &str,
) -> Result<(), String> {
    match log.events.iter().find(|e| !allowed.contains(&e.kind)) {
        Some(e) => Err(format!("{what}: unexpected robustness event {e}")),
        None => Ok(()),
    }
}

/// A finished checkpointed search and the state its last checkpoint
/// holds, which a resume must restore.
#[derive(Clone)]
struct Resumable {
    dir: PathBuf,
    budget: u64,
    iteration: u64,
    steps: u64,
}

// ---------------------------------------------------------------------------
// Solo co-search
// ---------------------------------------------------------------------------

struct Solo {
    cfg: CoSearchConfig,
    seed: u64,
    work: PathBuf,
    /// `short-distill-ckpt`: distil from the teacher and give every timed
    /// search a checkpoint store. `tiny-train` does neither.
    paper_loop: bool,
    teacher: Option<ActorCritic>,
    runs: u64,
    resumable: Option<Resumable>,
}

impl Solo {
    fn new(cfg: CoSearchConfig, seed: u64, work: &Path, paper_loop: bool) -> Solo {
        Solo {
            cfg,
            seed,
            work: work.to_path_buf(),
            paper_loop,
            teacher: None,
            runs: 0,
            resumable: None,
        }
    }

    /// Load the committed teacher; never train one.
    fn load_teacher() -> Result<ActorCritic, String> {
        let info = game_info("Breakout").map_err(|e| e.to_string())?;
        let backbone =
            build_backbone("ResNet-20", &info, TEACHER_SEED).map_err(|e| e.to_string())?;
        let agent = agent_with(backbone, &info, TEACHER_SEED + 1);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(TEACHER_FILE);
        Checkpoint::load(&path)
            .and_then(|ck| ck.apply(&agent))
            .map_err(|e| format!("teacher {}: {e}", path.display()))?;
        Ok(agent)
    }

    fn config(&self, dir: Option<&Path>, steps: u64) -> CoSearchConfig {
        let mut cfg = self.cfg.clone();
        cfg.total_steps = steps;
        cfg.fault.checkpoint_dir = dir.map(Path::to_path_buf);
        cfg
    }

    fn search(&mut self, dir: Option<PathBuf>, steps: u64) -> Result<RunStats, String> {
        let cfg = self.config(dir.as_deref(), steps);
        let mut search =
            CoSearch::try_new(cfg, self.seed).map_err(|r| format!("pre-flight: {r}"))?;
        let teacher = self.teacher.as_ref();
        let mut run = search.start_run(&breakout);
        let mut stats = RunStats::default();
        let mut last_ckpt = None;
        let whole = Stopwatch::start();
        loop {
            let before = (run.iteration(), run.steps(), run.checkpoint_bytes_written());
            let one = Stopwatch::start();
            let outcome = run
                .step(&mut search, &breakout, teacher)
                .map_err(|e| e.to_string())?;
            stats.push_iteration(one.read());
            if run.checkpoint_bytes_written() > before.2 {
                last_ckpt = Some((before.0, before.1));
            }
            if outcome == StepOutcome::Finished {
                break;
            }
        }
        stats.ckpt_bytes = run.checkpoint_bytes_written();
        stats.iterations = run.iteration();
        let result = run.finish(&mut search);
        stats.time = whole.read();
        stats.steps = result.steps;
        stats.fingerprint = fingerprint(&result, FNV_OFFSET);
        if result.steps != steps {
            return Err(format!(
                "search finished with {} env steps, want {steps}",
                result.steps
            ));
        }
        only_events(&result.robustness, &[], "search")?;
        if let Some(dir) = dir {
            let (iteration, steps) = last_ckpt.ok_or("checkpointed search wrote no checkpoint")?;
            let done = Resumable {
                dir,
                budget: result.steps,
                iteration,
                steps,
            };
            if let Some(old) = self.resumable.replace(done) {
                let _ = std::fs::remove_dir_all(old.dir);
            }
        }
        Ok(stats)
    }

    fn next_dir(&mut self) -> PathBuf {
        self.runs += 1;
        fresh_dir(self.work.join(format!("run-{}", self.runs)))
    }
}

impl Workload for Solo {
    fn setup(&mut self) -> Result<Timing, String> {
        let dir = self.paper_loop.then(|| fresh_dir(self.work.join("setup")));
        let t = Stopwatch::start();
        let teacher = if self.paper_loop {
            Some(Self::load_teacher()?)
        } else {
            None
        };
        let mut search =
            CoSearch::try_new(self.config(dir.as_deref(), self.cfg.total_steps), self.seed)
                .map_err(|r| format!("pre-flight: {r}"))?;
        let run = search.start_run(&breakout);
        let elapsed = t.read();
        if run.steps() != 0 || run.checkpoint_restores() != 0 {
            return Err("set-up over an empty store resumed something".to_string());
        }
        self.teacher = teacher;
        Ok(elapsed)
    }

    fn run(&mut self) -> Result<RunStats, String> {
        let dir = self.paper_loop.then(|| self.next_dir());
        self.search(dir, self.cfg.total_steps)
    }

    fn checkpoints_runs(&self) -> bool {
        self.paper_loop
    }

    fn make_resume_source(&mut self, dir: &Path) -> Result<RunStats, String> {
        self.search(Some(fresh_dir(dir.to_path_buf())), TINY_RESUME_STEPS)
    }

    fn resume(&mut self) -> Result<Timing, String> {
        let Resumable {
            dir,
            budget,
            iteration,
            steps,
        } = self.resumable.clone().ok_or("no finished run to resume")?;
        let t = Stopwatch::start();
        let mut search = CoSearch::try_new(self.config(Some(&dir), budget), self.seed)
            .map_err(|r| format!("pre-flight: {r}"))?;
        let run = search.start_run(&breakout);
        let elapsed = t.read();
        if (run.iteration(), run.steps()) != (iteration, steps) || run.checkpoint_restores() != 1 {
            return Err(format!(
                "resume restored iteration {} / {} steps ({} restores), want iteration {iteration} / {steps} steps",
                run.iteration(),
                run.steps(),
                run.checkpoint_restores()
            ));
        }
        only_events(run.robustness(), &[RobustnessEventKind::Resumed], "resume")?;
        Ok(elapsed)
    }

    fn resume_target(&self) -> Option<String> {
        let r = self.resumable.as_ref()?;
        // The directory goes last, so it may hold any character.
        Some(format!(
            "{}:{}:{}:{}",
            r.budget,
            r.iteration,
            r.steps,
            r.dir.display()
        ))
    }

    fn adopt_resume_target(&mut self, target: &str) -> Result<(), String> {
        let mut parts = target.splitn(4, ':');
        let mut number = || parts.next().and_then(|p| p.parse::<u64>().ok());
        let (Some(budget), Some(iteration), Some(steps)) = (number(), number(), number()) else {
            return Err(format!("malformed resume target {target:?}"));
        };
        let dir = parts
            .next()
            .filter(|d| !d.is_empty())
            .ok_or_else(|| format!("resume target {target:?} names no directory"))?;
        self.resumable = Some(Resumable {
            dir: PathBuf::from(dir),
            budget,
            iteration,
            steps,
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fleet with delta checkpoints and a live observability server
// ---------------------------------------------------------------------------

/// Times every publish of the wrapped publisher.
struct TimedPublisher {
    inner: ObsPublisher,
    samples: Rc<RefCell<Vec<f64>>>,
}

impl TickObserver for TimedPublisher {
    fn on_tick(&mut self, fleet: &Fleet<'_>) {
        let t = Instant::now();
        self.inner.on_tick(fleet);
        self.samples.borrow_mut().push(secs(t) * 1e3);
    }
}

struct Scraper {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ScrapeStats>,
}

struct FleetRun {
    seed: u64,
    work: PathBuf,
    runs: u64,
    server: Option<ObsServer>,
    /// Whether runs start the scrape client once their server is ready.
    scrape: bool,
    scraper: Option<Scraper>,
    /// Root of the last finished run and, per session, the iteration and
    /// env steps of its last checkpoint.
    resumable: Option<(PathBuf, Vec<(u64, u64)>)>,
}

impl FleetRun {
    fn new(seed: u64, work: &Path) -> FleetRun {
        FleetRun {
            seed,
            work: work.to_path_buf(),
            runs: 0,
            server: None,
            scrape: false,
            scraper: None,
            resumable: None,
        }
    }

    fn fleet<'f>(&self, root: &Path) -> Result<(Fleet<'f>, Vec<SessionId>), String> {
        let mut fleet = Fleet::new(FleetConfig {
            checkpoint_root: Some(root.to_path_buf()),
            ..FleetConfig::default()
        });
        let ids = (0..FLEET_SESSIONS)
            .map(|i| {
                let seed = self.seed.wrapping_mul(FLEET_SESSIONS).wrapping_add(i);
                fleet
                    .submit(format!("s{i}"), tiny_config(FLEET_STEPS), seed, breakout)
                    .map_err(|r| format!("submit: {r}"))
            })
            .collect::<Result<_, _>>()?;
        Ok((fleet, ids))
    }

    fn poll(fleet: &Fleet<'_>, ids: &[SessionId]) -> Result<Vec<SessionStatus>, String> {
        ids.iter()
            .map(|&id| {
                fleet
                    .poll(id)
                    .ok_or_else(|| format!("session {id} vanished"))
            })
            .collect()
    }

    /// Tick until no session is queued.
    fn start_all(fleet: &mut Fleet<'_>, ids: &[SessionId]) -> Result<(), String> {
        for _ in 0..=ids.len() {
            if Self::poll(fleet, ids)?
                .iter()
                .all(|s| s.state != SessionState::Queued)
            {
                return Ok(());
            }
            fleet.tick();
        }
        Err("sessions still queued after one tick each".to_string())
    }

    fn server(&mut self) -> Result<&ObsServer, String> {
        if self.server.is_none() {
            self.server = Some(ObsServer::bind_ephemeral().map_err(|e| format!("obs bind: {e}"))?);
        }
        self.server
            .as_ref()
            .ok_or_else(|| "obs server missing".to_string())
    }
}

impl Workload for FleetRun {
    fn setup(&mut self) -> Result<Timing, String> {
        let root = fresh_dir(self.work.join("setup"));
        let t = Stopwatch::start();
        let (mut fleet, ids) = self.fleet(&root)?;
        let server = ObsServer::bind_ephemeral().map_err(|e| format!("obs bind: {e}"))?;
        fleet.attach_observer(Box::new(server.publisher(64)));
        Self::start_all(&mut fleet, &ids)?;
        let elapsed = t.read();
        drop(fleet);
        server.shutdown();
        Ok(elapsed)
    }

    fn run(&mut self) -> Result<RunStats, String> {
        self.runs += 1;
        let root = fresh_dir(self.work.join(format!("run-{}", self.runs)));
        let publish = Rc::new(RefCell::new(Vec::new()));
        let publisher = self.server()?.publisher(64);
        let (mut fleet, ids) = self.fleet(&root)?;
        fleet.attach_observer(Box::new(TimedPublisher {
            inner: publisher,
            samples: Rc::clone(&publish),
        }));
        Self::start_all(&mut fleet, &ids)?;
        publish.borrow_mut().clear();
        if self.scrape && self.scraper.is_none() {
            // Only now has the server published: scraping starts ready.
            self.spawn_scraper()?;
        }

        let mut stats = RunStats::default();
        let mut prev = Self::poll(&fleet, &ids)?;
        let mut last_ckpt = vec![None; ids.len()];
        let whole = Stopwatch::start();
        loop {
            let one = Stopwatch::start();
            let more = fleet.tick();
            stats.push_iteration(one.read());
            let now = Self::poll(&fleet, &ids)?;
            for (i, (p, n)) in prev.iter().zip(&now).enumerate() {
                if n.checkpoint_bytes_written > p.checkpoint_bytes_written {
                    last_ckpt[i] = Some((p.iteration, p.steps));
                }
            }
            prev = now;
            if !more {
                break;
            }
        }
        stats.time = whole.read();
        stats.iterations = stats.iter_ms.len() as u64;
        stats.publish_ms = publish.borrow().clone();

        let report = fleet.report_snapshot();
        if fleet.total_faults() != 0 {
            return Err(format!("fleet recorded {} faults", fleet.total_faults()));
        }
        stats.fingerprint = FNV_OFFSET;
        for s in &report.sessions {
            let Some(result) = s.result.as_ref().filter(|_| s.state == SessionState::Done) else {
                return Err(format!(
                    "session {} ended {}, want done",
                    s.name,
                    s.state.label()
                ));
            };
            if result.steps != FLEET_STEPS {
                return Err(format!(
                    "session {} took {} env steps, want {FLEET_STEPS}",
                    s.name, result.steps
                ));
            }
            only_events(&s.robustness, &[], &s.name)?;
            only_events(&s.fleet_events, &[], &s.name)?;
            stats.steps += result.steps;
            stats.ckpt_bytes += s.checkpoint_bytes_written;
            stats.fingerprint = fingerprint(result, stats.fingerprint);
        }
        let expected = last_ckpt
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("a fleet session wrote no checkpoint")?;
        if let Some((old, _)) = self.resumable.replace((root, expected)) {
            let _ = std::fs::remove_dir_all(old);
        }
        Ok(stats)
    }

    fn checkpoints_runs(&self) -> bool {
        true
    }

    fn resume(&mut self) -> Result<Timing, String> {
        let (root, expected) = self
            .resumable
            .clone()
            .ok_or("no finished fleet run to resume")?;
        let t = Stopwatch::start();
        let (mut fleet, ids) = self.fleet(&root)?;
        Self::start_all(&mut fleet, &ids)?;
        let elapsed = t.read();
        for (status, (&id, &(iteration, steps))) in Self::poll(&fleet, &ids)?
            .iter()
            .zip(ids.iter().zip(&expected))
        {
            let restored = (status.iteration, status.steps);
            if status.state != SessionState::Running
                || restored != (iteration, steps)
                || status.checkpoint_restores != 1
                || status.checkpoint_quarantined != 0
            {
                return Err(format!(
                    "session {id} resumed {} at iteration {} / {} steps ({} restores, {} quarantined), \
                     want running at iteration {iteration} / {steps} steps",
                    status.state.label(),
                    restored.0,
                    restored.1,
                    status.checkpoint_restores,
                    status.checkpoint_quarantined
                ));
            }
        }
        for s in &fleet.report_snapshot().sessions {
            only_events(&s.robustness, &[RobustnessEventKind::Resumed], &s.name)?;
            only_events(&s.fleet_events, &[], &s.name)?;
        }
        Ok(elapsed)
    }

    fn start_scraping(&mut self) -> Result<(), String> {
        self.scrape = true;
        Ok(())
    }

    fn stop_scraping(&mut self) -> ScrapeStats {
        self.scrape = false;
        let Some(scraper) = self.scraper.take() else {
            return ScrapeStats::default();
        };
        scraper.stop.store(true, Ordering::SeqCst);
        scraper.handle.thread().unpark();
        let mut stats = scraper.handle.join().unwrap_or_else(|_| ScrapeStats {
            attempted: 1,
            problems: vec!["scrape client panicked".to_string()],
            ..ScrapeStats::default()
        });
        let Some(addr) = self.server.as_ref().map(ObsServer::addr) else {
            return stats;
        };
        let burst = Stopwatch::start();
        for _ in 0..SCRAPE_BURST {
            let t = Instant::now();
            let response = http_get(addr, "/metrics");
            if response.is_ok() {
                stats.latencies_ms.push(secs(t) * 1e3);
            }
            stats.record("/metrics", response);
        }
        let cpu = burst.read();
        stats.serve_cpu_ms = (cpu.cpu_s - cpu.driver_cpu_s) * 1e3 / SCRAPE_BURST as f64;
        stats
    }
}

impl FleetRun {
    fn spawn_scraper(&mut self) -> Result<(), String> {
        let addr = self.server()?.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bench-scraper".to_string())
            .spawn(move || scrape_loop(addr, &flag))
            .map_err(|e| format!("spawn scraper: {e}"))?;
        self.scraper = Some(Scraper { stop, handle });
        Ok(())
    }
}

/// Fixed-rate client: one `/metrics` scrape and one `/healthz` probe per
/// [`SCRAPE_EVERY`], each over a fresh connection. The responses are
/// checked once `stop` is set, so parsing them stays out of the timed
/// window.
fn scrape_loop(addr: SocketAddr, stop: &AtomicBool) -> ScrapeStats {
    let mut responses = Vec::new();
    let mut next = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        for path in ["/metrics", "/healthz"] {
            responses.push((path, http_get(addr, path)));
        }
        next += SCRAPE_EVERY;
        loop {
            let left = next.saturating_duration_since(Instant::now());
            if left.is_zero() || stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::park_timeout(left);
        }
    }
    let mut stats = ScrapeStats::default();
    for (path, response) in responses {
        stats.record(path, response);
    }
    stats
}

/// `/healthz` answered 200 and reports ready.
fn check_healthz(code: u16, body: &str) -> Result<(), String> {
    if code == 200 && body.starts_with("{\"ready\":true,") {
        Ok(())
    } else {
        Err(format!("/healthz {code}: {body}"))
    }
}

/// `/metrics` answered 200 and every line is a comment or a
/// `series value` sample with a numeric value.
fn check_metrics(code: u16, body: &str) -> Result<(), String> {
    if code != 200 {
        return Err(format!("/metrics returned {code}"));
    }
    let mut samples = 0;
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let value = line.rsplit_once(' ').map(|(_, v)| v);
        if value.and_then(|v| v.parse::<f64>().ok()).is_none() {
            return Err(format!("/metrics unparseable line: {line}"));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("/metrics exposed no samples".to_string());
    }
    Ok(())
}

/// One GET over a fresh connection: `(status code, body)`.
fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read {path}: {e}"))?;
    let code = response
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{path}: malformed status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| format!("{path}: no header/body separator"))?;
    Ok((code, body))
}
