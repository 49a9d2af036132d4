//! Host diagnostics printed beside every result. They explain outliers;
//! no run is ever dropped because of them.

use crate::stats::{parse_proc_stat, CpuTimes};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Cores the default thread pool sizes itself to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The aggregate CPU times now, or zeros when `/proc/stat` is unreadable.
pub fn cpu_times() -> CpuTimes {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| parse_proc_stat(&text))
        .unwrap_or_default()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for the CPU time of all threads of this process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux's clock id for the CPU time of the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and both clock ids are
    // ones every Linux kernel provides; the call writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time all threads of this process have run, in seconds. The kernel
/// leaves out time the hypervisor stole, so this clock keeps counting
/// the program's own work when a neighbour takes the host's cores.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has run, in seconds; steal is left out
/// as for [`process_cpu_s`].
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Wall, process CPU and driver-thread CPU time of one measured
/// interval, in seconds. The driver is the thread that read the
/// [`Stopwatch`]: the one stepping the search or ticking the fleet.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub driver_cpu_s: f64,
}

/// Reads wall, process CPU and calling-thread CPU time since it started.
/// Start and read it on the same thread.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
    driver_cpu_s: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            driver_cpu_s: thread_cpu_s(),
        }
    }

    pub fn read(&self) -> Timing {
        Timing {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
            driver_cpu_s: thread_cpu_s() - self.driver_cpu_s,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out in the working directory, or `unknown` outside
/// a git work tree. The search stops at the working directory, so an
/// enclosing repository is never reported by mistake.
pub fn git_rev() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
