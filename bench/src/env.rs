//! What the run ran on: the environment record of every result file, the
//! peak-RSS reading, and the noise guard.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Facts about the box and the build, recorded in every result file so
/// two result sets can be checked for comparability before their numbers
/// are.
#[derive(Debug, Clone)]
pub struct EnvRecord {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub scratch_fs: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

impl EnvRecord {
    pub fn capture(scratch: &Path) -> Self {
        let unknown = || "unknown".to_string();
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        EnvRecord {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model: cpu_model().unwrap_or_else(unknown),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            // the driver's checkout is not a git repository: "unknown" there
            git_commit: command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"])
                .unwrap_or_else(unknown),
            scratch_fs: fs_type_of(scratch).unwrap_or_else(unknown),
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn affinity() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the
    // `size_of_val(&set)` bytes passed as its size; pid 0 is this thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live buffer of exactly the `size_of_val(set)`
    // bytes passed as its size, only read by the call; pid 0 is this thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn affinity() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_set: &CpuSet) -> bool {
    false
}

/// Confines the calling thread — and every thread it spawns while the
/// guard lives — to one CPU; the previous mask returns on drop (for the
/// calling thread only: spawned threads keep the mask they were born
/// with).
///
/// Why the gated passes run confined: on the virtualised 2-vCPU sandbox
/// a wake-up that crosses vCPUs costs tens of microseconds, and where
/// the scheduler puts six threads differs from run to run. Identical
/// `serve_point` runs read 59 us or 127 us at the median, free; confined
/// they repeat within 1 %. A confined pass measures the CPU work and
/// context switches along the whole request path, not parallel capacity —
/// which on this box is a diagnostic (`par.*`, `net.unpinned_p50_us`).
#[derive(Debug)]
pub struct OneCpu {
    previous: CpuSet,
    pub cpu: usize,
}

impl OneCpu {
    /// `None` where affinity cannot be read or set (not Linux, or a
    /// sandbox that forbids it): the run goes on unconfined and says so.
    pub fn confine() -> Option<OneCpu> {
        let previous = affinity()?;
        // the highest allowed CPU: CPU 0 tends to take the interrupts
        let cpu = (0..1024)
            .rev()
            .find(|c| previous[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one).then_some(OneCpu { previous, cpu })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        set_affinity(&self.previous);
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cpu_clock {
    /// `struct timespec` of 64-bit Linux: `time_t` and `long` are both 64 bits.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `CLOCK_THREAD_CPUTIME_ID` in `<time.h>` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    }

    pub fn thread_cpu_s() -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` with the layout the
        // 64-bit Linux C library expects; the call writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod cpu_clock {
    pub fn thread_cpu_s() -> Option<f64> {
        None
    }
}

/// CPU seconds (user + system) the calling thread has used so far, where
/// the platform tells: time spent waiting — for a device, say — is not in it.
pub use cpu_clock::thread_cpu_s;

/// The fixed, deterministic work the noise guard times: multiply-adds
/// into eight independent accumulators over an L1-resident array, then
/// dependent-free gathers from an L2-sized one.
///
/// Why this and not a chain of dependent multiply-adds (the first noise
/// guard): what slows this microVM is mostly a busy sibling hyperthread,
/// which a latency-bound chain hardly feels and throughput-bound code
/// feels in full. Side by side for 90 noisy seconds, in 3 s windows: a
/// top-k query kernel ran 1.03-1.45x its quiet time and an MTTKRP
/// 1.03-1.67x, the chain 1.01-1.20x, the sweep 1.03-1.45x (within 0.1 of
/// the top-k in every window), the gathers 1.05-2.06x (the MTTKRP's
/// memory side). It is a guard and not a correction: an hour later
/// `cpd_yelp` ran at 1.6-1.9x while this kernel read 1.0 — DRAM and
/// last-level cache are contended too, and it does not reach them — so
/// timings scaled by it were noisier than the wall times themselves.
struct ProbeKernel {
    sweep: Vec<f64>,
    table: Vec<f64>,
    order: Vec<u32>,
}

/// 32 KB swept `SWEEP_PASSES` times, `GATHERS` reads from 1 MB: ~0.3 ms
/// each on the quiet sandbox.
const SWEEP_LEN: usize = 4096;
const SWEEP_PASSES: usize = 600;
const TABLE_LEN: usize = 1 << 17;
const GATHERS: usize = 200_000;

impl ProbeKernel {
    fn get() -> &'static ProbeKernel {
        static KERNEL: std::sync::OnceLock<ProbeKernel> = std::sync::OnceLock::new();
        KERNEL.get_or_init(|| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let order = (0..GATHERS)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % TABLE_LEN as u64) as u32
                })
                .collect();
            ProbeKernel {
                sweep: (0..SWEEP_LEN).map(|i| i as f64).collect(),
                table: (0..TABLE_LEN).map(|i| i as f64).collect(),
                order,
            }
        })
    }

    /// Seconds one unit of the work takes right now.
    fn unit_s(&self) -> f64 {
        let start = Instant::now();
        let scale = std::hint::black_box(1.000_000_1_f64);
        let mut acc = [0.0f64; 8];
        for _ in 0..SWEEP_PASSES {
            for chunk in self.sweep.chunks_exact(8) {
                for (a, v) in acc.iter_mut().zip(chunk) {
                    *a += v * scale;
                }
            }
        }
        let mut sum = [0.0f64; 4];
        for chunk in self.order.chunks_exact(4) {
            for (s, &i) in sum.iter_mut().zip(chunk) {
                *s += self.table[i as usize];
            }
        }
        std::hint::black_box((acc, sum));
        start.elapsed().as_secs_f64()
    }
}

/// Readings of the noise guard, of `GUARD_UNITS` units (~19 ms) each.
const GUARD_READINGS: usize = 5;
const GUARD_UNITS: usize = 40;

/// The noise guard: seconds one reading of the fixed work takes, as the
/// median of five, taken before a workload and after it
/// (`loadgen.calib_drift`). Any change between the two is the box, not
/// the program.
pub fn calibrate() -> f64 {
    let kernel = ProbeKernel::get();
    let mut readings = [0.0f64; GUARD_READINGS];
    for r in &mut readings {
        *r = (0..GUARD_UNITS).map(|_| kernel.unit_s()).sum();
    }
    readings.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    readings[GUARD_READINGS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_is_readable_here() {
        let env = EnvRecord::capture(&std::env::temp_dir());
        assert!(env.nproc >= 1);
        assert!(!env.scratch_fs.is_empty());
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        }
    }

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn thread_cpu_time_counts_work_not_sleep() {
        let before = thread_cpu_s().expect("thread CPU clock");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_s().expect("thread CPU clock") - before;
        assert!(slept < 0.02, "sleeping used {slept} CPU seconds");
        let wall = calibrate();
        let worked = thread_cpu_s().expect("thread CPU clock") - before - slept;
        assert!(worked > 0.5 * wall, "{worked} CPU s for {wall} s of work");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn confinement_is_one_cpu_and_is_undone() {
        let before = affinity().expect("affinity is readable on Linux");
        let ones = |s: &CpuSet| s.iter().map(|w| w.count_ones()).sum::<u32>();
        if let Some(guard) = OneCpu::confine() {
            let inside = affinity().expect("affinity");
            assert_eq!(ones(&inside), 1);
            assert_eq!(inside[guard.cpu / 64] >> (guard.cpu % 64) & 1, 1);
            // a thread spawned inside is born confined
            let child = std::thread::spawn(affinity).join().expect("join");
            assert_eq!(child, Some(inside));
        }
        assert_eq!(affinity(), Some(before));
    }
}
