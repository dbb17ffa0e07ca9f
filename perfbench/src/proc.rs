//! Child processes: running `dbr` with its wall time, peak RSS and CPU
//! taken from the kernel's accounting of that one child, plus the
//! machine description recorded beside every result.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of 64-bit Linux: two `timeval`s (user and system
/// time) then fourteen longs, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn get_affinity() -> io::Result<CpuSet> {
    let mut mask = CpuSet::default();
    // SAFETY: `mask` is a live, writable `cpu_set_t` of the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(io::Error::last_os_error())
    }
}

fn set_affinity(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a live `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The calling thread confined to one CPU; the threads and processes it
/// starts meanwhile inherit that. Dropping it restores the CPUs the
/// thread had before.
pub struct Pinned {
    saved: CpuSet,
    /// The CPU the thread runs on.
    pub cpu: usize,
}

impl Pinned {
    /// Confines the calling thread to the lowest-numbered CPU it may use.
    pub fn first_cpu() -> io::Result<Pinned> {
        let saved = get_affinity()?;
        let cpu = (0..saved.len() * 64)
            .find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)
            .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
        let mut one = CpuSet::default();
        one[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&one)?;
        Ok(Pinned { saved, cpu })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        let _ = set_affinity(&self.saved);
    }
}

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with code 0.
    pub success: bool,
    /// Peak resident set size (`VmHWM`) in MiB.
    pub peak_rss_mb: f64,
}

/// Waits for `child` and returns its exit status and resource usage.
/// After this the `Child` handle must not be waited on again.
pub fn reap(child: &Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and `usage`
        // has the layout of the kernel's 64-bit `struct rusage`; `pid`
        // is our own unreaped child, so no other process is affected.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Exit {
        // WIFEXITED(status) && WEXITSTATUS(status) == 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// One finished run of a command whose standard output went to a file.
pub struct Run {
    pub exit: Exit,
    pub wall: Duration,
}

/// Runs `cmd` to completion with its standard output written to `out`,
/// timing it from just before the spawn to the reap.
pub fn run_to_file(cmd: &mut Command, out: &Path) -> io::Result<Run> {
    let file = File::create(out)?;
    cmd.stdin(Stdio::null()).stdout(file);
    let start = Instant::now();
    let child = cmd.spawn()?;
    let exit = reap(&child)?;
    Ok(Run {
        exit,
        wall: start.elapsed(),
    })
}

/// The reference's wall time, in seconds, that the command workloads'
/// figures are scaled to: about its median on the box the bounds were
/// set on (0.8 ms in its quietest tenth, 1.1 ms over a 10-second run).
pub const SPAWN_NOMINAL_S: f64 = 0.001;

/// The host-speed reference of the command workloads: the median wall
/// time of three starts of the benchmark's own binary with `--noop`,
/// which exits at once. Starting a process is mostly paging work of the
/// kernel; the shared host's slow stretches slow it and the simulator
/// alike (both by about 1.7 times in one stretch), while a CPU loop
/// does not slow at all. It runs no code of the program.
pub fn spawn_reference() -> io::Result<f64> {
    let exe = std::env::current_exe()?;
    let mut walls = [0.0; 3];
    for wall in &mut walls {
        let start = Instant::now();
        let status = Command::new(&exe)
            .arg("--noop")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()?;
        *wall = start.elapsed().as_secs_f64();
        if !status.success() {
            return Err(io::Error::other("the reference process failed"));
        }
    }
    walls.sort_by(f64::total_cmp);
    Ok(walls[1])
}

/// `seconds` measured when the reference took `reference`, scaled to the
/// reference's nominal speed.
pub fn scaled(seconds: f64, reference: f64) -> f64 {
    seconds * SPAWN_NOMINAL_S / reference
}

/// Cumulative user and system CPU of a live process, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks).
pub fn cpu_time(pid: u32) -> io::Result<(Duration, Duration)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<Duration> {
        let t: u64 = fields
            .get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
        // USER_HZ is 100 on every Linux ABI this runs on.
        Ok(Duration::from_millis(t * 10))
    };
    // Field 3 (state) is index 0 after the ')'; utime is field 14.
    Ok((ticks(11)?, ticks(12)?))
}

/// The machine and code a result was measured on.
pub fn machine() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| format!("tree-{:016x}", source_digest()));
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("commit", commit),
    ]
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the paths and bytes of the program's sources, naming the
/// measured code where the checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
