//! Process and machine readings: CPU time, peak memory, load, and the
//! identity of the code under test.

use std::fs;
use std::path::Path;

/// User + system CPU seconds consumed by this process, all threads.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of
    // the call, and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds consumed by this process, all threads.
#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds() -> f64 {
    compile_error!("perfbench reads process CPU time through Linux clock_gettime");
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// One-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_owned())
}

/// FNV-1a digest of the source that builds the program under test:
/// every `.rs` and `.toml` file under `crates/` and the benchmark's
/// `src/`, plus the root manifest and lock file. It identifies the
/// code when the checkout carries no git metadata.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    collect_sources(&root.join("perfbench/src"), &mut files);
    for name in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(name));
    }
    files.sort();
    let mut hash = Fnv::new();
    for path in &files {
        if let Ok(bytes) = fs::read(path) {
            hash.bytes(
                path.strip_prefix(root)
                    .unwrap_or(path)
                    .to_string_lossy()
                    .as_bytes(),
            );
            hash.bytes(&bytes);
        }
    }
    format!("{:016x}", hash.finish())
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// 64-bit FNV-1a, for digests that must not depend on std's randomly
/// seeded hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
