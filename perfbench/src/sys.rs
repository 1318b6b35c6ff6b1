//! Process-level probes: CPU clock, peak RSS, host load, and the
//! per-run working directory.

use std::path::{Path, PathBuf};

/// Process CPU time (all threads) in seconds, from
/// `CLOCK_PROCESS_CPUTIME_ID`.
pub fn process_cpu_s() -> f64 {
    let mut ts = libc::timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands freed heap back to the kernel, so memory freed by earlier work
/// (an earlier set-up, loading a graph) does not count as resident.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim has no preconditions.
    unsafe {
        malloc_trim(0);
    }
}

/// Trims the heap and resets the kernel's peak-RSS mark (`VmHWM`) to
/// the current RSS. Where `/proc/self/clear_refs` is not writable,
/// `VmHWM` keeps the peak since process start.
pub fn reset_peak_rss() {
    trim_heap();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1/5/15-minute load averages, as `/proc/loadavg` prints them.
pub fn load_avg() -> String {
    let s = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    s.split_whitespace().take(3).collect::<Vec<_>>().join(" ")
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where run artifacts live, relative to the directory the benchmark is
/// run from (inside the git-ignored `.bench_build/`).
pub const OUT_ROOT: &str = ".bench_build/perfbench";

/// A per-run working directory (spill files, graph files) removed when
/// dropped, so repeated runs never see each other's files.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(workload: &str, seed: u64) -> std::io::Result<RunDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(OUT_ROOT)
            .join("runs")
            .join(format!("{workload}-s{seed}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
