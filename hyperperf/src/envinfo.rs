//! What the box looks like from the benchmark's process: cores,
//! affinity, resident memory, the scratch directory and its filesystem.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Set in the child by [`repin`] so it does not pin itself again.
const PINNED_ENV: &str = "HYPERPERF_PINNED";

fn proc_status(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

fn status_mib(key: &str) -> f64 {
    proc_status(key)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// Current resident set of this process, MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// The CPUs this process may run on, as the kernel lists them.
pub fn affinity() -> String {
    proc_status("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// If this process is not yet pinned, run the same command line again
/// under `taskset -c <first allowed cpu>` and return the child's exit
/// code; `None` means "already pinned, or no taskset: carry on here".
/// Without `taskset` the run stays unpinned and says so in its
/// environment line.
pub fn repin() -> Option<i32> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let cpu = affinity()
        .split([',', '-'])
        .next()
        .and_then(|c| c.parse::<u32>().ok())?;
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, "1")
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}

/// The directory of the running executable: inside the build directory,
/// hence inside the checkout, which is where a run may write.
fn exe_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe.parent().unwrap_or(Path::new(".")).to_path_buf())
}

/// Where traced runs leave `trace-<workload>.json`; created on demand.
pub fn traces_dir() -> std::io::Result<PathBuf> {
    let dir = exe_dir()?.join("hyperperf-traces");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A scratch directory beside the running executable, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `<exe dir>/hyperperf-work/<pid>`.
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = exe_dir()?
            .join("hyperperf-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// `device fstype` of the mount holding the directory.
    pub fn filesystem(&self) -> String {
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|l| {
                let mut f = l.split(' ');
                let (dev, at, fs) = (f.next()?, f.next()?, f.next()?);
                self.0.starts_with(at).then_some((at.len(), dev, fs))
            })
            .max_by_key(|&(len, _, _)| len)
            .map_or_else(|| "unknown".into(), |(_, dev, fs)| format!("{dev} {fs}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
