//! Process and file-system helpers: the per-run work directory, peak
//! resident set, on-disk sizes and free space.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Root (relative to the working directory) under which every run makes
/// its private work directory.
pub const WORK_ROOT: &str = ".bench_work";

/// A fresh directory for one run, deleted with everything in it on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = Path::new(WORK_ROOT).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.path) {
            eprintln!("warning: could not remove {}: {e}", self.path.display());
        }
        // Leave no empty root behind either (other runs may still use it).
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets the peak-RSS high-water mark (`VmHWM`) to the current RSS,
/// after handing memory freed during set-up back to the system, so the
/// peak reflects live data rather than what the allocator kept.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only takes a byte count to keep and releases
    // free heap pages; it has no other preconditions and touches no
    // memory this program owns.
    unsafe {
        malloc_trim(0);
    }
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("warning: cannot reset the RSS high-water mark: {e}");
    }
}

/// Peak resident set since the last reset, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Total length of the regular files under `path` (or of `path` itself).
pub fn disk_bytes(path: &Path) -> u64 {
    let Ok(meta) = std::fs::symlink_metadata(path) else {
        return 0;
    };
    if meta.is_file() {
        return meta.len();
    }
    if !meta.is_dir() {
        return 0;
    }
    std::fs::read_dir(path)
        .map(|entries| entries.flatten().map(|e| disk_bytes(&e.path())).sum())
        .unwrap_or(0)
}

/// Bytes available to this user on the file system holding `path`,
/// read from `df -Pk`.
pub fn free_bytes(path: &Path) -> Result<u64, String> {
    let out = std::process::Command::new("df")
        .arg("-Pk")
        .arg(path)
        .output()
        .map_err(|e| format!("cannot run df: {e}"))?;
    if !out.status.success() {
        return Err(format!("df failed on {}", path.display()));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().nth(1).ok_or("df printed no data line")?;
    let avail_kb: u64 = line
        .split_whitespace()
        .nth(3)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("cannot parse df line {line:?}"))?;
    Ok(avail_kb * 1024)
}

/// Copies `src` (a file or a directory tree) to `dst`.
pub fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    if src.is_dir() {
        std::fs::create_dir_all(dst)?;
        for entry in std::fs::read_dir(src)? {
            let entry = entry?;
            copy_tree(&entry.path(), &dst.join(entry.file_name()))?;
        }
        Ok(())
    } else {
        std::fs::copy(src, dst).map(|_| ())
    }
}
