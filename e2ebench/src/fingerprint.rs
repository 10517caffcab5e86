//! The host and build a result was measured on, printed with every result
//! so that numbers from different hosts are never compared blind.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

use crate::traced::Fnv;

/// Host, build and source identity of one run.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    nproc: usize,
    simd_tier: String,
    no_simd_env: bool,
    profile: &'static str,
    commit: String,
    source_fnv: String,
}

impl Fingerprint {
    /// Detects everything from the running process and the working
    /// directory (the root of a source tree).
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd_tier: format!("{:?}", pka_stats::simd::active_tier()),
            no_simd_env: std::env::var_os("PKA_NO_SIMD").is_some(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            source_fnv: format!("{:016x}", source_digest(Path::new("crates"))),
        }
    }

    /// One JSON line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"fingerprint\": {{\"nproc\": {}, \"simd_tier\": \"{}\", \"pka_no_simd\": {}, \
             \"profile\": \"{}\", \"commit\": \"{}\", \"source_fnv\": \"{}\"}}}}",
            self.nproc,
            self.simd_tier,
            self.no_simd_env,
            self.profile,
            self.commit,
            self.source_fnv
        )
    }
}

/// The checked-out commit, from the `.git` directory; `None` outside a
/// git checkout.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the paths and bytes of every `.rs` and `Cargo.toml` file
/// under `dir`, in sorted path order: identifies the measured source even
/// where no commit id is available.
fn source_digest(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect(dir, &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.write(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(&bytes);
        }
    }
    h.finish()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far (user + system), seconds.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks; the command
    // name (field 2) may hold spaces, so count from its closing paren.
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        });
    ticks.map_or(0.0, |t| t / CLOCK_TICKS)
}

/// Time the hypervisor gave this machine's CPUs to other guests so far
/// (the `steal` column of /proc/stat, all CPUs), seconds.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |t| t / CLOCK_TICKS)
}

/// `USER_HZ`, the unit of the /proc tick counters on Linux.
const CLOCK_TICKS: f64 = 100.0;
