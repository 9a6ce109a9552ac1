//! What the harness reads from the host: process CPU time and peak RSS
//! from `/proc`, and the `host` stanza of a results file.

use std::path::Path;

use crate::report::Json;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User + system CPU time of this process over all its threads, in µs.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_time_us() -> u64 {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (utime + stime) * 10_000
}

fn status_kb(key: &str) -> u64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mut best: (usize, String) = (0, "unknown".into());
    for line in read("/proc/self/mountinfo").lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> … - <fstype> <source> <super opts>"
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount) = head.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fstype) = tail.split_whitespace().next() else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_owned());
        }
    }
    best.1
}

/// The `host` stanza: enough to tell two result sets from different
/// machines apart before comparing them.
pub fn stanza(out_dir: &Path, client_threads: usize) -> Json {
    let cpuinfo = read("/proc/cpuinfo");
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_owned())
    };
    let sha_ni = field("flags").split_whitespace().any(|f| f == "sha_ni");
    Json::obj([
        ("cpu", Json::Str(field("model name"))),
        ("nproc", Json::Num(nproc() as f64)),
        ("fs_type", Json::Str(fs_type(out_dir))),
        ("sha_ni", Json::Bool(sha_ni)),
        (
            "rustc",
            Json::Str(std::env::var("NRBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        ),
        ("client_threads", Json::Num(client_threads as f64)),
    ])
}
