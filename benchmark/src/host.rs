//! The host fingerprint printed above every ledger, so no row is ever
//! again `"host": ""`.

use std::path::Path;

use rflash::hugepages::probe_system;
use serde_json::Value;

fn read_trimmed(path: impl AsRef<Path>) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// The commit the harness was built from, read from `.git` directly (the
/// benchmark's checkout may not be a repository at all).
fn git_rev(repo: &Path) -> String {
    let head = read_trimmed(repo.join(".git/HEAD"));
    match head.strip_prefix("ref: ") {
        Some(reference) => read_trimmed(repo.join(".git").join(reference)),
        None => head,
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

pub fn fingerprint(repo: &Path, seed: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let system = probe_system();
    let pools = system
        .pools
        .iter()
        .map(|p| {
            format!(
                "{}: {} total, {} free",
                p.size, p.nr_hugepages, p.free_hugepages
            )
        })
        .collect::<Vec<_>>()
        .join("; ");
    let fields = [
        ("cpu", cpu),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("kernel", read_trimmed("/proc/sys/kernel/osrelease")),
        (
            "thp_enabled",
            read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled"),
        ),
        (
            "thp_defrag",
            read_trimmed("/sys/kernel/mm/transparent_hugepage/defrag"),
        ),
        (
            "hugetlb_pool",
            if pools.is_empty() {
                "none".into()
            } else {
                pools
            },
        ),
        (
            "perf_event_open",
            if rflash::perfmon::hw::hw_available() {
                "available"
            } else {
                "denied"
            }
            .into(),
        ),
        (
            "simd_backend",
            format!(
                "{:?}",
                rflash::simd::resolve(rflash::simd::Backend::default())
            ),
        ),
        ("git_rev", git_rev(repo)),
        ("rustc", rustc_version()),
        ("seed", seed.to_string()),
    ];
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::Str(v)))
            .collect(),
    )
}
