//! What a result was measured on and with: commit, source digest, build
//! profile, host parallelism, CPU model, threads used, seed and the full
//! configuration.

use std::path::{Path, PathBuf};

use mfm_telemetry::json::JsonObject;

use crate::stats::Digest;
use crate::RunConfig;

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// `git rev-parse HEAD` of the repository, or `unknown` outside a git
/// checkout (the search stops at the repository root's parent).
fn commit(root: &Path) -> String {
    let ceiling = root.parent().unwrap_or(root);
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Digest of every Rust source and manifest the benchmark builds from,
/// so a result identifies its code even without git.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.is_dir() {
                if name != "target" && !name.to_string_lossy().starts_with('.') {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs")
                || name == "Cargo.toml"
                || name == "Cargo.lock"
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "benchmark"] {
        walk(&root.join(sub), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut d = Digest::default();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        d.str(&rel.to_string_lossy());
        d.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", d.value())
}

/// The `model name` of the first CPU in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The provenance record of `cfg` as one JSON object.
pub fn to_json(cfg: &RunConfig) -> String {
    let root = repo_root();
    let mut o = JsonObject::new();
    o.field_str("commit", &commit(&root))
        .field_str("source_digest", &source_digest(&root))
        .field_str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .field_u64("available_parallelism", crate::host_parallelism() as u64)
        .field_str("cpu_model", &cpu_model())
        .field_u64("threads", cfg.threads as u64)
        .field_str("workload", cfg.workload.name())
        .field_u64("seed", cfg.seed)
        .field_f64("seconds", cfg.seconds)
        .field_bool("trace", cfg.tracer.enabled())
        .field_str("config", &format!("{:?}", cfg.sizes));
    o.finish()
}
