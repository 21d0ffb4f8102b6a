//! Shared utilities for the figure/table harness binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's experiment index) and prints the
//! same rows/series the paper plots, plus explicit *shape checks*
//! (linearity fits, ordering assertions) so a run is self-judging.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rust_2018_idioms)]

use std::time::Instant;

/// Result of timing a closure.
pub struct Timed<T> {
    /// The closure's return value.
    pub value: T,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Run `f` once and time it.
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = f();
    Timed {
        value,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Least-squares linear fit `y ≈ a·x + b`, returning `(a, b, r²)`.
pub fn linear_fit(points: &[(f64, f64)]) -> (f64, f64, f64) {
    let n = points.len() as f64;
    assert!(n >= 2.0, "need at least two points");
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    let a = if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let b = (sy - a * sx) / n;
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points.iter().map(|p| (p.1 - (a * p.0 + b)).powi(2)).sum();
    let r2 = if ss_tot < 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

/// Print a header banner for a harness binary.
pub fn banner(id: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}

/// Print one shape-check verdict line.
pub fn check(name: &str, ok: bool, detail: &str) {
    println!("[{}] {name}: {detail}", if ok { "PASS" } else { "WARN" });
}

/// Cores available to this process — delegated to
/// [`pdgf_runtime::available_workers`] so the bench harness and the
/// run's actual worker default can never disagree (the fallback when the
/// query fails is shared too).
pub fn host_cores() -> usize {
    pdgf_runtime::available_workers()
}

/// [`check`] for worker/node-scaling assertions, which a single-core
/// host cannot meaningfully judge: parallel sweeps all collapse onto one
/// core, so instead of a misleading WARN the verdict line is annotated
/// `[SKIP]` and the measured detail is still printed for the record.
pub fn check_scaling(name: &str, ok: bool, detail: &str) {
    if host_cores() == 1 {
        println!("[SKIP] {name}: single-core host, scaling not judged ({detail})");
    } else {
        check(name, ok, detail);
    }
}

/// Environment-variable override helper for harness scale knobs.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Environment-variable override helper for integer knobs.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The checked-out commit, read from `.git` in the working directory
/// (`"unknown"` outside a checkout), suffixed `-dirty` when
/// `git diff --quiet HEAD` reports uncommitted changes to tracked files,
/// so numbers measured on an uncommitted tree are not credited to the
/// commit it is based on. Without a git binary the suffix is left off.
pub fn git_rev() -> String {
    let rev = head_commit();
    let dirty = rev != "unknown"
        && std::process::Command::new("git")
            .args(["diff", "--quiet", "HEAD"])
            .stderr(std::process::Stdio::null())
            .status()
            .is_ok_and(|s| s.code() == Some(1));
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev
    }
}

fn head_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
            return rev.trim().to_string();
        }
        let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
        if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
            return line.split(' ').next().unwrap_or("unknown").to_string();
        }
    }
    if head.len() == 40 {
        return head.to_string();
    }
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_lines() {
        let points: Vec<(f64, f64)> = (1..=10).map(|x| (x as f64, 3.0 * x as f64 + 2.0)).collect();
        let (a, b, r2) = linear_fit(&points);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_flags_nonlinear_data() {
        let points: Vec<(f64, f64)> = (1..=10).map(|x| (x as f64, (x as f64).powi(3))).collect();
        let (_, _, r2) = linear_fit(&points);
        assert!(r2 < 0.95, "cubic should not fit a line well: r2={r2}");
    }

    #[test]
    fn timed_measures_something() {
        let t = timed(|| (0..100_000u64).sum::<u64>());
        assert_eq!(t.value, 4_999_950_000);
        assert!(t.seconds >= 0.0);
    }

    #[test]
    fn env_helpers_default() {
        assert_eq!(env_f64("BENCH_NO_SUCH_VAR_XYZ", 1.5), 1.5);
        assert_eq!(env_usize("BENCH_NO_SUCH_VAR_XYZ", 7), 7);
    }
}
