//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the repository root and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Earlier lines carry the run's provenance and
//! notes. Exits 0 when every output check passed, 1 on a failed check
//! or an error, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run, Outcome};
use perfbench::{workload, Config, Workload, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                w = Some(workload(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout's commit, read from `.git` without running git; the
/// benchmark also runs from exported trees, which have none.
fn git_rev() -> String {
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

fn provenance(args: &Args, cfg: &Config) -> String {
    let w = args.workload;
    format!(
        "provenance: {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"run_seconds\": {}, \
         \"nproc\": {}, \"workers\": {}, \"clients\": {}, \"git_rev\": \"{}\", \
         \"model\": \"{}\", \"batch_sf\": \"{}\", \"serve_sf\": \"as shipped\", \
         \"format\": \"{}\", \"sink\": \"{}\", \"flush_policy\": \"{}\", \
         \"setup_repeats\": \"{}\", \"engine\": \"columnar, 10000-row packages\"}}",
        w.name,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        pdgf_runtime::available_workers(),
        cfg.workers,
        cfg.workers,
        git_rev(),
        w.model,
        cfg.sf(w),
        w.format.extension(),
        if w.files {
            "DirSinkFactory"
        } else {
            "NullSinkFactory"
        },
        if w.files {
            "buffered FileSink (1 MiB BufWriter), flushed at table end, no fsync"
        } else {
            "none (bytes counted and dropped)"
        },
        if args.trace {
            format!("{} per step", perfbench::run::SETUP_REPS)
        } else {
            "one per round".to_string()
        },
    )
}

fn report(outcome: &Outcome) -> Result<String, String> {
    let problems = outcome.report.problems();
    if !problems.is_empty() {
        return Err(format!("incomplete metrics: {}", problems.join("; ")));
    }
    Ok(outcome.report.to_json(
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
    ))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !std::path::Path::new(args.workload.path).is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            args.workload.path
        );
        return ExitCode::from(1);
    }
    let scratch_dir =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload.name, std::process::id()));
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workers: pdgf_runtime::available_workers(),
        min_ranges: perfbench::run::MIN_RANGES,
        sf: None,
        scratch_dir: scratch_dir.clone(),
    };
    println!("{}", provenance(&args, &cfg));
    let outcome = run(args.workload, &cfg);
    let _ = std::fs::remove_dir_all(&scratch_dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    match report(&outcome) {
        Ok(line) => {
            println!("{line}");
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
