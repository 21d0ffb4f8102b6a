//! Every workload, untraced and traced, at a tiny scale: the run's
//! output checks pass and it emits exactly the declared metrics.

use std::collections::BTreeSet;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::run::run;
use perfbench::{Config, WORKLOADS};

#[test]
fn every_workload_emits_every_declared_metric() {
    // The workloads read `models/` relative to the repository root.
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repository root");
    for w in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                seed: 7,
                seconds: 0.5,
                trace,
                workers: 2,
                min_ranges: 20,
                sf: Some("0.002".to_string()),
                scratch_dir: format!(".bench_tmp/smoke-{}-{}", w.name, std::process::id()).into(),
            };
            let outcome = run(w, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let _ = std::fs::remove_dir_all(&cfg.scratch_dir);
            assert_eq!(
                outcome.failed, 0,
                "{} trace={trace}: {:?}",
                w.name, outcome.problems
            );
            assert!(outcome.attempted > 0);
            assert!(
                outcome.report.problems().is_empty(),
                "{} trace={trace}: {:?}",
                w.name,
                outcome.report.problems()
            );
            let declared: BTreeSet<&str> = if trace { PER_LAYER } else { END_TO_END }
                .iter()
                .map(|d| d.name)
                .collect();
            let emitted: BTreeSet<&str> = outcome.report.names().collect();
            assert_eq!(emitted, declared, "{} trace={trace}", w.name);
        }
    }
    let _ = std::fs::remove_dir(".bench_tmp");
}
