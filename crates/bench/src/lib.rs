//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary regenerates one table or figure of the paper's evaluation
//! (see `DESIGN.md` §4 for the index). Run them as:
//!
//! ```sh
//! cargo run --release -p nps-bench --bin fig7
//! ```
//!
//! Environment knobs:
//!
//! * `NPS_HORIZON` — simulation length in ticks (default 4 000 ≈ two
//!   diurnal cycles, eight VMC epochs);
//! * `NPS_SEED` — trace-corpus seed (default 42);
//! * `NPS_THREADS` — worker threads for the rack-sharded parallel phase
//!   (default 1; results are bit-identical at any value);
//! * `NPS_JSON_OUT_DIR` — when set, binaries also write their tables as
//!   JSON artifacts into this directory (created on demand); CI uploads
//!   them from the smoke job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use nps_core::{run_experiment, CoordinationMode, ExperimentConfig, Scenario, SystemKind};
use nps_metrics::Comparison;
use nps_traces::Mix;

/// Simulation horizon for figure regeneration (`NPS_HORIZON`, default
/// 4 000 ticks).
pub fn horizon() -> u64 {
    std::env::var("NPS_HORIZON")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4_000)
}

/// Trace-corpus seed (`NPS_SEED`, default 42).
pub fn seed() -> u64 {
    std::env::var("NPS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Worker threads for each run's rack-sharded parallel phase
/// (`NPS_THREADS`, default 1 — one inline whole-fleet shard). Results are
/// bit-identical at every value; this only moves wall-clock.
pub fn threads() -> usize {
    std::env::var("NPS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// A paper-standard scenario at the harness horizon/seed/threads.
pub fn scenario(sys: SystemKind, mix: Mix, mode: CoordinationMode) -> Scenario {
    Scenario::paper(sys, mix, mode)
        .horizon(horizon())
        .seed(seed())
        .threads(threads())
}

/// Runs a configuration and returns the baseline-normalized comparison.
pub fn run(cfg: &ExperimentConfig) -> Comparison {
    run_experiment(cfg).comparison
}

/// Runs many configurations in parallel (deterministic results, input
/// order preserved) and returns their comparisons.
///
/// The figure binaries need every row, so a configuration that fails
/// inside the sweep aborts with the sweep's labeled error.
pub fn run_all(cfgs: &[ExperimentConfig]) -> Vec<Comparison> {
    nps_core::run_sweep(cfgs, 0)
        .into_iter()
        .map(|r| match r {
            Ok(result) => result.comparison,
            Err(e) => panic!("{e}"),
        })
        .collect()
}

/// The JSON artifact directory (`NPS_JSON_OUT_DIR`), if configured.
pub fn json_out_dir() -> Option<std::path::PathBuf> {
    std::env::var_os("NPS_JSON_OUT_DIR").map(std::path::PathBuf::from)
}

/// Serializes `value` to `<NPS_JSON_OUT_DIR>/<name>.json` when the knob
/// is set (no-op otherwise). Returns the path written.
pub fn write_json_artifact<T: serde::Serialize>(
    name: &str,
    value: &T,
) -> Option<std::path::PathBuf> {
    let dir = json_out_dir()?;
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("bench artifacts serialize infallibly");
    match std::fs::write(&path, json) {
        Ok(()) => {
            eprintln!("wrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Prints the standard banner for a regenerated artifact.
pub fn banner(artifact: &str, paper_ref: &str) {
    println!("{artifact}");
    println!("{}", "=".repeat(artifact.len()));
    println!(
        "(reproduces {paper_ref}; horizon {} ticks, seed {})",
        horizon(),
        seed()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert!(horizon() >= 1);
        let _ = seed();
    }

    #[test]
    fn scenario_builder_uses_harness_knobs() {
        let cfg = scenario(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
            .horizon(50)
            .build();
        assert_eq!(cfg.horizon, 50);
    }
}
