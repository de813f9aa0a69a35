//! The five workloads. Each drives only the crates' public APIs, with
//! every request, URL and flow drawn from one seeded `rand::StdRng`.

pub mod attic_durable_write;
pub mod attic_loopback;
pub mod coop_neighborhood;
pub mod dav;
pub mod metro_flows;
pub mod nocdn_pageload;

use crate::catalog;
use crate::harness::{run_pass, PassConfig, Report};

/// Runs one pass of the workload called `name`.
///
/// # Panics
///
/// Panics on a name that is not in the catalog (the caller checked).
pub fn run(name: &str, cfg: &PassConfig) -> Report {
    match name {
        catalog::ATTIC_LOOPBACK => run_pass::<attic_loopback::AtticLoopback>(cfg),
        catalog::ATTIC_DURABLE_WRITE => run_pass::<attic_durable_write::AtticDurableWrite>(cfg),
        catalog::NOCDN_PAGELOAD => run_pass::<nocdn_pageload::NocdnPageload>(cfg),
        catalog::METRO_FLOWS => run_pass::<metro_flows::MetroFlows>(cfg),
        catalog::COOP_NEIGHBORHOOD => run_pass::<coop_neighborhood::CoopNeighborhood>(cfg),
        other => panic!("unknown workload {other}"),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::catalog::{Source, LAYERS, WORKLOADS};
    use crate::harness::audit;
    use std::sync::Mutex;
    use std::time::Instant;

    /// Workload passes read deltas of process-wide counters (the
    /// `hpop_obs` registry, the allocator), so tests that run them must
    /// not overlap.
    pub(crate) static SERIAL: Mutex<()> = Mutex::new(());

    fn smoke(seed: u64, traced: bool) -> PassConfig {
        PassConfig {
            seed,
            seconds: 10.0 / 20.0,
            traced,
            setups: 1,
            trace_file: None,
        }
    }

    fn exact(workload: &str, report: &Report) -> Vec<(&'static str, f64)> {
        LAYERS
            .iter()
            .filter(|m| m.source == Source::Exact && m.defined_on(workload))
            .map(|m| (m.name, report.metrics[m.name]))
            .collect()
    }

    /// One `--smoke` pass of all five: no failed op, exactly the
    /// catalog's metrics, and done in well under 20 s.
    #[test]
    fn smoke_pass_of_all_five_is_clean_and_quick() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let started = Instant::now();
        for w in &WORKLOADS {
            let report = run(w.name, &smoke(11, false));
            assert_eq!(report.failed, 0, "{}: failed ops", w.name);
            assert!(report.attempted > 0, "{}: did nothing", w.name);
            assert_eq!(
                audit(w.name, false, &report),
                Vec::<String>::new(),
                "{}",
                w.name
            );
            assert_eq!(report.metrics["failed_ops_bp"], 0.0);
        }
        if !cfg!(debug_assertions) {
            assert!(
                started.elapsed().as_secs() < 20,
                "smoke took {:?}",
                started.elapsed()
            );
        }
    }

    /// Same seed: identical exact metrics, traced or not. Another seed:
    /// a different run that still has no failed op.
    #[test]
    fn exact_metrics_repeat_per_seed_and_differ_across_seeds() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        for w in &WORKLOADS {
            let first = run(w.name, &smoke(11, false));
            let again = run(w.name, &smoke(11, true));
            assert_eq!(
                audit(w.name, true, &again),
                Vec::<String>::new(),
                "{}",
                w.name
            );
            assert_eq!(exact(w.name, &first), exact(w.name, &again), "{}", w.name);
            let other = run(w.name, &smoke(12, false));
            assert_eq!(other.failed, 0, "{}: seed 12 failed ops", w.name);
            assert_ne!(
                exact(w.name, &first),
                exact(w.name, &other),
                "{}: seed ignored",
                w.name
            );
        }
    }
}
