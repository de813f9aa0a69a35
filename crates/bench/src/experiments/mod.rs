//! The per-experiment implementations (DESIGN.md index E1–E26).

pub mod e01_ccz_utilization;
pub mod e02_tcp_rampup;
pub mod e03_bottleneck_shift;
pub mod e04_nocdn_offload;
pub mod e05_nocdn_integrity;
pub mod e06_nocdn_accounting;
pub mod e07_nocdn_chunking;
pub mod e08_dcol_detour;
pub mod e09_dcol_steering;
pub mod e10_tunnel_tradeoff;
pub mod e11_attic_availability;
pub mod e12_attic_consistency;
pub mod e13_ihome_prefetch;
pub mod e14_ihome_smoothing;
pub mod e15_coop_cache;
pub mod e16_nat_traversal;
pub mod e17_appliance_uptime;
pub mod e18_fabric_churn;
pub mod e19_gossip_bytes;
pub mod e20_chaos;
pub mod e21_recovery;
pub mod e22_trace_attribution;
pub mod e23_attic_webdav;
pub mod e24_scale;
pub mod e25_accounting_attacks;
pub mod e26_overload;

use crate::harness::ExpOptions;
use crate::table::Table;

/// What an experiment row runs: options in, result tables out.
pub type RunFn = fn(&ExpOptions) -> Vec<Table>;

/// How `exp all` treats an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InAll {
    /// Runs with the caller's options.
    Run,
    /// Runs with `stable` forced on. E19c, E22's overhead leg and E23's
    /// throughput columns are wall-clock; pinning them keeps the
    /// aggregate output deterministic and stops the run tripling the
    /// chaos leg's cost.
    Pinned,
    /// Left out. E24's columns are wall-clock throughput with no
    /// meaningful pinned form and its full sweep simulates a
    /// million-home city; E26's full form drives two 100k-home cities
    /// through a 150-second tick loop. Either would dominate the
    /// aggregate run, so they run only by name.
    Skip,
}

/// The reduced CI preset of an experiment (`exp <name> --smoke`).
pub struct Smoke {
    /// The experiment name the smoke snapshot carries. It equals the
    /// full run's name when every budgeted counter is scale-free, so one
    /// set of `BENCH_BUDGETS.txt` lines binds both scales, and differs
    /// (`scale_smoke`, `overload_smoke`) when the smoke run has budget
    /// lines of its own.
    pub name: &'static str,
    /// The preset.
    pub run: RunFn,
}

/// One row of the experiment index.
pub struct Experiment {
    /// Index id (`"E20"`), as in DESIGN.md and EXPERIMENTS.md.
    pub id: &'static str,
    /// `exp <name>`; also the `experiment` field of the snapshot and the
    /// `BENCH_<name>.json` it is written to by default.
    pub name: &'static str,
    /// The default-scale run.
    pub run: RunFn,
    /// The CI preset, for the experiments that have one.
    pub smoke: Option<Smoke>,
    /// Treatment by `exp all`.
    pub in_all: InAll,
}

const fn row(id: &'static str, name: &'static str, run: RunFn) -> Experiment {
    Experiment {
        id,
        name,
        run,
        smoke: None,
        in_all: InAll::Run,
    }
}

impl Experiment {
    const fn smoke(mut self, name: &'static str, run: RunFn) -> Experiment {
        self.smoke = Some(Smoke { name, run });
        self
    }

    const fn in_all(mut self, in_all: InAll) -> Experiment {
        self.in_all = in_all;
        self
    }
}

/// The experiment index, E1–E26 in order. `run_all`, the `exp` runner
/// and `exp list` are all read off this table.
#[rustfmt::skip]
pub static TABLE: [Experiment; 26] = [
    row("E1",  "ccz_utilization",    |_| e01_ccz_utilization::run_default()),
    row("E2",  "tcp_rampup",         |_| e02_tcp_rampup::run_default()),
    row("E3",  "bottleneck_shift",   |_| e03_bottleneck_shift::run_default()),
    row("E4",  "nocdn_offload",      |_| e04_nocdn_offload::run_default()),
    row("E5",  "nocdn_integrity",    |_| e05_nocdn_integrity::run_default()),
    row("E6",  "nocdn_accounting",   |_| e06_nocdn_accounting::run_default()),
    row("E7",  "nocdn_chunking",     |_| e07_nocdn_chunking::run_default()),
    row("E8",  "dcol_detour",        |_| e08_dcol_detour::run_default()),
    row("E9",  "dcol_steering",      |_| e09_dcol_steering::run_default()),
    row("E10", "tunnel_tradeoff",    |_| e10_tunnel_tradeoff::run_default()),
    row("E11", "attic_availability", |_| e11_attic_availability::run_default()),
    row("E12", "attic_consistency",  |_| e12_attic_consistency::run_default()),
    row("E13", "ihome_prefetch",     |_| e13_ihome_prefetch::run_default()),
    row("E14", "ihome_smoothing",    |_| e14_ihome_smoothing::run_default()),
    row("E15", "coop_cache",         |_| e15_coop_cache::run_default()),
    row("E16", "nat_traversal",      |_| e16_nat_traversal::run_default()),
    row("E17", "appliance_uptime",   |_| e17_appliance_uptime::run_default()),
    row("E18", "fabric_churn",       |_| e18_fabric_churn::run_default()),
    row("E19", "gossip_bytes",       e19_gossip_bytes::run_default).in_all(InAll::Pinned),
    row("E20", "chaos",              |_| e20_chaos::run_default())
        .smoke("chaos", |_| e20_chaos::run_smoke()),
    row("E21", "recovery",           |_| e21_recovery::run_default())
        .smoke("recovery", |_| e21_recovery::run_smoke()),
    row("E22", "trace_attribution",  e22_trace_attribution::run_default)
        .smoke("trace_attribution", e22_trace_attribution::run_smoke).in_all(InAll::Pinned),
    row("E23", "attic_webdav",       e23_attic_webdav::run_default)
        .smoke("attic_webdav", e23_attic_webdav::run_smoke).in_all(InAll::Pinned),
    row("E24", "scale",              |_| e24_scale::run_default())
        .smoke("scale_smoke", |_| e24_scale::run_smoke()).in_all(InAll::Skip),
    row("E25", "accounting",         |_| e25_accounting_attacks::run_default())
        .smoke("accounting", |_| e25_accounting_attacks::run_smoke()),
    row("E26", "overload",           |_| e26_overload::run_default())
        .smoke("overload_smoke", |_| e26_overload::run_smoke()).in_all(InAll::Skip),
];

/// Runs every experiment `exp all` does not skip at its default scale,
/// in index order.
pub fn run_all(opts: &ExpOptions) -> Vec<Table> {
    let pinned = ExpOptions {
        stable: true,
        ..opts.clone()
    };
    TABLE
        .iter()
        .flat_map(|e| match e.in_all {
            InAll::Run => (e.run)(opts),
            InAll::Pinned => (e.run)(&pinned),
            InAll::Skip => Vec::new(),
        })
        .collect()
}

/// What `exp <name> [--smoke]` runs and the experiment name its
/// snapshot carries. `all` is the aggregate run, not a table row.
///
/// # Errors
///
/// An unknown name, or `smoke` on an experiment without a smoke preset.
pub fn resolve(name: &str, smoke: bool) -> Result<(&'static str, RunFn), String> {
    let no_smoke = || format!("`{name}` has no --smoke preset");
    if name == "all" {
        return if smoke {
            Err(no_smoke())
        } else {
            Ok(("all", run_all))
        };
    }
    let e = TABLE
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    if !smoke {
        return Ok((e.name, e.run));
    }
    let s = e.smoke.as_ref().ok_or_else(no_smoke)?;
    Ok((s.name, s.run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    #[test]
    fn table_is_e1_to_e26_with_unique_names() {
        for (i, e) in TABLE.iter().enumerate() {
            assert_eq!(e.id, format!("E{}", i + 1));
        }
        let names: BTreeSet<&str> = TABLE.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), TABLE.len(), "duplicate experiment name");
        assert!(!names.contains("all") && !names.contains("list"));
    }

    #[test]
    fn resolve_names_the_snapshot() {
        let name = |n, smoke| resolve(n, smoke).map(|(name, _)| name);
        assert_eq!(name("overload", false), Ok("overload"));
        assert_eq!(name("overload", true), Ok("overload_smoke"));
        assert_eq!(name("accounting", true), Ok("accounting"));
        assert_eq!(name("all", false), Ok("all"));
        assert!(name("all", true).is_err());
        assert!(name("tcp_rampup", true).is_err());
        assert!(name("accounting_attacks", false).is_err());
    }

    /// Every experiment key in `BENCH_BUDGETS.txt` and in the
    /// `BENCH_*.json` files at the repo root is something `exp` writes.
    #[test]
    fn artifacts_name_only_table_experiments() {
        // `micro` is written by `benches/fairshare.rs`, not by `exp`.
        let mut known = BTreeSet::from(["all", "micro"]);
        for e in &TABLE {
            known.insert(e.name);
            known.extend(e.smoke.as_ref().map(|s| s.name));
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let budgets = std::fs::read_to_string(root.join("BENCH_BUDGETS.txt")).unwrap();
        let mut budgeted = 0;
        for line in budgets.lines().filter(|l| !l.starts_with('#')) {
            if let Some(key) = line.split_whitespace().next() {
                assert!(known.contains(key), "BENCH_BUDGETS.txt: unknown `{key}`");
                budgeted += 1;
            }
        }
        assert!(budgeted > 0, "no budget lines read");
        let mut snapshots = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            if file.starts_with("BENCH_") && file.ends_with(".json") {
                let key = hpop_obs::Snapshot::load(&path).unwrap().experiment;
                assert!(known.contains(key.as_str()), "{file}: unknown `{key}`");
                snapshots += 1;
            }
        }
        assert!(snapshots >= 10, "committed snapshots not found");
    }
}
