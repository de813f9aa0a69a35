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

use crate::table::Table;

/// Runs every experiment at its default scale, in index order.
pub fn run_all() -> Vec<Table> {
    let mut out = Vec::new();
    out.extend(e01_ccz_utilization::run_default());
    out.extend(e02_tcp_rampup::run_default());
    out.extend(e03_bottleneck_shift::run_default());
    out.extend(e04_nocdn_offload::run_default());
    out.extend(e05_nocdn_integrity::run_default());
    out.extend(e06_nocdn_accounting::run_default());
    out.extend(e07_nocdn_chunking::run_default());
    out.extend(e08_dcol_detour::run_default());
    out.extend(e09_dcol_steering::run_default());
    out.extend(e10_tunnel_tradeoff::run_default());
    out.extend(e11_attic_availability::run_default());
    out.extend(e12_attic_consistency::run_default());
    out.extend(e13_ihome_prefetch::run_default());
    out.extend(e14_ihome_smoothing::run_default());
    out.extend(e15_coop_cache::run_default());
    out.extend(e16_nat_traversal::run_default());
    out.extend(e17_appliance_uptime::run_default());
    out.extend(e18_fabric_churn::run_default());
    // E19c, E22's overhead leg and E23's throughput columns are
    // wall-clock; inside the aggregate run they stay pinned (stable) so
    // `exp_all` output is deterministic and the run doesn't triple the
    // chaos leg's cost.
    let pinned = crate::harness::ExpOptions {
        stable: true,
        ..crate::harness::ExpOptions::default()
    };
    out.extend(e19_gossip_bytes::run_default(&pinned));
    out.extend(e20_chaos::run_default());
    out.extend(e21_recovery::run_default());
    out.extend(e22_trace_attribution::run_default(&pinned));
    out.extend(e23_attic_webdav::run_default(&pinned));
    // E24 is deliberately absent: its columns are wall-clock throughput
    // measurements with no meaningful pinned form, and the full sweep
    // simulates a million-home city. It runs only via `exp_scale`
    // (`--smoke` for the CI preset).
    out.extend(e25_accounting_attacks::run_default());
    // E26 is deliberately absent: its full form drives two 100k-home
    // cities through a 150-second tick loop, which would dominate the
    // aggregate run. It runs only via `exp_overload` (`--smoke` for
    // the CI preset; both forms are deterministic).
    out
}
