//! E24: the metro-scale sweep — sim-seconds per wall-second and
//! allocator work per flow event for cities of 1k…1M homes (see
//! DESIGN.md experiment index).
//!
//! `--smoke` runs the CI preset (≤10k homes, short windows) under the
//! experiment name `scale_smoke`, so the smoke budget floors are
//! separate from the full sweep's. Neither form is ever `--stable`:
//! every headline column is a wall-clock measurement.

use hpop_bench::experiments::e24_scale;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        hpop_bench::harness::run("scale_smoke", e24_scale::run_smoke);
    } else {
        hpop_bench::harness::run("scale", e24_scale::run_default);
    }
}
