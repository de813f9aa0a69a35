//! E19: gossip dissemination cost of delta piggybacking, detection
//! quality, and the GF(256) slice kernel (see DESIGN.md experiment
//! index). Add `--stable` for a byte-identical replayable snapshot
//! (pins the wall-clock gauge and the GF(256) MB/s cells to 0).

use hpop_bench::experiments::e19_gossip_bytes;

fn main() {
    hpop_bench::harness::run_opts("gossip_bytes", e19_gossip_bytes::run_default);
}
