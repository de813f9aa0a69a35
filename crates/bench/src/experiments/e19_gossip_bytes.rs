//! E19 — gossip dissemination cost of delta piggybacking.
//!
//! The fabric piggybacks only *changed* records on ping/ack (bounded to
//! λ·⌈log₂ n⌉ retransmits each) and falls back to compact digests on a
//! slow timer, so gossip cost grows as O(n·rounds) headers plus churn.
//! This experiment quantifies that under the paper churn preset:
//!
//! - **E19a** — total gossip bytes at n ∈ {32, 64, 100, 128, 256},
//!   split into delta and digest traffic.
//! - **E19b** — failure-detection quality at n = 100 (target: zero
//!   false positives, no scoring exemptions). Latency is scored per
//!   *local* declaration from the subject's original down time, so the
//!   p99 tail is dominated by rejoining observers catching up on old
//!   deaths via the bootstrap digest (see EXPERIMENTS.md E19b).
//! - **E19c** — `gf256::mul_slice` throughput against the scalar
//!   per-byte loop it replaced in Reed–Solomon encode/reconstruct
//!   (wall-clock; pinned to 0 under `--stable`).
//!
//! The full-table push-pull baseline this protocol replaced (102–108×
//! more bytes at the same sizes) is frozen in EXPERIMENTS.md.

use crate::harness::ExpOptions;
use crate::table::{f2, Table};
use hpop_erasure::gf256;
use hpop_fabric::{Advertisement, Fabric, FabricConfig, PeerId};
use hpop_netsim::churn::{ChurnConfig, ChurnSchedule};
use hpop_netsim::time::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Byte and latency outcome of one churn schedule.
pub struct GossipCost {
    /// Total gossip bytes shipped (all message kinds).
    pub total_bytes: u64,
    /// Bytes of piggybacked delta records.
    pub delta_bytes: u64,
    /// Bytes of digest anti-entropy traffic.
    pub digest_bytes: u64,
    /// Digest sync exchanges performed.
    pub digest_syncs: u64,
    /// True dead declarations.
    pub detections: u64,
    /// Declarations against genuinely-up peers.
    pub false_positives: u64,
    /// 99th-percentile detection latency, milliseconds.
    pub p99_ms: f64,
}

/// Drives an `n`-node fabric against the paper churn preset for
/// `horizon_secs` sim-seconds and returns its gossip cost.
pub fn run_churn(n: usize, horizon_secs: u64, seed: u64) -> GossipCost {
    let horizon = SimTime::from_secs(horizon_secs);
    let churn = ChurnSchedule::generate(n, ChurnConfig::paper_preset(seed), horizon);
    let mut fabric = Fabric::new(FabricConfig {
        seed: seed ^ 0xe19,
        ..FabricConfig::default()
    });
    for i in 0..n {
        fabric.join(Advertisement {
            rtt_ms: 2.0 + (i % 11) as f64 * 4.0,
            ..Advertisement::default()
        });
    }
    let mut events = Vec::new();
    for s in 0..horizon_secs {
        churn.transitions_into(
            SimTime::from_secs(s),
            SimTime::from_secs(s + 1),
            &mut events,
        );
        for ev in &events {
            fabric.set_up(PeerId(ev.node as u64), ev.up);
        }
        fabric.tick();
    }
    let stats = fabric.stats();
    let mut lat = stats.detection_latency_ms.clone();
    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99 = if lat.is_empty() {
        0.0
    } else {
        let idx = ((lat.len() as f64 - 1.0) * 0.99).round() as usize;
        lat[idx.min(lat.len() - 1)]
    };
    GossipCost {
        total_bytes: stats.gossip_bytes,
        delta_bytes: stats.delta_bytes,
        digest_bytes: stats.digest_bytes,
        digest_syncs: stats.digest_syncs,
        detections: stats.true_detections,
        false_positives: stats.false_positives,
        p99_ms: p99,
    }
}

/// E19a: bytes shipped across neighborhood sizes.
pub fn bytes_table(sizes: &[usize], horizon_secs: u64) -> Table {
    let mut t = Table::new(
        "E19a",
        format!("gossip bytes, delta piggyback ({horizon_secs} sim-s, paper churn)"),
        &["nodes", "delta MB", "of which digest MB", "digest syncs"],
    );
    for &n in sizes {
        let r = run_churn(n, horizon_secs, 0xe19);
        t.push(vec![
            n.to_string(),
            f2(r.total_bytes as f64 / 1e6),
            f2(r.digest_bytes as f64 / 1e6),
            r.digest_syncs.to_string(),
        ]);
    }
    t
}

/// E19b: detection quality on the byte diet.
pub fn detection_table(n: usize, horizon_secs: u64) -> Table {
    let mut t = Table::new(
        "E19b",
        format!("failure detection ({n} peers, {horizon_secs} sim-s)"),
        &["detections", "false positives", "p99 detect latency (s)"],
    );
    let r = run_churn(n, horizon_secs, 0xe19);
    t.push(vec![
        r.detections.to_string(),
        r.false_positives.to_string(),
        f2(r.p99_ms / 1e3),
    ]);
    t
}

/// E19c: `gf256::mul_slice` throughput vs the scalar loop it replaced.
/// Under `--stable` both cells are pinned to 0 so the committed
/// artifact stays byte-identical.
pub fn gf256_table(stable: bool) -> Table {
    let mut t = Table::new(
        "E19c",
        "GF(256) multiply-accumulate throughput (1 MiB slice)",
        &["kernel", "MB/s"],
    );
    let (scalar_mbps, slice_mbps) = if stable { (0.0, 0.0) } else { measure_gf256() };
    t.push(vec!["scalar mul+add".into(), f2(scalar_mbps)]);
    t.push(vec!["mul_slice".into(), f2(slice_mbps)]);
    t
}

/// `(scalar, mul_slice)` MB/s over 16 passes of a 1 MiB slice.
fn measure_gf256() -> (f64, f64) {
    const LEN: usize = 1 << 20;
    let src: Vec<u8> = (0..LEN).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; LEN];
    let coefs = [0x53u8, 0x80, 0xb6, 0x1d];

    let reps = 16u32;
    let start = Instant::now();
    for r in 0..reps {
        let coef = coefs[r as usize % coefs.len()];
        for (o, &b) in dst.iter_mut().zip(src.iter()) {
            *o = gf256::add(*o, gf256::mul(coef, b));
        }
    }
    black_box(&dst);
    let scalar_s = start.elapsed().as_secs_f64();

    dst.fill(0);
    let start = Instant::now();
    for r in 0..reps {
        gf256::mul_slice(coefs[r as usize % coefs.len()], &src, &mut dst);
    }
    black_box(&dst);
    let slice_s = start.elapsed().as_secs_f64();

    let mb = (LEN as f64 * reps as f64) / 1e6;
    (mb / scalar_s, mb / slice_s)
}

/// Default-scale run. The byte sweep uses a short horizon; the
/// detection leg runs longer at the paper's n = 100 so the latency
/// percentiles have enough kills behind them.
pub fn run_default(opts: &ExpOptions) -> Vec<Table> {
    vec![
        bytes_table(&[32, 64, 100, 128, 256], 600),
        detection_table(100, 1800),
        gf256_table(opts.stable),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_accounting_adds_up_and_digest_runs() {
        let r = run_churn(24, 300, 7);
        assert!(r.delta_bytes + r.digest_bytes <= r.total_bytes);
        assert!(r.digest_syncs > 0, "digest fallback must run");
    }

    #[test]
    fn detects_without_false_positives() {
        let r = run_churn(24, 600, 7);
        assert!(r.detections > 0, "no detections");
        assert_eq!(r.false_positives, 0);
    }

    #[test]
    fn mul_slice_table_reports_both_kernels() {
        assert_eq!(gf256_table(false).len(), 2);
        let pinned = gf256_table(true);
        assert!(pinned.rows.iter().all(|r| r[1] == "0.00"));
    }
}
