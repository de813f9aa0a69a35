//! Isolated layer measurements: a layer that is only reached through
//! another is replayed alone, through its public function, so that a
//! change to it can be predicted before the end-to-end run shows it.
//! These run after the measured window of a traced pass.

use crate::harness::Report;
use hpop_crypto::hmac::hmac_sha256;
use hpop_crypto::puzzle::{self, PuzzleChallenge, PuzzleParams};
use hpop_crypto::sha256::Sha256;
use hpop_durability::{DurabilityConfig, Durable, Persistent};
use hpop_fabric::wire;
use hpop_fabric::{Advertisement, PeerId, PeerRecord};
use hpop_netsim::calendar::CalendarQueue;
use hpop_netsim::storage::SimDisk;
use hpop_netsim::time::SimTime;
use hpop_resilience::{Admission, AdmissionConfig, BreakerBank, BreakerConfig, Hedge, HedgeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Mean ns per call of `f` over `iters` calls: best of three rounds,
/// because interference only ever adds time.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// The observability layer's own cost, reported on every workload: the
/// string-keyed registry lookup the crates do on hot paths, and one
/// histogram record.
pub fn obs_layers(report: &mut Report) {
    let metrics = hpop_obs::metrics();
    // A name the services really look up per operation.
    metrics.counter("durability.ops.committed");
    report.set(
        "obs.metrics.counter_lookup_ns",
        ns_per_call(200_000, |_| {
            black_box(metrics.counter(black_box("durability.ops.committed")));
        }),
    );
    let hist = hpop_obs::MetricsRegistry::new().histogram("bench.micro");
    report.set(
        "obs.hist.record_ns",
        ns_per_call(200_000, |i| hist.record(black_box(i * 37 % 100_000))),
    );
}

/// SHA-256 cost per byte over a 1 MiB buffer, ×1000.
pub fn sha256_ns_per_byte_x1000() -> f64 {
    let buf: Vec<u8> = (0..1u32 << 20).map(|i| (i % 251) as u8).collect();
    let ns = ns_per_call(8, |_| {
        black_box(Sha256::digest(black_box(&buf)));
    });
    ns * 1000.0 / buf.len() as f64
}

/// HMAC-SHA256 over a usage-record-sized message.
pub fn hmac_sign_ns() -> f64 {
    let key = [7u8; 32];
    let msg = [0x5au8; 64];
    ns_per_call(20_000, |_| {
        black_box(hmac_sha256(black_box(&key), black_box(&msg)));
    })
}

/// Accountability-puzzle `(prove, verify)` cost in ns per KiB of
/// served data, default parameters, over a 256 KiB object.
pub fn puzzle_ns_per_kib() -> (f64, f64) {
    let params = PuzzleParams::default();
    let data: Vec<u8> = (0..256u32 << 10).map(|i| (i % 253) as u8).collect();
    let kib = (data.len() >> 10) as f64;
    let challenge = PuzzleChallenge([9u8; 32]);
    let (proof, _) = puzzle::solve(&challenge, &data, &params);
    let prove = ns_per_call(8, |_| {
        black_box(puzzle::solve(black_box(&challenge), &data, &params));
    });
    let verify = ns_per_call(64, |_| {
        black_box(puzzle::verify(
            black_box(&challenge),
            &data,
            &proof,
            &params,
        ));
    });
    (prove / kib, verify / kib)
}

/// The three gates `ResilientFetcher::fetch` consults per chunk:
/// `(admission admit+complete, breaker allow, hedge trigger+gate)`.
pub fn resilience_gate_ns() -> (f64, f64, f64) {
    let t = SimTime::from_secs(1);
    // A bucket that never runs dry: the gate's cost, not its refusals.
    let mut admission = Admission::new(
        AdmissionConfig {
            rate_per_sec: 1e12,
            burst: 1e12,
            ..AdmissionConfig::default()
        },
        t,
    );
    let admit = ns_per_call(200_000, |_| {
        if black_box(admission.try_admit(t)).is_ok() {
            admission.complete(false);
        }
    });
    let mut breakers: BreakerBank<u32> = BreakerBank::new(BreakerConfig::default());
    let allow = ns_per_call(200_000, |i| {
        black_box(breakers.allow((i % 32) as u32, t));
    });
    let mut hedge = Hedge::new(HedgeConfig::default());
    for i in 0..256u64 {
        hedge.record(hpop_netsim::time::SimDuration::from_millis(5 + i % 40));
    }
    let decide = ns_per_call(200_000, |_| {
        black_box(hedge.trigger());
        black_box(hedge.allow_fire(black_box(0.1)));
    });
    (admit, allow, decide)
}

/// Gossip wire `(encode, decode)` of an eight-record delta list.
pub fn fabric_wire_ns() -> (f64, f64) {
    let records: Vec<PeerRecord> = (0..8u64)
        .map(|i| PeerRecord::alive(PeerId(i), Advertisement::default(), SimTime::from_secs(i)))
        .collect();
    let mut buf = Vec::with_capacity(512);
    let encode_once = |buf: &mut Vec<u8>| {
        wire::begin_list(buf, wire::TAG_RECORDS, PeerId(1));
        for r in &records {
            wire::push_record(buf, r);
        }
    };
    let encode = ns_per_call(100_000, |_| {
        encode_once(&mut buf);
        black_box(buf.len());
    });
    encode_once(&mut buf);
    assert!(wire::decode_message(&buf).is_some(), "round trip");
    let decode = ns_per_call(100_000, |_| {
        black_box(wire::decode_message(black_box(&buf)));
    });
    (encode, decode)
}

/// One calendar-queue push plus one pop in the hold model: the queue
/// stands at `standing` entries and every popped key is re-inserted a
/// recorded flow duration later. `durations_us` is the run's own
/// completion-time distribution, as `(value, count)` buckets.
pub fn calendar_push_pop_ns(durations_us: &[(u64, u64)], standing: usize, seed: u64) -> f64 {
    assert!(!durations_us.is_empty(), "no recorded durations");
    let total: u64 = durations_us.iter().map(|&(_, n)| n).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut draw = move || {
        let mut x = rng.gen_range(0..total);
        for &(v, n) in durations_us {
            if x < n {
                return v.max(1) * 1_000;
            }
            x -= n;
        }
        unreachable!("x < total")
    };
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    let mut seq = 0u64;
    for _ in 0..standing {
        seq += 1;
        q.push(draw(), seq, 0);
    }
    ns_per_call(400_000, |_| {
        let (key, _, item) = q.pop_min().expect("standing population");
        seq += 1;
        q.push(key + draw(), seq, item);
    })
}

/// The trivial adopter the bare `Persistent<T>` replay runs over: a
/// bounded byte log, so a snapshot has a realistic size.
#[derive(Debug, Default)]
pub struct Blob {
    data: Vec<u8>,
}

/// State size at which [`Blob`] starts over; roughly the attic's
/// steady-state snapshot in `attic_durable_write`.
const BLOB_CAP: usize = 1 << 20;

impl Durable for Blob {
    fn fresh() -> Blob {
        Blob::default()
    }
    fn encode_state(&self) -> Vec<u8> {
        self.data.clone()
    }
    fn decode_state(bytes: &[u8]) -> Option<Blob> {
        Some(Blob {
            data: bytes.to_vec(),
        })
    }
    fn apply(&mut self, op: &[u8]) {
        if self.data.len() + op.len() > BLOB_CAP {
            self.data.clear();
        }
        self.data.extend_from_slice(op);
    }
}

/// Replays recorded op payload sizes through a bare `Persistent<Blob>`:
/// `(ns per execute, ns per explicit snapshot)`. The default
/// configuration's own periodic snapshots are inside the first number,
/// as they are inside the service's.
pub fn persistent_replay_ns(payload_sizes: &[u32], seed: u64) -> (f64, f64) {
    assert!(!payload_sizes.is_empty(), "no recorded payloads");
    let payload = vec![0xa5u8; payload_sizes.iter().copied().max().unwrap_or(0) as usize];
    let mut p = Persistent::<Blob>::open(SimDisk::new(seed), "replay", DurabilityConfig::default())
        .expect("fresh disk opens");
    let t = Instant::now();
    for &size in payload_sizes {
        p.execute(&payload[..size as usize])
            .expect("no crash armed");
    }
    let execute = t.elapsed().as_nanos() as f64 / payload_sizes.len() as f64;
    let snapshot = ns_per_call(8, |_| p.snapshot_now().expect("no crash armed"));
    (execute, snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_measurements_produce_positive_numbers() {
        let _serial = crate::workloads::tests::SERIAL
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        assert!(sha256_ns_per_byte_x1000() > 0.0);
        assert!(hmac_sign_ns() > 0.0);
        let (prove, verify) = puzzle_ns_per_kib();
        assert!(prove > 0.0 && verify > 0.0);
        let (a, b, c) = resilience_gate_ns();
        assert!(a > 0.0 && b > 0.0 && c > 0.0);
        let (e, d) = fabric_wire_ns();
        assert!(e > 0.0 && d > 0.0);
        assert!(calendar_push_pop_ns(&[(100, 5), (20_000, 1)], 64, 1) > 0.0);
        let (x, s) = persistent_replay_ns(&[32, 1100, 48, 1100], 1);
        assert!(x > 0.0 && s > 0.0);
    }

    #[test]
    fn blob_obeys_the_durable_laws() {
        let mut b = Blob::fresh();
        b.apply(b"abc");
        b.apply(b"de");
        let round = Blob::decode_state(&b.encode_state()).unwrap();
        assert_eq!(round.data, b"abcde");
    }
}
