//! # hpop-bench — the experiment harness
//!
//! One module per experiment in DESIGN.md's index (E1–E26), and one
//! table ([`experiments::TABLE`]) that names them. Each experiment
//! exposes `run(…) -> Table` producing the rows the paper's claims
//! predict; `exp <name>` runs one, `exp all` regenerates the complete
//! EXPERIMENTS.md data, and `benches/fairshare.rs` is the micro-bench
//! ledger that writes `BENCH_micro.json`.
//!
//! Everything is seeded and deterministic: running any experiment twice
//! prints identical tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod table;

pub use table::Table;
