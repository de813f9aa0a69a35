//! Runs every experiment of the E1–E26 index except the two city-scale
//! ones (E24, E26) and writes `BENCH_all.json`.
//!
//! Quiet by default; `--verbose --markdown` prints the tables as
//! GitHub Markdown — the exact content recorded in EXPERIMENTS.md.

use hpop_bench::experiments::run_all;

fn main() {
    hpop_bench::harness::run("all", run_all);
}
