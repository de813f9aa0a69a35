//! The experiment runner: `exp <name>` runs one row of the E1–E26
//! table (`hpop_bench::experiments::TABLE`), `exp all` runs every row
//! the table does not mark skipped and writes `BENCH_all.json` (add
//! `--verbose --markdown` for the exact content of EXPERIMENTS.md),
//! `exp paper` runs the paper's rows E1–E17 into `BENCH_paper.json`, and
//! `exp list` prints the table.

use hpop_bench::experiments::{resolve, TABLE};
use hpop_bench::harness::{self, ExpOptions};

fn list() {
    println!("{:<4} {:<19} {:<18} all", "id", "name", "--smoke writes");
    for e in &TABLE {
        let smoke = e.smoke.as_ref().map_or("-", |s| s.name);
        println!("{:<4} {:<19} {:<18} {:?}", e.id, e.name, smoke, e.in_all);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let outcome = match args.next().as_deref() {
        None => Err("missing experiment name".to_string()),
        Some("list") => match args.next() {
            None => {
                list();
                Ok(())
            }
            Some(extra) => Err(format!("unknown argument `{extra}`")),
        },
        Some(name) => ExpOptions::parse(args).and_then(|opts| {
            let (exp, run) = resolve(name, opts.smoke)?;
            harness::run(exp, &opts, run);
            Ok(())
        }),
    };
    if let Err(msg) = outcome {
        eprintln!(
            "exp: {msg}\nusage: exp <name>|all|paper {}\n       exp list",
            ExpOptions::USAGE
        );
        std::process::exit(2);
    }
}
