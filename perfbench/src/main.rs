//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints a table of its metrics, then, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` the per-layer metrics of a traced run.

use std::process::ExitCode;

use aero_perfbench::measure;
use aero_perfbench::report::{json_line, table};
use aero_perfbench::workload::{Size, Workload};

const USAGE: &str = "usage: perfbench --workload <read_retry|gc_churn|tenants> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let m = measure(
        args.workload,
        args.seed,
        Size::Run,
        args.seconds,
        args.traced,
    );
    print!("{}", table(args.workload, args.seed, &m.metrics));
    for line in m.failures.iter().chain(&m.unresolved) {
        println!("# check failed: {line}");
    }
    println!(
        "{}",
        json_line(m.correct(), m.attempted, m.failed, &m.metrics)
    );
    ExitCode::SUCCESS
}
