//! The repository benchmark: seeded closed-loop workloads driven
//! through the public surface (`EntropySource`/`Session`, and
//! `Service::connect` + `Connection::handle_frame`), timed from
//! outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload raw-bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and writes the run's spans to
//! `perfbench/out/<workload>-seed<seed>.spans.jsonl`. The last line of
//! standard output is one JSON object; the exit code is non-zero when
//! any operation failed or any correctness check did not hold.

mod inputs;
mod layers;
mod measure;
mod raw_bulk;
mod replay;
mod report;
mod reseed_mixed;
mod trace;
mod wire_drbg;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use inputs::Inputs;
use measure::CountingAllocator;
use report::RunConfig;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: perfbench --workload <raw-bulk|wire-drbg|reseed-mixed> \
                     --seed <u64> --seconds <n> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["raw-bulk", "wire-drbg", "reseed-mixed"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|&&w| w == value)
                        .ok_or_else(|| bad("unknown workload"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::from_seed(args.seed);
    let run = RunConfig {
        seconds: args.seconds,
        traced: args.trace,
        epoch: Instant::now(),
    };
    let outcome = match args.workload {
        "raw-bulk" => raw_bulk::run(&inputs, &run),
        "wire-drbg" => wire_drbg::run(&inputs, &run),
        _ => reseed_mixed::run(&inputs, &run),
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut header = format!(
        "perfbench {} seed={} seconds={} trace={} host_cpus={cpus}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &outcome.spans) {
            Ok(()) => header += &format!(" spans={} ({})", path.display(), outcome.spans.len()),
            Err(error) => {
                eprintln!("cannot write {}: {error}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    outcome.print(&header);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
