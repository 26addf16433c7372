//! End-to-end benchmark of the `divrd` daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_serve|cold_large|query_mutate|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives an in-process `divr_service::Service` (two
//! workers, admission quotas that never bind) over loopback TCP from at
//! most two load threads and two connections. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` sends the same seeded frames over the
//! wire, then replays them in process through each layer's public
//! function inside spans and prints the per-layer metrics. Both check
//! every answer and the daemon's health counters; any failed check makes
//! the run exit non-zero. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod gen;
mod load;
mod replay;
mod report;
mod workloads;

use std::path::PathBuf;
use std::process::Command;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["warm_serve", "cold_large", "query_mutate"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `--workload all`: every workload, untraced then traced, each in its
/// own process so that `peak_rss_mb` belongs to one workload.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{workload} (trace {trace}) failed: {s}");
                    code = 1;
                }
                Err(e) => {
                    eprintln!("{workload} (trace {trace}) did not start: {e}");
                    code = 1;
                }
            }
        }
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload <warm_serve|cold_large|query_mutate|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    // Scratch space inside the working directory, removed on exit.
    let root = PathBuf::from(".bench_tmp");
    let scratch = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let outcome = match args.workload.as_str() {
        "query_mutate" => workloads::query_mutate(&args, &scratch),
        _ => workloads::serve(&args),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(outcome) => std::process::exit(outcome.print()),
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
