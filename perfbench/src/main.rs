//! The mapper's benchmark: end-to-end decision metrics per workload, and a
//! traced run that splits one decision into its layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|serve-wide|serve-failover> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. Load is closed-loop: one caller steps
//! the simulator as fast as the host allows, on one thread. The last line
//! of standard output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; any failed output check makes the exit code 1.
//! See `perfbench/README.md` for the workloads and metrics.

// Timing is this crate's purpose; the workspace's clippy.toml bans clocks
// only to keep them out of result-affecting code.
#![allow(clippy::disallowed_methods)]

mod grid;
mod layers;
mod probe;
mod report;
mod serve;

use report::Checks;

/// `setup_s` is the median of complete set-ups timed `SETUP_UPFRONT` times
/// before the measured work and `SETUP_PER_BREAK` times at every break in
/// it (a grid cell or burst cycle boundary, off the measured clock). The
/// host's speed drifts over tens of seconds, and set-up feels it more than
/// the decision loop, so the samples are spread over the whole run.
pub const SETUP_UPFRONT: usize = 5;
pub const SETUP_PER_BREAK: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["paper-grid", "serve-wide", "serve-failover"];

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1353,
        seconds: 18.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --seed {value:?}")))
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage(&format!("bad --seconds {value:?}")))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad --trace {value:?}")),
                }
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

fn main() {
    let args = parse_args();
    let config = match args.workload.as_str() {
        "paper-grid" => grid::config(&args),
        "serve-wide" => serve::config(&args, false),
        _ => serve::config(&args, true),
    };
    report::print_stamp(&args.workload, args.seed, args.trace, &config);
    let mut checks = Checks::default();
    let (attempted, metrics) = match args.workload.as_str() {
        "paper-grid" => grid::run(&args, &mut checks),
        "serve-wide" => serve::run(&args, false, &mut checks),
        _ => serve::run(&args, true, &mut checks),
    };
    if !report::finish(attempted, &checks, &metrics) {
        std::process::exit(1);
    }
}
