//! CLI to regenerate the paper's tables and figures.
//!
//! ```text
//! cais-experiments [fig2|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|table2|area|ablations|sensitivity|resilience|chaos|all]...
//!                  [--smoke] [--jobs N] [--timeout-secs N] [--audit]
//! ```
//!
//! `--jobs N` bounds the sweep worker pool (default: the host's
//! available parallelism). The printed tables are byte-identical at
//! every worker count; timing diagnostics go to stderr. A simulation
//! that returns a typed error or panics becomes a FAILED line (and NaN
//! cells) in its table; `--timeout-secs N` arms a per-job wall-clock
//! watchdog whose victims become TIMEOUT lines instead. Either makes the
//! process exit with status 1.
//!
//! `--audit` enables the conservation auditor for every run: cadence
//! ledger checks plus end-of-run quiescence verification (see
//! [`sim_core::audit`]). Auditing is observe-only — tables are
//! byte-identical with it on and off — and a violation fails the run with
//! a forensic report. The `chaos` experiment additionally forces audit on
//! for its own runs regardless of the flag.
//!
//! Arguments are strict: an unknown flag or experiment name prints the
//! usage to stderr and exits with status 2 without running anything.
//! `--help` prints the usage to stdout and exits 0.

use cais_harness::{runner::Scale, sweep, Table};
use std::time::{Duration, Instant};

type Experiment = (&'static str, fn(Scale, usize) -> Vec<Table>);

const EXPERIMENTS: [Experiment; 15] = [
    ("fig2", cais_harness::fig02::run),
    ("fig11", cais_harness::fig11::run),
    ("fig12", cais_harness::fig12::run),
    ("fig13", cais_harness::fig13::run),
    ("fig14", cais_harness::fig14::run),
    ("fig15", cais_harness::fig15::run),
    ("fig16", cais_harness::fig16::run),
    ("fig17", cais_harness::fig17::run),
    ("fig18", cais_harness::fig18::run),
    ("table2", cais_harness::table2::run),
    ("area", cais_harness::area::run),
    ("ablations", cais_harness::ablations::run),
    ("sensitivity", cais_harness::sensitivity::run),
    ("resilience", cais_harness::resilience::run),
    ("chaos", cais_harness::chaos::run),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: cais-experiments [EXPERIMENT]... [--smoke] [--audit] [--jobs N] [--timeout-secs N]\n\
         experiments: {} all (default: all)",
        names.join(" ")
    )
}

/// Prints `msg` and the usage to stderr and exits with status 2.
fn bad_args(msg: &str) -> ! {
    eprintln!("cais-experiments: {msg}\n{}", usage());
    std::process::exit(2);
}

/// Parses the value of `flag` as a positive integer, exiting with status
/// 2 when it is missing or malformed.
fn positive(flag: &str, value: Option<String>) -> u64 {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| bad_args(&format!("{flag} needs a positive integer")))
}

fn main() {
    let mut smoke = false;
    let mut jobs = None;
    let mut timeout = None;
    let mut which: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v)),
            _ => (arg.as_str(), None),
        };
        let mut count = || positive(flag, inline.map(str::to_owned).or_else(|| args.next()));
        match flag {
            "--help" if inline.is_none() => {
                println!("{}", usage());
                return;
            }
            "--smoke" if inline.is_none() => smoke = true,
            "--audit" if inline.is_none() => sim_core::audit::set_force_enabled(true),
            "--jobs" => jobs = Some(count() as usize),
            "--timeout-secs" => timeout = Some(Duration::from_secs(count())),
            _ if arg.starts_with('-') => bad_args(&format!("unknown option {arg:?}")),
            name if name == "all" || EXPERIMENTS.iter().any(|(n, _)| *n == name) => which.push(arg),
            _ => bad_args(&format!("unknown experiment {arg:?}")),
        }
    }
    let scale = if smoke { Scale::Smoke } else { Scale::Paper };
    let jobs = jobs.unwrap_or_else(sweep::default_jobs);
    sweep::set_job_timeout(timeout);
    let run_all = which.is_empty() || which.iter().any(|w| w == "all");

    let mut failed = 0usize;
    let mut timed_out = 0usize;
    for (name, f) in &EXPERIMENTS {
        if run_all || which.iter().any(|w| w == name) {
            let t0 = Instant::now();
            for table in f(scale, jobs) {
                failed += table.failures.len();
                timed_out += table.timeouts.len();
                println!("{}", table.render());
            }
            eprintln!("[{name} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
        }
    }
    if failed > 0 || timed_out > 0 {
        eprintln!(
            "{failed} sweep job(s) failed, {timed_out} timed out; see FAILED/TIMEOUT lines above"
        );
        std::process::exit(1);
    }
}
