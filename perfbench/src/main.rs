//! Host benchmark of the CAIS simulator at paper scale.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cais-llama7b-8g --seed 0 --seconds 25 --trace 0
//! ```
//!
//! Runs one untimed warm-up pass of the workload, then timed passes
//! until `--seconds` have elapsed, checks every job's simulated outputs,
//! and prints the metrics, one per line, followed by a JSON result line.
//! `wall_s` and `setup_s` are rescaled to a nominal host by timing a
//! fixed reference loop around every pass (`reference.rs`).
//! `--trace 0` reports the end-to-end metrics; `--trace 1` adds an
//! audited pass, alternates untraced and traced passes, and reports the
//! per-layer metrics. `--record` prints the workload's fingerprints at
//! the default seed in `fingerprints.tsv` format. See `README.md`.

mod alloc;
mod fingerprint;
mod layers;
mod reference;
mod stats;
mod timed;
mod workload;

use cais_engine::SystemConfig;
use fingerprint::Recorded;
use stats::{median, quartiles, Tally};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Mode, PassResult, Workload, NAMES};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fingerprints of every workload's jobs at `--seed 0`.
const FINGERPRINTS: &str = include_str!("../fingerprints.tsv");

/// End-to-end metrics with their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) = (None, 0, 10, false, false);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {NAMES:?}")
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record,
    })
}

/// Checks every pass's outputs against a reference: the recorded
/// fingerprints at the default seed, otherwise the first pass seen.
struct Checker {
    reference: Recorded,
    recorded: bool,
    tables: Option<String>,
    tally: Tally,
    problems: Vec<String>,
}

impl Checker {
    fn new(recorded: Option<Recorded>) -> Checker {
        Checker {
            recorded: recorded.is_some(),
            reference: recorded.unwrap_or_default(),
            tables: None,
            tally: Tally::default(),
            problems: Vec::new(),
        }
    }

    fn check(&mut self, pass: &PassResult, what: &str) {
        for job in &pass.jobs {
            let problem = match &job.outcome {
                Err(msg) => Some(format!("failed: {msg}")),
                Ok(summary) => match self.reference.get(&job.label) {
                    Some(want) => summary.fingerprint.diff(want),
                    None if self.recorded => Some("no recorded fingerprint".to_string()),
                    None => {
                        let fp = summary.fingerprint.clone();
                        self.reference.insert(job.label.clone(), fp);
                        None
                    }
                },
            };
            self.tally.record(problem.is_none());
            if let Some(p) = problem {
                self.problems
                    .push(format!("{what} pass, job {}: {p}", job.label));
            }
        }
        if let Some(tables) = &pass.tables {
            if tables.contains("FAILED") || tables.contains("TIMEOUT") {
                self.problems.push(format!(
                    "{what} pass: fig11 table has FAILED or TIMEOUT rows"
                ));
            }
            match &self.tables {
                None => self.tables = Some(tables.clone()),
                Some(first) if first != tables => self.problems.push(format!(
                    "{what} pass: fig11 table differs from the first pass"
                )),
                Some(_) => {}
            }
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kb / 1024.0
}

fn json_result(check: &Checker, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.problems.is_empty(),
        check.tally.attempted,
        check.tally.failed,
        body.join(", ")
    )
}

fn print_spread(name: &str, unit: &str, samples: &[f64]) {
    let [q1, q2, q3] = quartiles(samples);
    println!(
        "{name:<12} {q2:>12.6} {unit:<3} median of {} (q1 {q1:.6}, q3 {q3:.6})",
        samples.len()
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let default_seed = SystemConfig::dgx_h100().seed;
    if args.record {
        for job in &w.run_pass(default_seed, Mode::Plain).jobs {
            match &job.outcome {
                Ok(s) => print!("{}", s.fingerprint.to_tsv(w.name, &job.label)),
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", job.label);
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let recorded = match fingerprint::parse(FINGERPRINTS, w.name) {
        Ok(r) if args.seed == 0 => Some(r),
        Ok(_) => None,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--seed` offsets the paper's jitter seed; 0 is the paper's run.
    let seed = default_seed.wrapping_add(args.seed);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {} (SystemConfig::seed {seed:#x}), trace {}, {} job(s) on {} thread(s), {cpus} cpu(s)",
        w.name,
        args.seed,
        u8::from(args.trace),
        w.job_count(),
        w.workers,
    );

    let mut check = Checker::new(recorded);
    check.check(&w.run_pass(seed, Mode::Plain), "warm-up");
    if args.trace {
        check.check(&w.run_pass(seed, Mode::Audited), "audited");
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || start.elapsed() < budget {
        let p = w.run_pass(seed, Mode::Plain);
        check.check(&p, "timed");
        plain.push(p);
        if args.trace {
            let t = w.run_pass(seed, Mode::Traced);
            check.check(&t, "traced");
            traced.push(t);
        }
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let values = layers::per_layer(&traced, &plain);
        let metrics: Vec<_> = layers::PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect();
        println!(
            "{} traced and {} untraced passes",
            traced.len(),
            plain.len()
        );
        for (name, unit, v) in &metrics {
            println!("{name:<26} {v:>16.6} {unit}");
        }
        metrics
    } else {
        let walls: Vec<f64> = plain.iter().map(PassResult::nominal_wall).collect();
        let setups: Vec<f64> = plain.iter().map(PassResult::nominal_setup).collect();
        let host: Vec<f64> = plain.iter().map(|p| p.own_wall().as_secs_f64()).collect();
        let speeds: Vec<f64> = plain
            .iter()
            .flat_map(|p| p.jobs.iter().map(|j| j.timing.scale()))
            .collect();
        let rss = peak_rss_mb();
        let ok_ratio = 1.0 - check.tally.fail_ratio();
        print_spread("wall_s", "s", &walls);
        print_spread("setup_s", "s", &setups);
        print_spread("host wall", "s", &host);
        println!(
            "{:<12} {:>12.6}     nominal over measured reference run, median of {} jobs",
            "host speed",
            median(&speeds),
            speeds.len()
        );
        println!("{:<12} {rss:>12.6} MB", "peak_rss_mb");
        println!(
            "{:<12} {:>12.6}     {} of {} jobs failed",
            "fail_ratio",
            check.tally.fail_ratio(),
            check.tally.failed,
            check.tally.attempted
        );
        let values = [median(&walls), median(&setups), rss, ok_ratio];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    for p in &check.problems {
        println!("MISMATCH {p}");
    }
    println!("{}", json_result(&check, &metrics));
    if check.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(name: &str, unit: &str) -> bool {
        BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric_with_its_unit() {
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for name in NAMES {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\"")));
        }
    }

    #[test]
    fn recorded_fingerprints_cover_every_job() {
        for name in NAMES {
            let rec = fingerprint::parse(FINGERPRINTS, name).expect("well-formed");
            for label in Workload::by_name(name).expect("a known workload").labels() {
                assert!(
                    rec.contains_key(label),
                    "no fingerprint recorded for {label}"
                );
            }
        }
    }

    #[test]
    fn args_are_strict() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload ring-llama7b-8g --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("ring-llama7b-8g", 3, 5, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload ring-llama7b-8g --trace 2").is_err());
        assert!(parse("--workload ring-llama7b-8g --bogus 1").is_err());
        assert!(parse("--seed 1").is_err());
    }

    #[test]
    fn checker_counts_failures_and_names_the_field() {
        let job = |events: &str| {
            let tsv = format!("w\tjob\tsim_ps\t7\nw\tjob\tevents\t{events}\n");
            fingerprint::parse(&tsv, "w").unwrap()
        };
        let pass = PassResult {
            wall: Duration::from_millis(1),
            jobs: ["1000", "1001", "boom"]
                .iter()
                .map(|&events| workload::JobRun {
                    label: "job".into(),
                    wall: Duration::ZERO,
                    timing: workload::JobTiming::default(),
                    outcome: match events {
                        "boom" => Err("deadlock".into()),
                        e => Ok(workload::Summary {
                            fingerprint: job(e)["job"].clone(),
                            ..Default::default()
                        }),
                    },
                })
                .collect(),
            workers: 1,
            tables: None,
        };
        let mut check = Checker::new(Some(job("1000")));
        check.check(&pass, "timed");
        assert_eq!((check.tally.attempted, check.tally.failed), (3, 2));
        assert_eq!(
            check.problems,
            [
                "timed pass, job job: field events: expected 1000, got 1001",
                "timed pass, job job: failed: deadlock"
            ]
        );
        // Without recorded fingerprints the first pass is the reference.
        let mut first = Checker::new(None);
        first.check(&pass, "timed");
        assert_eq!(first.tally.failed, 2);
    }

    #[test]
    fn counting_allocator_counts_this_threads_allocations() {
        alloc::set_enabled(true);
        let before = alloc::count();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        let after = alloc::count();
        drop(v);
        assert!(after > before);
    }
}
