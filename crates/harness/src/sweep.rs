//! Deterministic parallel sweep execution.
//!
//! Every figure module describes its experiment as a flat manifest of
//! [`SweepJob`]s — one independent simulation each — and hands it to
//! [`run_jobs`], which executes the manifest on a pool of
//! `std::thread::scope` workers. Three properties make the parallelism
//! safe and invisible in the output:
//!
//! * **Thread confinement.** A job closure owns everything it needs
//!   (model, config, strategy constructor) and builds its own
//!   [`SystemSim`](cais_engine::SystemSim) on the worker thread, so no
//!   simulation state (the program, the switch logic's tables) is ever
//!   shared between threads.
//! * **Failure isolation.** A job that returns a typed
//!   [`SimError`], panics, or exceeds the optional
//!   per-job wall-clock watchdog ([`set_job_timeout`]) becomes a failed
//!   result carrying a [`JobFailure`] instead of aborting the binary;
//!   the remaining jobs keep running.
//! * **Ordered assembly.** Results are stored by manifest index and
//!   returned in manifest order, so the assembled tables are
//!   byte-identical regardless of the worker count.
//!
//! Wall-clock accounting is attached per job ([`JobResult::wall`]) and
//! summarized per figure by [`log_timing`] on stderr, keeping stdout
//! (the tables) bit-stable across `--jobs` settings.

use cais_engine::{ExecReport, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// One independent simulation in a sweep manifest.
pub struct SweepJob {
    /// Human-readable identity ("mega-gpt-4b/CAIS/inference", ...), used
    /// for failed-row reporting and timing logs.
    pub label: String,
    run: Box<dyn FnOnce() -> Result<ExecReport, SimError> + Send>,
}

impl SweepJob {
    /// Wraps a simulation closure. The closure must own its inputs
    /// (clone models/configs in) and construct every stateful object —
    /// strategy, program, `SystemSim` — inside itself so the whole
    /// simulation is confined to the worker thread that claims the job.
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Result<ExecReport, SimError> + Send + 'static,
    ) -> SweepJob {
        SweepJob {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for SweepJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// How a [`SweepJob`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The simulation returned a [`SimError`] or panicked.
    Failed,
    /// The job exceeded the per-job wall-clock watchdog.
    Timeout,
}

/// A failed job's classification plus its human-readable cause.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Failure class (drives separate FAILED / TIMEOUT table sections
    /// and lets callers treat a hung job differently from a diverged
    /// one).
    pub kind: FailKind,
    /// Typed-error display, panic message, or watchdog description.
    pub message: String,
}

/// The outcome of one [`SweepJob`].
#[derive(Debug)]
pub struct JobResult {
    /// The job's manifest label.
    pub label: String,
    /// The report, or how the simulation failed.
    pub outcome: Result<ExecReport, JobFailure>,
    /// Wall-clock time the job spent on its worker thread.
    pub wall: Duration,
}

impl JobResult {
    /// Simulated end-to-end seconds, or `NaN` for a failed job (NaN
    /// propagates through speedup/geomean arithmetic, so downstream
    /// rows derived from a failed job surface as NaN instead of lying).
    pub fn secs(&self) -> f64 {
        self.outcome
            .as_ref()
            .map(|r| r.total.as_secs_f64())
            .unwrap_or(f64::NAN)
    }

    /// The report, if the job succeeded.
    pub fn report(&self) -> Option<&ExecReport> {
        self.outcome.as_ref().ok()
    }

    /// The failure, if the job diverged, errored, or timed out.
    pub fn failure(&self) -> Option<&JobFailure> {
        self.outcome.as_ref().err()
    }
}

/// Default worker count: the host's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Per-job wall-clock watchdog in milliseconds; 0 = disabled. Process
/// global (set once by the CLI before any sweep starts) so figure
/// modules never have to thread it through their manifests.
static JOB_TIMEOUT_MS: AtomicU64 = AtomicU64::new(0);

/// Sets (or clears) the per-job wall-clock watchdog. Jobs exceeding the
/// budget are reported as [`FailKind::Timeout`] rows and their worker
/// moves on to the next job.
pub fn set_job_timeout(timeout: Option<Duration>) {
    let ms = timeout.map(|d| d.as_millis().max(1) as u64).unwrap_or(0);
    JOB_TIMEOUT_MS.store(ms, Ordering::Relaxed);
}

fn job_timeout() -> Option<Duration> {
    match JOB_TIMEOUT_MS.load(Ordering::Relaxed) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked (non-string payload)".to_string()
    }
}

/// Runs one claimed job to a [`JobFailure`]-classified outcome.
///
/// Without a watchdog the closure runs inline on the worker thread.
/// With one, it runs on a freshly spawned thread and the worker waits on
/// a channel with a deadline; on timeout the runaway thread is *leaked*
/// (Rust threads cannot be killed) — it keeps burning one core until the
/// process exits, but its result is discarded and its worker moves on.
fn run_one(job: SweepJob) -> JobResult {
    let SweepJob { label, run } = job;
    let t0 = Instant::now();
    let outcome = match job_timeout() {
        None => classify(catch_unwind(AssertUnwindSafe(run))),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                // A dropped-on-timeout receiver makes this send fail;
                // that is fine, the result is abandoned by design.
                let _ = tx.send(catch_unwind(AssertUnwindSafe(run)));
            });
            match rx.recv_timeout(limit) {
                Ok(raw) => classify(raw),
                Err(_) => Err(JobFailure {
                    kind: FailKind::Timeout,
                    message: format!(
                        "exceeded the {:.0}s per-job wall-clock limit",
                        limit.as_secs_f64()
                    ),
                }),
            }
        }
    };
    JobResult {
        label,
        outcome,
        wall: t0.elapsed(),
    }
}

/// Collapses the two failure layers (panic, typed error) into one.
fn classify(
    raw: Result<Result<ExecReport, SimError>, Box<dyn std::any::Any + Send>>,
) -> Result<ExecReport, JobFailure> {
    match raw {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(sim)) => Err(JobFailure {
            kind: FailKind::Failed,
            message: sim.to_string(),
        }),
        Err(payload) => Err(JobFailure {
            kind: FailKind::Failed,
            message: panic_message(payload),
        }),
    }
}

/// Executes `jobs` across `workers` threads and returns the results in
/// manifest order.
///
/// Work is claimed dynamically (an atomic cursor over the manifest) so
/// long and short simulations load-balance; each result lands in its
/// manifest slot, which is what keeps the output order — and therefore
/// the rendered tables — independent of scheduling. A job that fails
/// (typed error, panic, or watchdog timeout) is captured as
/// `Err(JobFailure)` and the remaining jobs keep running.
pub fn run_jobs(jobs: Vec<SweepJob>, workers: usize) -> Vec<JobResult> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    let slots: Vec<Mutex<Option<SweepJob>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<JobResult>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    *results[i].lock().expect("result slot poisoned") = Some(run_one(job));
                })
            })
            .collect();
        // Join each worker instead of leaving it to the scope: the scope
        // ends when the worker closures return, before their threads
        // have exited and handed back per-thread state such as the
        // allocator's arena. A sweep started right after would then find
        // no free arena, open a new one and keep both arenas' memory.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran to a result")
        })
        .collect()
}

/// Per-figure wall-clock accounting on stderr: job count, failures,
/// cumulative per-job wall time (the serial-equivalent cost) and the
/// slowest job. Stderr so the stdout tables stay byte-identical across
/// `--jobs` settings.
pub fn log_timing(figure: &str, results: &[JobResult]) {
    if results.is_empty() {
        return;
    }
    let total: Duration = results.iter().map(|r| r.wall).sum();
    let failures = results.iter().filter(|r| r.outcome.is_err()).count();
    let slowest = results
        .iter()
        .max_by_key(|r| r.wall)
        .expect("non-empty results");
    eprintln!(
        "[{figure}: {} jobs, {failures} failed, {:.2}s serial-equivalent, slowest {:.2}s ({})]",
        results.len(),
        total.as_secs_f64(),
        slowest.wall.as_secs_f64(),
        slowest.label,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_core::CaisStrategy;
    use cais_engine::{strategy::execute, SystemConfig};
    use llm_workload::{sublayer, ModelConfig, SubLayer};

    fn tiny_report() -> Result<ExecReport, SimError> {
        let model = ModelConfig {
            hidden: 512,
            ffn_hidden: 1024,
            heads: 8,
            seq_len: 256,
            batch: 1,
            ..ModelConfig::llama_7b()
        };
        let cfg = SystemConfig::small_test();
        let dfg = sublayer(&model, cfg.tp(), SubLayer::L1);
        execute(&CaisStrategy::full(), &dfg, &cfg)
    }

    #[test]
    fn results_come_back_in_manifest_order() {
        let jobs: Vec<SweepJob> = (0..6)
            .map(|i| SweepJob::new(format!("job{i}"), tiny_report))
            .collect();
        let results = run_jobs(jobs, 4);
        let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["job0", "job1", "job2", "job3", "job4", "job5"]);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mk = || {
            (0..4)
                .map(|i| SweepJob::new(format!("j{i}"), tiny_report))
                .collect::<Vec<_>>()
        };
        let serial = run_jobs(mk(), 1);
        let parallel = run_jobs(mk(), 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.secs(), b.secs(), "{}", a.label);
            let (ra, rb) = (a.report().unwrap(), b.report().unwrap());
            assert_eq!(ra.logic_stats, rb.logic_stats);
            assert_eq!(ra.deduped_fetches, rb.deduped_fetches);
        }
    }

    #[test]
    fn a_panicking_job_becomes_a_failed_result() {
        let jobs = vec![
            SweepJob::new("ok", tiny_report),
            SweepJob::new("boom", || panic!("synthetic divergence")),
            SweepJob::new("ok2", tiny_report),
        ];
        let results = run_jobs(jobs, 2);
        assert!(results[0].outcome.is_ok());
        let failure = results[1].failure().expect("panic captured");
        assert_eq!(failure.kind, FailKind::Failed);
        assert_eq!(failure.message, "synthetic divergence");
        assert!(results[1].secs().is_nan());
        assert!(results[2].outcome.is_ok(), "later jobs keep running");
    }

    #[test]
    fn a_sim_error_becomes_a_failed_result_with_its_display() {
        let jobs = vec![SweepJob::new("typed", || {
            Err(SimError::DeadlineExceeded {
                deadline: sim_core::SimTime::from_ms(1),
                now: sim_core::SimTime::from_ms(2),
                kernels_remaining: 3,
            })
        })];
        let results = run_jobs(jobs, 1);
        let failure = results[0].failure().expect("typed error captured");
        assert_eq!(failure.kind, FailKind::Failed);
        assert!(
            failure.message.contains("deadline exceeded"),
            "{}",
            failure.message
        );
        assert!(
            failure.message.contains("3 kernels remaining"),
            "{}",
            failure.message
        );
    }

    #[test]
    fn empty_manifest_is_fine() {
        assert!(run_jobs(Vec::new(), 8).is_empty());
        log_timing("noop", &[]);
    }
}
