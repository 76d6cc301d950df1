//! The benchmark's workloads and how one pass of a workload runs.
//!
//! A pass runs every job of the workload once: a single job on the
//! calling thread, a sweep on `harness::sweep::run_jobs`. Each job calls
//! the simulator's layers itself — graph build, `Strategy::tune`/`lower`,
//! then `Strategy::run`, or in traced and audited passes
//! `SystemSim::new`/`run` around a [`TimedLogic`] — and times every call
//! from outside. Right after its job, the same thread times the
//! reference loop, which gives the host speed the job ran at.

use crate::alloc;
use crate::fingerprint::Fingerprint;
use crate::reference;
use crate::timed::{SwitchTally, TimedLogic};
use cais_baselines::BaselineStrategy;
use cais_core::CaisStrategy;
use cais_engine::{ExecReport, Program, SimError, Strategy, SystemConfig, SystemSim};
use cais_harness::runner::{roster, Table};
use cais_harness::sweep::{default_jobs, run_jobs, JobResult, SweepJob};
use llm_workload::{transformer_layer, ModelConfig, Pass, TpMode};
use noc_sim::{Direction, FabricConfig};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["cais-llama7b-8g", "ring-llama7b-8g", "fig11-llama7b"];

/// GPUs in every job's system.
const GPUS: usize = 8;

/// How a pass runs its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Strategy::run` exactly as the experiment harness calls it.
    Plain,
    /// `SystemSim::new`/`run` timed separately, the switch wrapped in
    /// [`TimedLogic`], allocations counted.
    Traced,
    /// Like `Traced`, with `SystemConfig::audit` on and nothing counted.
    Audited,
}

/// Host cost of one job, measured around each layer call.
#[derive(Debug, Default, Clone, Copy)]
pub struct JobTiming {
    /// `transformer_layer`.
    pub build: Duration,
    /// `Strategy::tune` plus `Strategy::lower`.
    pub lower: Duration,
    /// `SystemSim::new` (traced passes; plain passes fold it into `run`).
    pub new: Duration,
    /// `SystemSim::run`, or `Strategy::run` in plain passes.
    pub run: Duration,
    /// Allocations of tune plus lower (traced passes only).
    pub lower_allocs: u64,
    /// Allocations of `SystemSim::new` (traced passes only).
    pub new_allocs: u64,
    /// Allocations of the run, switch included (traced passes only).
    pub run_allocs: u64,
    /// Kernels in the lowered program.
    pub kernels: usize,
    /// Thread blocks in the lowered program.
    pub tbs: usize,
    /// Calls into the switch logic (traced and audited passes only).
    pub switch: SwitchTally,
    /// The reference loop's time on this job's thread right after it.
    pub reference: Duration,
    /// Host time spent measuring `reference`.
    pub reference_cost: Duration,
}

impl JobTiming {
    /// Host time before `Strategy::run` is entered.
    pub fn setup(&self) -> Duration {
        self.build + self.lower
    }

    /// Factor that rescales this job's host times to the nominal host.
    pub fn scale(&self) -> f64 {
        reference::scale(self.reference)
    }
}

/// The simulated results of one job the per-layer report draws on.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Exact fingerprint, checked on every pass.
    pub fingerprint: Fingerprint,
    /// Simulated time, ps.
    pub sim_ps: u64,
    /// Discrete events processed.
    pub events: u64,
    /// Largest single-queue backlog.
    pub queue_peak: usize,
    /// Fabric bytes, GPU to switch.
    pub bytes_up: u64,
    /// Fabric bytes, switch to GPU.
    pub bytes_down: u64,
    /// Mean link utilization.
    pub mean_util: f64,
    /// Link events saved by burst coalescing.
    pub events_saved: u64,
    /// Mean SM-slot occupancy over GPUs.
    pub occupancy: f64,
    /// Remote fetches avoided by the tile directory.
    pub deduped: u64,
    /// The switch logic's counters.
    pub stats: Vec<(String, f64)>,
}

impl Summary {
    fn of(r: &ExecReport) -> Summary {
        Summary {
            fingerprint: Fingerprint::of(r),
            sim_ps: r.total.as_ps(),
            events: r.events_processed,
            queue_peak: r.queue_peak,
            bytes_up: r.fabric.bytes_dir(Direction::Up),
            bytes_down: r.fabric.bytes_dir(Direction::Down),
            mean_util: r.fabric.mean_utilization(),
            events_saved: r.fabric.events_saved(),
            occupancy: r.mean_occupancy(),
            deduped: r.deduped_fetches,
            stats: r.logic_stats.clone(),
        }
    }

    /// A switch counter, 0 when the logic does not report it.
    pub fn stat(&self, key: &str) -> f64 {
        self.stats
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// One job's outcome in one pass.
#[derive(Debug)]
pub struct JobRun {
    /// Job label ("CAIS/LLaMA-7B/8g", ...).
    pub label: String,
    /// Host time of the job on its thread, reference measurement excluded.
    pub wall: Duration,
    /// Per-layer host cost.
    pub timing: JobTiming,
    /// Simulated results, or the error or panic message.
    pub outcome: Result<Summary, String>,
}

/// One pass over every job of a workload.
#[derive(Debug)]
pub struct PassResult {
    /// Host wall time of the pass, graph builds to reports, reference
    /// measurements included.
    pub wall: Duration,
    /// Jobs in manifest order.
    pub jobs: Vec<JobRun>,
    /// Threads the jobs ran on.
    pub workers: usize,
    /// The rendered Fig. 11 tables (sweep workload only).
    pub tables: Option<String>,
}

impl PassResult {
    /// The pass's wall time on the nominal host: [`Self::own_wall`]
    /// times the jobs' mean rescaling factor, weighted by job time.
    pub fn nominal_wall(&self) -> f64 {
        let job_secs = |j: &JobRun| j.wall.as_secs_f64();
        let weighted: f64 = self
            .jobs
            .iter()
            .map(|j| job_secs(j) * j.timing.scale())
            .sum();
        let total: f64 = self.jobs.iter().map(job_secs).sum();
        self.own_wall().as_secs_f64() * weighted / total
    }

    /// The pass's host wall time less each worker's share of the
    /// reference measurements.
    pub fn own_wall(&self) -> Duration {
        let cost: Duration = self.jobs.iter().map(|j| j.timing.reference_cost).sum();
        self.wall.saturating_sub(cost / self.workers as u32)
    }

    /// Host time the pass spent before `Strategy::run`, summed over jobs
    /// and rescaled to the nominal host.
    pub fn nominal_setup(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.timing.setup().as_secs_f64() * j.timing.scale())
            .sum()
    }
}

/// A job's wall time and its report, error or panic message.
type Outcome = (Duration, Result<ExecReport, String>);

#[derive(Debug, Clone, Copy)]
enum StrategyKind {
    CaisFull,
    Coconet,
    Roster(usize),
}

impl StrategyKind {
    fn build(self) -> Box<dyn Strategy> {
        match self {
            StrategyKind::CaisFull => Box::new(CaisStrategy::full()),
            StrategyKind::Coconet => Box::new(BaselineStrategy::coconet()),
            StrategyKind::Roster(si) => roster().swap_remove(si).strategy,
        }
    }
}

/// One simulation: a strategy on one LLaMA-7B forward layer at [`GPUS`]
/// GPUs.
#[derive(Debug, Clone)]
struct JobSpec {
    label: String,
    strategy: StrategyKind,
    tp_mode: TpMode,
}

/// A named set of jobs and the threads that run them.
#[derive(Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    jobs: Vec<JobSpec>,
    /// Sweep-pool workers (1 for single-job workloads).
    pub workers: usize,
    fig11: bool,
}

/// The paper's DGX-H100 system at [`GPUS`] GPUs, with `seed` as its
/// jitter seed and the auditor off.
fn system(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::dgx_h100();
    cfg.n_gpus = GPUS;
    cfg.fabric = FabricConfig::default_for(GPUS, cfg.n_planes);
    cfg.seed = seed;
    cfg.audit.enabled = false;
    cfg
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Workload> {
        let model = ModelConfig::llama_7b().name;
        let single = |strategy_name: &str, strategy, tp_mode| JobSpec {
            label: format!("{strategy_name}/{model}/{GPUS}g"),
            strategy,
            tp_mode,
        };
        let (jobs, workers, fig11) = match name {
            "cais-llama7b-8g" => (
                vec![single("CAIS", StrategyKind::CaisFull, TpMode::SeqPar)],
                1,
                false,
            ),
            "ring-llama7b-8g" => (
                vec![single("CoCoNet", StrategyKind::Coconet, TpMode::BasicTp)],
                1,
                false,
            ),
            "fig11-llama7b" => (fig11_manifest(), default_jobs(), true),
            _ => return None,
        };
        Some(Workload {
            name: NAMES.into_iter().find(|n| *n == name)?,
            jobs,
            workers,
            fig11,
        })
    }

    /// Jobs in one pass.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Job labels, in manifest order.
    #[cfg(test)]
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.jobs.iter().map(|j| j.label.as_str())
    }

    /// Runs every job once with `seed` as `SystemConfig::seed`: a single
    /// job on this thread, a sweep on the pool.
    pub fn run_pass(&self, seed: u64, mode: Mode) -> PassResult {
        let mut timings = vec![JobTiming::default(); self.jobs.len()];
        alloc::set_enabled(mode == Mode::Traced);
        let t0 = Instant::now();
        let (outcomes, tables) = if self.fig11 {
            self.run_on_pool(seed, mode, &mut timings)
        } else {
            (self.run_inline(seed, mode, &mut timings), None)
        };
        let wall = t0.elapsed();
        alloc::set_enabled(false);
        let jobs = self
            .jobs
            .iter()
            .zip(outcomes)
            .zip(timings)
            .map(|((spec, (wall, outcome)), timing)| JobRun {
                label: spec.label.clone(),
                wall,
                timing,
                outcome: outcome.map(|r| Summary::of(&r)),
            })
            .collect();
        PassResult {
            wall,
            jobs,
            workers: self.workers,
            tables,
        }
    }

    fn run_inline(&self, seed: u64, mode: Mode, timings: &mut [JobTiming]) -> Vec<Outcome> {
        self.jobs
            .iter()
            .zip(timings)
            .map(|(spec, timing)| {
                let t0 = Instant::now();
                let raw = catch_unwind(AssertUnwindSafe(|| spec.execute(seed, mode, timing)));
                let wall = t0.elapsed();
                timing.measure_reference();
                let outcome = match raw {
                    Ok(result) => result.map_err(|e| e.to_string()),
                    Err(payload) => Err(payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job panicked".to_string())),
                };
                (wall, outcome)
            })
            .collect()
    }

    /// Runs the manifest on `harness::sweep::run_jobs` and renders the
    /// Fig. 11 tables from its results.
    fn run_on_pool(
        &self,
        seed: u64,
        mode: Mode,
        timings: &mut [JobTiming],
    ) -> (Vec<Outcome>, Option<String>) {
        let slots = Arc::new(Mutex::new(vec![JobTiming::default(); self.jobs.len()]));
        let manifest: Vec<SweepJob> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (spec, slots) = (spec.clone(), Arc::clone(&slots));
                SweepJob::new(spec.label.clone(), move || {
                    let mut timing = JobTiming::default();
                    let result = spec.execute(seed, mode, &mut timing);
                    timing.measure_reference();
                    slots.lock().expect("a job panicked holding the timings")[i] = timing;
                    result
                })
            })
            .collect();
        let results = run_jobs(manifest, self.workers);
        timings.copy_from_slice(&slots.lock().expect("a job panicked holding the timings"));
        let tables = fig11_tables(&results);
        let outcomes = results
            .into_iter()
            .zip(timings.iter())
            .map(|(r, t)| {
                let own = r.wall.saturating_sub(t.reference_cost);
                (own, r.outcome.map_err(|f| f.message))
            })
            .collect();
        (outcomes, Some(tables))
    }
}

impl JobTiming {
    /// Times the reference loop on this thread, right after the job.
    fn measure_reference(&mut self) {
        let t0 = Instant::now();
        self.reference = reference::measure();
        self.reference_cost = t0.elapsed();
    }
}

impl JobSpec {
    /// Builds the graph, tunes and lowers it, recording the host cost.
    fn lower(&self, seed: u64, t: &mut JobTiming) -> (Box<dyn Strategy>, SystemConfig, Program) {
        let mut cfg = system(seed);
        let model = ModelConfig::llama_7b();
        let t0 = Instant::now();
        let dfg = transformer_layer(&model, cfg.tp(), self.tp_mode, Pass::Forward);
        let (t1, a1) = (Instant::now(), alloc::count());
        let strategy = self.strategy.build();
        strategy.tune(&mut cfg);
        let program = strategy.lower(&dfg, &cfg);
        t.build = t1 - t0;
        t.lower = t1.elapsed();
        t.lower_allocs = alloc::count() - a1;
        t.kernels = program.kernels.len();
        t.tbs = program.total_tbs();
        (strategy, cfg, program)
    }

    fn execute(&self, seed: u64, mode: Mode, t: &mut JobTiming) -> Result<ExecReport, SimError> {
        let (strategy, mut cfg, program) = self.lower(seed, t);
        if mode == Mode::Plain {
            let (t0, a0) = (Instant::now(), alloc::count());
            let result = strategy.run(cfg, program);
            t.run = t0.elapsed();
            t.run_allocs = alloc::count() - a0;
            return result;
        }
        cfg.audit.enabled = mode == Mode::Audited;
        let tally = Rc::new(Cell::new(SwitchTally::default()));
        let logic = TimedLogic::new(strategy.switch_logic(&cfg), Rc::clone(&tally));
        let (t0, a0) = (Instant::now(), alloc::count());
        let sim = SystemSim::new(cfg, program, logic);
        let (t1, a1) = (Instant::now(), alloc::count());
        let result = sim.run();
        t.new = t1 - t0;
        t.new_allocs = a1 - a0;
        t.run = t1.elapsed();
        t.run_allocs = alloc::count() - a1;
        t.switch = tally.get();
        result
    }
}

/// The LLaMA-7B inference column of the Fig. 11 manifest: every roster
/// strategy, in the order `fig11` runs them.
fn fig11_manifest() -> Vec<JobSpec> {
    let model = ModelConfig::llama_7b().name;
    roster()
        .iter()
        .enumerate()
        .map(|(si, entry)| JobSpec {
            label: format!("{}/{model}/Forward", entry.strategy.name()),
            strategy: StrategyKind::Roster(si),
            tp_mode: entry.mode,
        })
        .collect()
}

/// Renders the LLaMA-7B inference column of the Fig. 11 table (CAIS
/// speedup over each system) from a sweep pass, failed rows included.
fn fig11_tables(results: &[JobResult]) -> String {
    let columns = vec![ModelConfig::llama_7b().name.to_string()];
    let mut table = Table::new("fig11", "CAIS end-to-end speedup, inference", columns);
    let cais = results.last().map_or(f64::NAN, JobResult::secs);
    for (entry, r) in roster().iter().zip(results) {
        table.push(
            format!("vs {}", entry.strategy.name()),
            vec![r.secs() / cais],
        );
    }
    table.absorb_failures(results);
    table.render()
}
