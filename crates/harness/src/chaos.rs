//! Chaos soak — seeded fault matrix under full conservation audit
//! (robustness gate, not a paper figure).
//!
//! Runs a matrix of fault-RNG seeds × strategies (CAIS, TP-NVLS) × fault
//! plans (fault-free, packet drops, bandwidth-degradation windows,
//! merge-table entry faults) over the LLaMA-7B L2 sub-layer, with the
//! conservation auditor enabled for every run: cadence ledger checks
//! during the run and quiescence verification at the end. Any
//! [`SimError::AuditViolation`](cais_engine::SimError) becomes a FAILED
//! line, so the soak doubles as a randomized search for bookkeeping leaks.
//!
//! On top of the audit, three metamorphic oracles compare runs that must
//! agree:
//!
//! 1. **Zero-fault determinism** — the fault-free plan run with two
//!    different fault seeds must be byte-identical (total time, events
//!    processed, semantic contributions) and report clean resilience
//!    counters; a zero-rate plan that perturbs anything is a gating bug.
//! 2. **Fault-plan invariance** — retransmission delivers every packet
//!    exactly once and degradation only stretches time, so each
//!    strategy's *semantic* counters (tile reduction contributions;
//!    CAIS merge-unit arrivals; NVLS multicast/reduce/pull counts) must
//!    match its own fault-free reference under every fault plan.
//! 3. **Semantic-reduction equivalence** — CAIS and TP-NVLS lower the
//!    *same* dataflow graph, whose per-tile contribution contract the
//!    engine enforces at delivery time; both must complete it under full
//!    audit for every (seed, plan) cell. Their raw reduction counters are
//!    intentionally not compared (8 KB in-switch merges vs 256 KB NVLS
//!    chunks), but each side's counters are pinned by oracle 2.
//!
//! The whole soak is deterministic in its seed list, so a failure
//! reproduces by rerunning the same scale.

use crate::runner::{Scale, Table};
use crate::sweep::{self, SweepJob};
use cais_baselines::BaselineStrategy;
use cais_core::CaisStrategy;
use cais_engine::strategy::execute;
use cais_engine::{ExecReport, SimError, SystemConfig};
use llm_workload::{sublayer, ModelConfig, SubLayer};
use sim_core::{DegradeSpec, FaultPlan, MergeFaultSpec, SimDuration};

/// Root of the soak's fault-seed sequence.
pub const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// Fault-plan variants exercised for every (seed, strategy) pair. The
/// second fault-free variant reseeds the fault RNG streams to prove the
/// zero-rate plan is inert (oracle 1).
const PLANS: [&str; 5] = ["none", "none-reseeded", "drop", "degrade", "merge-faults"];

/// Strategies in column order.
const STRATEGIES: [&str; 2] = ["CAIS", "TP-NVLS"];

fn n_seeds(scale: Scale) -> usize {
    match scale {
        // 8 seeds x 2 strategies x 5 plans = 80 audited runs.
        Scale::Smoke => 8,
        Scale::Paper => 16,
    }
}

/// The fault plan for one (seed, variant) cell.
fn plan(variant: &str, seed: u64) -> FaultPlan {
    let base = FaultPlan::default().with_seed(seed);
    match variant {
        "none" => base,
        "none-reseeded" => FaultPlan::default().with_seed(seed ^ 0x5EED_0BAD),
        "drop" => base.with_drop_rate(1e-3),
        "degrade" => base.with_degrade(DegradeSpec {
            factor: 2.0,
            period: SimDuration::from_us(10),
            duration: SimDuration::from_us(3),
        }),
        "merge-faults" => base.with_merge_faults(MergeFaultSpec {
            rate: 0.02,
            degrade_threshold: 4,
        }),
        other => unreachable!("unknown plan variant {other}"),
    }
}

/// The audited system config for one cell.
fn audited_cfg(scale: Scale, faults: FaultPlan) -> SystemConfig {
    let mut cfg = scale.system();
    cfg.faults = faults;
    cfg.audit.enabled = true;
    // Tight enough that cadence checks fire many times per run, not just
    // the final quiescence pass.
    cfg.audit.cadence_events = 4096;
    cfg
}

fn job(label: String, cais: bool, model: &ModelConfig, cfg: &SystemConfig) -> SweepJob {
    let (model, cfg) = (model.clone(), cfg.clone());
    SweepJob::new(label, move || -> Result<ExecReport, SimError> {
        let dfg = sublayer(&model, cfg.tp(), SubLayer::L2);
        if cais {
            execute(&CaisStrategy::full(), &dfg, &cfg)
        } else {
            execute(&BaselineStrategy::tp_nvls(), &dfg, &cfg)
        }
    })
}

fn stat(r: &ExecReport, key: &str) -> f64 {
    r.stat(key).unwrap_or(0.0)
}

/// Checks the metamorphic oracles for one (seed, strategy) group of plan
/// runs; pushes one message per violated oracle.
fn check_group(
    label: &str,
    cais: bool,
    runs: &[Option<&ExecReport>],
    violations: &mut Vec<String>,
) {
    let mut fail = |msg: String| violations.push(format!("{label}: {msg}"));
    let Some(reference) = runs[0] else {
        return; // run failure already reported by absorb_failures
    };
    // Oracle 1: the two fault-free runs are byte-identical and clean.
    if let Some(reseeded) = runs[1] {
        if reference.total != reseeded.total
            || reference.events_processed != reseeded.events_processed
            || reference.semantic_contribs != reseeded.semantic_contribs
        {
            fail(format!(
                "zero-fault plan not byte-identical under reseed: \
                 total {} vs {}, events {} vs {}, contribs {} vs {}",
                reference.total,
                reseeded.total,
                reference.events_processed,
                reseeded.events_processed,
                reference.semantic_contribs,
                reseeded.semantic_contribs
            ));
        }
    }
    if !reference.fabric.resilience().is_clean() {
        fail("fault-free reference reports resilience activity".into());
    }
    // Oracle 2: semantic counters invariant under every fault plan.
    for (vi, run) in runs.iter().enumerate().skip(1) {
        let Some(run) = run else { continue };
        let variant = PLANS[vi];
        if run.semantic_contribs != reference.semantic_contribs {
            fail(format!(
                "plan {variant}: semantic tile contributions {} != fault-free {}",
                run.semantic_contribs, reference.semantic_contribs
            ));
        }
        let keys: &[&str] = if cais {
            // Merge-entry faults may legally reroute merge-unit arrivals
            // through the degraded bypass path; the engine-level
            // `semantic_contribs` check above still pins the semantics.
            if variant == "merge-faults" {
                &[]
            } else {
                &["cais.load_requests", "cais.reduce_contribs"]
            }
        } else {
            &["nvls.multicasts", "nvls.reductions", "nvls.pulls"]
        };
        for key in keys {
            let (got, want) = (stat(run, key), stat(reference, key));
            if got != want {
                fail(format!("plan {variant}: {key} {got} != fault-free {want}"));
            }
        }
    }
}

/// Runs the soak and evaluates the oracles. One row per fault seed;
/// failed runs and violated oracles surface as FAILED lines.
pub fn run(scale: Scale, jobs: usize) -> Vec<Table> {
    let model = scale.model(&ModelConfig::llama_7b());
    let seeds: Vec<u64> = (0..n_seeds(scale))
        .map(|i| CHAOS_SEED ^ ((i as u64) * 0x9E37_79B9))
        .collect();

    let mut manifest: Vec<SweepJob> = Vec::new();
    for &seed in &seeds {
        for (si, strat) in STRATEGIES.iter().enumerate() {
            for variant in PLANS {
                let cfg = audited_cfg(scale, plan(variant, seed));
                manifest.push(job(
                    format!("seed={seed:#x}/{strat}/{variant}"),
                    si == 0,
                    &model,
                    &cfg,
                ));
            }
        }
    }
    let results = sweep::run_jobs(manifest, jobs);
    sweep::log_timing("chaos", &results);

    let mut table = Table::new(
        "chaos-soak",
        "seeded fault matrix under full conservation audit (LLaMA-7B L2)",
        vec![
            "CAIS none (us)".into(),
            "CAIS drop (us)".into(),
            "CAIS degrade (us)".into(),
            "CAIS merge (us)".into(),
            "TP-NVLS none (us)".into(),
            "oracle fails".into(),
        ],
    );
    let mut oracle_violations: Vec<String> = Vec::new();
    let per_strategy = PLANS.len();
    let per_seed = STRATEGIES.len() * per_strategy;
    for (i, &seed) in seeds.iter().enumerate() {
        let base = i * per_seed;
        let mut row_fails = 0usize;
        for (si, strat) in STRATEGIES.iter().enumerate() {
            let group: Vec<Option<&ExecReport>> = (0..per_strategy)
                .map(|vi| results[base + si * per_strategy + vi].report())
                .collect();
            let before = oracle_violations.len();
            check_group(
                &format!("seed={seed:#x}/{strat}"),
                si == 0,
                &group,
                &mut oracle_violations,
            );
            row_fails += oracle_violations.len() - before;
        }
        let us = |si: usize, vi: usize| results[base + si * per_strategy + vi].secs() * 1e6;
        table.push(
            format!("seed {seed:#x}"),
            vec![
                us(0, 0),
                us(0, 2),
                us(0, 3),
                us(0, 4),
                us(1, 0),
                row_fails as f64,
            ],
        );
    }
    table.absorb_failures(&results);
    table.failures.extend(oracle_violations);
    table.notes = format!(
        "{} audited runs ({} seeds x {} strategies x {} plans); every run \
         verifies conservation ledgers at a {}-event cadence plus end-of-run \
         quiescence; oracle fails counts metamorphic-oracle violations \
         (zero-fault determinism, fault-plan counter invariance)",
        seeds.len() * per_seed,
        seeds.len(),
        STRATEGIES.len(),
        PLANS.len(),
        4096,
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_well_formed_and_clean() {
        let tables = run(Scale::Smoke, 2);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert!(t.failures.is_empty(), "{:?}", t.failures);
        assert!(t.timeouts.is_empty(), "{:?}", t.timeouts);
        assert_eq!(t.rows.len(), n_seeds(Scale::Smoke));
        for (label, row) in &t.rows {
            assert_eq!(*row.last().expect("cells"), 0.0, "{label} oracle fails");
            assert!(row[..5].iter().all(|v| *v > 0.0), "{label} has empty cells");
        }
    }

    /// This paper-scale cell once deadlocked (`tb22058 -> tile3576@g2
    /// (fetch in flight)`): after an entry fault, a re-forwarded waiter's
    /// reply fed a successor session opened by another requester, which
    /// answered its own waiters and dropped the reply.
    #[test]
    fn merge_fault_cell_that_lost_a_load_reply_completes() {
        let seed = 0x8_63a8_f6f3;
        let cfg = audited_cfg(Scale::Paper, plan("merge-faults", seed));
        let model = Scale::Paper.model(&ModelConfig::llama_7b());
        let dfg = sublayer(&model, cfg.tp(), SubLayer::L2);
        let report = execute(&CaisStrategy::full(), &dfg, &cfg)
            .unwrap_or_else(|e| panic!("seed={seed:#x}/CAIS/merge-faults: {e}"));
        assert!(stat(&report, "cais.entry_faults") > 0.0);
    }
}
