//! Fig. 14 — performance sensitivity to merge-table size.
//!
//! LLaMA-7B sub-layer performance as the per-port Merging Table shrinks:
//! with merging-aware TB coordination CAIS stays near peak down to small
//! tables, while the uncoordinated variant degrades rapidly (evicted
//! sessions turn into re-fetches and partial flushes).

use crate::runner::{Scale, Table};
use crate::sweep::{self, SweepJob};
use cais_core::merge::ENTRY_OVERHEAD_BYTES;
use cais_core::strategies::DEFAULT_PACKET_BYTES;
use cais_core::{CaisStrategy, CoordinationOpts};
use cais_engine::strategy::execute;
use llm_workload::{sublayer, ModelConfig, SubLayer};

/// Converts a paper-axis table size (KB at 128 B entries) into this
/// simulator's byte capacity (same entry count at the coarser packet
/// granularity; see DESIGN.md).
fn paper_kb_to_bytes(kb: u64) -> u64 {
    let entries = kb * 1024 / 128;
    entries * (DEFAULT_PACKET_BYTES + ENTRY_OVERHEAD_BYTES)
}

/// Runs the experiment: two sweep jobs (coordinated, uncoordinated) per
/// table size.
pub fn run(scale: Scale, jobs: usize) -> Vec<Table> {
    let sizes_kb: Vec<u64> = match scale {
        Scale::Paper => vec![5, 10, 20, 40, 80, 160, 320],
        Scale::Smoke => vec![10, 40, 160],
    };
    let model = scale.model(&ModelConfig::llama_7b());
    let cfg = scale.system();

    let mut table = Table::new(
        "fig14",
        "normalized performance vs merge-table size (LLaMA-7B L2)",
        vec!["coordinated".into(), "uncoordinated".into()],
    );

    let manifest: Vec<SweepJob> = sizes_kb
        .iter()
        .flat_map(|&kb| {
            let mk = |coordinated: bool| {
                let (model, cfg) = (model.clone(), cfg.clone());
                let tag = if coordinated { "coord" } else { "uncoord" };
                SweepJob::new(format!("{kb}kb/{tag}"), move || {
                    let dfg = sublayer(&model, cfg.tp(), SubLayer::L2);
                    let bytes = paper_kb_to_bytes(kb);
                    let mut strategy = CaisStrategy::full().with_merge_table(Some(bytes));
                    if !coordinated {
                        strategy =
                            strategy.with_coordination("w/o-coord", CoordinationOpts::none());
                    }
                    execute(&strategy, &dfg, &cfg)
                })
            };
            [mk(true), mk(false)]
        })
        .collect();
    let results = sweep::run_jobs(manifest, jobs);
    sweep::log_timing("fig14", &results);
    let coord_times: Vec<f64> = results.iter().step_by(2).map(|r| r.secs()).collect();
    let uncoord_times: Vec<f64> = results
        .iter()
        .skip(1)
        .step_by(2)
        .map(|r| r.secs())
        .collect();
    // Normalize to the best (largest-table coordinated) configuration.
    let best = coord_times
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min)
        .min(uncoord_times.iter().cloned().fold(f64::INFINITY, f64::min));
    for (i, &kb) in sizes_kb.iter().enumerate() {
        table.push(
            format!("{kb} KB"),
            vec![best / coord_times[i], best / uncoord_times[i]],
        );
    }
    table.absorb_failures(&results);
    table.notes = "1.0 = best observed; sizes are on the paper's axis (KB at 128 B \
                   entries), mapped to equal entry counts at this simulator's packet \
                   granularity; paper: coordinated holds near-peak at 40 KB while \
                   uncoordinated collapses on small tables"
        .into();
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_well_formed() {
        // The coordinated-vs-uncoordinated performance gap only opens at
        // paper scale (the smoke workload hides all communication under
        // compute, so table pressure never materializes); the shape
        // assertion lives in EXPERIMENTS.md against the paper-scale run.
        // Here we pin the sweep mechanics: all points exist, are
        // normalized to (0, 1], and the best point is 1.0.
        let t = &run(Scale::Smoke, 1)[0];
        assert_eq!(t.rows.len(), 3);
        let mut best: f64 = 0.0;
        for (label, v) in &t.rows {
            for x in v {
                assert!(*x > 0.0 && *x <= 1.0 + 1e-9, "{label}: {x}");
                best = best.max(*x);
            }
        }
        assert!((best - 1.0).abs() < 1e-9);
    }
}
