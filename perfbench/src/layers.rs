//! Per-layer metrics of a traced run.
//!
//! Host costs come from the traced passes (medians over passes, each
//! pass summed over its jobs), in raw host time. Pool metrics come from
//! the untraced passes of the same run, so the tracing does not skew
//! them. Modelled outputs are deterministic and are the same in every
//! pass.

use crate::stats::median;
use crate::workload::{JobTiming, PassResult, Summary};

/// Every per-layer metric with its unit, in report order. The names
/// match `BENCHMARK.json`'s `per_layer` list.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("llm-workload.build_ms", "ms"),
    ("strategy.lower_ms", "ms"),
    ("strategy.lower_allocs", "count"),
    ("strategy.kernels", "count"),
    ("strategy.tbs", "count"),
    ("engine.new_ms", "ms"),
    ("engine.new_allocs", "count"),
    ("engine.run_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.allocs_per_event", "1/event"),
    ("engine.queue_peak", "count"),
    ("switch.calls", "count"),
    ("switch.self_ms", "ms"),
    ("switch.ns_per_call", "ns"),
    ("switch.allocs_per_call", "1/call"),
    ("switch.share", "ratio"),
    ("sweep.workers", "count"),
    ("sweep.busy_ratio", "ratio"),
    ("sweep.longest_job_s", "s"),
    ("model.sim_time_us", "sim-us"),
    ("fabric.bytes_up", "B"),
    ("fabric.bytes_down", "B"),
    ("fabric.mean_util", "ratio"),
    ("fabric.events_saved", "count"),
    ("gpu-sim.mean_occupancy", "ratio"),
    ("engine.deduped_fetches", "count"),
    ("cais.load_merge_ratio", "ratio"),
    ("cais.evictions_lru", "count"),
    ("cais.evictions_timeout", "count"),
    ("cais.peak_port_occupancy", "B"),
    ("cais.mean_spread_us", "sim-us"),
    ("nvls.multicasts", "count"),
    ("nvls.reductions", "count"),
    ("trace.overhead", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn ms(nanos: f64) -> f64 {
    nanos / 1e6
}

type Values = Vec<(&'static str, f64)>;

/// Host cost and modelled outputs of one traced pass, summed over jobs.
fn traced_values(pass: &PassResult) -> Values {
    let t = |f: &dyn Fn(&JobTiming) -> f64| -> f64 { pass.jobs.iter().map(|j| f(&j.timing)).sum() };
    let reports = || pass.jobs.iter().filter_map(|j| j.outcome.as_ref().ok());
    let s = |f: &dyn Fn(&Summary) -> f64| -> f64 { reports().map(f).sum() };
    let max = |f: &dyn Fn(&Summary) -> f64| -> f64 { reports().map(f).fold(0.0, f64::max) };
    let ok = reports().count() as f64;
    let run_ns = t(&|j| j.run.as_nanos() as f64);
    let switch_ns = t(&|j| j.switch.nanos as f64);
    let events = s(&|r| r.events as f64);
    let calls = t(&|j| j.switch.calls as f64);
    let cais_jobs = s(&|r| f64::from(u8::from(r.stat("cais.load_requests") > 0.0)));
    vec![
        (
            "llm-workload.build_ms",
            ms(t(&|j| j.build.as_nanos() as f64)),
        ),
        ("strategy.lower_ms", ms(t(&|j| j.lower.as_nanos() as f64))),
        ("strategy.lower_allocs", t(&|j| j.lower_allocs as f64)),
        ("strategy.kernels", t(&|j| j.kernels as f64)),
        ("strategy.tbs", t(&|j| j.tbs as f64)),
        ("engine.new_ms", ms(t(&|j| j.new.as_nanos() as f64))),
        ("engine.new_allocs", t(&|j| j.new_allocs as f64)),
        ("engine.run_ms", ms(run_ns)),
        ("engine.self_ms", ms(run_ns - switch_ns)),
        ("engine.events", events),
        ("engine.ns_per_event", ratio(run_ns, events)),
        (
            "engine.allocs_per_event",
            ratio(t(&|j| j.run_allocs as f64), events),
        ),
        ("engine.queue_peak", max(&|r| r.queue_peak as f64)),
        ("switch.calls", calls),
        ("switch.self_ms", ms(switch_ns)),
        ("switch.ns_per_call", ratio(switch_ns, calls)),
        (
            "switch.allocs_per_call",
            ratio(t(&|j| j.switch.allocs as f64), calls),
        ),
        ("switch.share", ratio(switch_ns, run_ns)),
        ("model.sim_time_us", s(&|r| r.sim_ps as f64) / 1e6),
        ("fabric.bytes_up", s(&|r| r.bytes_up as f64)),
        ("fabric.bytes_down", s(&|r| r.bytes_down as f64)),
        ("fabric.mean_util", ratio(s(&|r| r.mean_util), ok)),
        ("fabric.events_saved", s(&|r| r.events_saved as f64)),
        ("gpu-sim.mean_occupancy", ratio(s(&|r| r.occupancy), ok)),
        ("engine.deduped_fetches", s(&|r| r.deduped as f64)),
        (
            "cais.load_merge_ratio",
            ratio(
                s(&|r| r.stat("cais.loads_merged")),
                s(&|r| r.stat("cais.load_requests")),
            ),
        ),
        ("cais.evictions_lru", s(&|r| r.stat("cais.evictions_lru"))),
        (
            "cais.evictions_timeout",
            s(&|r| r.stat("cais.evictions_timeout")),
        ),
        (
            "cais.peak_port_occupancy",
            max(&|r| r.stat("cais.peak_port_occupancy")),
        ),
        (
            "cais.mean_spread_us",
            ratio(s(&|r| r.stat("cais.mean_spread_us")), cais_jobs),
        ),
        ("nvls.multicasts", s(&|r| r.stat("nvls.multicasts"))),
        ("nvls.reductions", s(&|r| r.stat("nvls.reductions"))),
    ]
}

/// Pool metrics of one untraced pass: workers, busy ratio (job seconds
/// over the pass's own wall time times workers) and the longest job in
/// seconds.
fn sweep_values(pass: &PassResult) -> Values {
    let job_secs = || pass.jobs.iter().map(|j| j.wall.as_secs_f64());
    let capacity = pass.own_wall().as_secs_f64() * pass.workers as f64;
    vec![
        ("sweep.workers", pass.workers as f64),
        ("sweep.busy_ratio", ratio(job_secs().sum(), capacity)),
        ("sweep.longest_job_s", job_secs().fold(0.0, f64::max)),
    ]
}

fn median_wall(passes: &[PassResult]) -> f64 {
    median(
        &passes
            .iter()
            .map(|p| p.own_wall().as_secs_f64())
            .collect::<Vec<_>>(),
    )
}

/// Every `PER_LAYER` metric, in order, as the median over passes.
///
/// # Panics
///
/// Panics when either pass list is empty.
pub fn per_layer(traced: &[PassResult], plain: &[PassResult]) -> Vec<f64> {
    let mut rows: Vec<Values> = traced.iter().map(traced_values).collect();
    rows.extend(plain.iter().map(sweep_values));
    rows.push(vec![(
        "trace.overhead",
        median_wall(traced) / median_wall(plain) - 1.0,
    )]);
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            let samples: Vec<f64> = rows
                .iter()
                .flat_map(|r| r.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            median(&samples)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobRun;
    use std::time::Duration;

    fn pass(wall_ms: u64, job_ms: &[u64]) -> PassResult {
        PassResult {
            wall: Duration::from_millis(wall_ms),
            jobs: job_ms
                .iter()
                .map(|&ms| JobRun {
                    label: format!("job{ms}"),
                    wall: Duration::from_millis(ms),
                    timing: JobTiming::default(),
                    outcome: Err("not run".into()),
                })
                .collect(),
            workers: 2,
            tables: None,
        }
    }

    #[test]
    fn every_metric_has_a_value_and_pool_metrics_use_untraced_passes() {
        let traced = [pass(120, &[100, 100])];
        let plain = [pass(100, &[100, 60]), pass(100, &[100, 80])];
        let values = per_layer(&traced, &plain);
        assert_eq!(values.len(), PER_LAYER.len());
        let get = |name: &str| values[PER_LAYER.iter().position(|(n, _)| *n == name).unwrap()];
        assert_eq!(get("sweep.workers"), 2.0);
        assert!((get("sweep.busy_ratio") - 0.85).abs() < 1e-12);
        assert!((get("sweep.longest_job_s") - 0.1).abs() < 1e-12);
        assert!((get("trace.overhead") - 0.2).abs() < 1e-12);
        assert_eq!(
            get("switch.ns_per_call"),
            0.0,
            "no calls reads as 0, not NaN"
        );
    }
}
