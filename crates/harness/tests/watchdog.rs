//! The sweep watchdog turns a hung job into a TIMEOUT row.
//!
//! The job timeout is process-global, so this test lives in its own
//! integration-test binary: a sweep running concurrently in the same
//! process would inherit the short limit set here.

use cais_core::CaisStrategy;
use cais_engine::{strategy::execute, ExecReport, SimError, SystemConfig};
use cais_harness::sweep::{run_jobs, set_job_timeout, FailKind, SweepJob};
use llm_workload::{sublayer, ModelConfig, SubLayer};
use std::time::Duration;

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
fn the_watchdog_times_out_hung_jobs() {
    // 250ms is far above any tiny_report sim but far below the
    // synthetic hang.
    set_job_timeout(Some(Duration::from_millis(250)));
    let jobs = vec![
        SweepJob::new("hang", || {
            // Simulates a livelocked job; the leaked thread exits when
            // this sleep ends (well before the test binary).
            std::thread::sleep(Duration::from_secs(2));
            tiny_report()
        }),
        SweepJob::new("ok", tiny_report),
    ];
    let results = run_jobs(jobs, 2);
    set_job_timeout(None);
    let failure = results[0].failure().expect("hang captured");
    assert_eq!(failure.kind, FailKind::Timeout);
    assert!(failure.message.contains("wall-clock limit"));
    assert!(results[0].secs().is_nan());
    assert!(results[1].outcome.is_ok(), "other jobs unaffected");
}
