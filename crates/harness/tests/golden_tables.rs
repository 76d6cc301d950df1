//! Golden-snapshot regression gate for the figure tables.
//!
//! The performance work on the simulator (dense state tables, segment
//! coalescing, the calendar event queue) must never change what the
//! experiments *compute* — only how fast they compute it. This test
//! pins the rendered smoke-scale output of two representative
//! experiments, byte for byte, against snapshots taken before that
//! work landed:
//!
//! * **fig11** — end-to-end speedup table (the paper's headline
//!   result), exercising CAIS and every baseline interconnect model.
//! * **fig14** — the densest smoke sweep (3 sizes × 2 variants),
//!   exercising the memory-heavy decode path and chunked sweeps.
//!
//! If an intentional model change shifts these numbers, regenerate the
//! snapshots (see `EXPERIMENTS.md`) and justify the diff in the PR.

use cais_harness::runner::Scale;
use cais_harness::Table;
use std::process::Command;

/// Renders tables exactly as `cais-experiments` prints them to stdout:
/// each table's `render()` followed by a newline.
fn rendered(tables: Vec<Table>) -> String {
    let mut out = String::new();
    for t in &tables {
        assert!(
            t.failures.is_empty(),
            "{}: sweep jobs failed: {:?}",
            t.id,
            t.failures
        );
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[test]
fn fig11_smoke_matches_golden() {
    let golden = include_str!("golden/fig11_smoke.txt");
    let got = rendered(cais_harness::fig11::run(Scale::Smoke, 2));
    assert_eq!(
        got, golden,
        "fig11 smoke output drifted from the golden snapshot"
    );
}

#[test]
fn fig14_smoke_matches_golden() {
    let golden = include_str!("golden/fig14_smoke.txt");
    let got = rendered(cais_harness::fig14::run(Scale::Smoke, 2));
    assert_eq!(
        got, golden,
        "fig14 smoke output drifted from the golden snapshot"
    );
}

/// The conservation auditor must be observe-only: `cais-experiments
/// fig11 fig14 --smoke --audit` must print the same golden bytes. It runs
/// as a child process because `--audit` flips a process-wide switch that
/// would otherwise reach the audit-off tests running beside it here.
#[test]
fn audit_is_observe_only_on_golden_tables() {
    let out = Command::new(env!("CARGO_BIN_EXE_cais-experiments"))
        .args(["fig11", "fig14", "--smoke", "--audit", "--jobs", "2"])
        .output()
        .expect("spawn cais-experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "audited run failed: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        concat!(
            include_str!("golden/fig11_smoke.txt"),
            include_str!("golden/fig14_smoke.txt")
        ),
        "fig11/fig14 output drifted with the audit enabled"
    );
}
