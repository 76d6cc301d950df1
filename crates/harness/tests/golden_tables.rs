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

/// The conservation auditor must be observe-only: with auditing
/// force-enabled at runtime (the `--audit` flag's mechanism) the fig11
/// and fig14 smoke tables must match the same golden bytes.
#[test]
fn audit_is_observe_only_on_golden_tables() {
    sim_core::audit::set_force_enabled(true);
    let fig11 = rendered(cais_harness::fig11::run(Scale::Smoke, 1));
    let fig14 = rendered(cais_harness::fig14::run(Scale::Smoke, 1));
    sim_core::audit::set_force_enabled(false);
    assert_eq!(
        fig11,
        include_str!("golden/fig11_smoke.txt"),
        "fig11 output drifted with the audit enabled"
    );
    assert_eq!(
        fig14,
        include_str!("golden/fig14_smoke.txt"),
        "fig14 output drifted with the audit enabled"
    );
}
