//! Group Sync Table sizing end to end: the engine derives each group's
//! participant count from the program, and the CAIS switch releases the
//! group once exactly that many GPUs have registered — even when the group
//! spans fewer GPUs than the system has.

use cais::core::{CaisLogic, MergeConfig};
use cais::engine::{IdAlloc, Msg, PlannedKernel, Program, SystemConfig, SystemSim};
use cais::gpu_sim::{KernelDesc, Phase, SyncKind, TbDesc};
use cais::noc_sim::{Packet, SwitchCtx, SwitchLogic};
use cais::sim_core::{GpuId, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// One `SyncReq` as the switch saw it, and whether it completed its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SyncSeen {
    kind: SyncKind,
    gpu: GpuId,
    participants: u32,
    released: bool,
}

/// Wraps [`CaisLogic`] and logs every `SyncReq` it handles.
struct Recorder {
    inner: CaisLogic,
    log: Rc<RefCell<Vec<SyncSeen>>>,
}

impl Recorder {
    fn releases(&self) -> f64 {
        self.inner
            .stats()
            .into_iter()
            .find(|(k, _)| k == "cais.sync_releases")
            .map_or(0.0, |(_, v)| v)
    }
}

impl SwitchLogic<Msg> for Recorder {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<Msg>, ctx: &mut SwitchCtx<Msg>) {
        let req = match pkt.payload {
            Msg::SyncReq {
                kind,
                gpu,
                participants,
                ..
            } => Some((kind, gpu, participants)),
            _ => None,
        };
        let before = self.releases();
        self.inner.on_packet(now, pkt, ctx);
        if let Some((kind, gpu, participants)) = req {
            self.log.borrow_mut().push(SyncSeen {
                kind,
                gpu,
                participants,
                released: self.releases() > before,
            });
        }
    }

    fn on_timer(&mut self, now: SimTime, key: u64, ctx: &mut SwitchCtx<Msg>) {
        self.inner.on_timer(now, key, ctx);
    }

    fn stats(&self) -> Vec<(String, f64)> {
        self.inner.stats()
    }

    fn audit_probe(&self, probe: &mut cais::sim_core::AuditProbe) {
        self.inner.audit_probe(probe);
    }
}

#[test]
fn group_on_three_of_four_gpus_releases_after_three_requests() {
    let n = 4;
    let mut cfg = SystemConfig::dgx_h100();
    cfg.n_gpus = n;
    cfg.n_planes = 1;
    cfg.fabric = cais::noc_sim::FabricConfig::default_for(n, 1);
    cfg.audit.enabled = true;

    // One grouped TB on each of GPUs 0, 1 and 2 (pre-launch and pre-access
    // sync); GPU 3 runs an ungrouped TB and never registers.
    let mut ids = IdAlloc::new(n);
    let group = ids.group();
    let mut program = Program::new();
    for g in 0..n {
        let grouped = g < 3;
        let mut phases = vec![Phase::Compute(SimDuration::from_us(1 + g as u64))];
        if grouped {
            phases.push(Phase::SyncGroup(SyncKind::PreAccess));
        }
        phases.push(Phase::Compute(SimDuration::from_us(1)));
        let tb = TbDesc {
            id: ids.tb(),
            order_key: 0,
            group: grouped.then_some(group),
            pre_launch_sync: grouped,
            phases,
        };
        program.push(PlannedKernel {
            gpu: GpuId(g as u16),
            desc: KernelDesc::new(ids.kernel(), "k", vec![tb]),
            after: vec![],
        });
    }

    let log = Rc::new(RefCell::new(Vec::new()));
    let logic = Recorder {
        inner: CaisLogic::new(n, MergeConfig::paper_default(n)),
        log: Rc::clone(&log),
    };
    let report = SystemSim::new(cfg, program, logic)
        .run()
        .expect("a group sized by its participants must release");
    assert_eq!(report.stat("cais.sync_releases"), Some(2.0));

    let log = log.borrow();
    for kind in [SyncKind::PreLaunch, SyncKind::PreAccess] {
        let seen: Vec<SyncSeen> = log.iter().copied().filter(|s| s.kind == kind).collect();
        let mut gpus: Vec<u16> = seen.iter().map(|s| s.gpu.0).collect();
        gpus.sort_unstable();
        assert_eq!(gpus, [0, 1, 2], "{kind:?}: one request per grouped GPU");
        assert!(
            seen.iter().all(|s| s.participants == 3),
            "{kind:?}: {seen:?}"
        );
        let released: Vec<bool> = seen.iter().map(|s| s.released).collect();
        assert_eq!(
            released,
            [false, false, true],
            "{kind:?}: the release follows the third request"
        );
    }
}
