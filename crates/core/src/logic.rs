//! The CAIS switch logic: merge unit + Group Sync Table wired into the
//! fabric's [`SwitchLogic`] hook.

use crate::merge::{MergeAction, MergeConfig, MergeUnit, Waiter};
use crate::sync::GroupSyncTable;
use cais_engine::Msg;
use noc_sim::{Packet, SwitchCtx, SwitchLogic};
use sim_core::rng::JitterRng;
use sim_core::{FastHash, GpuId, PlaneId, SimDuration, SimTime};
use std::collections::HashSet;

/// In-switch behaviour for CAIS programs.
///
/// * `ld.cais` / `red.cais` traffic goes through the [`MergeUnit`];
/// * `SyncReq` goes through the [`GroupSyncTable`], broadcasting a
///   release once as many GPUs registered as the request's
///   `participants` count;
/// * merged reduction completions return throttle credits to the
///   contributing GPUs;
/// * everything else (notification writes, plain loads) is forwarded.
#[derive(Debug)]
pub struct CaisLogic {
    merge: MergeUnit,
    sync: GroupSyncTable,
    n_gpus: usize,
    sweep_interval: SimDuration,
    timer_armed: HashSet<PlaneId, FastHash>,
    /// Entry-fault RNG; `None` (the default) means no injection and no
    /// draws, keeping fault-free runs byte-identical. Armed by
    /// [`CaisLogic::with_fault_seed`] when the merge config's
    /// `entry_fault_rate` is nonzero.
    fault_rng: Option<JitterRng>,
    /// Recycled merge-action buffer, so per-packet handling does not
    /// allocate.
    scratch: Vec<MergeAction>,
}

impl CaisLogic {
    /// Builds the logic for `n_gpus` with the given merge configuration.
    pub fn new(n_gpus: usize, merge_cfg: MergeConfig) -> CaisLogic {
        CaisLogic {
            merge: MergeUnit::new(merge_cfg),
            sync: GroupSyncTable::new(),
            n_gpus,
            sweep_interval: SimDuration::from_us(20),
            timer_armed: HashSet::default(),
            fault_rng: None,
            scratch: Vec::new(),
        }
    }

    /// Arms deterministic merge-entry fault injection from the fault
    /// plan's root seed. A no-op when the merge config's fault rate is
    /// zero, so fault-free runs never construct (or draw from) the stream.
    ///
    /// Arming also tightens the sweep cadence: merge sessions typically
    /// live for a few microseconds, so the regular 20 µs timeout sweep
    /// would alias with session lifetimes and sample an empty table. The
    /// finer cadence only affects faulted runs (timeout eviction still
    /// honours the configured timeout threshold).
    pub fn with_fault_seed(mut self, seed: u64) -> CaisLogic {
        if self.merge.entry_fault_rate() > 0.0 {
            self.fault_rng = Some(JitterRng::seed_from(seed ^ 0x03A8_1E57_CA15_FA17));
            self.sweep_interval = self.sweep_interval.min(SimDuration::from_us(1));
        }
        self
    }

    /// Test-only ledger corruption: skews the merge unit's session-open
    /// tally so audit tests can prove a broken counter is caught.
    #[doc(hidden)]
    pub fn audit_poke_sessions_opened(&mut self) {
        self.merge.audit_poke_sessions_opened();
    }

    fn apply(&mut self, actions: &mut Vec<MergeAction>, ctx: &mut SwitchCtx<Msg>) {
        for action in actions.drain(..) {
            match action {
                MergeAction::ForwardLoad {
                    waiter,
                    addr,
                    bytes,
                } => ctx.emit(
                    waiter.requester,
                    addr.home_gpu(),
                    Msg::LoadReq {
                        addr,
                        bytes,
                        requester: waiter.requester,
                        tb: waiter.tb,
                        tile: waiter.tile,
                        cais: true,
                    },
                ),
                MergeAction::RespondLoad {
                    waiter,
                    addr,
                    bytes,
                } => ctx.emit(
                    addr.home_gpu(),
                    waiter.requester,
                    Msg::LoadResp {
                        addr,
                        bytes,
                        requester: waiter.requester,
                        tb: waiter.tb,
                        tile: waiter.tile,
                    },
                ),
                MergeAction::FlushReduce {
                    addr,
                    bytes,
                    contribs,
                    tile,
                } => ctx.emit(
                    addr.home_gpu(),
                    addr.home_gpu(),
                    Msg::Reduce {
                        addr,
                        bytes,
                        src: addr.home_gpu(),
                        contribs,
                        tile,
                        cais: true,
                    },
                ),
                MergeAction::GrantCredit { gpu } => {
                    ctx.emit(gpu, gpu, Msg::CreditGrant { credits: 1 })
                }
            }
        }
    }

    fn arm_timer(&mut self, now: SimTime, ctx: &mut SwitchCtx<Msg>) {
        let plane = ctx.plane();
        if self.merge.has_entries_on(plane) && self.timer_armed.insert(plane) {
            ctx.set_timer(now + self.sweep_interval, plane.0 as u64);
        }
    }
}

impl SwitchLogic<Msg> for CaisLogic {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<Msg>, ctx: &mut SwitchCtx<Msg>) {
        let plane = ctx.plane();
        match pkt.payload {
            Msg::LoadReq {
                addr,
                bytes,
                requester,
                tb,
                tile,
                cais: true,
            } => {
                let mut out = std::mem::take(&mut self.scratch);
                self.merge.on_load_req(
                    now,
                    plane,
                    addr,
                    bytes,
                    Waiter {
                        requester,
                        tb,
                        tile,
                    },
                    &mut out,
                );
                self.apply(&mut out, ctx);
                self.scratch = out;
                self.arm_timer(now, ctx);
            }
            Msg::LoadResp { addr, bytes, .. } => {
                let mut out = std::mem::take(&mut self.scratch);
                if self.merge.on_load_resp(now, plane, addr, bytes, &mut out) {
                    self.apply(&mut out, ctx);
                } else {
                    ctx.forward(pkt);
                }
                self.scratch = out;
            }
            Msg::Reduce {
                addr,
                bytes,
                src,
                contribs,
                tile,
                cais: true,
            } => {
                let mut out = std::mem::take(&mut self.scratch);
                self.merge
                    .on_reduce(now, plane, addr, bytes, src, contribs, tile, &mut out);
                self.apply(&mut out, ctx);
                self.scratch = out;
                self.arm_timer(now, ctx);
            }
            Msg::SyncReq {
                group,
                gpu,
                kind,
                participants,
            } => {
                if self.sync.register(now, group, gpu, kind, participants) {
                    for g in 0..self.n_gpus {
                        ctx.emit(gpu, GpuId(g as u16), Msg::SyncRel { group, kind });
                    }
                }
            }
            _ => ctx.forward(pkt),
        }
    }

    fn on_timer(&mut self, now: SimTime, key: u64, ctx: &mut SwitchCtx<Msg>) {
        let plane = PlaneId(key as u16);
        self.timer_armed.remove(&plane);
        let mut out = std::mem::take(&mut self.scratch);
        if let Some(rng) = &mut self.fault_rng {
            self.merge.inject_entry_faults(now, plane, rng, &mut out);
        }
        let remain = self.merge.sweep(now, plane, &mut out);
        self.apply(&mut out, ctx);
        self.scratch = out;
        if remain && self.timer_armed.insert(plane) {
            ctx.set_timer(now + self.sweep_interval, key);
        }
    }

    fn audit_probe(&self, probe: &mut sim_core::AuditProbe) {
        self.merge.audit_probe(probe);
        probe.counter("cais.sync_open_groups", self.sync.open_groups() as u64);
        probe.counter("cais.sync_releases", self.sync.releases());
        if probe.is_quiescence() {
            probe.require_zero(
                "sync",
                "quiescence: no groups still waiting for participants",
                self.sync.open_groups() as u64,
            );
        }
    }

    fn stats(&self) -> Vec<(String, f64)> {
        let m = self.merge.stats();
        vec![
            ("cais.load_requests".into(), m.load_requests as f64),
            ("cais.loads_merged".into(), m.loads_merged as f64),
            ("cais.loads_forwarded".into(), m.loads_forwarded as f64),
            ("cais.reduce_contribs".into(), m.reduce_contribs as f64),
            ("cais.reduce_flushes".into(), m.reduce_flushes as f64),
            ("cais.evictions_lru".into(), m.evictions_lru as f64),
            ("cais.evictions_timeout".into(), m.evictions_timeout as f64),
            ("cais.bypasses".into(), m.bypasses as f64),
            (
                "cais.peak_port_occupancy".into(),
                m.peak_port_occupancy as f64,
            ),
            ("cais.peak_reduce_bytes".into(), m.peak_reduce_bytes as f64),
            ("cais.peak_load_bytes".into(), m.peak_load_bytes as f64),
            ("cais.mean_spread_us".into(), m.mean_spread().as_us_f64()),
            ("cais.entry_faults".into(), m.entry_faults as f64),
            ("cais.degraded_ports".into(), m.degraded_ports as f64),
            ("cais.degraded_bypasses".into(), m.degraded_bypasses as f64),
            ("cais.sync_releases".into(), self.sync.releases() as f64),
            (
                "cais.sync_mean_wait_us".into(),
                self.sync.mean_wait().as_us_f64(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SyncKind;
    use noc_sim::{Fabric, FabricConfig};
    use sim_core::{Addr, GroupId, TbId, TileId};

    fn fabric(n: usize) -> Fabric<Msg, CaisLogic> {
        Fabric::new(
            FabricConfig::default_for(n, 1),
            CaisLogic::new(n, MergeConfig::paper_default(n)),
        )
    }

    #[test]
    fn cais_loads_merge_end_to_end() {
        let n = 4;
        let mut f = fabric(n);
        let addr = Addr::new(GpuId(3), 0);
        // Three requesters (gpu0..2) ask for the same remote tile.
        for g in 0..3u16 {
            f.inject(
                SimTime::from_ns(g as u64 * 50),
                GpuId(g),
                GpuId(3),
                PlaneId(0),
                Msg::LoadReq {
                    addr,
                    bytes: 4096,
                    requester: GpuId(g),
                    tb: TbId(g as u64),
                    tile: Some(TileId(g as u64)),
                    cais: true,
                },
            );
        }
        f.run_to_completion();
        let d = f.drain_deliveries();
        // Exactly one forwarded request reaches the home GPU.
        let reqs: Vec<_> = d
            .iter()
            .filter(|x| matches!(x.payload, Msg::LoadReq { .. }))
            .collect();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].dst, GpuId(3));
        // Simulate the home GPU's memory response.
        f.inject(
            f.now(),
            GpuId(3),
            GpuId(0),
            PlaneId(0),
            Msg::LoadResp {
                addr,
                bytes: 4096,
                requester: GpuId(0),
                tb: TbId(0),
                tile: Some(TileId(0)),
            },
        );
        f.run_to_completion();
        let d = f.drain_deliveries();
        let resps: Vec<_> = d
            .iter()
            .filter(|x| matches!(x.payload, Msg::LoadResp { .. }))
            .collect();
        assert_eq!(resps.len(), 3, "all three requesters served");
        let stats = f.logic().stats();
        let merged = stats
            .iter()
            .find(|(k, _)| k == "cais.loads_merged")
            .unwrap()
            .1;
        assert_eq!(merged, 2.0);
    }

    #[test]
    fn cais_reductions_merge_and_grant_credits() {
        let n = 4;
        let mut f = fabric(n);
        let addr = Addr::new(GpuId(0), 0x800);
        for g in 1..4u16 {
            f.inject(
                SimTime::from_ns(g as u64 * 100),
                GpuId(g),
                GpuId(0),
                PlaneId(0),
                Msg::Reduce {
                    addr,
                    bytes: 2048,
                    src: GpuId(g),
                    contribs: 1,
                    tile: Some(TileId(5)),
                    cais: true,
                },
            );
        }
        f.run_to_completion();
        let d = f.drain_deliveries();
        let reduces: Vec<_> = d
            .iter()
            .filter(|x| matches!(x.payload, Msg::Reduce { .. }))
            .collect();
        assert_eq!(reduces.len(), 1, "one merged write to the home GPU");
        assert!(
            matches!(reduces[0].payload, Msg::Reduce { contribs: 3, .. }),
            "merged contribution count"
        );
        let credits = d
            .iter()
            .filter(|x| matches!(x.payload, Msg::CreditGrant { .. }))
            .count();
        assert_eq!(credits, 3);
    }

    #[test]
    fn sync_table_broadcasts_release() {
        // Four GPUs, but the group has TBs on only three of them.
        let n = 4;
        let mut f = fabric(n);
        for g in 0..3u16 {
            f.inject(
                SimTime::from_ns(g as u64 * 200),
                GpuId(g),
                GpuId(g),
                PlaneId(0),
                Msg::SyncReq {
                    group: GroupId(4),
                    gpu: GpuId(g),
                    kind: SyncKind::PreAccess,
                    participants: 3,
                },
            );
        }
        f.run_to_completion();
        let d = f.drain_deliveries();
        let rels: Vec<_> = d
            .iter()
            .filter(|x| {
                matches!(
                    x.payload,
                    Msg::SyncRel {
                        kind: SyncKind::PreAccess,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(rels.len(), n, "release broadcast to every GPU");
    }

    #[test]
    fn timeout_flushes_stuck_partial() {
        let n = 8;
        let mut f = fabric(n);
        let addr = Addr::new(GpuId(0), 0x100);
        // Only one contribution ever arrives.
        f.inject(
            SimTime::ZERO,
            GpuId(1),
            GpuId(0),
            PlaneId(0),
            Msg::Reduce {
                addr,
                bytes: 1024,
                src: GpuId(1),
                contribs: 1,
                tile: Some(TileId(1)),
                cais: true,
            },
        );
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert!(
            d.iter()
                .any(|x| matches!(x.payload, Msg::Reduce { contribs: 1, .. })),
            "timeout eviction flushed the partial"
        );
    }

    #[test]
    fn entry_faults_degrade_port_end_to_end() {
        let n = 8;
        let mut cfg = MergeConfig::paper_default(n);
        cfg.entry_fault_rate = 1.0;
        cfg.degrade_threshold = 1;
        let mut f = Fabric::new(
            FabricConfig::default_for(n, 1),
            CaisLogic::new(n, cfg).with_fault_seed(0xFA17),
        );
        let addr = Addr::new(GpuId(0), 0x100);
        // One partial contribution; the sweep timer's fault pass evicts it.
        f.inject(
            SimTime::ZERO,
            GpuId(1),
            GpuId(0),
            PlaneId(0),
            Msg::Reduce {
                addr,
                bytes: 1024,
                src: GpuId(1),
                contribs: 1,
                tile: None,
                cais: true,
            },
        );
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert!(
            d.iter()
                .any(|x| matches!(x.payload, Msg::Reduce { contribs: 1, .. })),
            "fault eviction flushed the partial"
        );
        let stats = f.logic().stats();
        let get = |k: &str| stats.iter().find(|(name, _)| name == k).unwrap().1;
        assert!(get("cais.entry_faults") >= 1.0);
        assert_eq!(get("cais.degraded_ports"), 1.0);
        // The degraded port now forwards contributions unmerged.
        f.inject(
            f.now(),
            GpuId(2),
            GpuId(0),
            PlaneId(0),
            Msg::Reduce {
                addr: Addr::new(GpuId(0), 0x200),
                bytes: 1024,
                src: GpuId(2),
                contribs: 1,
                tile: None,
                cais: true,
            },
        );
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert!(
            d.iter()
                .any(|x| matches!(x.payload, Msg::Reduce { contribs: 1, .. })),
            "bypassed contribution still reaches the home GPU"
        );
        let stats = f.logic().stats();
        let get = |k: &str| stats.iter().find(|(name, _)| name == k).unwrap().1;
        assert!(get("cais.degraded_bypasses") >= 1.0);
    }

    #[test]
    fn non_cais_traffic_forwards() {
        let mut f = fabric(2);
        f.inject(
            SimTime::ZERO,
            GpuId(0),
            GpuId(1),
            PlaneId(0),
            Msg::Write {
                addr: Addr::new(GpuId(1), 0),
                bytes: 8,
                src: GpuId(0),
                tile: Some(TileId(0)),
                contrib: false,
            },
        );
        f.run_to_completion();
        assert_eq!(f.drain_deliveries().len(), 1);
    }
}
