//! Kernel and thread-block descriptors.

use sim_core::{Addr, GroupId, KernelId, SimDuration, Symbol, TbId, TileId};
use std::sync::Arc;

/// The kind of a remote memory operation issued by a TB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// Pull-mode remote read (CAIS `ld.cais`, or an uncached remote load
    /// for strategies without in-switch support). The issuing TB receives
    /// the data back.
    RemoteLoad,
    /// Push-mode reduction contribution (CAIS `red.cais`, NVLS
    /// `multimem.red`): data flows to the home GPU of the address and is
    /// accumulated there (or in the switch).
    RemoteReduce,
    /// Plain remote write (T3-style direct store to a peer).
    RemoteWrite,
    /// NVLS `multimem.st`: push one chunk once; the switch replicates it
    /// to every other GPU.
    MulticastStore,
    /// NVLS `multimem.ld_reduce`: pull-mode reduction; the switch fetches
    /// the chunk from every other GPU, reduces in flight, and returns the
    /// sum to the issuer.
    LoadReduce,
}

/// One remote memory operation.
#[derive(Debug, Clone)]
pub struct MemOp {
    /// Operation kind.
    pub kind: MemOpKind,
    /// Global address (its [`Addr::home_gpu`] is the data's owner).
    pub addr: Addr,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Whether the request is CAIS-tagged (eligible for in-switch merging).
    pub cais: bool,
    /// Tile this operation materializes locally (loads) or contributes to
    /// (reductions); lets the engine publish tile availability.
    pub tile: Option<TileId>,
}

/// Which CAIS synchronization point a [`Phase::SyncGroup`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Pre-launch alignment (handled at dispatch, before the TB occupies
    /// an SM slot).
    PreLaunch,
    /// Pre-access alignment (the first `*.cais` instruction of a warp
    /// waits until all group peers reach the same point).
    PreAccess,
}

/// One step in a TB's execution.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Occupy the SM for this long (roofline-derived duration).
    Compute(SimDuration),
    /// Issue remote memory operations. With `wait`, the TB blocks until the
    /// engine reports completion (loads returning data / acked writes);
    /// otherwise it proceeds immediately (fire-and-forget reductions).
    IssueMem {
        /// The operations to issue.
        ops: Vec<MemOp>,
        /// Whether the TB blocks until the engine resumes it.
        wait: bool,
    },
    /// Block until the engine releases this TB's group (pre-access sync).
    SyncGroup(SyncKind),
    /// Publish a locally produced tile (fine-grained producer signal).
    SignalTile(TileId),
    /// Block until all listed tiles are present on this GPU.
    WaitTiles(Vec<TileId>),
}

/// A thread block.
#[derive(Debug, Clone)]
pub struct TbDesc {
    /// Globally unique id (assigned by the engine/lowering).
    pub id: TbId,
    /// Deterministic dispatch-order key, identical for semantically
    /// corresponding TBs on every GPU (the CAIS compiler's TB grouping
    /// relies on this; see [`ReadyPolicy::GroupOrdered`](crate::ReadyPolicy::GroupOrdered)).
    pub order_key: u64,
    /// CAIS TB group this block belongs to, if any.
    pub group: Option<GroupId>,
    /// Whether dispatch must wait for a pre-launch group release.
    pub pre_launch_sync: bool,
    /// Execution phases, run in order.
    pub phases: Vec<Phase>,
    /// Tile gates (fine-grained cross-kernel dependencies): the TB becomes
    /// dispatchable only once the engine has seen every listed tile
    /// present on its GPU. A TB with no gates is ready at launch. The
    /// list is shared: TBs gated on the same tiles hold one copy of it.
    pub ready_after: Arc<[TileId]>,
}

impl TbDesc {
    /// Creates an ungrouped, ungated TB (no CAIS group, no pre-launch
    /// sync, ready at launch) that runs `phases` in order.
    pub fn new(id: TbId, order_key: u64, phases: Vec<Phase>) -> TbDesc {
        TbDesc {
            id,
            order_key,
            group: None,
            pre_launch_sync: false,
            phases,
            ready_after: Arc::default(),
        }
    }

    /// Gates dispatch on `tiles` (see [`TbDesc::ready_after`]).
    pub fn gated_on(mut self, tiles: impl Into<Arc<[TileId]>>) -> TbDesc {
        self.ready_after = tiles.into();
        self
    }

    /// Creates a plain compute TB with no communication.
    pub fn compute_only(id: TbId, order_key: u64, dur: SimDuration) -> TbDesc {
        TbDesc::new(id, order_key, vec![Phase::Compute(dur)])
    }
}

/// A kernel: a grid of TBs launched together on one GPU.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Globally unique kernel id.
    pub id: KernelId,
    /// Human-readable name for reports ("qkv_gemm", "allgather", ...),
    /// interned so per-launch bookkeeping copies a 4-byte symbol instead
    /// of cloning a heap string.
    pub name: Symbol,
    /// The grid.
    pub tbs: Vec<TbDesc>,
    /// Skip the host launch overhead (used for stages fused into a single
    /// kernel by FuseLib-style strategies).
    pub fused_launch: bool,
    /// Persistent-kernel semantics (NCCL-style communication kernels):
    /// TBs dispatch strictly in `order_key` order with no per-TB
    /// dispatch jitter — the "TBs" are loop steps of one resident
    /// kernel, not independently scheduled blocks.
    pub ordered: bool,
}

impl KernelDesc {
    /// Creates a plain kernel (launch overhead, jittered dispatch).
    pub fn new(id: KernelId, name: impl Into<Symbol>, tbs: Vec<TbDesc>) -> KernelDesc {
        KernelDesc {
            id,
            name: name.into(),
            tbs,
            fused_launch: false,
            ordered: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::GpuId;

    fn compute(phases: &[Phase]) -> SimDuration {
        phases
            .iter()
            .map(|p| match p {
                Phase::Compute(d) => *d,
                _ => SimDuration::ZERO,
            })
            .sum()
    }

    #[test]
    fn tb_aggregates() {
        let tb = TbDesc::new(
            TbId(1),
            7,
            vec![
                Phase::Compute(SimDuration::from_us(2)),
                Phase::IssueMem {
                    ops: vec![MemOp {
                        kind: MemOpKind::RemoteLoad,
                        addr: Addr::new(GpuId(1), 0),
                        bytes: 4096,
                        cais: true,
                        tile: None,
                    }],
                    wait: true,
                },
                Phase::Compute(SimDuration::from_us(3)),
            ],
        );
        assert_eq!((tb.id, tb.order_key), (TbId(1), 7));
        assert_eq!(tb.group, None);
        assert!(!tb.pre_launch_sync);
        assert_eq!(compute(&tb.phases), SimDuration::from_us(5));
        assert!(matches!(
            &tb.phases[1],
            Phase::IssueMem { ops, wait: true } if ops[0].bytes == 4096
        ));
    }

    #[test]
    fn kernel_totals() {
        let tbs = (0..4)
            .map(|i| TbDesc::compute_only(TbId(i), i, SimDuration::from_us(1)))
            .collect();
        let k = KernelDesc::new(KernelId(0), "k", tbs);
        let total: SimDuration = k.tbs.iter().map(|tb| compute(&tb.phases)).sum();
        assert_eq!(total, SimDuration::from_us(4));
        assert!(k
            .tbs
            .iter()
            .enumerate()
            .all(|(i, tb)| tb.order_key == i as u64));
        assert!(k.tbs.iter().all(|tb| tb.ready_after.is_empty()));
        assert!(!k.fused_launch);
        assert!(!k.ordered);
    }
}
