//! Shared lowering: tiling math, the one kernel-emission path, and the
//! lowering of plain compute nodes.
//!
//! Execution strategies lower [`Dfg`](llm_workload::Dfg) nodes into
//! [`KernelDesc`]s. The per-strategy structure (which TBs issue which
//! remote operations, how kernels chain) lives in the strategy crates;
//! every kernel they emit goes through [`push_kernel`], and every
//! communication-free compute node through
//! [`GemmLowering::compute_node`]. The tile geometry and roofline
//! arithmetic shared by all of them live here too.

use crate::ids::IdAlloc;
use crate::program::{PlannedKernel, Program};
use gpu_sim::{KernelCost, KernelDesc, TbDesc};
use llm_workload::{Node, NodeKind};
use sim_core::{GpuId, KernelId, SimDuration, Symbol};

/// Square output-tile geometry used to decompose GEMMs into TBs.
#[derive(Debug, Clone, Copy)]
pub struct Tiling {
    /// Tile edge in elements.
    pub tile: u64,
}

impl Tiling {
    /// Creates a tiling.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero.
    pub fn new(tile: u64) -> Tiling {
        assert!(tile > 0, "tile size must be positive");
        Tiling { tile }
    }

    /// Number of tiles covering `dim`.
    pub fn count(&self, dim: u64) -> u64 {
        dim.div_ceil(self.tile)
    }

    /// `(offset, len)` ranges covering `dim`.
    pub fn ranges(&self, dim: u64) -> Vec<(u64, u64)> {
        (0..self.count(dim))
            .map(|i| {
                let off = i * self.tile;
                (off, self.tile.min(dim - off))
            })
            .collect()
    }
}

/// Splits `bytes` into `(offset, len)` chunks of at most `chunk` bytes.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn chunk_ranges(bytes: u64, chunk: u64) -> Vec<(u64, u64)> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..bytes.div_ceil(chunk))
        .map(|i| {
            let off = i * chunk;
            (off, chunk.min(bytes - off))
        })
        .collect()
}

/// How a lowered kernel launches: the [`KernelDesc`] flags. Readiness
/// is per TB ([`TbDesc::ready_after`]), not per kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Launch {
    /// No host launch overhead ([`KernelDesc::fused_launch`]).
    pub fused: bool,
    /// Persistent-kernel dispatch in `order_key` order
    /// ([`KernelDesc::ordered`]).
    pub ordered: bool,
}

impl Launch {
    /// A plain kernel: launch overhead and jittered TB dispatch.
    pub const PLAIN: Launch = Launch {
        fused: false,
        ordered: false,
    };
    /// A persistent communication kernel (ring / NVLS collectives).
    pub const ORDERED: Launch = Launch {
        fused: false,
        ordered: true,
    };
}

/// Emits one kernel: allocates its id, builds its [`KernelDesc`] with the
/// `launch` flags and schedules it on `gpu` after the `after` kernels.
/// Returns the new kernel's id.
pub fn push_kernel(
    prog: &mut Program,
    ids: &mut IdAlloc,
    gpu: usize,
    name: impl Into<Symbol>,
    tbs: Vec<TbDesc>,
    after: Vec<KernelId>,
    launch: Launch,
) -> KernelId {
    prog.push(PlannedKernel {
        gpu: GpuId(gpu as u16),
        desc: KernelDesc {
            id: ids.kernel(),
            name: name.into(),
            tbs,
            fused_launch: launch.fused,
            ordered: launch.ordered,
        },
        after,
    })
}

/// Per-node lowering cost/geometry helper shared by all strategies.
#[derive(Debug)]
pub struct GemmLowering {
    /// Roofline cost model for the configured GPU.
    pub cost: KernelCost,
    /// Output tile geometry.
    pub tiling: Tiling,
    /// Bytes per element.
    pub elem: u64,
}

impl GemmLowering {
    /// Builds the helper from a cost model.
    pub fn new(cost: KernelCost, tile: u64, elem: u64) -> GemmLowering {
        GemmLowering {
            cost,
            tiling: Tiling::new(tile),
            elem,
        }
    }

    /// Duration of one `(m_len x n_len) @ k` output tile.
    pub fn gemm_tb_time(&self, m_len: u64, n_len: u64, k: u64) -> SimDuration {
        self.cost.gemm_tile(m_len, n_len, k, self.elem)
    }

    /// Lowers a communication-free compute node into one kernel per GPU,
    /// each a grid of pure-compute TBs sized by the node kind. GPU `g`'s
    /// kernel launches after `after(g)`. Returns the kernel ids in GPU
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on a collective node: collectives are lowered by
    /// strategy-specific code.
    pub fn compute_node(
        &self,
        prog: &mut Program,
        ids: &mut IdAlloc,
        n_gpus: usize,
        node: &Node,
        sm_count: usize,
        mut after: impl FnMut(usize) -> Vec<KernelId>,
    ) -> Vec<KernelId> {
        (0..n_gpus)
            .map(|g| {
                let tbs = self.compute_tbs(ids, &node.kind, sm_count);
                push_kernel(
                    prog,
                    ids,
                    g,
                    node.name.as_str(),
                    tbs,
                    after(g),
                    Launch::PLAIN,
                )
            })
            .collect()
    }

    /// One GPU's grid for a compute node.
    fn compute_tbs(&self, ids: &mut IdAlloc, kind: &NodeKind, sm_count: usize) -> Vec<TbDesc> {
        let mut tbs = Vec::new();
        let mut push = |ids: &mut IdAlloc, dur| {
            let order = tbs.len() as u64;
            tbs.push(TbDesc::compute_only(ids.tb(), order, dur));
        };
        match kind {
            NodeKind::Gemm { m, n, k } => {
                for (_, ml) in self.tiling.ranges(*m) {
                    for (_, nl) in self.tiling.ranges(*n) {
                        push(ids, self.gemm_tb_time(ml, nl, *k));
                    }
                }
            }
            NodeKind::AttentionCore { flops, bytes } => {
                // Spread across the device: one TB per SM.
                let n = sm_count as f64;
                let t = self.cost.tb_time(*flops / n, *bytes as f64 / n);
                for _ in 0..sm_count {
                    push(ids, t);
                }
            }
            NodeKind::LayerNorm { rows, cols } => {
                for (_, rl) in self.tiling.ranges(*rows) {
                    push(ids, self.cost.elementwise(rl * cols, self.elem, 8.0));
                }
            }
            NodeKind::Elementwise {
                rows,
                cols,
                flops_per_elem,
            } => {
                for (_, rl) in self.tiling.ranges(*rows) {
                    push(
                        ids,
                        self.cost.elementwise(rl * cols, self.elem, *flops_per_elem),
                    );
                }
            }
            NodeKind::Collective { .. } => {
                panic!("collective nodes are lowered by strategy-specific code")
            }
        }
        tbs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, Phase};

    fn lowering() -> GemmLowering {
        GemmLowering::new(KernelCost::new(&GpuConfig::h100_half()), 128, 2)
    }

    fn lower_node(kind: NodeKind) -> Program {
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(2);
        let node = Node {
            name: "node".into(),
            kind,
            deps: Vec::new(),
        };
        let kids = lowering().compute_node(&mut prog, &mut ids, 2, &node, 66, |g| {
            vec![KernelId(100 + g as u32)]
        });
        assert_eq!(kids, vec![KernelId(0), KernelId(1)]);
        prog
    }

    #[test]
    fn tiling_covers_dimension_exactly() {
        let t = Tiling::new(128);
        assert_eq!(t.count(256), 2);
        assert_eq!(t.count(300), 3);
        let ranges = t.ranges(300);
        assert_eq!(ranges, vec![(0, 128), (128, 128), (256, 44)]);
        let covered: u64 = ranges.iter().map(|(_, l)| l).sum();
        assert_eq!(covered, 300);
    }

    #[test]
    fn chunks_cover_bytes() {
        let chunks = chunk_ranges(1000, 256);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[3], (768, 232));
        assert_eq!(chunk_ranges(0, 256).len(), 0);
    }

    #[test]
    fn gemm_kernel_has_full_grid() {
        let prog = lower_node(NodeKind::Gemm {
            m: 512,
            n: 256,
            k: 1024,
        });
        assert_eq!(prog.kernels.len(), 2);
        for (g, k) in prog.kernels.iter().enumerate() {
            assert_eq!(k.gpu, GpuId(g as u16));
            assert_eq!(k.after, vec![KernelId(100 + g as u32)]);
            assert_eq!(k.desc.tbs.len(), 4 * 2);
            for (i, tb) in k.desc.tbs.iter().enumerate() {
                assert_eq!(tb.order_key, i as u64);
                assert!(tb.ready_after.is_empty());
                assert!(matches!(tb.phases.as_slice(),
                    [Phase::Compute(d)] if *d > SimDuration::ZERO));
            }
        }
    }

    #[test]
    fn layernorm_kernel_rows() {
        let prog = lower_node(NodeKind::LayerNorm {
            rows: 1152,
            cols: 4096,
        });
        assert_eq!(prog.kernels[0].desc.tbs.len(), 9);
    }

    #[test]
    fn push_kernel_sets_launch_flags() {
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(2);
        let kid = push_kernel(
            &mut prog,
            &mut ids,
            1,
            "coll",
            Vec::new(),
            vec![],
            Launch::ORDERED,
        );
        let k = &prog.kernels[0];
        assert_eq!(kid, KernelId(0));
        assert_eq!(k.desc.id, kid);
        assert_eq!(k.gpu, GpuId(1));
        assert!(k.desc.ordered);
        assert!(!k.desc.fused_launch);
    }

    #[test]
    fn serial_time_scales_with_work() {
        let serial = |m| -> SimDuration {
            let prog = lower_node(NodeKind::Gemm { m, n: 256, k: 1024 });
            let tbs = &prog.kernels[0].desc.tbs;
            tbs.iter()
                .map(|tb| match tb.phases.as_slice() {
                    [Phase::Compute(d)] => *d,
                    other => panic!("compute-only TB expected, got {other:?}"),
                })
                .sum()
        };
        assert!(serial(512) > serial(256));
    }

    #[test]
    #[should_panic(expected = "collective nodes")]
    fn collective_nodes_rejected() {
        lower_node(NodeKind::Collective {
            kind: llm_workload::CollKind::AllReduce,
            rows: 1,
            cols: 1,
        });
    }
}
