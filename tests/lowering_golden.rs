//! Pins every lowered program by a digest of its canonical rendering.
//!
//! The lowered [`Program`] is part of the simulator's output: kernel and
//! TB id order break ties in the engine, and address order feeds the
//! switch-plane hash. A change to the lowering code that is meant to be a
//! refactor must leave every program exactly as it was.
//!
//! Each case renders its program canonically — kernels in push order with
//! GPU, id, name, launch flags and `after`; each kernel's TBs with id,
//! order key, group, pre-launch flag, phases and tile gates; then
//! `tile_expected` sorted by key — and compares the 64-bit FNV-1a digest
//! of that rendering with the recorded value. On a mismatch the test
//! prints every case's digest, so an intended change can be re-recorded.

use cais::engine::{IdAlloc, Program, SystemConfig};
use cais::harness::runner::{roster, Scale};
use cais::llm_workload::{transformer_layer, ModelConfig, Pass};
use cais::nvls::{
    nvls_all_gather, nvls_all_reduce, nvls_reduce_scatter, ring::global_chunks, ring_all_gather,
    ring_all_reduce, ring_reduce_scatter, CollLowering, InputTiles,
};
use cais::sim_core::TileId;
use std::fmt::{self, Write};

/// Streaming 64-bit FNV-1a over everything written to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn render(h: &mut Fnv, prog: &Program) {
    for k in &prog.kernels {
        let d = &k.desc;
        writeln!(
            h,
            "K {:?} {:?} {} fused={} ordered={} after={:?}",
            k.gpu, d.id, d.name, d.fused_launch, d.ordered, k.after
        )
        .unwrap();
        for tb in &d.tbs {
            writeln!(
                h,
                "  T {:?} {} {:?} {} {:?} gates={:?}",
                tb.id, tb.order_key, tb.group, tb.pre_launch_sync, tb.phases, tb.ready_after
            )
            .unwrap();
        }
    }
    let mut expected: Vec<_> = prog.tile_expected.iter().collect();
    expected.sort_unstable_by_key(|(id, _)| **id);
    for (id, n) in expected {
        writeln!(h, "E {id:?} {n}").unwrap();
    }
}

fn program_digest(prog: &Program) -> u64 {
    let mut h = Fnv::new();
    render(&mut h, prog);
    h.0
}

/// Digests of every case, in case order.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();

    // The Fig. 11 roster on smoke-scale LLaMA-7B at 8 GPUs.
    let model = Scale::Smoke.model(&ModelConfig::llama_7b());
    let base = Scale::Smoke.system();
    for entry in roster() {
        for pass in [Pass::Forward, Pass::Backward] {
            let mut cfg = base.clone();
            entry.strategy.tune(&mut cfg);
            let dfg = transformer_layer(&model, cfg.tp(), entry.mode, pass);
            let prog = entry.strategy.lower(&dfg, &cfg);
            out.push((
                format!("{}/{pass:?}", entry.strategy.name()),
                program_digest(&prog),
            ));
        }
    }

    // The six collective lowerings at 4 GPUs: once ungated, then once
    // gated on per-chunk input tiles and launched after the first.
    let cases: [(&str, CollLowering); 6] = [
        ("ring_all_gather", ring_all_gather),
        ("ring_reduce_scatter", ring_reduce_scatter),
        ("ring_all_reduce", ring_all_reduce),
        ("nvls_all_gather", nvls_all_gather),
        ("nvls_reduce_scatter", nvls_reduce_scatter),
        ("nvls_all_reduce", nvls_all_reduce),
    ];
    let mut cfg = SystemConfig::dgx_h100();
    cfg.n_gpus = 4;
    cfg.coll_chunk_bytes = 64 * 1024;
    let bytes = 4 * 300 * 1024 + 3;
    let n_chunks = global_chunks(bytes, cfg.n_gpus, cfg.coll_chunk_bytes).len();
    let input: InputTiles = (0..cfg.n_gpus)
        .map(|g| {
            (0..n_chunks)
                .map(|c| vec![TileId((1_000_000 + g * 1000 + c) as u64)])
                .collect()
        })
        .collect();
    for (name, lower) in cases {
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(cfg.n_gpus);
        let first = lower(&mut prog, &mut ids, &cfg, "a", bytes, &[], None);
        let second = lower(
            &mut prog,
            &mut ids,
            &cfg,
            "b",
            bytes,
            &first.kernel_ids,
            Some(&input),
        );
        let mut h = Fnv::new();
        render(&mut h, &prog);
        for o in [&first, &second] {
            writeln!(
                h,
                "O {:?} {:?} {:?}",
                o.kernel_ids, o.chunks, o.chunk_arrivals
            )
            .unwrap();
        }
        out.push((name.to_string(), h.0));
    }
    out
}

/// Recorded with each TB's tile gates rendered on its `T` line; every
/// later change must reproduce them.
const EXPECTED: &[(&str, u64)] = &[
    ("TP-NVLS/Forward", 0x3c60785bc1833cef),
    ("TP-NVLS/Backward", 0x9b4975e52c0c7eb1),
    ("SP-NVLS/Forward", 0x87f6fc0d1f08a14b),
    ("SP-NVLS/Backward", 0x629bcd6da2f3bd17),
    ("CoCoNet/Forward", 0x947f807d6d09827e),
    ("CoCoNet/Backward", 0xee71ea7a7a5b0ce6),
    ("FuseLib/Forward", 0x4e9e9f0630978d7c),
    ("FuseLib/Backward", 0xa66c234c29631262),
    ("T3/Forward", 0x1b59d272f9124fbb),
    ("T3/Backward", 0x37bbd69e89b5c12e),
    ("CoCoNet-NVLS/Forward", 0x3d580c5f1f8a6bd3),
    ("CoCoNet-NVLS/Backward", 0x0d23316dc48feeb5),
    ("FuseLib-NVLS/Forward", 0x4e141d9cc4c6d791),
    ("FuseLib-NVLS/Backward", 0xb9c68531e23252d3),
    ("T3-NVLS/Forward", 0x67f8dcbebba174f3),
    ("T3-NVLS/Backward", 0xc290334a343a6a75),
    ("LADM/Forward", 0x37909735ff53b07d),
    ("LADM/Backward", 0xcc7c75d630d4cd33),
    ("CAIS-Base/Forward", 0x6501c8ec88b82c63),
    ("CAIS-Base/Backward", 0x210188e01b7bb16f),
    ("CAIS/Forward", 0x6f87a87a7d77602f),
    ("CAIS/Backward", 0xc7c8a29e35d850a3),
    ("ring_all_gather", 0xc172e8b0b62ef216),
    ("ring_reduce_scatter", 0xf47dcb437cbc0fdd),
    ("ring_all_reduce", 0x857ffee8bcd73d3b),
    ("nvls_all_gather", 0x6456bb29b7ab0040),
    ("nvls_reduce_scatter", 0xec86f8a58bee2c88),
    ("nvls_all_reduce", 0xc6c8925404739d71),
];

#[test]
fn lowered_programs_match_recorded_digests() {
    let got = digests();
    let listing: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|(name, d)| (name.to_string(), *d))
        .collect();
    assert_eq!(got, expected, "lowering digests changed; now:\n{listing}");
}
