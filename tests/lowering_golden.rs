//! Pins every lowered program by a digest of its canonical rendering.
//!
//! The lowered [`Program`] is part of the simulator's output: kernel and
//! TB id order break ties in the engine, and address order feeds the
//! switch-plane hash. A change to the lowering code that is meant to be a
//! refactor must leave every program exactly as it was.
//!
//! Each case renders its program canonically — kernels in push order with
//! GPU, id, name, launch flags and `after`; each kernel's TBs with id,
//! order key, group, pre-launch flag and phases; then `tb_ready_deps` and
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
            "K {:?} {:?} {} auto={} fused={} ordered={} after={:?}",
            k.gpu, d.id, d.name, d.tbs_auto_ready, d.fused_launch, d.ordered, k.after
        )
        .unwrap();
        for tb in &d.tbs {
            writeln!(
                h,
                "  T {:?} {} {:?} {} {:?}",
                tb.id, tb.order_key, tb.group, tb.pre_launch_sync, tb.phases
            )
            .unwrap();
        }
    }
    let mut deps: Vec<_> = prog.tb_ready_deps.iter().collect();
    deps.sort_unstable_by_key(|(id, _)| **id);
    for (id, tiles) in deps {
        writeln!(h, "D {id:?} {tiles:?}").unwrap();
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

/// Recorded before the lowering code was consolidated behind
/// `cais_engine::lower`; every later change must reproduce them.
const EXPECTED: &[(&str, u64)] = &[
    ("TP-NVLS/Forward", 0x7c0c06a7b98c4bef),
    ("TP-NVLS/Backward", 0xb2185c88bf6bb1a7),
    ("SP-NVLS/Forward", 0xd56409189cfc40bb),
    ("SP-NVLS/Backward", 0xdefedbbd1095f591),
    ("CoCoNet/Forward", 0x767d265e76e708b2),
    ("CoCoNet/Backward", 0x72daf838b7618ed6),
    ("FuseLib/Forward", 0xc4af5ae3a62be9e8),
    ("FuseLib/Backward", 0x2fc2c463218321da),
    ("T3/Forward", 0xa2dbed2c142b0d2f),
    ("T3/Backward", 0xb4eb96dae58a85fe),
    ("CoCoNet-NVLS/Forward", 0x95ecd7a19bceef87),
    ("CoCoNet-NVLS/Backward", 0xc22acf43c2ed5013),
    ("FuseLib-NVLS/Forward", 0x80522706405fabf5),
    ("FuseLib-NVLS/Backward", 0x0e6c4d035c39ffb9),
    ("T3-NVLS/Forward", 0x01c4d9a850f1ae05),
    ("T3-NVLS/Backward", 0x9443ecf47ba493f7),
    ("LADM/Forward", 0x9cb746b9a6771e91),
    ("LADM/Backward", 0x7ac45be9d8ee7b6b),
    ("CAIS-Base/Forward", 0xca46a8bd7ca4935f),
    ("CAIS-Base/Backward", 0xe9d479af36ef43a9),
    ("CAIS/Forward", 0xf7bed939ea3a95af),
    ("CAIS/Backward", 0x1444375fc8ff2589),
    ("ring_all_gather", 0x7edb4ca65e9266e6),
    ("ring_reduce_scatter", 0x70c3bfed27857a3f),
    ("ring_all_reduce", 0x7e3f92eac629db67),
    ("nvls_all_gather", 0x18a11dc865a2cdb4),
    ("nvls_reduce_scatter", 0x8f8bd8a54573e554),
    ("nvls_all_reduce", 0xd7d3429a83961a55),
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
