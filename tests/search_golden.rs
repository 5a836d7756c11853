//! Bit-identity pin for the CTA search step.
//!
//! One fixed corpus and CAGRA graph, searched in every traversal mode
//! the engine has — fp32, SQ8 with hash-table entry seeds and exact
//! rerank, and a relayouted index; 1 and 8 CTAs; greedy and beam
//! extend — with everything a search leaves behind folded into one FNV
//! hash per configuration: the merged TopK (ids and distance bits),
//! every per-CTA list, and every [`StepStats`] field of every step of
//! every CTA, charged cycles included. The constants were recorded
//! from the commit *before* the candidate list and the visited bitmap
//! moved onto packed words, so a change to either that alters a single
//! comparison, admission or tie-break anywhere fails here.
//!
//! The distance kernels are forced onto the portable scalar loops, so
//! the constants hold on every host whatever SIMD level it dispatches
//! (the kernels themselves are pinned against scalar in
//! `simd_wiring`); every test in this binary forces the same way, so
//! the process-global switch never races.

use algas::core::engine::{AlgasEngine, AlgasIndex, BeamMode, EngineConfig};
use algas::core::tracer::StepStats;
use algas::graph::cagra::CagraParams;
use algas::graph::{EntryParams, EntryPolicy};
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;
use algas::vector::VectorStore;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.u64(u64::from(x));
    }

    fn step(&mut self, s: &StepStats) {
        self.u32(s.selected_offset);
        self.u32(s.best_distance.to_bits());
        self.u32(s.head_distance.to_bits());
        self.u32(s.expansions);
        self.u32(s.dist_evals);
        self.u64(s.calc_cycles);
        self.u64(s.sort_cycles);
        self.u32(s.sorts);
        self.u64(s.other_cycles);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Fp32,
    Sq8HashTable,
    Relayouted,
}

/// Hash of every query's search state under one configuration.
fn run(
    base: &AlgasIndex,
    queries: &VectorStore,
    variant: Variant,
    n_ctas: usize,
    beam: BeamMode,
) -> u64 {
    let mut index = base.clone();
    let mut cfg = EngineConfig {
        k: 10,
        l: 64,
        slots: 8,
        n_parallel: Some(n_ctas),
        beam,
        // Explicit, so ALGAS_QUANTIZE cannot move a constant.
        quantize: false,
        ..Default::default()
    };
    match variant {
        Variant::Fp32 => {}
        Variant::Sq8HashTable => {
            index.quantize();
            index.build_entry_index(&EntryParams::default());
            cfg.quantize = true;
            cfg.entry_policy = EntryPolicy::HashTable;
        }
        Variant::Relayouted => {
            index.relayout();
        }
    }
    let engine = AlgasEngine::new(index, cfg).expect("configuration is resident");
    assert_eq!(engine.plan().n_parallel, n_ctas);
    let mut scratch = engine.make_scratch();
    let mut h = Fnv::new();
    for q in 0..queries.len() {
        engine.search_into(queries.get(q), q as u64, &mut scratch);
        h.u64(scratch.topk.len() as u64);
        for &(d, id) in &scratch.topk {
            h.u32(d.0.to_bits());
            h.u32(id);
        }
        h.u64(scratch.multi.n_active() as u64);
        for (c, list) in scratch.multi.per_cta().iter().enumerate() {
            h.u64(list.len() as u64);
            for &(d, id) in list {
                h.u32(d.0.to_bits());
                h.u32(id);
            }
            let trace = scratch.multi.trace(c);
            h.u64(trace.steps.len() as u64);
            for s in &trace.steps {
                h.step(s);
            }
        }
    }
    h.0
}

/// `(variant, CTAs, beam, hash)` as recorded at the parent commit.
const GOLDEN: [(Variant, usize, bool, u64); 12] = [
    (Variant::Fp32, 1, false, 0x745c6aabd4833c1f),
    (Variant::Fp32, 1, true, 0xd0bac61bb5b01bbf),
    (Variant::Fp32, 8, false, 0x4c8db19536b24fec),
    (Variant::Fp32, 8, true, 0x87f54d370806f5dd),
    (Variant::Sq8HashTable, 1, false, 0x9ce332bcdc9ba2ac),
    (Variant::Sq8HashTable, 1, true, 0x10bf6733e8eb999e),
    (Variant::Sq8HashTable, 8, false, 0x46dc9919f920d6ba),
    (Variant::Sq8HashTable, 8, true, 0xf2567f70f2bced32),
    (Variant::Relayouted, 1, false, 0x2a96f9c427cb3496),
    (Variant::Relayouted, 1, true, 0x398287e2b38d53ca),
    (Variant::Relayouted, 8, false, 0x55012a2cedec78b0),
    (Variant::Relayouted, 8, true, 0x87e636c602a35e76),
];

#[test]
fn search_state_is_bit_identical_to_the_recorded_parent() {
    algas::vector::simd::force_scalar(true);
    let ds = DatasetSpec::tiny(800, 16, Metric::L2, 2025).generate();
    let base = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let got: Vec<(Variant, usize, bool, u64)> = GOLDEN
        .iter()
        .map(|&(variant, n_ctas, beam, _)| {
            let mode = if beam { BeamMode::Auto } else { BeamMode::Greedy };
            (variant, n_ctas, beam, run(&base, &ds.queries, variant, n_ctas, mode))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(v, c, b, h)| format!("    (Variant::{v:?}, {c}, {b}, {h:#018x}),\n"))
        .collect();
    assert!(got == GOLDEN, "search state moved; this commit computes:\n{table}");
    // The twelve configurations really are twelve different searches.
    let mut hashes: Vec<u64> = got.iter().map(|g| g.3).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), GOLDEN.len());
}
