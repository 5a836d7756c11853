//! Bit-identity pin for the figures' inputs: every result id and every
//! [`QueryWork`] field the engine-backed methods produce on a small
//! fixed corpus, folded into one FNV hash per configuration. The
//! batches of 200 make the §IV-C tuner cut `N_parallel` below 8. The
//! constants were recorded before the tuner and the packer moved out
//! of the engine; `ALGAS_QUANTIZE=1` moves the methods onto SQ8 codes,
//! so each has one per setting. The distance kernels are forced onto
//! the scalar loops, so the constants hold at any SIMD level.

use algas_baselines::{AlgasMethod, CagraMethod, GannsMethod, SearchMethod};
use algas_core::engine::{AlgasIndex, BeamMode, EngineConfig};
use algas_graph::cagra::CagraParams;
use algas_vector::datasets::DatasetSpec;
use algas_vector::{Metric, VectorStore};

/// 64-bit FNV-1a over the little-endian words of a method's run.
fn hash(method: &dyn SearchMethod, queries: &VectorStore) -> u64 {
    let run = method.run_workload(queries);
    let mut words = Vec::new();
    for (ids, w) in run.results.iter().zip(&run.works) {
        words.push(ids.len() as u64);
        words.extend(ids.iter().map(|&id| u64::from(id)));
        words.push(w.ctas.len() as u64);
        words.extend(w.ctas.iter().flat_map(|c| [c.search_ns, u64::from(c.steps)]));
        words.extend([w.query_bytes, w.result_bytes, w.gpu_merge_ns, w.host_merge_ns]);
    }
    let bytes = words.iter().flat_map(|x| x.to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(configuration, fp32 hash, SQ8 hash)` as recorded at the parent.
const GOLDEN: [(&str, u64, u64); 6] = [
    ("algas-8", 0x551e2ea9c948845d, 0x015871b29341a508),
    ("algas-200", 0x00969e47967021c8, 0x225392ba23389124),
    ("algas-greedy-np8", 0x8c0113b99912f634, 0x12d19aecdca8cf54),
    ("cagra-8", 0xbee1f3f432d4df57, 0x054268f58e26e66a),
    ("cagra-200", 0x90f29c6310b1622d, 0x4f71e3df82d6d8e5),
    ("ganns-8", 0x2556056c08dfcd26, 0x93b282c15c22f0a4),
];

#[test]
fn figure_inputs_are_bit_identical_to_the_recorded_parent() {
    algas_vector::simd::force_scalar(true);
    let ds = DatasetSpec::tiny(600, 16, Metric::L2, 4242).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let beam = BeamMode::Greedy;
    let greedy = EngineConfig { k: 10, l: 64, n_parallel: Some(8), beam, ..Default::default() };
    let methods: [Box<dyn SearchMethod>; 6] = [
        Box::new(AlgasMethod::new(index.clone(), 10, 48, 8).unwrap()),
        Box::new(AlgasMethod::new(index.clone(), 10, 48, 200).unwrap()),
        Box::new(AlgasMethod::with_config(index.clone(), greedy).unwrap()),
        Box::new(CagraMethod::new(index.clone(), 10, 48, 8).unwrap()),
        Box::new(CagraMethod::new(index.clone(), 10, 48, 200).unwrap()),
        Box::new(GannsMethod::new(index, 10, 64, 8).unwrap()),
    ];
    let quantized = EngineConfig::default().quantize;
    let got: Vec<(&str, u64)> =
        GOLDEN.iter().zip(&methods).map(|(g, m)| (g.0, hash(&**m, &ds.queries))).collect();
    let want: Vec<(&str, u64)> =
        GOLDEN.iter().map(|&(n, fp32, sq8)| (n, if quantized { sq8 } else { fp32 })).collect();
    let table: String = got.iter().map(|(n, h)| format!("    ({n:?}, {h:#018x}),\n")).collect();
    assert!(
        got == want,
        "figure inputs moved (quantized={quantized}); this commit computes:\n{table}"
    );
}
