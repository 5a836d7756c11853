//! Back-compat pins: index files checked into the repo must keep
//! loading on every future build. The in-crate persistence tests
//! exercise old layouts they synthesize themselves, which drifts with
//! the encoder; these fixtures are byte-for-byte snapshots of what older
//! builds actually wrote.
//!
//! * `tests/fixtures/index_v3.alix` — format v3, before the entry
//!   section. Regenerate (only when the fixture is missing or
//!   deliberately changed) with `UPDATE_FIXTURE=1 cargo test --test
//!   backcompat`.
//! * `tests/fixtures/index_v4.alix` — format v4 from a build that still
//!   wrote a descent ladder after the LSH table. It was made with
//!   `algas gen --out b.fvecs --n 300 --nq 20 --dim 8 --seed 71` and
//!   `algas build --base b.fvecs --quantize true --entry true`; no
//!   current build writes a ladder, so it cannot be regenerated.
//! * `tests/fixtures/index_v5.alix` — format v5, the last to store
//!   every graph id as a `u32`: the same two commands run by a build
//!   that wrote v5, so quantized (codes derived at load) with the LSH
//!   table. No current build writes v5.
//!
//! The v3 and v4 fixtures store their SQ8 codes. A re-save writes
//! format v6, which stores none and derives them at load, so each test
//! reloads its re-save and requires the fixture's stored codes back bit
//! for bit. Format v6 also packs the graph's ids at `bit_length(n)`
//! bits, so every re-save's graph section shrinks and must reload to
//! the same graph.

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::graph::cagra::CagraParams;
use algas::graph::{EntryParams, EntryPolicy};
use algas::vector::datasets::DatasetSpec;
use algas::vector::{Metric, QuantizedStore};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/index_v3.alix");
const FIXTURE_V4: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/index_v4.alix");
const FIXTURE_V5: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/index_v5.alix");
const N: usize = 300;
const DIM: usize = 8;
/// The fixtures' graph degree (`algas build`'s default).
const DEGREE: usize = 32;

/// Header bytes: magic, version, metric, kind, medoid, then the five
/// section lengths (corpus, graph, permutation, quantization, entry).
const VERSION: std::ops::Range<usize> = 4..8;
const STORE_LEN: std::ops::Range<usize> = 14..22;
const GRAPH_LEN: std::ops::Range<usize> = 22..30;
const QUANT_LEN: std::ops::Range<usize> = 38..46;
const ENTRY_LEN: std::ops::Range<usize> = 46..54;
const HEADER_LEN: usize = 54;
/// A graph section of the fixtures' shape: 16 header bytes and a `u32`
/// per id through v5; 20 header bytes and 300 rows of 32 ids at 9 bits
/// (36 bytes a row) since v6.
const U32_GRAPH_LEN: usize = 16 + N * DEGREE * 4;
const PACKED_GRAPH_LEN: usize = 20 + N * DEGREE * 9 / 8;

/// FNV-1a of the packed graph section `index`'s graph encodes to. The
/// fixtures' constants were recorded with the row-at-a-time encoder
/// that wrote format 6 from the `u32` rows, before the index held its
/// graph packed: a re-save writes the same section.
fn graph_section_hash(index: &AlgasIndex) -> u64 {
    let section = algas::graph::binary::encode_graph(&index.graph);
    section
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}
/// The fixtures' graph sections as format 6 writes them: v4 and v5 come
/// from the same build commands, so they hold the same graph.
const V3_SECTION_HASH: u64 = 0x6169_9fcf_536d_8121;
const V4_V5_SECTION_HASH: u64 = 0xe8a4_3700_c695_1516;

/// The `u64` header field at `at`.
fn field(file: &[u8], at: std::ops::Range<usize>) -> usize {
    u64::from_le_bytes(file[at].try_into().unwrap()) as usize
}

/// A quantization section as formats 3 and 4 stored it: the header,
/// the scales, the offsets, then the unpadded code rows.
fn stored_codes_section(q: &QuantizedStore) -> Vec<u8> {
    let mut buf = algas::vector::binary::encode_quantized_header(q);
    for &x in q.scales().iter().chain(q.offsets()) {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    for i in 0..q.len() {
        buf.extend_from_slice(q.codes(i));
    }
    buf
}

/// Whether two stores hold the same codes, norms and tables, bit for
/// bit.
fn same_bits(a: &QuantizedStore, b: &QuantizedStore) -> bool {
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (a.len(), a.dim()) == (b.len(), b.dim())
        && bits(a.scales()) == bits(b.scales())
        && bits(a.offsets()) == bits(b.offsets())
        && (0..a.len())
            .all(|i| a.codes(i) == b.codes(i) && a.row_norm(i).to_bits() == b.row_norm(i).to_bits())
}

/// Hand-builds the format-3 encoding (v4 layout minus the entry-length
/// header field and entry section) of a quantized, never-relayouted
/// index — the layout a pre-entry-subsystem build wrote.
fn encode_v3(index: &AlgasIndex) -> Vec<u8> {
    assert!(index.id_map.is_none() && index.entry.is_none());
    let store_blob = algas::vector::binary::encode_store(&index.base);
    let graph_blob = algas::graph::binary::encode_graph(&index.graph);
    let quant_blob = stored_codes_section(index.quant.as_ref().unwrap());
    let mut buf = Vec::new();
    buf.extend_from_slice(&0x414C_4958u32.to_le_bytes()); // "ALIX"
    buf.extend_from_slice(&3u32.to_le_bytes());
    buf.push(0); // L2
    buf.push(1); // CAGRA
    buf.extend_from_slice(&index.medoid.to_le_bytes());
    buf.extend_from_slice(&(store_blob.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(graph_blob.len() as u64).to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // never relayouted
    buf.extend_from_slice(&(quant_blob.len() as u64).to_le_bytes());
    buf.extend_from_slice(&store_blob);
    buf.extend_from_slice(&graph_blob);
    buf.extend_from_slice(&quant_blob);
    buf
}

#[test]
fn checked_in_v3_fixture_loads_and_upgrades_to_v4() {
    if std::env::var("UPDATE_FIXTURE").is_ok() {
        let ds = DatasetSpec::tiny(N, DIM, Metric::L2, 71).generate();
        let mut index = AlgasIndex::build_cagra(ds.base, Metric::L2, CagraParams::default());
        index.quantize();
        std::fs::write(FIXTURE, encode_v3(&index)).unwrap();
        eprintln!("rewrote {FIXTURE}");
    }

    let index = AlgasIndex::load(FIXTURE).expect("v3 fixture must load");
    assert_eq!(index.base.len(), N);
    assert_eq!(index.base.dim(), DIM);
    assert_eq!(index.metric, Metric::L2);
    assert!(index.quant.is_some(), "v3 fixture carries SQ8 codes");
    assert!(index.id_map.is_none(), "v3 fixture was never relayouted");
    assert!(index.entry.is_none(), "v3 predates the entry section");
    assert!((index.medoid as usize) < N);
    assert_eq!(graph_section_hash(&index), V3_SECTION_HASH);

    // The loaded index serves: a pre-entry file runs every policy, the
    // table one from a table built at load.
    let queries = DatasetSpec::tiny(N, DIM, Metric::L2, 71).generate().queries;
    for policy in [EntryPolicy::Medoid, EntryPolicy::HashTable] {
        let cfg = EngineConfig { k: 5, l: 32, entry_policy: policy, ..Default::default() };
        let engine = AlgasEngine::new(index.clone(), cfg).unwrap();
        let hits = engine.search(queries.get(0), 0);
        assert_eq!(hits.len(), 5, "short TopK under {policy:?}");
    }

    // Upgrade path: build the entry table and rewrite — the file
    // round-trips as v6 with the section intact, stores the quantization
    // section's header alone, derives the fixture's stored codes, and
    // packs the graph.
    let stored = index.quant.clone().unwrap();
    let mut upgraded = index;
    upgraded.build_entry_index(&EntryParams::default());
    let path = std::env::temp_dir().join(format!("algas-v4-up-{}.alix", std::process::id()));
    upgraded.save(&path).unwrap();
    let new = std::fs::read(&path).unwrap();
    let back = AlgasIndex::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(new[VERSION], 6u32.to_le_bytes()[..]);
    assert_eq!(field(&new, QUANT_LEN), 16);
    assert_eq!(field(&new, GRAPH_LEN), PACKED_GRAPH_LEN);
    assert_eq!(back.graph, upgraded.graph);
    assert_eq!(back.entry, upgraded.entry);
    assert!(same_bits(back.quant.as_ref().unwrap(), &stored), "derived codes differ from v3's");
    assert_eq!(back.base, upgraded.base);
}

#[test]
fn checked_in_v4_fixture_with_a_ladder_loads_serves_and_resaves_without_it() {
    let old = std::fs::read(FIXTURE_V4).unwrap();
    let index = AlgasIndex::load(FIXTURE_V4).expect("v4 fixture must load");
    assert_eq!((index.base.len(), index.base.dim()), (N, DIM));
    assert!(index.quant.is_some(), "v4 fixture carries SQ8 codes");
    let table = index.entry.clone().expect("v4 fixture carries the LSH table");
    assert_eq!(graph_section_hash(&index), V4_V5_SECTION_HASH);

    // It serves a hash-table query from the file's table.
    let cfg =
        EngineConfig { k: 5, l: 32, entry_policy: EntryPolicy::HashTable, ..Default::default() };
    let engine = AlgasEngine::new(index.clone(), cfg).unwrap();
    assert_eq!(engine.index().entry.as_ref(), Some(&table));
    let mut scratch = engine.make_scratch();
    let query = DatasetSpec::tiny(N, DIM, Metric::L2, 71).generate().queries;
    engine.serve_into(query.get(0), 0, &mut scratch);
    assert_eq!(scratch.topk.len(), 5);

    // A re-save drops the ladder, round-trips the table, and derives
    // the fixture's stored codes at load.
    let stored = index.quant.clone().unwrap();
    let path = std::env::temp_dir().join(format!("algas-v4-resave-{}.alix", std::process::id()));
    index.save(&path).unwrap();
    let new = std::fs::read(&path).unwrap();
    let back = AlgasIndex::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(back.entry, Some(table));
    assert_eq!(back.graph, index.graph);
    assert!(same_bits(back.quant.as_ref().unwrap(), &stored), "derived codes differ from v4's");
    // Byte for byte: the header changes in four fields — version 4 →
    // 6, the graph section's length (22..30) → its packed length, the
    // quantization section's (38..46) → its 16-byte header, and the
    // entry section's (46..54). The corpus section is unchanged; the
    // graph section is rewritten packed (and reloads to the same graph,
    // above); the quantization section keeps its header and drops the
    // tables and codes; the entry section is last, and its byte 4 holds
    // the section flags (hash 1, ladder 2). Everything else is
    // unchanged, and the new entry section is the old one cut where the
    // ladder began.
    assert_eq!((&old[VERSION], &new[VERSION]), (&4u32.to_le_bytes()[..], &6u32.to_le_bytes()[..]));
    assert_eq!(new[..4], old[..4]);
    assert_eq!(new[8..GRAPH_LEN.start], old[8..GRAPH_LEN.start]);
    assert_eq!(index.graph.degree(), DEGREE);
    let (old_graph, new_graph) = (field(&old, GRAPH_LEN), field(&new, GRAPH_LEN));
    assert_eq!((old_graph, new_graph), (U32_GRAPH_LEN, PACKED_GRAPH_LEN));
    assert_eq!(new[GRAPH_LEN.end..QUANT_LEN.start], old[GRAPH_LEN.end..QUANT_LEN.start]);
    let (old_quant, new_quant) = (field(&old, QUANT_LEN), field(&new, QUANT_LEN));
    assert_eq!((old_quant, new_quant), (16 + 2 * DIM * 4 + N * DIM, 16));
    let (old_entry, new_entry) = (field(&old, ENTRY_LEN), field(&new, ENTRY_LEN));
    assert!(new_entry < old_entry, "the ladder section is dropped");
    let graph_at = HEADER_LEN + field(&old, STORE_LEN);
    assert_eq!(new[HEADER_LEN..graph_at], old[HEADER_LEN..graph_at]);
    let (old_quant_at, new_quant_at) = (graph_at + old_graph, graph_at + new_graph);
    assert_eq!(old.len() - old_entry - old_quant, old_quant_at);
    assert_eq!(new.len() - new_entry - new_quant, new_quant_at);
    assert_eq!(new[new_quant_at..new_quant_at + 16], old[old_quant_at..old_quant_at + 16]);
    let (old_at, new_at) = (old.len() - old_entry, new.len() - new_entry);
    assert_eq!(new_at, new_quant_at + 16);
    assert_eq!((old[old_at + 4], new[new_at + 4]), (3, 1));
    assert_eq!(new[new_at..new_at + 4], old[old_at..old_at + 4]);
    assert_eq!(new[new_at + 5..], old[old_at + 5..old_at + new_entry]);
}

/// Runs one `algas` command line (arguments split at whitespace, so
/// its paths hold none) and returns what it printed.
fn algas(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let mut out = Vec::new();
    algas::cli::run(&args, &mut out).unwrap_or_else(|e| panic!("{args:?}: {e}"));
    String::from_utf8(out).unwrap()
}

#[test]
fn checked_in_v5_fixture_serves_like_its_build_and_resaves_as_v6() {
    assert_eq!(algas::core::persist::format_version(FIXTURE_V5).unwrap(), 5);
    let index = AlgasIndex::load(FIXTURE_V5).expect("v5 fixture must load");
    assert_eq!((index.base.len(), index.base.dim(), index.graph.degree()), (N, DIM, DEGREE));
    assert!(index.quant.is_some() && index.entry.is_some(), "quantized, with the LSH table");
    assert_eq!(graph_section_hash(&index), V4_V5_SECTION_HASH);
    let info = algas(&format!("info --index {FIXTURE_V5}"));
    assert!(
        info.contains("graph ids: 300 × 32 ids as u32: 38 KiB (11 KiB at 9 bits once re-saved)")
    );

    // The index it was built from: the same two commands, run by this
    // build. Every part of it loads equal, so it serves the same
    // answers, and the fixture does so under every entry policy.
    let dir = std::env::temp_dir().join(format!("algas-v5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (base, queries) = (path("b.fvecs"), path("q.fvecs"));
    algas(&format!("gen --out {base} --queries {queries} --n 300 --nq 20 --dim 8 --seed 71"));
    algas(&format!(
        "build --base {base} --quantize true --entry true --out {}",
        path("built.alix")
    ));
    let built = AlgasIndex::load(path("built.alix")).unwrap();
    let queries = algas::vector::io::read_fvecs(std::fs::File::open(queries).unwrap()).unwrap();
    assert_eq!(
        (&index.base, &index.graph, index.medoid),
        (&built.base, &built.graph, built.medoid)
    );
    assert_eq!((&index.quant, &index.entry), (&built.quant, &built.entry));
    for policy in [EntryPolicy::HashTable, EntryPolicy::Medoid] {
        let cfg = EngineConfig { k: 10, l: 32, entry_policy: policy, ..Default::default() };
        let engines = [&index, &built].map(|i| AlgasEngine::new(i.clone(), cfg).unwrap());
        let mut scratch = engines.each_ref().map(|e| e.make_scratch());
        for q in 0..queries.len() {
            for (e, s) in engines.iter().zip(&mut scratch) {
                e.serve_into(queries.get(q), q as u64, s);
            }
            assert_eq!(scratch[0].topk, scratch[1].topk, "query {q} under {policy:?}");
            assert_eq!(scratch[0].topk.len(), 10);
        }
    }

    // A re-save is v6: the graph section packed, reloading to the same
    // graph, and every other section as the fixture stores it.
    index.save(path("resaved.alix")).unwrap();
    let (old, new) =
        (std::fs::read(FIXTURE_V5).unwrap(), std::fs::read(path("resaved.alix")).unwrap());
    let back = AlgasIndex::load(path("resaved.alix")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(back.graph, index.graph);
    assert_eq!((&back.base, &back.quant, &back.entry), (&index.base, &index.quant, &index.entry));
    assert_eq!((&old[VERSION], &new[VERSION]), (&5u32.to_le_bytes()[..], &6u32.to_le_bytes()[..]));
    let (old_graph, new_graph) = (field(&old, GRAPH_LEN), field(&new, GRAPH_LEN));
    assert_eq!((old_graph, new_graph), (U32_GRAPH_LEN, PACKED_GRAPH_LEN));
    assert_eq!(new.len(), old.len() - old_graph + new_graph);
    assert_eq!((&new[..4], &new[8..GRAPH_LEN.start]), (&old[..4], &old[8..GRAPH_LEN.start]));
    assert_eq!(new[GRAPH_LEN.end..HEADER_LEN], old[GRAPH_LEN.end..HEADER_LEN]);
    let graph_at = HEADER_LEN + field(&old, STORE_LEN);
    assert_eq!(new[HEADER_LEN..graph_at], old[HEADER_LEN..graph_at]);
    assert_eq!(new[graph_at + new_graph..], old[graph_at + old_graph..]);
}
