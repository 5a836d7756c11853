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

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::graph::cagra::CagraParams;
use algas::graph::{EntryParams, EntryPolicy};
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/index_v3.alix");
const FIXTURE_V4: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/index_v4.alix");
const N: usize = 300;
const DIM: usize = 8;

/// Hand-builds the format-3 encoding (v4 layout minus the entry-length
/// header field and entry section) of a quantized, never-relayouted
/// index — the layout a pre-entry-subsystem build wrote.
fn encode_v3(index: &AlgasIndex) -> Vec<u8> {
    assert!(index.id_map.is_none() && index.entry.is_none());
    let store_blob = algas::vector::binary::encode_store(&index.base);
    let graph_blob = algas::graph::binary::encode_graph(&index.graph);
    let quant_blob = algas::vector::binary::encode_quantized(index.quant.as_ref().unwrap());
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
    // round-trips as v4 with the section intact.
    let mut upgraded = index;
    upgraded.build_entry_index(&EntryParams::default());
    let path = std::env::temp_dir().join(format!("algas-v4-up-{}.alix", std::process::id()));
    upgraded.save(&path).unwrap();
    let back = AlgasIndex::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(back.entry, upgraded.entry);
    assert_eq!(back.quant, upgraded.quant);
    assert_eq!(back.base, upgraded.base);
}

#[test]
fn checked_in_v4_fixture_with_a_ladder_loads_serves_and_resaves_without_it() {
    let old = std::fs::read(FIXTURE_V4).unwrap();
    let index = AlgasIndex::load(FIXTURE_V4).expect("v4 fixture must load");
    assert_eq!((index.base.len(), index.base.dim()), (N, DIM));
    assert!(index.quant.is_some(), "v4 fixture carries SQ8 codes");
    let table = index.entry.clone().expect("v4 fixture carries the LSH table");

    // It serves a hash-table query from the file's table.
    let cfg =
        EngineConfig { k: 5, l: 32, entry_policy: EntryPolicy::HashTable, ..Default::default() };
    let engine = AlgasEngine::new(index.clone(), cfg).unwrap();
    assert_eq!(engine.index().entry.as_ref(), Some(&table));
    let mut scratch = engine.make_scratch();
    let query = DatasetSpec::tiny(N, DIM, Metric::L2, 71).generate().queries;
    engine.serve_into(query.get(0), 0, &mut scratch);
    assert_eq!(scratch.topk.len(), 5);

    // A re-save drops the ladder and round-trips the table.
    let path = std::env::temp_dir().join(format!("algas-v4-resave-{}.alix", std::process::id()));
    index.save(&path).unwrap();
    let new = std::fs::read(&path).unwrap();
    let back = AlgasIndex::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(back.entry, Some(table));
    // Byte for byte: the entry section is last and its length is the
    // last header field (bytes 46..54); its byte 4 holds the section
    // flags (hash 1, ladder 2). Everything else is unchanged, and the
    // new section is the old one cut where the ladder began.
    let entry_len = |file: &[u8]| u64::from_le_bytes(file[46..54].try_into().unwrap()) as usize;
    let (old_entry, new_entry) = (entry_len(&old), entry_len(&new));
    assert!(new_entry < old_entry, "the ladder section is dropped");
    let (old_at, new_at) = (old.len() - old_entry, new.len() - new_entry);
    assert_eq!(new[..46], old[..46]);
    assert_eq!(new[54..new_at], old[54..old_at]);
    assert_eq!((old[old_at + 4], new[new_at + 4]), (3, 1));
    assert_eq!(new[new_at..new_at + 4], old[old_at..old_at + 4]);
    assert_eq!(new[new_at + 5..], old[old_at + 5..old_at + new_entry]);
}
