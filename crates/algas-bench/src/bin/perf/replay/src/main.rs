//! Per-layer replay for the traced benchmark run.
//!
//! Runs after the server child is gone, single-threaded, on the index
//! and queries that run served: calls each layer's public functions and
//! times the calls from outside, so no source in the repository gains a
//! timer. Prints one JSON object on standard output.
//!
//! ```text
//! algas-perf-replay --index idx.algas --queries q.fvecs --k 10 --l 64
//!                   --entry-policy hashed|hash-table [--n-parallel N]
//! ```

use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas_core::merge::{merge_topk_into, MergeScratch};
use algas_core::net::frame;
use algas_graph::EntryPolicy;
use algas_vector::{QuantizedQuery, QuantizedStore};
use std::hint::black_box;
use std::time::Instant;

/// Passes over the query set per timed function; the reported figure is
/// the median pass, so one descheduled pass does not move it.
const PASSES: usize = 5;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Median over `PASSES` of the wall nanoseconds `pass` takes.
fn time_passes(mut pass: impl FnMut()) -> f64 {
    median(
        (0..PASSES)
            .map(|_| {
                let t0 = Instant::now();
                pass();
                t0.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

fn main() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let need = |name: &str| flag(&args, name).ok_or_else(|| format!("missing {name}"));
    let parse = |name: &str| -> Result<usize, String> {
        need(name)?.parse().map_err(|_| format!("{name}: not a number"))
    };
    let index = AlgasIndex::load(need("--index")?).map_err(|e| format!("index: {e}"))?;
    let queries = {
        let path = need("--queries")?;
        let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        algas_vector::io::read_fvecs(std::io::BufReader::new(f))
            .map_err(|e| format!("{path}: {e}"))?
    };
    let k = parse("--k")?;
    let entry_policy = match need("--entry-policy")? {
        "hashed" => EngineConfig::default().entry_policy,
        "hash-table" => EntryPolicy::HashTable,
        other => return Err(format!("--entry-policy {other}: expected hashed|hash-table")),
    };
    let n_parallel = match flag(&args, "--n-parallel") {
        Some(v) => Some(v.parse::<usize>().map_err(|_| "--n-parallel: not a number")?),
        None => None,
    };
    let nq = queries.len();
    let dim = queries.dim();

    // search: the whole per-query path of a worker plus the host merge,
    // one reused scratch, exactly what `serve` runs per request.
    let quantized = index.quant.is_some();
    let cfg = EngineConfig {
        k,
        l: parse("--l")?,
        slots: 16,
        n_parallel,
        entry_policy,
        quantize: quantized,
        ..EngineConfig::default()
    };
    let engine = AlgasEngine::new(index, cfg).map_err(|e| format!("tuning: {e}"))?;
    let index = engine.index();
    let mut scratch = engine.make_scratch();
    for qi in 0..nq {
        engine.search_into(queries.get(qi), qi as u64, &mut scratch);
    }
    let search_pass_ns = time_passes(|| {
        for qi in 0..nq {
            engine.search_into(queries.get(qi), qi as u64, &mut scratch);
            black_box(&scratch.topk);
        }
    });

    // merge: the host's TopK merge over the per-CTA lists each search left.
    let merge_depth = if quantized { engine.rerank_depth() } else { k };
    let lists: Vec<Vec<Vec<_>>> = (0..nq)
        .map(|qi| {
            engine.search_into(queries.get(qi), qi as u64, &mut scratch);
            scratch.multi.per_cta()[..scratch.multi.n_active()].to_vec()
        })
        .collect();
    let (mut merge_scratch, mut merged) = (MergeScratch::new(), Vec::new());
    let merge_pass_ns = time_passes(|| {
        for per_cta in &lists {
            merge_topk_into(black_box(per_cta), merge_depth, &mut merge_scratch, &mut merged);
            black_box(&merged);
        }
    });

    // rerank: exact distances for the pooled candidates and the sort that
    // cuts the final TopK — the two steps of the engine's private rerank.
    let pools: Vec<Vec<u32>> = lists
        .iter()
        .map(|per_cta| {
            merge_topk_into(per_cta, engine.rerank_depth(), &mut merge_scratch, &mut merged);
            merged.iter().map(|&(_, id)| id).collect()
        })
        .collect();
    let mut dists = Vec::new();
    let mut scored: Vec<(algas_vector::DistValue, u32)> = Vec::new();
    let rerank_pass_ns = time_passes(|| {
        for (qi, pool) in pools.iter().enumerate() {
            index.metric.distance_batch(queries.get(qi), &index.base, black_box(pool), &mut dists);
            scored.clear();
            scored.extend(dists.iter().zip(pool).map(|(&d, &id)| (algas_vector::DistValue(d), id)));
            scored.sort_unstable();
            black_box(&scored);
        }
    });

    // vector: neighbour scoring as the traversal issues it — one batch per
    // expanded node, the ids of its adjacency row. The expanded nodes are
    // the ones the searches above returned.
    let batches: Vec<(usize, Vec<u32>)> = lists
        .iter()
        .enumerate()
        .flat_map(|(qi, per_cta)| per_cta.iter().flatten().map(move |&(_, v)| (qi, v)))
        .map(|(qi, v)| (qi, index.graph.neighbors(v).collect()))
        .collect();
    let evals: usize = batches.iter().map(|(_, ids)| ids.len()).sum();
    let f32_pass_ns = time_passes(|| {
        for (qi, ids) in &batches {
            index.metric.distance_batch(queries.get(*qi), &index.base, black_box(ids), &mut dists);
            black_box(&dists);
        }
    });
    let built;
    let quant = match &index.quant {
        Some(q) => q,
        None => {
            built = QuantizedStore::from_store(&index.base);
            &built
        }
    };
    let mut encoded: Vec<QuantizedQuery> = (0..nq).map(|_| QuantizedQuery::new()).collect();
    for (qi, q) in encoded.iter_mut().enumerate() {
        q.encode(index.metric, queries.get(qi), quant);
    }
    let sq8_pass_ns = time_passes(|| {
        for (qi, ids) in &batches {
            encoded[*qi].score_batch(quant, black_box(ids), &mut dists);
            black_box(&dists);
        }
    });

    // net: the codec work one request costs the server — decode the
    // SEARCH frame the client's encoder produced, encode the RESULT.
    let frames: Vec<Vec<u8>> = (0..nq)
        .map(|qi| {
            let mut f = Vec::new();
            frame::encode_search_ts(&mut f, qi as u64, queries.get(qi), 1);
            f
        })
        .collect();
    let ids: Vec<u32> = (0..k as u32).collect();
    let result_dists: Vec<f32> = (0..k).map(|i| i as f32).collect();
    let (mut query, mut reply) = (Vec::with_capacity(dim), Vec::new());
    let mut request = Vec::new();
    let codec_pass_ns = time_passes(|| {
        for (qi, f) in frames.iter().enumerate() {
            request.clear();
            frame::encode_search_ts(&mut request, qi as u64, queries.get(qi), 1);
            black_box(&request);
            let frame::Decoded::Frame { header, payload, .. } =
                frame::decode_frame(black_box(f), frame::DEFAULT_MAX_PAYLOAD)
                    .expect("own frame decodes")
            else {
                panic!("own frame is complete");
            };
            let (vector, ts) =
                frame::split_search_ts(payload).expect("own frame carries a timestamp");
            frame::decode_search_into(vector, &mut query).expect("own frame carries a vector");
            reply.clear();
            frame::encode_result(&mut reply, header.request_id, &ids, &result_dists);
            black_box((&query, &reply, ts));
        }
    });

    let per_query = |pass_ns: f64| pass_ns / nq as f64;
    println!(
        "{{\"kernel\":\"{}\",\"n_parallel\":{},\"search_direct_us\":{},\"merge_us\":{},\
         \"rerank_us\":{},\"f32_ns_per_eval\":{},\"sq8_ns_per_eval\":{},\"codec_ns\":{}}}",
        algas_vector::simd::kernel_name(),
        engine.plan().n_parallel,
        per_query(search_pass_ns) / 1e3,
        per_query(merge_pass_ns) / 1e3,
        per_query(rerank_pass_ns) / 1e3,
        f32_pass_ns / evals as f64,
        sq8_pass_ns / evals as f64,
        per_query(codec_pass_ns),
    );
    Ok(())
}
