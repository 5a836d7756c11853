//! Property-based tests over the core data structures and invariants.

use algas::core::lists::{CandidateList, VisitedBitmap};
use algas::core::merge::merge_topk;
use algas::core::obs::hist::{bucket_index, bucket_lower, bucket_upper};
use algas::core::obs::Histogram;
use algas::core::state::SlotState;
use algas::gpu::arrivals::ArrivalProcess;
use algas::gpu::cost::CostModel;
use algas::gpu::engine::schedule_blocks;
use algas::gpu::occupancy::{max_shared_mem_per_block, required_blocks_per_sm};
use algas::gpu::sched::dynamic::{run_dynamic, DynamicConfig};
use algas::gpu::sched::partitioned::{run_partitioned, PartitionedConfig};
use algas::gpu::sched::static_batch::{run_static, StaticBatchConfig};
use algas::gpu::{DeviceProps, MergePlacement, QueryWork};
use algas::vector::metric::{subvector_partials, DistValue, Metric};
use proptest::prelude::*;

fn dist_vec(max_len: usize) -> impl Strategy<Value = Vec<(f32, u32)>> {
    prop::collection::vec((0.0f32..1000.0, 0u32..10_000), 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn candidate_list_matches_reference_sort(
        batches in prop::collection::vec(dist_vec(24), 1..6),
        cap in 1usize..40,
    ) {
        // Deduplicate ids across batches (the bitmap's job in real use).
        let mut seen = std::collections::HashSet::new();
        let batches: Vec<Vec<(f32, u32)>> = batches
            .into_iter()
            .map(|b| b.into_iter().filter(|&(_, id)| seen.insert(id)).collect())
            .collect();

        let mut list = CandidateList::new(cap);
        let mut reference: Vec<(DistValue, u32)> = Vec::new();
        for b in &batches {
            let (dists, ids): (Vec<f32>, Vec<u32>) = b.iter().copied().unzip();
            list.merge_batch(&ids, &dists);
            reference.extend(b.iter().map(|&(d, id)| (DistValue(d), id)));
            reference.sort_by_key(|&(d, id)| (d, id));
            reference.truncate(cap);
            prop_assert!(list.is_sorted());
            prop_assert!(list.len() <= cap);
        }
        prop_assert_eq!(list.top_k(cap), reference);
    }

    #[test]
    fn merge_topk_equals_flat_sort(
        lists in prop::collection::vec(dist_vec(16), 0..6),
        k in 1usize..32,
    ) {
        // Sort each input list (merge expects sorted inputs) and make
        // ids globally unique to sidestep dedup-order ambiguity.
        let mut next_id = 0u32;
        let lists: Vec<Vec<(DistValue, u32)>> = lists
            .into_iter()
            .map(|l| {
                let mut l: Vec<(DistValue, u32)> = l
                    .into_iter()
                    .map(|(d, _)| {
                        next_id += 1;
                        (DistValue(d), next_id)
                    })
                    .collect();
                l.sort_by_key(|&(d, id)| (d, id));
                l
            })
            .collect();
        let merged = merge_topk(&lists, k);
        let mut flat: Vec<(DistValue, u32)> = lists.iter().flatten().copied().collect();
        flat.sort_by_key(|&(d, id)| (d, id));
        flat.truncate(k);
        prop_assert_eq!(merged, flat);
    }

    #[test]
    fn bitmap_agrees_with_hashset(ops in prop::collection::vec(0u32..512, 1..200)) {
        let mut bitmap = VisitedBitmap::new(512);
        let mut set = std::collections::HashSet::new();
        for id in ops {
            prop_assert_eq!(bitmap.test_and_set(id), set.insert(id));
        }
        prop_assert_eq!(bitmap.count(), set.len());
    }

    #[test]
    fn subvector_partials_sum_to_distance(
        pair in prop::collection::vec((-10.0f32..10.0, -10.0f32..10.0), 1..200),
        lanes in 1usize..64,
    ) {
        let a: Vec<f32> = pair.iter().map(|p| p.0).collect();
        let b: Vec<f32> = pair.iter().map(|p| p.1).collect();
        let total: f32 = subvector_partials(Metric::L2, &a, &b, lanes).iter().sum();
        let scalar = Metric::L2.distance(&a, &b);
        let tol = scalar.abs().max(1.0) * 1e-3;
        prop_assert!((total - scalar).abs() <= tol, "{total} vs {scalar}");
    }

    #[test]
    fn schedule_blocks_respects_capacity_and_work_conservation(
        durations in prop::collection::vec(1u64..1000, 1..60),
        capacity in 1usize..8,
        start in 0u64..1000,
    ) {
        let finishes = schedule_blocks(start, &durations, capacity);
        prop_assert_eq!(finishes.len(), durations.len());
        let total: u64 = durations.iter().sum();
        let makespan_end = *finishes.iter().max().unwrap();
        // Lower bounds: critical path and capacity-limited throughput.
        let longest = *durations.iter().max().unwrap();
        prop_assert!(makespan_end >= start + longest);
        prop_assert!(makespan_end >= start + total / capacity as u64);
        // No block finishes before it could possibly start + run.
        for (f, d) in finishes.iter().zip(&durations) {
            prop_assert!(*f >= start + d);
        }
        // Work conservation: makespan ≤ start + total (serial bound).
        prop_assert!(makespan_end <= start + total);
    }

    #[test]
    fn bitonic_costs_monotone(n in 1usize..4096) {
        let c = CostModel::default();
        prop_assert!(c.bitonic_sort_cycles(n) <= c.bitonic_sort_cycles(n + 1));
        prop_assert!(c.bitonic_merge_cycles(n) <= c.bitonic_sort_cycles(n.max(2)));
    }

    #[test]
    fn occupancy_budget_monotone_in_residency(
        slots in 1usize..84,
        np in 1usize..8,
    ) {
        let dev = DeviceProps::rtx_a6000();
        let tight = max_shared_mem_per_block(&dev, slots, np + 1, 0);
        let loose = max_shared_mem_per_block(&dev, slots, np, 0);
        if let (Some(t), Some(l)) = (tight, loose) {
            prop_assert!(t <= l, "more residency cannot free shared memory");
        }
        prop_assert!(required_blocks_per_sm(&dev, slots, np) <= required_blocks_per_sm(&dev, slots, np + 1));
    }

    #[test]
    fn state_machine_paths_stay_legal(path in prop::collection::vec(0u8..5, 1..20)) {
        // Random walks through from_u8 states: can_transition_to must
        // be consistent with the documented owner sides.
        use SlotState::*;
        for w in path.windows(2) {
            let a = SlotState::from_u8(w[0]).unwrap();
            let b = SlotState::from_u8(w[1]).unwrap();
            if a.can_transition_to(b) {
                // Quit is terminal; Work is only exited by the GPU.
                prop_assert!(a != Quit);
                if a == Work {
                    prop_assert_eq!(b, Finish);
                }
            }
        }
    }

    #[test]
    fn simulators_respect_physics(
        cta_ns in prop::collection::vec(1_000u64..200_000, 1..40),
        batch in 1usize..9,
    ) {
        let works: Vec<QueryWork> =
            cta_ns.iter().map(|&ns| QueryWork::synthetic(&[ns, ns / 2 + 1], 64, 8)).collect();
        let arrivals = vec![0u64; works.len()];
        let stat = run_static(
            &works,
            &arrivals,
            &StaticBatchConfig { batch_size: batch, merge: MergePlacement::None, ..Default::default() },
        );
        let dynv = run_dynamic(
            &works,
            &arrivals,
            &DynamicConfig { n_slots: batch, ..Default::default() },
        );
        for (r, w) in [(&stat, &works), (&dynv, &works)] {
            for (t, q) in r.per_query.iter().zip(w.iter()) {
                // Latency can never undercut the query's own GPU time.
                prop_assert!(t.service_latency_ns() >= q.max_cta_ns());
            }
        }
        // Both disciplines process all queries.
        prop_assert_eq!(stat.per_query.len(), works.len());
        prop_assert_eq!(dynv.per_query.len(), works.len());
        // The partitioned kernel obeys the same physics.
        let part = run_partitioned(
            &works,
            &arrivals,
            &PartitionedConfig { n_slots: batch, ..Default::default() },
        );
        for (t, q) in part.per_query.iter().zip(works.iter()) {
            prop_assert!(t.service_latency_ns() >= q.max_cta_ns());
            prop_assert!(t.gpu_start_ns <= t.gpu_done_ns);
        }
        // Dynamic slots never idle behind a batch barrier, so its
        // GPU-side makespan cannot exceed static's by more than the
        // per-query overheads it adds.
        let overhead_bound: u64 = 50_000 * works.len() as u64;
        prop_assert!(dynv.makespan_ns <= stat.makespan_ns + overhead_bound);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arrival_processes_are_monotone_and_sized(
        n in 0usize..500,
        gap in 1u64..100_000,
        rate in 1_000.0f64..10_000_000.0,
        seed in 0u64..1_000,
    ) {
        for p in [
            ArrivalProcess::Closed,
            ArrivalProcess::Uniform { gap_ns: gap },
            ArrivalProcess::Poisson { rate_qps: rate, seed },
        ] {
            let a = p.generate(n);
            prop_assert_eq!(a.len(), n);
            prop_assert!(a.windows(2).all(|w| w[0] <= w[1]), "{p:?} not monotone");
        }
    }

    #[test]
    fn open_loop_never_completes_before_arrival(
        gaps in prop::collection::vec(1_000u64..100_000, 1..40),
    ) {
        let works: Vec<QueryWork> =
            gaps.iter().map(|&g| QueryWork::synthetic(&[g], 64, 8)).collect();
        let mut arrivals = Vec::with_capacity(gaps.len());
        let mut t = 0u64;
        for &g in &gaps {
            arrivals.push(t);
            t += g;
        }
        let r = run_dynamic(
            &works,
            &arrivals,
            &DynamicConfig { n_slots: 4, ..Default::default() },
        );
        for (timing, &arr) in r.per_query.iter().zip(&arrivals) {
            prop_assert!(timing.dispatch_ns >= arr);
            prop_assert!(timing.completion_ns > arr);
        }
    }

    #[test]
    fn index_blob_roundtrip(
        n in 2usize..40,
        dim in 1usize..12,
        seed in 0u64..100,
    ) {
        use algas::core::engine::AlgasIndex;
        use algas::graph::nsw::NswParams;
        use algas::vector::datasets::DatasetSpec;
        let ds = DatasetSpec::tiny(n.max(8), dim, Metric::L2, seed).generate();
        let mut index = AlgasIndex::build_nsw(
            ds.base,
            Metric::L2,
            NswParams { m: 2, ef_construction: 8 },
        );
        if seed % 2 == 0 {
            index.quantize();
        }
        let mut buf = Vec::new();
        algas::core::persist::write_index(&mut buf, &index).unwrap();
        let back = algas::core::persist::read_index(&buf[..], buf.len() as u64).unwrap();
        prop_assert_eq!(back.graph, index.graph);
        prop_assert_eq!(back.base, index.base);
        prop_assert_eq!(back.medoid, index.medoid);
        prop_assert_eq!(back.quant, index.quant);
        // Any single-byte corruption of the header is rejected or at
        // minimum never panics.
        if !buf.is_empty() {
            let mut bad = buf.clone();
            bad[seed as usize % 8] ^= 0xA5;
            let _ = algas::core::persist::read_index(&bad[..], bad.len() as u64);
        }
    }
}

fn check_sq8_dequantize_bound(dim: usize, flat: &[f32]) -> proptest::TestCaseResult {
    use algas::vector::{QuantizedStore, VectorStore};
    // Truncate to whole rows; `flat` always holds at least one.
    let n = flat.len() / dim;
    let store = VectorStore::from_flat(dim, flat[..n * dim].to_vec());
    let q = QuantizedStore::from_store(&store);
    let mut row = Vec::new();
    for i in 0..store.len() {
        q.dequantize_into(i, &mut row);
        for (d, (&approx, &exact)) in row.iter().zip(store.get(i)).enumerate() {
            // Rounding to the nearest of 256 affine levels loses at
            // most half a step per dimension (plus f32 noise).
            let bound = q.max_dequant_error(d) + exact.abs().max(1.0) * 1e-5;
            prop_assert!(
                (approx - exact).abs() <= bound,
                "row {} dim {}: |{} - {}| > {}",
                i,
                d,
                approx,
                exact,
                bound
            );
        }
    }
    // The advertised bound is itself half the affine step, which the
    // generated value range caps at (200 / 255) / 2.
    for d in 0..dim {
        prop_assert!(q.max_dequant_error(d) <= 0.5 * 200.0 / 255.0 + 1e-4);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sq8_dequantize_error_stays_within_half_step(
        dim in 1usize..16,
        flat in prop::collection::vec(-100.0f32..100.0, 16..480),
    ) {
        check_sq8_dequantize_bound(dim, &flat)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hist_buckets_tile_the_u64_line(raw in 0u64..u64::MAX, shift in 0u32..64) {
        // Shifted sampling reaches every magnitude; the range strategy
        // alone almost never draws small values.
        let v = raw >> shift;
        // Every value lands in a bucket that contains it, and the
        // log-linear width guarantee bounds the quantization error:
        // exact below 64, ≤ 1/32 relative above.
        let i = bucket_index(v);
        prop_assert!(bucket_lower(i) <= v && v <= bucket_upper(i));
        if v < 64 {
            prop_assert_eq!(bucket_lower(i), bucket_upper(i));
        } else {
            let width = bucket_upper(i) - bucket_lower(i);
            prop_assert!((width as u128) < (bucket_lower(i) as u128).div_ceil(32) + 1);
        }
    }

    #[test]
    fn hist_quantiles_track_order_statistics(
        values in prop::collection::vec(0u64..(1u64 << 48), 1..250),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut values = values;
        values.sort_unstable();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
        prop_assert_eq!(snap.min, values[0]);
        prop_assert_eq!(snap.max, *values.last().unwrap());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = snap.quantile(q);
            // Nearest-rank semantics with log-linear buckets: the
            // estimate never undercuts the true order statistic and
            // overshoots by at most the bucket width (1/32 relative).
            prop_assert!(est >= exact, "q={q}: {est} < exact {exact}");
            prop_assert!(
                (est as u128) <= (exact as u128) * 33 / 32 + 1,
                "q={q}: {est} overshoots exact {exact}"
            );
        }
    }

    #[test]
    fn hist_merge_equals_single_recorder(
        a in prop::collection::vec(0u64..(1u64 << 48), 0..150),
        b in prop::collection::vec(0u64..(1u64 << 48), 0..150),
    ) {
        let (ha, hb, hall) = (Histogram::new(), Histogram::new(), Histogram::new());
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        // Merging per-thread snapshots is indistinguishable from one
        // global recorder — in either merge order.
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        prop_assert_eq!(&merged, &hall.snapshot());
        let mut flipped = hb.snapshot();
        flipped.merge(&ha.snapshot());
        prop_assert_eq!(&flipped, &hall.snapshot());
    }
}

#[test]
fn recall_is_monotone_in_l() {
    // Not a proptest (needs a built graph) but a key invariant: wider
    // candidate lists can only help recall, modulo tiny tie noise.
    use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
    use algas::graph::cagra::CagraParams;
    use algas::vector::datasets::DatasetSpec;
    use algas::vector::ground_truth::{brute_force_knn, mean_recall};

    let ds = DatasetSpec::tiny(800, 16, Metric::L2, 99).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
    let mut last = 0.0;
    for l in [16usize, 32, 64, 128] {
        let engine =
            AlgasEngine::new(index.clone(), EngineConfig { k: 10, l, ..Default::default() })
                .unwrap();
        let wl = algas::baselines::run_engine(&engine, &ds.queries);
        let r = mean_recall(&wl.results, &gt, 10);
        assert!(r >= last - 0.02, "recall regressed at L={l}: {r} < {last}");
        last = r;
    }
    assert!(last > 0.9, "final recall too low: {last}");
}
