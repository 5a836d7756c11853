//! Step ④ on both tiers: a `CandidateList` merged by the dispatched
//! kernel (the AVX-512 bitonic network where the host has it) and one
//! merged by the reference insertion merge (`simd::force_scalar`) hold
//! the same entries, bit for bit, and select the same unexpanded
//! offsets after every batch.
//!
//! `force_scalar` flips process-global dispatch, so these comparisons
//! live in their own test binary and each test holds [`TIER`] while it
//! runs.

use algas_core::lists::CandidateList;
use algas_vector::simd;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static TIER: Mutex<()> = Mutex::new(());

fn hold_tier() -> MutexGuard<'static, ()> {
    TIER.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Few enough values that batches are full of distance ties, plus
/// every non-finite kind the key order has to place.
const DISTS: [f32; 10] =
    [0.0, -0.0, 0.5, 1.0, 1.0000001, 7.25, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];

/// What a list shows: each entry's distance bits and id, the closest
/// unexpanded offset, and every unexpanded offset in order.
type View = (Vec<(u32, u32)>, Option<usize>, Vec<usize>);

fn view(list: &CandidateList) -> View {
    let entries = list.iter().map(|(d, id)| (d.0.to_bits(), id)).collect();
    let mut open = Vec::new();
    list.closest_unexpanded_beam_into(usize::MAX, &mut open);
    (entries, list.closest_unexpanded(), open)
}

/// Runs `batches` (sizes, distances drawn from `DISTS` by `draw`)
/// through a reference-tier and a live-tier list of capacity `l`,
/// comparing their views after every batch, then expands up to
/// `widths[round]` of the closest unexpanded entries on both.
fn run(l: usize, sizes: &[usize], widths: &[usize], seed: u64) {
    let _tier = hold_tier();
    let mut state = seed;
    let mut draw = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        DISTS[(state >> 33) as usize % DISTS.len()]
    };
    let (mut reference, mut live) = (CandidateList::new(l), CandidateList::new(l));
    let mut next_id = 0u32;
    let mut selected = Vec::new();
    for (round, &size) in sizes.iter().enumerate() {
        // Distinct ids, arriving out of id order.
        let ids: Vec<u32> = (0..size as u32).map(|j| next_id + (j * 40_503) % 512).collect();
        next_id += 512;
        let dists: Vec<f32> = (0..size).map(|_| draw()).collect();

        simd::force_scalar(true);
        reference.merge_batch(&ids, &dists);
        let want = view(&reference);
        simd::force_scalar(false);
        live.merge_batch(&ids, &dists);
        let got = view(&live);
        assert_eq!(got, want, "L {l} seed {seed}: after batch {round} of {size}");
        assert!(live.is_sorted() && live.len() == reference.len());

        live.closest_unexpanded_beam_into(widths[round % widths.len()], &mut selected);
        for &offset in &selected {
            assert_eq!(live.mark_expanded(offset), reference.mark_expanded(offset));
        }
    }
    simd::force_scalar(false);
}

/// Every capacity 1..=64, then 65, 128 and 256.
fn capacities() -> impl Iterator<Item = usize> {
    (1..=64).chain([65, 128, 256])
}

#[test]
fn every_capacity_takes_batches_of_every_shape_alike() {
    // More than 64 survivors into the empty list, empty batches, batch
    // sizes on both sides of each 8-key chunk, and a full 256.
    let sizes = [200, 0, 1, 7, 8, 9, 16, 17, 33, 33, 63, 64, 65, 128, 0, 256, 33, 2];
    for l in capacities() {
        for seed in 0..2 {
            run(l, &sizes, &[1, 8, 3], seed);
        }
    }
}

#[test]
fn every_batch_size_up_to_256_agrees_at_the_serving_widths() {
    for size in 0..=256 {
        for l in [10, 20, 64] {
            run(l, &[size, 33, size, 33], &[1, 8], size as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_live_tier_equals_reference_tier(
        pick in 0usize..67,
        sizes in prop::collection::vec(0usize..257, 1..10),
        widths in prop::collection::vec(0usize..10, 1..4),
        seed in 0u64..u64::MAX,
    ) {
        let l = capacities().nth(pick).expect("67 capacities");
        run(l, &sizes, &widths, seed);
    }
}
