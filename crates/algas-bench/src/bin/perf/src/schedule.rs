//! Seeded open-loop arrival schedule: exponential inter-arrivals from a
//! splitmix64 stream, computed before the run so the generator never
//! does arithmetic that depends on how the server is doing.

/// The splitmix64 generator (public-domain constants).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `ln` is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times in nanoseconds from the start of the schedule for a
/// Poisson process of `rate_qps` lasting `span_s` seconds. Equal
/// `(rate_qps, span_s, seed)` give equal schedules.
pub fn poisson_due_ns(rate_qps: f64, span_s: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64(seed);
    let span_ns = span_s * 1e9;
    let mut due = Vec::with_capacity((rate_qps * span_s * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.next_unit().ln() / rate_qps * 1e9;
        if t >= span_ns {
            return due;
        }
        due.push(t as u64);
    }
}

/// The numbers `0..n` in a seeded order (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64(seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_for_equal_inputs_and_differs_across_seeds() {
        let a = poisson_due_ns(500.0, 4.0, 7);
        let b = poisson_due_ns(500.0, 4.0, 7);
        let c = poisson_due_ns(500.0, 4.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(100, 5);
        assert_eq!(a, shuffled(100, 5));
        assert_ne!(a, shuffled(100, 6));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn schedule_is_sorted_within_the_span_and_near_the_rate() {
        let due = poisson_due_ns(1000.0, 10.0, 3);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 10_000_000_000);
        let n = due.len() as f64;
        assert!((n - 10_000.0).abs() < 400.0, "{n} arrivals for 10000 expected");
    }
}
