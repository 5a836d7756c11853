//! Arrival-process generators for open-loop experiments.
//!
//! The paper's evaluation is closed-loop (a query set dispatched as
//! fast as the system drains it), but dynamic batching's raison d'être
//! is *online* serving, where queries arrive over time and static
//! batches additionally wait to fill. These generators produce the
//! `arrivals` vectors the schedulers accept.

/// An arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// All queries available at t = 0 (the paper's measurement).
    Closed,
    /// Exactly one query every `gap_ns`.
    Uniform {
        /// Inter-arrival gap in ns.
        gap_ns: u64,
    },
    /// Poisson arrivals at `rate_qps` (exponential inter-arrival times,
    /// seeded and deterministic).
    Poisson {
        /// Mean arrival rate in queries/second.
        rate_qps: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// Generates `n` non-decreasing arrival timestamps (ns).
    ///
    /// # Panics
    /// Panics on a non-positive Poisson rate or zero uniform gap.
    pub fn generate(&self, n: usize) -> Vec<u64> {
        match *self {
            ArrivalProcess::Closed => vec![0; n],
            ArrivalProcess::Uniform { gap_ns } => {
                assert!(gap_ns > 0, "uniform gap must be positive");
                (0..n as u64).map(|i| i * gap_ns).collect()
            }
            ArrivalProcess::Poisson { rate_qps, seed } => {
                assert!(rate_qps > 0.0, "Poisson rate must be positive");
                let mean_gap_ns = 1e9 / rate_qps;
                let mut t = 0f64;
                let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
                (0..n)
                    .map(|_| {
                        // Inverse-CDF exponential draw from a splitmix64
                        // stream (self-contained; no rand dependency).
                        state = algas_splitmix(state);
                        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                        let u = u.max(f64::MIN_POSITIVE);
                        t += -u.ln() * mean_gap_ns;
                        t as u64
                    })
                    .collect()
            }
        }
    }
}

#[inline]
fn algas_splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_is_all_zero() {
        assert_eq!(ArrivalProcess::Closed.generate(4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn uniform_is_evenly_spaced() {
        let a = ArrivalProcess::Uniform { gap_ns: 250 }.generate(5);
        assert_eq!(a, vec![0, 250, 500, 750, 1000]);
    }

    #[test]
    fn poisson_matches_rate_and_is_monotone() {
        let rate = 100_000.0; // 100k qps → mean gap 10 µs
        let n = 20_000;
        let a = ArrivalProcess::Poisson { rate_qps: rate, seed: 42 }.generate(n);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span_s = *a.last().unwrap() as f64 * 1e-9;
        let measured = n as f64 / span_s;
        assert!(
            (measured / rate - 1.0).abs() < 0.05,
            "measured rate {measured:.0} vs requested {rate:.0}"
        );
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let p = ArrivalProcess::Poisson { rate_qps: 1e6, seed: 7 };
        assert_eq!(p.generate(100), p.generate(100));
        let q = ArrivalProcess::Poisson { rate_qps: 1e6, seed: 8 };
        assert_ne!(p.generate(100), q.generate(100));
    }

    #[test]
    fn open_loop_static_pays_accumulation_wait() {
        // The online-serving argument: under sparse arrivals, a static
        // batch waits to fill while dynamic slots serve immediately.
        use crate::sched::dynamic::{run_dynamic, DynamicConfig};
        use crate::sched::static_batch::{run_static, StaticBatchConfig};
        use crate::sched::MergePlacement;
        use crate::work::QueryWork;
        let works: Vec<QueryWork> =
            (0..32).map(|_| QueryWork::synthetic(&[20_000], 128, 16)).collect();
        let arrivals = ArrivalProcess::Uniform { gap_ns: 50_000 }.generate(32);
        let stat = run_static(
            &works,
            &arrivals,
            &StaticBatchConfig { batch_size: 8, merge: MergePlacement::None, ..Default::default() },
        );
        let dynv =
            run_dynamic(&works, &arrivals, &DynamicConfig { n_slots: 8, ..Default::default() });
        let e2e = |r: &crate::sched::SimReport| {
            r.per_query.iter().map(|t| t.e2e_latency_ns()).sum::<u64>() / r.per_query.len() as u64
        };
        assert!(
            e2e(&dynv) * 2 < e2e(&stat),
            "dynamic e2e {} should be far below static {} under sparse arrivals",
            e2e(&dynv),
            e2e(&stat)
        );
    }
}
