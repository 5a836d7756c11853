//! `obs::window` — rotating windowed aggregation over the lifetime
//! histograms.
//!
//! Every metric in [`RuntimeStats`](crate::obs::RuntimeStats) is
//! cumulative since process start, so a single scrape cannot separate
//! the current p99 from boot-time warm-up. This module keeps a ring of
//! periodic cumulative snapshots (taken allocation-free with
//! [`Histogram::snapshot_into`](crate::obs::Histogram::snapshot_into))
//! and turns any pair into a *windowed* view with
//! [`HistogramSnapshot::delta`](crate::obs::HistogramSnapshot::delta):
//! moving p50/p99, completion
//! rate, and — when an SLO is armed — windowed attainment and a
//! multi-window burn-rate health state.
//!
//! The runtime's obs tick thread calls [`WindowRing::rotate`] once per
//! period (default 1s); [`WindowRing::stats`] computes the ~1s/10s/60s
//! windows surfaced in `/stats.json` (`window` block), the
//! `algas_window_*` Prometheus families, the serve summary line, and
//! the `/healthz` + `/readyz` burn-rate state.
//!
//! `WindowRing` exists only with the `obs` feature: its one
//! constructor call is in the [`recorder`](crate::obs::recorder),
//! which is where the feature compiles out. [`WindowBlock`] and
//! [`WindowStats`] are unconditional.

/// Nominal window spans (seconds) computed by [`WindowRing::stats`].
pub const WINDOW_TARGETS_S: [u64; 3] = [1, 10, 60];

/// Attainment target backing the burn-rate health rule: 99% of
/// completions inside the SLO. The *error budget* is the remaining 1%.
pub const TARGET_ATTAINMENT_PPM: u64 = 990_000;

/// Burn thresholds (milli-x): degraded when the short (~10s) window
/// burns error budget at ≥ 2x *and* the long (~60s) window at ≥ 1x —
/// the classic multi-window rule, so a single slow query can't flap
/// health and a sustained regression can't hide behind an old good
/// minute.
pub const BURN_SHORT_MILLI: u64 = 2_000;
/// See [`BURN_SHORT_MILLI`].
pub const BURN_LONG_MILLI: u64 = 1_000;

/// Completions a window needs before its burn rate is trusted;
/// below this the window abstains (health stays `ok`).
pub const MIN_WINDOW_COMPLETIONS: u64 = 8;

/// One moving window over the end-to-end latency histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Nominal span this window aimed for (one of
    /// [`WINDOW_TARGETS_S`]).
    pub target_s: u64,
    /// Actual span covered (rotations × period); less than the target
    /// until the ring has run long enough.
    pub span_ms: u64,
    /// Queries completed inside the window.
    pub completed: u64,
    /// Queries submitted inside the window.
    pub submitted: u64,
    /// Windowed end-to-end p50 (ns).
    pub p50_ns: u64,
    /// Windowed end-to-end p99 (ns).
    pub p99_ns: u64,
    /// Windowed end-to-end max (ns, within bucket resolution).
    pub max_ns: u64,
    /// Completions inside the SLO, parts-per-million of `completed`
    /// (1_000_000 when no SLO is armed or the window is empty).
    pub attainment_ppm: u64,
}

impl WindowStats {
    /// Completion rate over the window, queries/second.
    pub fn rate_qps(&self) -> f64 {
        if self.span_ms == 0 {
            return 0.0;
        }
        self.completed as f64 * 1_000.0 / self.span_ms as f64
    }

    /// Error-budget burn rate in milli-x: 1000 means burning exactly
    /// the budget ([`TARGET_ATTAINMENT_PPM`]), 2000 twice as fast.
    pub fn burn_milli(&self) -> u64 {
        let budget_ppm = 1_000_000 - TARGET_ATTAINMENT_PPM;
        (1_000_000 - self.attainment_ppm.min(1_000_000)) * 1_000 / budget_ppm
    }
}

/// The `window` block of [`RuntimeStats`](crate::obs::RuntimeStats):
/// every computed window plus the burn-rate health verdict.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WindowBlock {
    /// Rotation period (ms).
    pub period_ms: u64,
    /// Snapshots currently populating the ring.
    pub slots: u64,
    /// SLO the attainment was computed against (0 = none armed).
    pub slo_ns: u64,
    /// `"ok"` or `"degraded"` (burn-rate rule); `"ok"` with no SLO or
    /// insufficient data.
    pub health: String,
    /// Windows in [`WINDOW_TARGETS_S`] order; absent until the ring
    /// holds at least two snapshots.
    pub windows: Vec<WindowStats>,
}

impl WindowBlock {
    /// The window whose nominal span is `target_s`, if computed.
    pub fn window(&self, target_s: u64) -> Option<&WindowStats> {
        self.windows.iter().find(|w| w.target_s == target_s)
    }

    /// True when the burn-rate rule holds (see [`BURN_SHORT_MILLI`]).
    pub fn degraded(&self) -> bool {
        self.health == "degraded"
    }

    /// Applies the multi-window burn-rate rule to the computed
    /// windows, setting `health`. Public so tests can re-verdict a
    /// hand-built block.
    pub fn compute_health(&mut self) {
        self.health = "ok".to_string();
        if self.slo_ns == 0 {
            return;
        }
        let burning = |target_s: u64, threshold_milli: u64| {
            self.window(target_s).is_some_and(|w| {
                w.completed >= MIN_WINDOW_COMPLETIONS && w.burn_milli() >= threshold_milli
            })
        };
        if burning(10, BURN_SHORT_MILLI) && burning(60, BURN_LONG_MILLI) {
            self.health = "degraded".to_string();
        }
    }
}

#[cfg(feature = "obs")]
pub use enabled::WindowRing;

#[cfg(feature = "obs")]
mod enabled {
    use super::*;
    use crate::obs::hist::{Histogram, HistogramSnapshot};
    use std::sync::Mutex;

    /// Snapshots the ring holds: 64 × the default 1s period covers the
    /// 60s window with headroom.
    const RING_SLOTS: usize = 64;

    struct Slot {
        e2e: HistogramSnapshot,
        submitted: u64,
    }

    struct Inner {
        slots: Vec<Slot>,
        /// Index of the newest valid slot (meaningless until
        /// `filled > 0`).
        head: usize,
        filled: usize,
    }

    /// The rotating ring of cumulative snapshots. Rotation is
    /// allocation-free: every slot's bucket storage is preallocated
    /// and refilled in place.
    pub struct WindowRing {
        period_ms: u64,
        inner: Mutex<Inner>,
    }

    impl WindowRing {
        /// A ring of snapshots rotated every `period_ms`.
        pub fn new(period_ms: u64) -> Self {
            Self {
                period_ms: period_ms.max(1),
                inner: Mutex::new(Inner {
                    slots: (0..RING_SLOTS)
                        .map(|_| Slot { e2e: HistogramSnapshot::preallocated(), submitted: 0 })
                        .collect(),
                    head: 0,
                    filled: 0,
                }),
            }
        }

        /// Takes the next periodic snapshot: the cumulative end-to-end
        /// histogram plus the cumulative submitted count. Called by
        /// the obs tick thread once per period; allocation-free after
        /// construction.
        pub fn rotate(&self, e2e: &Histogram, submitted: u64) {
            let mut inner = self.inner.lock().unwrap();
            let n = inner.slots.len();
            let head = if inner.filled == 0 { 0 } else { (inner.head + 1) % n };
            let slot = &mut inner.slots[head];
            e2e.snapshot_into(&mut slot.e2e);
            slot.submitted = submitted;
            inner.head = head;
            inner.filled = (inner.filled + 1).min(n);
        }

        /// Computes the [`WINDOW_TARGETS_S`] windows against `slo_ns`
        /// (0 = no SLO) and applies the burn-rate health rule. Windows
        /// exist once the ring holds ≥ 2 snapshots; a target longer
        /// than the ring's history is truncated to what's covered
        /// (reported via `span_ms`).
        pub fn stats(&self, slo_ns: u64) -> WindowBlock {
            let inner = self.inner.lock().unwrap();
            let mut block = WindowBlock {
                period_ms: self.period_ms,
                slots: inner.filled as u64,
                slo_ns,
                health: "ok".to_string(),
                windows: Vec::new(),
            };
            if inner.filled >= 2 {
                let n = inner.slots.len();
                let newest = &inner.slots[inner.head];
                for target_s in WINDOW_TARGETS_S {
                    let want = (target_s * 1_000).div_ceil(self.period_ms) as usize;
                    let back = want.clamp(1, inner.filled - 1);
                    let older = &inner.slots[(inner.head + n - back) % n];
                    let d = newest.e2e.delta(&older.e2e);
                    let completed = d.count;
                    let attainment_ppm = if slo_ns == 0 || completed == 0 {
                        1_000_000
                    } else {
                        d.count_le(slo_ns) * 1_000_000 / completed
                    };
                    block.windows.push(WindowStats {
                        target_s,
                        span_ms: back as u64 * self.period_ms,
                        completed,
                        submitted: newest.submitted.saturating_sub(older.submitted),
                        p50_ns: d.quantile(0.50),
                        p99_ns: d.quantile(0.99),
                        max_ns: d.max,
                        attainment_ppm,
                    });
                }
            }
            block.compute_health();
            block
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_math_and_health_rule() {
        let w = |target_s, completed, attainment_ppm| WindowStats {
            target_s,
            span_ms: target_s * 1_000,
            completed,
            attainment_ppm,
            ..WindowStats::default()
        };
        // 97% attainment burns the 1% budget at 3x.
        assert_eq!(w(10, 100, 970_000).burn_milli(), 3_000);
        assert_eq!(w(10, 100, 990_000).burn_milli(), 1_000);
        assert_eq!(w(10, 100, 1_000_000).burn_milli(), 0);

        let mut block = WindowBlock {
            slo_ns: 1_000_000,
            windows: vec![w(1, 50, 900_000), w(10, 100, 970_000), w(60, 600, 985_000)],
            ..WindowBlock::default()
        };
        block.compute_health();
        assert!(block.degraded(), "3x short + 1.5x long burn ⇒ degraded");

        // Long window healthy ⇒ ok even with a hot short window.
        block.windows[2].attainment_ppm = 995_000;
        block.compute_health();
        assert!(!block.degraded());

        // Too few completions ⇒ the short window abstains.
        block.windows[2].attainment_ppm = 985_000;
        block.windows[1].completed = MIN_WINDOW_COMPLETIONS - 1;
        block.compute_health();
        assert!(!block.degraded());

        // No SLO ⇒ always ok.
        block.windows[1].completed = 100;
        block.slo_ns = 0;
        block.compute_health();
        assert!(!block.degraded());
    }

    #[cfg(feature = "obs")]
    mod live {
        use super::super::*;
        use crate::obs::hist::Histogram;

        #[test]
        fn windows_appear_after_two_rotations_and_match_recomputation() {
            let h = Histogram::new();
            let ring = WindowRing::new(1_000);
            assert!(ring.stats(0).windows.is_empty(), "empty ring has no windows");

            for v in [100u64, 200, 300] {
                h.record(v);
            }
            ring.rotate(&h, 3);
            assert!(ring.stats(0).windows.is_empty(), "one snapshot is not a window");
            let baseline = h.snapshot();

            for v in [1_000u64, 2_000, 4_000, 8_000] {
                h.record(v);
            }
            ring.rotate(&h, 9);

            let block = ring.stats(0);
            assert_eq!(block.slots, 2);
            assert_eq!(block.windows.len(), WINDOW_TARGETS_S.len());
            // Only one interval exists, so every target truncates to it.
            let expect = h.snapshot().delta(&baseline);
            for w in &block.windows {
                assert_eq!(w.span_ms, 1_000);
                assert_eq!(w.completed, 4);
                assert_eq!(w.submitted, 6);
                assert_eq!(w.p50_ns, expect.quantile(0.50));
                assert_eq!(w.p99_ns, expect.quantile(0.99));
                assert!(w.p99_ns >= 8_000 && w.p99_ns <= 8_256, "p99 {} in bucket", w.p99_ns);
            }
        }

        #[test]
        fn ring_wraparound_keeps_windows_correct() {
            let h = Histogram::new();
            // At 500 ms the 60s window wants 120 periods; once the
            // 64-slot ring has wrapped it is capped at 63 periods back.
            let ring = WindowRing::new(500);
            for round in 1..=100u64 {
                h.record(round * 1_000);
                ring.rotate(&h, round);
            }
            let block = ring.stats(0);
            let w1 = block.window(1).unwrap();
            assert_eq!((w1.completed, w1.submitted, w1.span_ms), (2, 2, 1_000));
            let w60 = block.window(60).unwrap();
            assert_eq!(w60.span_ms, 31_500, "capped at ring length - 1");
            assert_eq!(w60.completed, 63, "rounds 38..=100");
            // The windowed p99 reflects only the recordings still in
            // the ring.
            assert!(w60.p99_ns >= 99_000 && w60.p99_ns <= 102_400, "p99 {}", w60.p99_ns);
        }

        #[test]
        fn attainment_tracks_the_slo_split() {
            let h = Histogram::new();
            let ring = WindowRing::new(1_000);
            ring.rotate(&h, 0);
            // 3 fast (≤ 50µs SLO), 1 slow.
            for v in [10_000u64, 20_000, 30_000, 9_000_000] {
                h.record(v);
            }
            ring.rotate(&h, 4);
            let block = ring.stats(50_000);
            let w = block.window(1).unwrap();
            assert_eq!(w.attainment_ppm, 750_000);
            assert_eq!(block.slo_ns, 50_000);
        }
    }
}
