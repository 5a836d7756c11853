//! `obs::window` — rotating windowed aggregation over the lifetime
//! histograms.
//!
//! Every metric in [`RuntimeStats`](crate::obs::RuntimeStats) is
//! cumulative since process start, so a single scrape cannot separate
//! the current p99 from boot-time warm-up. This module keeps a ring of
//! cumulative 32-bit snapshots ([`Snapshot32`](crate::obs::hist::Snapshot32),
//! exact for windowing), each stamped with its `Instant`, and turns the
//! slot nearest a window's start plus a live snapshot into a *windowed*
//! view with [`HistogramSnapshot::delta`](crate::obs::HistogramSnapshot::delta):
//! moving p50/p99, completion rate, and — when an SLO is armed —
//! windowed attainment and a multi-window burn-rate health state.
//!
//! No thread runs on a clock for it. The ring rotates when
//! [`WINDOW_PERIOD`] has passed since its newest slot, checked by the
//! worker that delivers a reply ([`WindowRing::rotate_if_due`]) and by
//! every read ([`WindowRing::stats`]). The read computes the
//! ~1s/10s/60s windows surfaced in `/stats.json` (`window` block), the
//! `algas_window_*` Prometheus families, the serve summary line, and
//! the `/healthz` + `/readyz` burn-rate state; they exist from the
//! ring's construction and end at the moment of the read.
//!
//! `WindowRing` exists only with the `obs` feature: its one
//! constructor call is in the [`recorder`](crate::obs::recorder),
//! which is where the feature compiles out. [`WindowBlock`] and
//! [`WindowStats`] are unconditional.

/// The ring rotates once this much time has passed since its newest
/// slot.
pub const WINDOW_PERIOD: std::time::Duration = std::time::Duration::from_secs(1);

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
    /// Actual span covered: from the stamp of the slot the window
    /// starts at to the read. Less than the target while the ring is
    /// younger than it.
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
    /// Snapshots currently populating the ring.
    pub slots: u64,
    /// SLO the attainment was computed against (0 = none armed).
    pub slo_ns: u64,
    /// `"ok"` or `"degraded"` (burn-rate rule); `"ok"` with no SLO or
    /// insufficient data.
    pub health: String,
    /// Windows in [`WINDOW_TARGETS_S`] order; empty only with the
    /// `obs` feature compiled out.
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
    use crate::obs::hist::{Histogram, Snapshot32};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    /// Snapshots the ring holds: 64 periods of at least a second cover
    /// the 60s window with headroom.
    const RING_SLOTS: usize = 64;

    struct Slot {
        /// When the snapshot was taken.
        at: Instant,
        e2e: Snapshot32,
        submitted: u64,
    }

    struct Inner {
        slots: Vec<Slot>,
        /// Index of the newest slot.
        head: usize,
        /// Slots holding a snapshot (the baseline counts).
        filled: usize,
    }

    /// The rotating ring of cumulative snapshots. Nothing drives it on
    /// a clock: the delivering worker ([`rotate_if_due`]) and every
    /// read ([`stats`]) rotate it when [`WINDOW_PERIOD`] has passed
    /// since its newest slot. Rotation is allocation-free: every
    /// slot is allocated at construction and refilled in place.
    ///
    /// [`rotate_if_due`]: WindowRing::rotate_if_due
    /// [`stats`]: WindowRing::stats
    pub struct WindowRing {
        /// The baseline slot's stamp; `due_ns` counts from it.
        origin: Instant,
        /// When the next rotation is due (the newest stamp plus one
        /// period), in ns since `origin`: the worker's check is one
        /// relaxed load of it.
        due_ns: AtomicU64,
        inner: Mutex<Inner>,
    }

    impl WindowRing {
        /// A ring whose baseline slot, stamped `at`, holds empty
        /// histograms: built with the histograms it watches, it
        /// windows every query they ever record.
        pub fn new(at: Instant) -> Self {
            Self {
                origin: at,
                due_ns: AtomicU64::new(WINDOW_PERIOD.as_nanos() as u64),
                inner: Mutex::new(Inner {
                    slots: (0..RING_SLOTS)
                        .map(|_| Slot { at, e2e: Snapshot32::zeroed(), submitted: 0 })
                        .collect(),
                    head: 0,
                    filled: 1,
                }),
            }
        }

        /// The delivering worker's call, made after its reply is handed
        /// over: snapshots the cumulative end-to-end histogram and the
        /// count of `submit_to_slot` into the next slot if a period has
        /// passed since the newest one. Not due costs one relaxed load;
        /// a reader holding the ring makes it give up rather than wait
        /// (the read rotates instead). Allocation-free. Returns whether
        /// it rotated.
        #[inline]
        pub fn rotate_if_due(
            &self,
            now: Instant,
            e2e: &Histogram,
            submit_to_slot: &Histogram,
        ) -> bool {
            let since = now.saturating_duration_since(self.origin).as_nanos() as u64;
            if since < self.due_ns.load(Ordering::Relaxed) {
                return false;
            }
            match self.inner.try_lock() {
                Ok(mut inner) => self.rotate_locked(&mut inner, now, e2e, submit_to_slot),
                Err(_) => false,
            }
        }

        /// Rotates unless the newest slot is younger than a period
        /// (another thread may have rotated since the caller looked).
        fn rotate_locked(
            &self,
            inner: &mut Inner,
            now: Instant,
            e2e: &Histogram,
            submit_to_slot: &Histogram,
        ) -> bool {
            if now < inner.slots[inner.head].at + WINDOW_PERIOD {
                return false;
            }
            let n = inner.slots.len();
            let head = (inner.head + 1) % n;
            let slot = &mut inner.slots[head];
            slot.at = now;
            e2e.snapshot_into(&mut slot.e2e);
            slot.submitted = submit_to_slot.count();
            inner.head = head;
            inner.filled = (inner.filled + 1).min(n);
            let due = (now + WINDOW_PERIOD).saturating_duration_since(self.origin);
            self.due_ns.store(due.as_nanos() as u64, Ordering::Relaxed);
            true
        }

        /// Computes the [`WINDOW_TARGETS_S`] windows at `now` against
        /// `slo_ns` (0 = no SLO) and applies the burn-rate health rule.
        /// Each window runs from the slot stamped nearest `now − target`
        /// to a live snapshot of `e2e`, and its `span_ms` is the time
        /// between the two; a ring younger than the target reports the
        /// span it has. The read then rotates the ring if a rotation is
        /// due, so a slot it adds never shortens its own windows.
        pub fn stats(
            &self,
            now: Instant,
            e2e: &Histogram,
            submit_to_slot: &Histogram,
            slo_ns: u64,
        ) -> WindowBlock {
            let mut inner = self.inner.lock().expect("no rotation or read panics holding the ring");
            let live = e2e.snapshot();
            let submitted = submit_to_slot.count();
            let n = inner.slots.len();
            let age_ns = |s: &Slot| now.saturating_duration_since(s.at).as_nanos() as u64;
            let mut block = WindowBlock {
                slots: inner.filled as u64,
                slo_ns,
                health: "ok".to_string(),
                windows: Vec::with_capacity(WINDOW_TARGETS_S.len()),
            };
            for target_s in WINDOW_TARGETS_S {
                let target_ns = Duration::from_secs(target_s).as_nanos() as u64;
                let older = (0..inner.filled)
                    .map(|back| &inner.slots[(inner.head + n - back) % n])
                    .min_by_key(|s| age_ns(s).abs_diff(target_ns))
                    .expect("the baseline slot is always filled");
                let d = live.delta(&older.e2e);
                let completed = d.count;
                let attainment_ppm = if slo_ns == 0 || completed == 0 {
                    1_000_000
                } else {
                    d.count_le(slo_ns) * 1_000_000 / completed
                };
                block.windows.push(WindowStats {
                    target_s,
                    span_ms: age_ns(older) / 1_000_000,
                    completed,
                    submitted: submitted.saturating_sub(older.submitted),
                    p50_ns: d.quantile(0.50),
                    p99_ns: d.quantile(0.99),
                    max_ns: d.max,
                    attainment_ppm,
                });
            }
            block.compute_health();
            self.rotate_locked(&mut inner, now, e2e, submit_to_slot);
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
        use std::time::{Duration, Instant};

        fn ms(n: u64) -> Duration {
            Duration::from_millis(n)
        }

        #[test]
        fn a_rotation_happens_only_when_due() {
            let (e2e, sub) = (Histogram::new(), Histogram::new());
            let t0 = Instant::now();
            let ring = WindowRing::new(t0);
            assert!(!ring.rotate_if_due(t0 + ms(999), &e2e, &sub), "younger than a period");
            assert!(ring.rotate_if_due(t0 + ms(1_000), &e2e, &sub), "a period after the baseline");
            assert!(!ring.rotate_if_due(t0 + ms(1_999), &e2e, &sub), "due counts from the newest");
            assert!(ring.rotate_if_due(t0 + ms(2_400), &e2e, &sub));
            assert!(!ring.rotate_if_due(t0 + ms(3_000), &e2e, &sub), "due again at 3.4 s");
            // A read rotates when due, after measuring: its own block
            // still counts the slots it measured from.
            assert_eq!(ring.stats(t0 + ms(3_000), &e2e, &sub, 0).slots, 3);
            assert_eq!(ring.stats(t0 + ms(3_400), &e2e, &sub, 0).slots, 3, "due: rotates after");
            assert_eq!(
                ring.stats(t0 + ms(3_500), &e2e, &sub, 0).slots,
                4,
                "the 3.4 s read rotated"
            );
            assert!(!ring.rotate_if_due(t0 + ms(4_000), &e2e, &sub), "the read moved due on");
        }

        #[test]
        fn windows_are_present_from_the_baseline_slot() {
            let (e2e, sub) = (Histogram::new(), Histogram::new());
            let t0 = Instant::now();
            let ring = WindowRing::new(t0);
            let block = ring.stats(t0, &e2e, &sub, 0);
            assert_eq!(block.slots, 1);
            assert_eq!(block.windows.len(), WINDOW_TARGETS_S.len(), "windows exist at once");
            for w in &block.windows {
                assert_eq!((w.span_ms, w.completed, w.submitted), (0, 0, 0));
                assert_eq!(w.attainment_ppm, 1_000_000, "an empty window attains");
            }
            // Queries recorded before the first rotation are windowed
            // against the baseline.
            for v in [100u64, 200, 300] {
                e2e.record(v);
                sub.record(v);
            }
            let block = ring.stats(t0 + ms(300), &e2e, &sub, 0);
            let expect = e2e.snapshot();
            for w in &block.windows {
                assert_eq!((w.completed, w.submitted), (3, 3));
                assert_eq!(w.p50_ns, expect.quantile(0.50));
                assert_eq!(w.p99_ns, expect.quantile(0.99));
            }
        }

        #[test]
        fn a_young_ring_reports_the_span_it_has() {
            let (e2e, sub) = (Histogram::new(), Histogram::new());
            let t0 = Instant::now();
            let ring = WindowRing::new(t0);
            e2e.record(1_000);
            assert!(ring.rotate_if_due(t0 + ms(1_000), &e2e, &sub));
            e2e.record(2_000);
            let block = ring.stats(t0 + ms(2_500), &e2e, &sub, 0);
            // 1 s back is nearest the slot at 1 s; 10 s and 60 s back
            // both fall before the ring's birth, so they start at the
            // baseline and cover the 2.5 s that exist.
            let spans: Vec<_> = block.windows.iter().map(|w| (w.span_ms, w.completed)).collect();
            assert_eq!(spans, [(1_500, 1), (2_500, 2), (2_500, 2)]);
        }

        #[test]
        fn span_comes_from_the_stamps() {
            let (e2e, sub) = (Histogram::new(), Histogram::new());
            let t0 = Instant::now();
            let ring = WindowRing::new(t0);
            // Deliveries arrive irregularly, so slots sit 1.2 s and
            // 1.3 s apart rather than on a grid.
            for (at, v) in [(1_200, 10_000u64), (2_500, 20_000)] {
                e2e.record(v);
                assert!(ring.rotate_if_due(t0 + ms(at), &e2e, &sub));
            }
            e2e.record(40_000);
            let block = ring.stats(t0 + ms(3_000), &e2e, &sub, 0);
            // Slot ages at the read: 0.5 s, 1.8 s and 3.0 s. The 1 s
            // window starts at the 0.5 s slot (0.5 from its target,
            // against 0.8), the others at the baseline.
            let w1 = block.window(1).unwrap();
            assert_eq!((w1.span_ms, w1.completed), (500, 1));
            assert!(w1.rate_qps() > 1.99 && w1.rate_qps() < 2.01, "{}", w1.rate_qps());
            assert_eq!(block.window(10).unwrap().span_ms, 3_000);
        }

        #[test]
        fn ring_wraparound_keeps_windows_correct() {
            let (e2e, sub) = (Histogram::new(), Histogram::new());
            let t0 = Instant::now();
            let ring = WindowRing::new(t0);
            // 100 one-second rotations overwrite the 64-slot ring's
            // baseline and its first 36 slots.
            for round in 1..=100u64 {
                e2e.record(round * 1_000);
                sub.record(1);
                assert!(ring.rotate_if_due(t0 + Duration::from_secs(round), &e2e, &sub));
            }
            let block = ring.stats(t0 + Duration::from_secs(100), &e2e, &sub, 0);
            assert_eq!(block.slots, 64);
            let w1 = block.window(1).unwrap();
            assert_eq!((w1.completed, w1.submitted, w1.span_ms), (1, 1, 1_000));
            let w60 = block.window(60).unwrap();
            assert_eq!((w60.completed, w60.submitted, w60.span_ms), (60, 60, 60_000));
            // The windowed p99 reflects only rounds 41..=100.
            assert!(w60.p99_ns >= 99_000 && w60.p99_ns <= 102_400, "p99 {}", w60.p99_ns);
            assert!(w60.p50_ns >= 70_000, "p50 {} skips the overwritten rounds", w60.p50_ns);
        }

        #[test]
        fn attainment_tracks_the_slo_split() {
            let (e2e, sub) = (Histogram::new(), Histogram::new());
            let t0 = Instant::now();
            let ring = WindowRing::new(t0);
            // 3 fast (≤ 50µs SLO), 1 slow.
            for v in [10_000u64, 20_000, 30_000, 9_000_000] {
                e2e.record(v);
            }
            let block = ring.stats(t0 + ms(500), &e2e, &sub, 50_000);
            let w = block.window(1).unwrap();
            assert_eq!(w.attainment_ppm, 750_000);
            assert_eq!(block.slo_ns, 50_000);
        }
    }
}
