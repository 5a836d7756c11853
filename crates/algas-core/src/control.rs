//! Online SLO-adaptive search control.
//!
//! An engine plans once, from its configuration — a static plan, blind
//! to the live workload. This module closes the loop: the
//! serving runtime feeds every completed query's *service span*
//! (`submit → reply` as the worker measures it: queue wait, worker
//! pickup, search and the reply build — what the client is promised, of which
//! the engine's effort knobs move the search part) into a
//! [`SloController`], which periodically compares the window's p99
//! against a configured latency SLO and moves one rung at a time along
//! the precomputed [`EffortLadder`]:
//!
//! * p99 above the SLO's hysteresis band → **shed**: step to the next
//!   cheaper rung (shallower rerank, wider beam, earlier diffusing
//!   switch).
//! * p99 below the band → **restore**: step one rung back toward the
//!   static plan's maximum-recall configuration.
//! * p99 inside the band → **hold**.
//!
//! Steps are clamped to ±1 rung per tick and the level is clamped to
//! the ladder, so the loop cannot oscillate wildly or leave its
//! configured bounds; the hysteresis band keeps it from flapping
//! between adjacent rungs on noise. Every decision travels with the
//! query whose completion triggered it into that query's flight trace
//! (a `control_adjust` event), so `serve --trace-out` shows *why*
//! search effort changed mid-run.
//!
//! Everything on the hot path — [`SloController::observe`], the
//! windowed p99 computation, [`SloController::current`] — is
//! allocation-free and lock-free (atomics plus a fixed-size sample
//! ring).

use crate::tuning::{EffortLadder, EffortStep};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Completed-query service spans the p99 window holds.
pub const CONTROL_WINDOW: usize = 256;

/// Relative hysteresis band around the SLO: no adjustment while
/// `p99 ∈ [slo·(1−h), slo·(1+h)]`.
pub const CONTROL_HYSTERESIS: f64 = 0.15;

/// Completions between controller ticks.
pub const CONTROL_TICK_EVERY: u64 = 32;

/// Why the controller's last tick decided what it decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ControlReason {
    /// No tick has run yet (startup state).
    Init = 0,
    /// p99 inside the hysteresis band (or already at full effort with
    /// latency to spare) — no change.
    Hold = 1,
    /// p99 over the band — moved one rung cheaper.
    Shed = 2,
    /// p99 under the band — restored one rung of effort.
    Restore = 3,
    /// p99 over the band but the ladder has no cheaper rung left.
    Saturated = 4,
}

impl ControlReason {
    /// Wire/track name of the reason.
    pub fn name(self) -> &'static str {
        match self {
            ControlReason::Init => "init",
            ControlReason::Hold => "hold",
            ControlReason::Shed => "shed",
            ControlReason::Restore => "restore",
            ControlReason::Saturated => "saturated",
        }
    }

    /// Decodes a stored reason byte.
    pub fn from_u8(v: u8) -> ControlReason {
        match v {
            1 => ControlReason::Hold,
            2 => ControlReason::Shed,
            3 => ControlReason::Restore,
            4 => ControlReason::Saturated,
            _ => ControlReason::Init,
        }
    }
}

/// One controller tick's outcome (a `control_adjust` event in the
/// triggering query's flight trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControlDecision {
    /// Effort level after the tick.
    pub level: u32,
    /// What the tick decided and why.
    pub reason: ControlReason,
    /// The window p99 the decision was based on.
    pub p99_ns: u64,
    /// Whether the level actually moved.
    pub changed: bool,
}

/// Controller state snapshot for the serving stats surface.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Whether an SLO is configured (false = controller inert).
    pub enabled: bool,
    /// The configured target, nanoseconds (0 when disabled).
    pub slo_ns: u64,
    /// Current effort level (0 = the static plan's full effort).
    pub level: u32,
    /// Cheapest level the ladder offers.
    pub max_level: u32,
    /// Current beam width (0 = greedy, no beam).
    pub beam_width: u64,
    /// Current diffusing-switch offset (0 = greedy, no beam).
    pub offset_beam: u64,
    /// Current exact-rerank pool depth (0 = no rerank).
    pub rerank_depth: u64,
    /// The current rung's CTA cap per query — a worker may launch
    /// fewer (0 when the controller has never been built, i.e. `Default`).
    pub n_ctas: u64,
    /// Ticks that shed effort. Every tick lands in exactly one of
    /// `sheds`, `restores` and `holds`, so their sum is the tick count.
    pub sheds: u64,
    /// Ticks that restored effort.
    pub restores: u64,
    /// Ticks that held (including saturated holds).
    pub holds: u64,
    /// p99 observed at the last tick, nanoseconds.
    pub last_p99_ns: u64,
    /// Name of the last tick's [`ControlReason`].
    pub last_reason: String,
}

/// The online controller: a fixed ring of recent service spans, the
/// current ladder level, and one counter per tick outcome — all
/// atomics, shared freely across the serving threads.
#[derive(Debug)]
pub struct SloController {
    /// Target p99 service latency (`submit → reply`), ns; 0 = none.
    slo_ns: u64,
    ladder: EffortLadder,
    enabled: bool,
    level: AtomicU32,
    completions: AtomicU64,
    ring: Vec<AtomicU64>,
    sheds: AtomicU64,
    restores: AtomicU64,
    holds: AtomicU64,
    last_reason: AtomicU32,
    last_p99: AtomicU64,
}

impl SloController {
    /// A controller over `ladder` holding the p99 service latency to
    /// `slo_ns`. `None` builds an inert controller pinned to rung 0 (the
    /// static plan) whose [`SloController::observe`] is a no-op — the
    /// engine always holds one, so the no-SLO path stays branch-cheap
    /// and byte-identical in behavior.
    pub fn new(slo_ns: Option<u64>, ladder: EffortLadder) -> Self {
        let enabled = slo_ns.is_some() && ladder.max_level() > 0;
        Self {
            slo_ns: slo_ns.unwrap_or(0),
            ladder,
            enabled,
            level: AtomicU32::new(0),
            completions: AtomicU64::new(0),
            ring: (0..CONTROL_WINDOW).map(|_| AtomicU64::new(0)).collect(),
            sheds: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            holds: AtomicU64::new(0),
            last_reason: AtomicU32::new(ControlReason::Init as u32),
            last_p99: AtomicU64::new(0),
        }
    }

    /// Whether an SLO is configured and the ladder has room to adapt.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The configured SLO target in ns (0 = no SLO armed). This is the
    /// declared target even when the effort ladder has no room to
    /// adapt, so burn-rate health can judge attainment on engines the
    /// controller itself leaves alone.
    pub fn slo_ns(&self) -> u64 {
        self.slo_ns
    }

    /// The ladder the controller moves along.
    pub fn ladder(&self) -> &EffortLadder {
        &self.ladder
    }

    /// Current effort level.
    pub fn level(&self) -> u32 {
        self.level.load(Ordering::Relaxed)
    }

    /// The effort configuration searches should run at *now*.
    /// Allocation-free; called once per query by the engine.
    #[inline]
    pub fn current(&self) -> EffortStep {
        self.ladder.step(self.level.load(Ordering::Relaxed))
    }

    /// Records one completed query's service span (`submit → reply`,
    /// measured by the worker just before it delivers). Returns the tick decision when
    /// this completion triggered one. Allocation-free and lock-free.
    pub fn observe(&self, service_ns: u64) -> Option<ControlDecision> {
        if !self.enabled {
            return None;
        }
        let n = self.completions.fetch_add(1, Ordering::Relaxed) + 1;
        self.ring[(n - 1) as usize % CONTROL_WINDOW].store(service_ns, Ordering::Relaxed);
        if n.is_multiple_of(CONTROL_TICK_EVERY) {
            Some(self.tick())
        } else {
            None
        }
    }

    /// Runs one tick against the current window's p99.
    fn tick(&self) -> ControlDecision {
        let seen = self.completions.load(Ordering::Relaxed);
        let count = (seen as usize).clamp(1, CONTROL_WINDOW);
        // Stack copy + in-place sort: no heap allocation on the tick
        // path (the zero-alloc invariant covers controller ticks).
        let mut buf = [0u64; CONTROL_WINDOW];
        for (i, slot) in buf.iter_mut().enumerate().take(count) {
            *slot = self.ring[i].load(Ordering::Relaxed);
        }
        let window = &mut buf[..count];
        window.sort_unstable();
        let p99 = window[(count - 1) * 99 / 100];
        self.tick_with(p99)
    }

    /// The decision core, exposed for tests and benchmarks: applies the
    /// hysteresis policy to an externally supplied p99. Clamped to ±1
    /// rung per call.
    pub fn tick_with(&self, p99_ns: u64) -> ControlDecision {
        let level = self.level.load(Ordering::Relaxed);
        let hi = self.slo_ns as f64 * (1.0 + CONTROL_HYSTERESIS);
        let lo = self.slo_ns as f64 * (1.0 - CONTROL_HYSTERESIS);
        let (new_level, reason) = if p99_ns as f64 > hi {
            if level < self.ladder.max_level() {
                (level + 1, ControlReason::Shed)
            } else {
                (level, ControlReason::Saturated)
            }
        } else if (p99_ns as f64) < lo && level > 0 {
            (level - 1, ControlReason::Restore)
        } else {
            (level, ControlReason::Hold)
        };
        self.level.store(new_level, Ordering::Relaxed);
        match reason {
            ControlReason::Shed => self.sheds.fetch_add(1, Ordering::Relaxed),
            ControlReason::Restore => self.restores.fetch_add(1, Ordering::Relaxed),
            _ => self.holds.fetch_add(1, Ordering::Relaxed),
        };
        self.last_reason.store(reason as u32, Ordering::Relaxed);
        self.last_p99.store(p99_ns, Ordering::Relaxed);
        ControlDecision { level: new_level, reason, p99_ns, changed: new_level != level }
    }

    /// The reason recorded by the last tick.
    pub fn last_reason(&self) -> ControlReason {
        ControlReason::from_u8(self.last_reason.load(Ordering::Relaxed) as u8)
    }

    /// The window p99 the last tick saw, ns (0 before the first tick).
    /// One relaxed load: the RETRY_AFTER path reads it per refusal.
    pub fn last_p99_ns(&self) -> u64 {
        self.last_p99.load(Ordering::Relaxed)
    }

    /// Snapshot for the stats surface.
    pub fn stats(&self) -> ControlStats {
        let step = self.current();
        ControlStats {
            enabled: self.enabled,
            slo_ns: if self.enabled { self.slo_ns } else { 0 },
            level: self.level(),
            max_level: self.ladder.max_level(),
            beam_width: step.beam.map_or(0, |b| b.beam_width as u64),
            offset_beam: step.beam.map_or(0, |b| b.offset_beam as u64),
            rerank_depth: step.rerank_depth as u64,
            n_ctas: step.n_ctas as u64,
            sheds: self.sheds.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            holds: self.holds.load(Ordering::Relaxed),
            last_p99_ns: self.last_p99_ns(),
            last_reason: self.last_reason().name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::BeamParams;

    fn ladder() -> EffortLadder {
        EffortLadder::build(8, Some(BeamParams { offset_beam: 4, beam_width: 8 }), Some(48), 10)
    }

    fn controller(slo_ns: u64) -> SloController {
        SloController::new(Some(slo_ns), ladder())
    }

    #[test]
    fn disabled_controller_is_inert() {
        let c = SloController::new(None, ladder());
        assert!(!c.enabled());
        assert_eq!(c.observe(1_000_000), None);
        assert_eq!(c.level(), 0);
        assert_eq!(c.current(), c.ladder().step(0));
        let s = c.stats();
        assert!(!s.enabled);
        assert_eq!(s.last_reason, "init");
    }

    #[test]
    fn single_rung_ladder_disables_the_loop() {
        let c = SloController::new(Some(1_000), EffortLadder::build(1, None, None, 10));
        assert!(!c.enabled());
    }

    #[test]
    fn over_slo_sheds_and_saturates_at_the_ladder_end() {
        let c = controller(1_000);
        let max = c.ladder().max_level();
        for i in 0..max {
            let d = c.tick_with(10_000);
            assert_eq!(d.reason, ControlReason::Shed);
            assert_eq!(d.level, i + 1);
            assert!(d.changed);
        }
        // Past the end: saturated, level pinned.
        for _ in 0..5 {
            let d = c.tick_with(10_000);
            assert_eq!(d.reason, ControlReason::Saturated);
            assert_eq!(d.level, max);
            assert!(!d.changed);
        }
        assert!(c.level() <= max, "level must never exceed the ladder");
        assert_eq!(c.last_reason(), ControlReason::Saturated);
    }

    #[test]
    fn under_slo_restores_to_full_effort() {
        let c = controller(1_000);
        for _ in 0..3 {
            c.tick_with(10_000);
        }
        assert_eq!(c.level(), 3);
        while c.level() > 0 {
            let d = c.tick_with(100);
            assert_eq!(d.reason, ControlReason::Restore);
        }
        // At full effort with latency to spare: hold.
        let d = c.tick_with(100);
        assert_eq!(d.reason, ControlReason::Hold);
        assert_eq!(d.level, 0);
    }

    #[test]
    fn hysteresis_band_holds() {
        let c = controller(1_000);
        c.tick_with(10_000); // shed to level 1
        for p99 in [900u64, 1_000, 1_100] {
            let d = c.tick_with(p99);
            assert_eq!(d.reason, ControlReason::Hold, "p99 {p99} should hold");
            assert_eq!(d.level, 1);
        }
    }

    #[test]
    fn converges_onto_a_synthetic_latency_curve() {
        // Latency falls 18% per shed level: 2000, 1640, 1345, 1103,
        // 904... With SLO 1000 ±15% the band is [850, 1150]; level 3
        // (1103) is the fixed point.
        let c = controller(1_000);
        let p99_of = |level: u32| (2_000.0 * 0.82f64.powi(level as i32)) as u64;
        let mut last_levels = Vec::new();
        for _ in 0..20 {
            let d = c.tick_with(p99_of(c.level()));
            assert!(d.level <= c.ladder().max_level());
            last_levels.push(d.level);
        }
        // Settled: the last ticks all hold at one level inside the band.
        let settled = *last_levels.last().unwrap();
        assert!(last_levels[10..].iter().all(|&l| l == settled), "did not settle: {last_levels:?}");
        let p = p99_of(settled) as f64;
        assert!((850.0..=1_150.0).contains(&p), "settled outside the band: {p}");
        assert_eq!(c.last_reason(), ControlReason::Hold);
    }

    #[test]
    fn observe_ticks_on_the_configured_cadence() {
        let c = controller(1_000);
        let mut decisions = 0;
        for _ in 0..4 * CONTROL_TICK_EVERY {
            if let Some(d) = c.observe(5_000) {
                decisions += 1;
                assert_eq!(d.reason, ControlReason::Shed);
            }
        }
        assert_eq!(decisions, 4);
        let s = c.stats();
        assert_eq!(s.sheds + s.restores + s.holds, decisions, "one outcome per tick");
        assert_eq!(s.sheds, 4);
        assert_eq!(c.level(), 4);
        assert_eq!(c.last_p99_ns(), c.stats().last_p99_ns);
        assert_eq!(c.last_p99_ns(), 5_000);
    }

    #[test]
    fn stats_reflect_the_current_rung() {
        let c = controller(1_000);
        let s0 = c.stats();
        assert!(s0.enabled);
        assert_eq!(s0.slo_ns, 1_000);
        assert_eq!(
            (s0.level, s0.beam_width, s0.offset_beam, s0.rerank_depth, s0.n_ctas),
            (0, 8, 4, 48, 8)
        );
        c.tick_with(10_000);
        let s1 = c.stats();
        assert_eq!(s1.level, 1);
        assert_eq!(s1.rerank_depth, 24, "first shed halves the rerank pool");
        assert_eq!(s1.last_reason, "shed");
        assert_eq!(s1.last_p99_ns, 10_000);
    }
}
