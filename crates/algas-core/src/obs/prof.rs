//! `obs::prof` — a thread-state sampling profiler for the serving
//! runtime.
//!
//! Every runtime thread (search workers, host delivery pollers, the net
//! readiness loop, the qlog drainer) registers once with the
//! [`ProfRegistry`] and from then on publishes its current state as a
//! single relaxed store of one `u64` *marker* — thread kind and phase
//! tag packed together ([`encode_marker`]). A sampler pass
//! ([`ProfRegistry::sample_once`], driven at a configurable Hz by the
//! runtime's obs tick thread) reads every marker and bumps one
//! `(thread, state)` counter per live thread. Wall-clock attribution
//! falls out statistically: at 97 Hz a state holding 10% of a worker's
//! time collects ~10% of that worker's samples.
//!
//! The accumulated table exports three ways:
//!
//! * [`ProfStats`] — the plain-data attribution table embedded in
//!   [`RuntimeStats`](crate::obs::RuntimeStats) (`/stats.json`).
//! * [`ProfStats::to_folded`] — collapsed/folded-stack text
//!   (`kind;label;state N` per line), directly consumable by
//!   `inferno-flamegraph` and the wider flamegraph toolchain.
//! * [`ProfRegistry::capture`] — a blocking *delta* capture over a
//!   short interval, backing `GET /profile?seconds=N` and the
//!   `algas profile` CLI.
//!
//! Marker stamping is one relaxed atomic store into a cache-padded
//! slot — allocation-free and wait-free. With the `obs` feature off
//! the registry and handles compile to zero-sized no-ops, mirroring
//! [`recorder`](crate::obs::recorder); call sites stay `#[cfg]`-free.

use std::fmt::Write as _;

/// Fixed registry capacity: the serving runtime registers a handful of
/// threads (workers + hosts + net + qlog + sampler), so 64 slots is
/// generous. Registration past capacity yields a dead handle whose
/// stamps are no-ops — never an error on the serving path.
pub const MAX_THREADS: usize = 64;

/// Number of representable states (the marker packs the state into one
/// byte; the table allocates this many counters per thread slot).
pub const N_STATES: usize = 16;

/// What kind of runtime thread a marker belongs to (the first folded
/// frame).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ThreadKind {
    /// Search worker (`algas-worker-N`).
    Worker = 0,
    /// Host delivery poller (`algas-host-N`).
    Host = 1,
    /// Net readiness loop (`algas-net`).
    Net = 2,
    /// Query-log drainer.
    Qlog = 3,
    /// The obs tick thread itself (sampler + window rotation).
    Sampler = 4,
    /// Anything else that wants attribution.
    Other = 5,
}

impl ThreadKind {
    /// Stable lowercase name (folded frame / JSON value).
    pub fn name(self) -> &'static str {
        match self {
            ThreadKind::Worker => "worker",
            ThreadKind::Host => "host",
            ThreadKind::Net => "net",
            ThreadKind::Qlog => "qlog",
            ThreadKind::Sampler => "sampler",
            ThreadKind::Other => "other",
        }
    }

    fn from_u8(v: u8) -> ThreadKind {
        match v {
            0 => ThreadKind::Worker,
            1 => ThreadKind::Host,
            2 => ThreadKind::Net,
            3 => ThreadKind::Qlog,
            4 => ThreadKind::Sampler,
            _ => ThreadKind::Other,
        }
    }
}

/// The phase/op a thread is currently in (the leaf folded frame). One
/// flat namespace shared by every thread kind — a state is meaningful
/// for the kinds that stamp it and simply never sampled for the rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ProfState {
    /// Registered but not currently publishing (also stamped on
    /// handle drop so exited threads stop attracting samples).
    Off = 0,
    /// Parked / backing off between work items.
    Idle = 1,
    /// Worker: graph traversal, the TopK merge and (on quantized
    /// engines) exact rerank, i.e. the whole `serve_into` span.
    Scan = 2,
    /// Worker: exact re-rank pass (only distinguishable from
    /// [`Scan`](ProfState::Scan) if the engine ever splits the span).
    Rerank = 3,
    /// Worker: publishing the finished TopK into the slot.
    Publish = 4,
    /// Host: picking up the finished TopK and building the reply (the
    /// merge runs in the worker; the name stays for profile readers).
    Merge = 5,
    /// Host: accounting and sending the reply.
    Deliver = 6,
    /// Host: draining the submission queue into free slots.
    Refill = 7,
    /// Net: accepting new connections.
    Accept = 8,
    /// Net: reading bytes off sockets.
    Read = 9,
    /// Net: decoding frames.
    Decode = 10,
    /// Net: submitting decoded queries into the runtime.
    Submit = 11,
    /// Net: handling completions back from the runtime.
    Complete = 12,
    /// Net: flushing reply bytes.
    Flush = 13,
    /// Qlog: draining records to the writer.
    Drain = 14,
    /// Tearing down.
    Shutdown = 15,
}

impl ProfState {
    /// Every state, in marker order (index == discriminant).
    pub const ALL: [ProfState; N_STATES] = [
        ProfState::Off,
        ProfState::Idle,
        ProfState::Scan,
        ProfState::Rerank,
        ProfState::Publish,
        ProfState::Merge,
        ProfState::Deliver,
        ProfState::Refill,
        ProfState::Accept,
        ProfState::Read,
        ProfState::Decode,
        ProfState::Submit,
        ProfState::Complete,
        ProfState::Flush,
        ProfState::Drain,
        ProfState::Shutdown,
    ];

    /// Stable lowercase name (folded frame / JSON value).
    pub fn name(self) -> &'static str {
        match self {
            ProfState::Off => "off",
            ProfState::Idle => "idle",
            ProfState::Scan => "scan",
            ProfState::Rerank => "rerank",
            ProfState::Publish => "publish",
            ProfState::Merge => "merge",
            ProfState::Deliver => "deliver",
            ProfState::Refill => "refill",
            ProfState::Accept => "accept",
            ProfState::Read => "read",
            ProfState::Decode => "decode",
            ProfState::Submit => "submit",
            ProfState::Complete => "complete",
            ProfState::Flush => "flush",
            ProfState::Drain => "drain",
            ProfState::Shutdown => "shutdown",
        }
    }
}

/// Packs a thread kind + state into the nonzero marker word a thread
/// publishes. Zero is reserved for "slot empty / thread exited", so
/// the kind is stored off by one.
#[inline]
pub fn encode_marker(kind: ThreadKind, state: ProfState) -> u64 {
    ((kind as u64 + 1) << 8) | state as u64
}

/// Inverse of [`encode_marker`]; `None` for the empty marker.
pub fn decode_marker(marker: u64) -> Option<(ThreadKind, usize)> {
    if marker == 0 {
        return None;
    }
    let kind = ThreadKind::from_u8(((marker >> 8) - 1).min(u8::MAX as u64) as u8);
    Some((kind, (marker & 0xff) as usize % N_STATES))
}

/// Samples accumulated for one state of one thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfStateCount {
    /// State name ([`ProfState::name`]).
    pub state: String,
    /// Sampler passes that observed the thread in this state.
    pub samples: u64,
}

/// The attribution row for one registered thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfThreadStats {
    /// Thread kind name ([`ThreadKind::name`]).
    pub kind: String,
    /// Registration label (e.g. `worker-0`).
    pub label: String,
    /// Per-state sample counts, ascending state order, zeros elided.
    pub states: Vec<ProfStateCount>,
}

impl ProfThreadStats {
    fn samples_for(&self, state: &str) -> u64 {
        self.states.iter().find(|s| s.state == state).map_or(0, |s| s.samples)
    }
}

/// The profiler attribution table — plain data, always compiled, and
/// embedded in [`RuntimeStats`](crate::obs::RuntimeStats).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfStats {
    /// Sampling frequency the registry was configured with.
    pub hz: u32,
    /// Total sampler passes since start.
    pub passes: u64,
    /// One row per registered thread, registration order.
    pub threads: Vec<ProfThreadStats>,
}

impl ProfStats {
    /// Total samples across every thread and state.
    pub fn total_samples(&self) -> u64 {
        self.threads.iter().flat_map(|t| t.states.iter()).map(|s| s.samples).sum()
    }

    /// The samples accumulated since `earlier` was captured — the
    /// profiler analogue of
    /// [`HistogramSnapshot::delta`](crate::obs::hist::HistogramSnapshot::delta).
    /// Threads are matched by registration slot (the registry is
    /// append-only, so `earlier.threads` is a prefix of
    /// `self.threads`); a slot whose identity changed is treated as
    /// brand new.
    pub fn delta(&self, earlier: &ProfStats) -> ProfStats {
        let threads = self
            .threads
            .iter()
            .enumerate()
            .map(|(i, now)| {
                let base =
                    earlier.threads.get(i).filter(|b| b.kind == now.kind && b.label == now.label);
                let states = now
                    .states
                    .iter()
                    .map(|s| ProfStateCount {
                        state: s.state.clone(),
                        samples: s
                            .samples
                            .saturating_sub(base.map_or(0, |b| b.samples_for(&s.state))),
                    })
                    .filter(|s| s.samples > 0)
                    .collect();
                ProfThreadStats { kind: now.kind.clone(), label: now.label.clone(), states }
            })
            .collect();
        ProfStats { hz: self.hz, passes: self.passes.saturating_sub(earlier.passes), threads }
    }

    /// Collapsed/folded-stack text: one `kind;label;state N` line per
    /// nonzero (thread, state) pair, consumable by
    /// `inferno-flamegraph` / `flamegraph.pl`. Frames are sanitized so
    /// a hostile label cannot forge extra frames or break the
    /// line-oriented format.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for t in &self.threads {
            for s in &t.states {
                if s.samples == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{};{};{} {}",
                    fold_frame(&t.kind),
                    fold_frame(&t.label),
                    fold_frame(&s.state),
                    s.samples
                );
            }
        }
        out
    }
}

/// Sanitizes one folded-stack frame: `;` separates frames, space
/// separates the count, newline separates records — all three (plus
/// control chars) become `_`. Empty frames render as `_` so the frame
/// count per line stays fixed.
fn fold_frame(frame: &str) -> String {
    if frame.is_empty() {
        return "_".to_string();
    }
    frame
        .chars()
        .map(|c| if c == ';' || c.is_whitespace() || c.is_control() { '_' } else { c })
        .collect()
}

#[cfg(feature = "obs")]
pub use enabled::{ProfHandle, ProfRegistry};

#[cfg(not(feature = "obs"))]
pub use disabled::{ProfHandle, ProfRegistry};

/// The registry as threads share it: an `Arc<ProfRegistry>` with `obs`
/// on, the zero-sized registry itself with `obs` off. Lets cfg-free
/// call sites hold and pass a registry by one name.
#[cfg(feature = "obs")]
pub type SharedProfRegistry = std::sync::Arc<ProfRegistry>;

/// The registry as threads share it (zero-sized: `obs` is off).
#[cfg(not(feature = "obs"))]
pub type SharedProfRegistry = ProfRegistry;

#[cfg(feature = "obs")]
mod enabled {
    use super::*;
    use crate::obs::counters::CachePadded;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Per-slot sample table: one counter per state, padded as a block
    /// so the sampler's bumps never share a line with another slot's.
    type StateCounts = [AtomicU64; N_STATES];

    struct ThreadMeta {
        kind: ThreadKind,
        label: String,
    }

    /// The marker registry + sample table. One per serving runtime,
    /// shared by every instrumented thread via `Arc`.
    pub struct ProfRegistry {
        hz: u32,
        markers: Box<[CachePadded<AtomicU64>]>,
        samples: Box<[CachePadded<StateCounts>]>,
        meta: Mutex<Vec<ThreadMeta>>,
        next: AtomicUsize,
        passes: AtomicU64,
    }

    impl ProfRegistry {
        /// A fresh registry sampling (when driven) at `hz`. `hz == 0`
        /// documents "sampler disabled" but the registry still accepts
        /// registrations and manual [`sample_once`](Self::sample_once)
        /// calls (tests drive it that way).
        pub fn new(hz: u32) -> Self {
            Self {
                hz,
                markers: (0..MAX_THREADS).map(|_| CachePadded::default()).collect(),
                samples: (0..MAX_THREADS).map(|_| CachePadded::default()).collect(),
                meta: Mutex::new(Vec::new()),
                next: AtomicUsize::new(0),
                passes: AtomicU64::new(0),
            }
        }

        /// Configured sampling frequency.
        pub fn hz(&self) -> u32 {
            self.hz
        }

        /// Registers the calling thread, returning the handle it
        /// stamps through. Past [`MAX_THREADS`] the handle is dead
        /// (stamps are no-ops) — attribution degrades, serving never
        /// fails. The thread starts in [`ProfState::Idle`].
        pub fn register(self: &Arc<Self>, kind: ThreadKind, label: &str) -> ProfHandle {
            let mut meta = self.meta.lock().unwrap();
            let idx = self.next.load(Ordering::Relaxed);
            if idx >= MAX_THREADS {
                return ProfHandle { reg: Arc::clone(self), idx: usize::MAX, kind };
            }
            meta.push(ThreadMeta { kind, label: to_label(label) });
            // Publish the marker before the slot count so a concurrent
            // sampler pass never reads a stale marker for a live slot.
            self.markers[idx].store(encode_marker(kind, ProfState::Idle), Ordering::Relaxed);
            self.next.store(idx + 1, Ordering::Release);
            ProfHandle { reg: Arc::clone(self), idx, kind }
        }

        /// One sampler pass: read every live marker, bump its
        /// (slot, state) counter. Wait-free with respect to the
        /// stamping threads.
        pub fn sample_once(&self) {
            let n = self.next.load(Ordering::Acquire).min(MAX_THREADS);
            for i in 0..n {
                let marker = self.markers[i].load(Ordering::Relaxed);
                if let Some((_, state)) = decode_marker(marker) {
                    self.samples[i].0[state].fetch_add(1, Ordering::Relaxed);
                }
            }
            self.passes.fetch_add(1, Ordering::Relaxed);
        }

        /// The cumulative attribution table.
        pub fn table(&self) -> ProfStats {
            let meta = self.meta.lock().unwrap();
            let threads = meta
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let states = ProfState::ALL
                        .iter()
                        .enumerate()
                        .filter_map(|(s, state)| {
                            let samples = self.samples[i].0[s].load(Ordering::Relaxed);
                            (samples > 0).then(|| ProfStateCount {
                                state: state.name().to_string(),
                                samples,
                            })
                        })
                        .collect();
                    ProfThreadStats {
                        kind: m.kind.name().to_string(),
                        label: m.label.clone(),
                        states,
                    }
                })
                .collect();
            ProfStats { hz: self.hz, passes: self.passes.load(Ordering::Relaxed), threads }
        }

        /// Blocking delta capture: snapshot the table, sleep
        /// `seconds` (clamped to `0.1..=30`; NaN falls to the 0.1
        /// floor), snapshot again, and return the interval's samples
        /// as folded-stack text. Backs `GET /profile?seconds=N`;
        /// assumes a sampler is being driven concurrently (otherwise
        /// the capture is empty, not wrong).
        pub fn capture(&self, seconds: f64) -> String {
            // `clamp` propagates NaN and `Duration::from_secs_f64`
            // panics on it — an unauthenticated `?seconds=nan` must
            // not take down the scrape thread.
            let seconds = if seconds.is_nan() { 0.1 } else { seconds.clamp(0.1, 30.0) };
            let before = self.table();
            std::thread::sleep(Duration::from_secs_f64(seconds));
            self.table().delta(&before).to_folded()
        }
    }

    fn to_label(label: &str) -> String {
        if label.is_empty() {
            "_".to_string()
        } else {
            label.to_string()
        }
    }

    /// A registered thread's stamping handle; dropping it clears the
    /// marker, so exited threads stop attracting samples.
    pub struct ProfHandle {
        reg: Arc<ProfRegistry>,
        idx: usize,
        kind: ThreadKind,
    }

    impl ProfHandle {
        /// Publishes the thread's current state: one relaxed store,
        /// allocation-free and wait-free.
        #[inline]
        pub fn stamp(&self, state: ProfState) {
            if let Some(cell) = self.reg.markers.get(self.idx) {
                cell.store(encode_marker(self.kind, state), Ordering::Relaxed);
            }
        }
    }

    impl Drop for ProfHandle {
        fn drop(&mut self) {
            if let Some(cell) = self.reg.markers.get(self.idx) {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(not(feature = "obs"))]
mod disabled {
    use super::{ProfState, ProfStats, ThreadKind};

    /// Zero-sized stand-in: registration succeeds, stamps are no-ops,
    /// tables are empty.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ProfRegistry;

    impl ProfRegistry {
        pub fn new(_hz: u32) -> Self {
            ProfRegistry
        }

        pub fn hz(&self) -> u32 {
            0
        }

        pub fn register(&self, _kind: ThreadKind, _label: &str) -> ProfHandle {
            ProfHandle
        }

        pub fn sample_once(&self) {}

        pub fn table(&self) -> ProfStats {
            ProfStats::default()
        }

        pub fn capture(&self, _seconds: f64) -> String {
            String::new()
        }
    }

    /// Zero-sized stand-in for the stamping handle.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ProfHandle;

    impl ProfHandle {
        #[inline]
        pub fn stamp(&self, _state: ProfState) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_roundtrip_covers_every_pair() {
        for kind in [
            ThreadKind::Worker,
            ThreadKind::Host,
            ThreadKind::Net,
            ThreadKind::Qlog,
            ThreadKind::Sampler,
            ThreadKind::Other,
        ] {
            for (i, state) in ProfState::ALL.iter().enumerate() {
                let m = encode_marker(kind, *state);
                assert_ne!(m, 0, "markers are nonzero by construction");
                assert_eq!(decode_marker(m), Some((kind, i)));
            }
        }
        assert_eq!(decode_marker(0), None);
    }

    #[test]
    fn folded_output_escapes_hostile_frames() {
        let stats = ProfStats {
            hz: 97,
            passes: 10,
            threads: vec![ProfThreadStats {
                kind: "worker".to_string(),
                label: "bad;label 0\nx".to_string(),
                states: vec![
                    ProfStateCount { state: "scan".to_string(), samples: 7 },
                    ProfStateCount { state: "idle".to_string(), samples: 0 },
                ],
            }],
        };
        let folded = stats.to_folded();
        assert_eq!(folded, "worker;bad_label_0_x;scan 7\n");
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("space-separated count");
            assert_eq!(stack.split(';').count(), 3, "exactly three frames survive");
            count.parse::<u64>().expect("trailing count is numeric");
        }
    }

    #[test]
    fn delta_subtracts_matched_threads_and_keeps_new_ones() {
        let row = |label: &str, n: u64| ProfThreadStats {
            kind: "worker".to_string(),
            label: label.to_string(),
            states: vec![ProfStateCount { state: "scan".to_string(), samples: n }],
        };
        let earlier = ProfStats { hz: 97, passes: 100, threads: vec![row("w0", 40)] };
        let later = ProfStats { hz: 97, passes: 250, threads: vec![row("w0", 90), row("w1", 30)] };
        let d = later.delta(&earlier);
        assert_eq!(d.passes, 150);
        assert_eq!(d.threads[0].samples_for("scan"), 50);
        assert_eq!(d.threads[1].samples_for("scan"), 30, "unmatched slot keeps full count");
        assert_eq!(d.total_samples(), 80);
    }

    #[cfg(feature = "obs")]
    mod live {
        use super::super::*;
        use std::sync::Arc;

        #[test]
        fn sampler_attributes_states_to_threads() {
            let reg = Arc::new(ProfRegistry::new(97));
            let w = reg.register(ThreadKind::Worker, "worker-0");
            let h = reg.register(ThreadKind::Host, "host-0");
            w.stamp(ProfState::Scan);
            h.stamp(ProfState::Merge);
            for _ in 0..5 {
                reg.sample_once();
            }
            w.stamp(ProfState::Idle);
            for _ in 0..3 {
                reg.sample_once();
            }
            let t = reg.table();
            assert_eq!(t.hz, 97);
            assert_eq!(t.passes, 8);
            assert_eq!(t.threads.len(), 2);
            assert_eq!(t.threads[0].kind, "worker");
            assert_eq!(t.threads[0].label, "worker-0");
            assert_eq!(t.threads[0].samples_for("scan"), 5);
            assert_eq!(t.threads[0].samples_for("idle"), 3);
            assert_eq!(t.threads[1].samples_for("merge"), 8);
            let folded = t.to_folded();
            assert!(folded.contains("worker;worker-0;scan 5\n"), "folded: {folded}");
            assert!(folded.contains("host;host-0;merge 8\n"), "folded: {folded}");
        }

        #[test]
        fn dropped_handles_stop_attracting_samples() {
            let reg = Arc::new(ProfRegistry::new(97));
            let w = reg.register(ThreadKind::Worker, "w");
            w.stamp(ProfState::Scan);
            reg.sample_once();
            drop(w);
            reg.sample_once();
            assert_eq!(reg.table().total_samples(), 1, "post-drop passes see no marker");
        }

        #[test]
        fn capture_survives_non_finite_seconds() {
            // NaN would otherwise reach Duration::from_secs_f64 and
            // panic the calling (scrape) thread; it falls to the 0.1s
            // clamp floor instead, so this returns in ~100ms.
            let reg = Arc::new(ProfRegistry::new(97));
            let w = reg.register(ThreadKind::Worker, "w");
            w.stamp(ProfState::Scan);
            reg.sample_once();
            let folded = reg.capture(f64::NAN);
            assert!(folded.is_empty(), "no sampler ran during the capture: {folded}");
        }

        #[test]
        fn registration_overflow_yields_dead_handles() {
            let reg = Arc::new(ProfRegistry::new(97));
            let handles: Vec<_> = (0..MAX_THREADS + 3)
                .map(|i| reg.register(ThreadKind::Other, &format!("t{i}")))
                .collect();
            for h in &handles {
                h.stamp(ProfState::Idle); // the 3 dead ones must not panic
            }
            reg.sample_once();
            let t = reg.table();
            assert_eq!(t.threads.len(), MAX_THREADS);
            assert_eq!(t.total_samples(), MAX_THREADS as u64);
        }
    }

    #[cfg(not(feature = "obs"))]
    mod off {
        use super::super::*;

        #[test]
        fn disabled_types_are_zero_sized_noops() {
            assert_eq!(std::mem::size_of::<ProfRegistry>(), 0);
            assert_eq!(std::mem::size_of::<ProfHandle>(), 0);
            let reg = ProfRegistry::new(97);
            let h = reg.register(ThreadKind::Worker, "w");
            h.stamp(ProfState::Scan);
            reg.sample_once();
            assert_eq!(reg.table(), ProfStats::default());
            assert_eq!(reg.capture(0.0), "");
        }
    }
}
