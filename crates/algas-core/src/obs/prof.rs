//! `obs::prof` — a thread-state sampling profiler for the serving
//! runtime.
//!
//! Every runtime thread (search workers, host refill pollers, the net
//! readiness loop, the qlog drainer) registers once with the
//! [`ProfRegistry`] and from then on publishes its current state as a
//! single relaxed store of one `u64` *marker* — thread kind and phase
//! tag packed together ([`encode_marker`]).
//!
//! Nothing reads the markers until a profile is asked for.
//! [`ProfRegistry::capture`] (backing `GET /profile?seconds=N`) reads
//! every marker at [`PROF_HZ`] for the span of the capture, on the
//! calling thread, into a local `(thread, state)` table, and renders it
//! as collapsed/folded-stack text (`kind;label;state N` per line),
//! directly consumable by `inferno-flamegraph` and the wider flamegraph
//! toolchain. Wall-clock attribution falls out statistically: at 97 Hz
//! a state holding 10% of a worker's time collects ~10% of that
//! worker's samples.
//!
//! Marker stamping is one relaxed atomic store into a cache-padded
//! slot — allocation-free and wait-free. With the `obs` feature off
//! the registry and handles compile to zero-sized no-ops, mirroring
//! [`recorder`](crate::obs::recorder); call sites stay `#[cfg]`-free.

/// Fixed registry capacity: the serving runtime registers a handful of
/// threads (workers + hosts + net + qlog), so 64 slots is
/// generous. Registration past capacity yields a dead handle whose
/// stamps are no-ops — never an error on the serving path.
pub const MAX_THREADS: usize = 64;

/// Number of representable states (the marker packs the state into one
/// byte; a capture counts this many states per thread slot).
pub const N_STATES: usize = 13;

/// Sampling passes per second of a capture. Prime, so the passes do not
/// lock step with millisecond-periodic work.
pub const PROF_HZ: u32 = 97;

/// What kind of runtime thread a marker belongs to (the first folded
/// frame).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ThreadKind {
    /// Search worker (`algas-worker-N`).
    Worker = 0,
    /// Host poller that refills slots from the submission queue
    /// (`algas-host-N`).
    Host = 1,
    /// Net readiness loop (`algas-net`).
    Net = 2,
    /// Query-log drainer.
    Qlog = 3,
    /// Anything else that wants attribution.
    Other = 4,
}

impl ThreadKind {
    /// Stable lowercase name (its folded frame).
    pub fn name(self) -> &'static str {
        match self {
            ThreadKind::Worker => "worker",
            ThreadKind::Host => "host",
            ThreadKind::Net => "net",
            ThreadKind::Qlog => "qlog",
            ThreadKind::Other => "other",
        }
    }

    fn from_u8(v: u8) -> ThreadKind {
        match v {
            0 => ThreadKind::Worker,
            1 => ThreadKind::Host,
            2 => ThreadKind::Net,
            3 => ThreadKind::Qlog,
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
    /// Worker: accounting the finished search into the telemetry
    /// counters before the reply.
    Publish = 3,
    /// Worker: building the reply from its TopK (the merge runs inside
    /// the search; the name stays for profile readers).
    Merge = 4,
    /// Worker: the SLO controller's observation, delivery accounting
    /// (with a retained query's trace), and handing the reply to the
    /// client.
    Deliver = 5,
    /// Host: draining the submission queue into free slots.
    Refill = 6,
    /// Net: accepting new connections.
    Accept = 7,
    /// Net: reading bytes off sockets.
    Read = 8,
    /// Net: decoding frames.
    Decode = 9,
    /// Net: handling completions back from the runtime.
    Complete = 10,
    /// Net: flushing reply bytes.
    Flush = 11,
    /// Qlog: draining records to the writer.
    Drain = 12,
}

impl ProfState {
    /// Every state, in marker order (index == discriminant).
    pub const ALL: [ProfState; N_STATES] = [
        ProfState::Off,
        ProfState::Idle,
        ProfState::Scan,
        ProfState::Publish,
        ProfState::Merge,
        ProfState::Deliver,
        ProfState::Refill,
        ProfState::Accept,
        ProfState::Read,
        ProfState::Decode,
        ProfState::Complete,
        ProfState::Flush,
        ProfState::Drain,
    ];

    /// Stable lowercase name (its folded frame).
    pub fn name(self) -> &'static str {
        match self {
            ProfState::Off => "off",
            ProfState::Idle => "idle",
            ProfState::Scan => "scan",
            ProfState::Publish => "publish",
            ProfState::Merge => "merge",
            ProfState::Deliver => "deliver",
            ProfState::Refill => "refill",
            ProfState::Accept => "accept",
            ProfState::Read => "read",
            ProfState::Decode => "decode",
            ProfState::Complete => "complete",
            ProfState::Flush => "flush",
            ProfState::Drain => "drain",
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
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    struct ThreadMeta {
        kind: ThreadKind,
        /// Registration label, already a safe folded frame.
        frame: String,
    }

    /// The marker registry. One per serving runtime, shared by every
    /// instrumented thread via `Arc`.
    pub struct ProfRegistry {
        markers: Box<[CachePadded<AtomicU64>]>,
        meta: Mutex<Vec<ThreadMeta>>,
        next: AtomicUsize,
    }

    impl ProfRegistry {
        /// A fresh registry with no threads.
        pub(crate) fn new() -> Self {
            Self {
                markers: (0..MAX_THREADS).map(|_| CachePadded::default()).collect(),
                meta: Mutex::new(Vec::new()),
                next: AtomicUsize::new(0),
            }
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
            meta.push(ThreadMeta { kind, frame: fold_frame(label) });
            // Publish the marker before the slot count so a concurrent
            // capture never reads a stale marker for a live slot.
            self.markers[idx].store(encode_marker(kind, ProfState::Idle), Ordering::Relaxed);
            self.next.store(idx + 1, Ordering::Release);
            ProfHandle { reg: Arc::clone(self), idx, kind }
        }

        /// Blocking capture: reads every live marker at [`PROF_HZ`] for
        /// `seconds` (clamped to `0.1..=30`; NaN falls to the 0.1
        /// floor) on the calling thread, counting one sample per
        /// (thread, state) per pass, and returns the counts as
        /// folded-stack text, one `kind;label;state N` line per nonzero
        /// pair in registration order. Backs `GET /profile?seconds=N`.
        /// Wait-free with respect to the stamping threads.
        pub fn capture(&self, seconds: f64) -> String {
            // `clamp` propagates NaN and `Duration::from_secs_f64`
            // panics on it — an unauthenticated `?seconds=nan` must
            // not take down the scrape thread.
            let seconds = if seconds.is_nan() { 0.1 } else { seconds.clamp(0.1, 30.0) };
            let period = Duration::from_secs_f64(1.0 / f64::from(PROF_HZ));
            let end = Instant::now() + Duration::from_secs_f64(seconds);
            let mut counts = vec![[0u64; N_STATES]; MAX_THREADS];
            // Absolute deadlines, so the passes' own work does not
            // stretch the period; a pass that falls a whole period
            // behind resynchronizes instead of bursting to catch up.
            let mut next = Instant::now();
            loop {
                let live = self.next.load(Ordering::Acquire).min(MAX_THREADS);
                for (marker, row) in self.markers[..live].iter().zip(&mut counts) {
                    if let Some((_, state)) = decode_marker(marker.load(Ordering::Relaxed)) {
                        row[state] += 1;
                    }
                }
                next += period;
                if next >= end {
                    break;
                }
                match next.checked_duration_since(Instant::now()) {
                    Some(wait) => std::thread::sleep(wait),
                    None => next = Instant::now(),
                }
            }
            let mut out = String::new();
            let meta = self.meta.lock().expect("no registration panics holding the lock");
            for (m, row) in meta.iter().zip(&counts) {
                for (state, &n) in ProfState::ALL.iter().zip(row) {
                    if n > 0 {
                        let _ = writeln!(out, "{};{};{} {n}", m.kind.name(), m.frame, state.name());
                    }
                }
            }
            out
        }
    }

    /// A registration label as one folded-stack frame: `;` separates
    /// frames, space separates the count, newline separates records —
    /// all three (plus control chars) become `_`, so a hostile label
    /// cannot forge extra frames or break the line-oriented format. An
    /// empty label renders as `_` so the frame count per line stays
    /// fixed.
    fn fold_frame(label: &str) -> String {
        if label.is_empty() {
            return "_".to_string();
        }
        label
            .chars()
            .map(|c| if c == ';' || c.is_whitespace() || c.is_control() { '_' } else { c })
            .collect()
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
    use super::{ProfState, ThreadKind};

    /// Zero-sized stand-in: registration succeeds, stamps are no-ops,
    /// captures are empty.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct ProfRegistry;

    impl ProfRegistry {
        pub fn new() -> Self {
            ProfRegistry
        }

        pub fn register(&self, _kind: ThreadKind, _label: &str) -> ProfHandle {
            ProfHandle
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

    #[cfg(feature = "obs")]
    mod live {
        use super::super::*;
        use std::sync::Arc;

        /// `(stack, count)` per folded line, checking the line shape.
        fn parse(folded: &str) -> Vec<(String, u64)> {
            folded
                .lines()
                .map(|line| {
                    let (stack, count) = line.rsplit_once(' ').expect("space-separated count");
                    assert_eq!(stack.split(';').count(), 3, "exactly three frames: {line}");
                    (stack.to_string(), count.parse().expect("trailing count is numeric"))
                })
                .collect()
        }

        #[test]
        fn capture_attributes_states_to_threads() {
            let reg = Arc::new(ProfRegistry::new());
            let w = reg.register(ThreadKind::Worker, "worker-0");
            let h = reg.register(ThreadKind::Host, "host-0");
            let _quiet = reg.register(ThreadKind::Net, "net");
            w.stamp(ProfState::Scan);
            h.stamp(ProfState::Refill);
            let lines = parse(&reg.capture(0.2));
            let stacks: Vec<_> = lines.iter().map(|(s, _)| s.as_str()).collect();
            assert_eq!(stacks, ["worker;worker-0;scan", "host;host-0;refill", "net;net;idle"]);
            // Every pass sees every marker, so the counts agree; 0.2 s
            // at 97 Hz holds at most 20 passes (fewer when a sleep
            // overruns and the schedule resynchronizes).
            let n = lines[0].1;
            assert!(lines.iter().all(|&(_, c)| c == n), "{lines:?}");
            assert!((2..=20).contains(&n), "{n} passes in 0.2 s");
        }

        #[test]
        fn folded_output_escapes_hostile_labels() {
            let reg = Arc::new(ProfRegistry::new());
            let w = reg.register(ThreadKind::Worker, "bad;label 0\nx");
            let e = reg.register(ThreadKind::Other, "");
            w.stamp(ProfState::Scan);
            e.stamp(ProfState::Drain);
            let stacks: Vec<_> = parse(&reg.capture(0.1)).into_iter().map(|(s, _)| s).collect();
            assert_eq!(stacks, ["worker;bad_label_0_x;scan", "other;_;drain"]);
        }

        #[test]
        fn dropped_handles_stop_attracting_samples() {
            let reg = Arc::new(ProfRegistry::new());
            let w = reg.register(ThreadKind::Worker, "w");
            w.stamp(ProfState::Scan);
            drop(w);
            assert_eq!(reg.capture(0.1), "", "a dropped handle's marker is cleared");
        }

        #[test]
        fn capture_survives_non_finite_seconds() {
            // NaN would otherwise reach Duration::from_secs_f64 and
            // panic the calling (scrape) thread; it falls to the 0.1s
            // clamp floor instead, so this returns in ~100ms.
            let reg = Arc::new(ProfRegistry::new());
            let w = reg.register(ThreadKind::Worker, "w");
            w.stamp(ProfState::Scan);
            let folded = reg.capture(f64::NAN);
            assert!(folded.starts_with("worker;w;scan "), "{folded}");
        }

        #[test]
        fn registration_overflow_yields_dead_handles() {
            let reg = Arc::new(ProfRegistry::new());
            let handles: Vec<_> = (0..MAX_THREADS + 3)
                .map(|i| reg.register(ThreadKind::Other, &format!("t{i}")))
                .collect();
            for h in &handles {
                h.stamp(ProfState::Idle); // the 3 dead ones must not panic
            }
            let lines = parse(&reg.capture(0.1));
            assert_eq!(lines.len(), MAX_THREADS, "one line per live registration");
            assert_eq!(lines.last().unwrap().0, format!("other;t{};idle", MAX_THREADS - 1));
        }
    }

    #[cfg(not(feature = "obs"))]
    mod off {
        use super::super::*;

        #[test]
        fn disabled_types_are_zero_sized_noops() {
            assert_eq!(std::mem::size_of::<ProfRegistry>(), 0);
            assert_eq!(std::mem::size_of::<ProfHandle>(), 0);
            let reg = ProfRegistry::new();
            let h = reg.register(ThreadKind::Worker, "w");
            h.stamp(ProfState::Scan);
            assert_eq!(reg.capture(0.0), "");
        }
    }
}
