//! The wide-event query log: one structured record per completed (or
//! rejected) query, written allocation-free from the serving threads
//! and drained as JSON lines.
//!
//! The aggregate layer answers "how is the fleet doing", the flight
//! recorder answers "why was *this* query slow"; the query log sits
//! between them: a greppable, machine-parseable record per query —
//! wire request id, connection, phase spans, hops, SLO rung, rerank
//! depth, entry policy, status — that survives long enough to join
//! client-side logs against server-side behavior.
//!
//! The hot path is a bounded lock-free MPMC ring (Vyukov-style: each
//! cell carries a sequence word that producers claim with a CAS and
//! publish with a release store). Writers never allocate and never
//! block; when the ring is full the record is dropped and counted.
//! Draining — popping records, rendering JSON lines, appending to the
//! bounded retention buffer — happens off the serving path: a CLI
//! writer thread (`serve --query-log`), the `/query-log` endpoint, or
//! a test calling [`QueryLog::drain`] directly.
//!
//! `QueryLog` exists only with the `obs` feature: its one constructor
//! call is in the recorder ([`super::recorder`]), which is where the
//! feature compiles out. The configuration, record and totals types
//! are unconditional, so the CLI compiles either way.

use super::json::{obj, Value};

/// Query-log policy: which completions are logged. Lives in
/// [`crate::runtime::RuntimeConfig`] (all scalar, so that config stays
/// `Copy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QlogConfig {
    /// Master switch; `sample_every` is ignored when false.
    pub enabled: bool,
    /// Log every Nth completed query (0 disables sampling; non-ok
    /// records still log).
    pub sample_every: u64,
}

impl Default for QlogConfig {
    fn default() -> Self {
        Self { enabled: false, sample_every: 1 }
    }
}

/// Query-log totals for the serving snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QlogTotals {
    /// Records accepted into the ring.
    pub logged: u64,
    /// Records dropped because the ring was full.
    pub dropped: u64,
    /// Records drained and rendered as lines.
    pub drained: u64,
}

/// Per-delivery context the runtime hands the recorder alongside the
/// lifecycle stamps: identity (tag + wire ids) and the per-query facts
/// the wide event carries.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeliveryCtx {
    /// Runtime-assigned tag (equals `request_id` for local submits).
    pub tag: u64,
    /// Wire request id (the id the client logged).
    pub request_id: u64,
    /// Server-side connection id (0 for local submits).
    pub conn_id: u64,
    /// Client-send timestamp (µs, client clock; 0 when not sent).
    pub client_ts_us: u64,
    /// Worker that searched and delivered the query.
    pub worker: u32,
    /// CTA search steps this query took (summed over CTAs).
    pub hops: u32,
    /// SLO controller rung at delivery (0 = full effort).
    pub slo_level: u32,
    /// Exact-rerank pool depth at delivery.
    pub rerank_depth: u32,
    /// Entry policy code (see [`entry_policy_name`]).
    pub entry_code: u32,
}

impl DeliveryCtx {
    /// Context of a local submit: the tag doubles as the request id
    /// and the per-query facts default to zero.
    pub fn local(tag: u64) -> Self {
        Self { tag, request_id: tag, ..Self::default() }
    }
}

/// Record status: the query was served.
pub const STATUS_OK: u64 = 0;
/// Record status: the query was rejected with backpressure
/// (RETRY_AFTER / queue full).
pub const STATUS_REJECTED: u64 = 1;
/// Record status: the request failed with a protocol error.
pub const STATUS_ERROR: u64 = 2;

/// Renders a record status code.
pub fn status_name(code: u64) -> &'static str {
    match code {
        STATUS_OK => "ok",
        STATUS_REJECTED => "rejected",
        STATUS_ERROR => "error",
        _ => "unknown",
    }
}

/// Maps an entry policy onto its stable query-log code. Code 0 is no
/// policy: the record of a refused request, which never searched.
pub fn entry_policy_code(policy: &algas_graph::EntryPolicy) -> u32 {
    use algas_graph::EntryPolicy;
    match policy {
        EntryPolicy::Medoid => 1,
        EntryPolicy::Hashed { .. } => 2,
        EntryPolicy::HashTable => 3,
    }
}

/// Renders an entry policy code (the inverse of [`entry_policy_code`]).
pub fn entry_policy_name(code: u32) -> &'static str {
    match code {
        0 => "none",
        1 => "medoid",
        2 => "hashed",
        3 => "hash_table",
        _ => "unknown",
    }
}

/// One wide-event record, as the fixed word layout the ring carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QlogRecord {
    /// Wire request id (tag for local submits).
    pub request_id: u64,
    /// Runtime tag.
    pub tag: u64,
    /// Connection id (0 = local).
    pub conn_id: u64,
    /// Client-send timestamp (µs, client clock; 0 when absent).
    pub client_ts_us: u64,
    /// submit → slot span (queue wait), ns.
    pub queue_ns: u64,
    /// slot → work-start span, ns.
    pub dispatch_ns: u64,
    /// work-start → finish span (the search), ns.
    pub search_ns: u64,
    /// finish → merged span, ns.
    pub merge_ns: u64,
    /// merged → delivered span, ns.
    pub deliver_ns: u64,
    /// submit → delivered, ns.
    pub e2e_ns: u64,
    /// Slot that carried the query.
    pub slot: u64,
    /// Worker that searched and delivered it.
    pub worker: u64,
    /// CTA search steps (summed over CTAs).
    pub hops: u64,
    /// SLO controller rung at delivery.
    pub slo_level: u64,
    /// Exact-rerank pool depth at delivery.
    pub rerank_depth: u64,
    /// Entry policy code ([`entry_policy_name`]).
    pub entry_code: u64,
    /// [`STATUS_OK`] / [`STATUS_REJECTED`] / [`STATUS_ERROR`].
    pub status: u64,
}

impl QlogRecord {
    /// Renders the record as one JSON object (one query-log line).
    pub fn to_json_value(&self) -> Value {
        obj(vec![
            ("request_id", Value::Uint(self.request_id)),
            ("tag", Value::Uint(self.tag)),
            ("conn", Value::Uint(self.conn_id)),
            ("client_ts_us", Value::Uint(self.client_ts_us)),
            ("status", Value::Str(status_name(self.status).to_string())),
            ("queue_ns", Value::Uint(self.queue_ns)),
            ("dispatch_ns", Value::Uint(self.dispatch_ns)),
            ("search_ns", Value::Uint(self.search_ns)),
            ("merge_ns", Value::Uint(self.merge_ns)),
            ("deliver_ns", Value::Uint(self.deliver_ns)),
            ("e2e_ns", Value::Uint(self.e2e_ns)),
            ("slot", Value::Uint(self.slot)),
            ("worker", Value::Uint(self.worker)),
            ("hops", Value::Uint(self.hops)),
            ("entry", Value::Str(entry_policy_name(self.entry_code as u32).to_string())),
            ("slo_level", Value::Uint(self.slo_level)),
            ("rerank_depth", Value::Uint(self.rerank_depth)),
        ])
    }
}

#[cfg(feature = "obs")]
pub use enabled::QueryLog;

#[cfg(feature = "obs")]
mod enabled {
    use super::{QlogConfig, QlogRecord, QlogTotals, STATUS_OK};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Words per ring cell; one fixed-width slot per record field.
    const WORDS: usize = 17;

    /// Ring cells between the serving threads and the drainer (a power
    /// of two).
    pub(super) const RING_CAPACITY: usize = 1024;
    /// Rendered JSON lines kept for `/query-log` (oldest evicted).
    pub(super) const RETAIN: usize = 1024;

    /// The fixed word layout the ring carries a record in.
    impl QlogRecord {
        pub(super) fn to_words(self) -> [u64; WORDS] {
            [
                self.request_id,
                self.tag,
                self.conn_id,
                self.client_ts_us,
                self.queue_ns,
                self.dispatch_ns,
                self.search_ns,
                self.merge_ns,
                self.deliver_ns,
                self.e2e_ns,
                self.slot,
                self.worker,
                self.hops,
                self.slo_level,
                self.rerank_depth,
                self.entry_code,
                self.status,
            ]
        }

        pub(super) fn from_words(w: &[u64; WORDS]) -> Self {
            Self {
                request_id: w[0],
                tag: w[1],
                conn_id: w[2],
                client_ts_us: w[3],
                queue_ns: w[4],
                dispatch_ns: w[5],
                search_ns: w[6],
                merge_ns: w[7],
                deliver_ns: w[8],
                e2e_ns: w[9],
                slot: w[10],
                worker: w[11],
                hops: w[12],
                slo_level: w[13],
                rerank_depth: w[14],
                entry_code: w[15],
                status: w[16],
            }
        }
    }

    /// One ring cell: a sequence word (Vyukov protocol) plus the
    /// record's fixed word layout. `seq == index` means free for the
    /// producer at `index`; `seq == index + 1` means published.
    struct Cell {
        seq: AtomicU64,
        words: [AtomicU64; WORDS],
    }

    /// Drainer-side state: the consume cursor plus the bounded
    /// retention buffer of rendered lines. One mutex guards both, so
    /// concurrent drains (writer thread + `/query-log` scrape) see each
    /// record exactly once.
    struct DrainState {
        dequeue_pos: u64,
        /// Rendered lines; the front's global index is
        /// `total - lines.len()`.
        lines: VecDeque<String>,
        /// Lines ever drained (monotone; feeds [`lines_since`] cursors).
        total: u64,
    }

    /// The wide-event query log: lock-free record ring + retention.
    pub struct QueryLog {
        cfg: QlogConfig,
        mask: u64,
        cells: Box<[Cell]>,
        enqueue_pos: AtomicU64,
        /// Completions examined (drives 1-in-N sampling).
        seen: AtomicU64,
        logged: AtomicU64,
        dropped: AtomicU64,
        drain: Mutex<DrainState>,
    }

    impl QueryLog {
        /// Allocates the ring (startup only; logging never allocates).
        pub fn new(cfg: QlogConfig) -> Self {
            // A disabled log still constructs (the runtime owns one
            // unconditionally) but keeps the ring minimal.
            let capacity = if cfg.enabled { RING_CAPACITY } else { 8 };
            let cells = (0..capacity as u64)
                .map(|i| Cell {
                    seq: AtomicU64::new(i),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect();
            Self {
                cfg,
                mask: capacity as u64 - 1,
                cells,
                enqueue_pos: AtomicU64::new(0),
                seen: AtomicU64::new(0),
                logged: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                drain: Mutex::new(DrainState { dequeue_pos: 0, lines: VecDeque::new(), total: 0 }),
            }
        }

        /// Logs one record if the policy selects it: non-ok statuses
        /// always log; ok completions log every `sample_every`th.
        /// Lock-free and allocation-free (the whole point).
        #[inline]
        pub fn log(&self, r: &QlogRecord) {
            if !self.cfg.enabled {
                return;
            }
            let n = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
            let sampled = self.cfg.sample_every > 0 && n.is_multiple_of(self.cfg.sample_every);
            if r.status == STATUS_OK && !sampled {
                return;
            }
            if self.push(&r.to_words()) {
                self.logged.fetch_add(1, Ordering::Relaxed);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Vyukov-style bounded enqueue: claim a cell by CAS on the
        /// enqueue cursor, write the words, publish with a release
        /// store on the cell's sequence. Returns false (drop) when the
        /// ring is full of unconsumed records.
        fn push(&self, words: &[u64; WORDS]) -> bool {
            let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
            loop {
                let cell = &self.cells[(pos & self.mask) as usize];
                let seq = cell.seq.load(Ordering::Acquire);
                if seq == pos {
                    match self.enqueue_pos.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            for (cell_word, &v) in cell.words.iter().zip(words) {
                                cell_word.store(v, Ordering::Relaxed);
                            }
                            cell.seq.store(pos + 1, Ordering::Release);
                            return true;
                        }
                        Err(p) => pos = p,
                    }
                } else if seq < pos {
                    // The cell still holds an unconsumed (or mid-write)
                    // record a full ring ago: drop, don't wait.
                    return false;
                } else {
                    pos = self.enqueue_pos.load(Ordering::Relaxed);
                }
            }
        }

        /// Drains every published record into the retention buffer as
        /// rendered JSON lines; returns how many were drained. Called
        /// off the serving path (writer thread, `/query-log`, tests);
        /// allocates freely.
        pub fn drain(&self) -> usize {
            let mut st = crate::lock(&self.drain);
            let mut drained = 0usize;
            loop {
                let pos = st.dequeue_pos;
                let cell = &self.cells[(pos & self.mask) as usize];
                if cell.seq.load(Ordering::Acquire) != pos + 1 {
                    break;
                }
                let mut words = [0u64; WORDS];
                for (dst, src) in words.iter_mut().zip(cell.words.iter()) {
                    *dst = src.load(Ordering::Relaxed);
                }
                // Free the cell for the producer one lap ahead.
                cell.seq.store(pos + self.mask + 1, Ordering::Release);
                st.dequeue_pos = pos + 1;
                let line = QlogRecord::from_words(&words).to_json_value().render();
                if st.lines.len() >= RETAIN {
                    st.lines.pop_front();
                }
                st.lines.push_back(line);
                st.total += 1;
                drained += 1;
            }
            drained
        }

        /// The retained lines, oldest first (the `/query-log` body is
        /// these joined with newlines). Drain first for freshness.
        pub fn lines(&self) -> Vec<String> {
            crate::lock(&self.drain).lines.iter().cloned().collect()
        }

        /// Retained lines with global index `>= cursor`, plus the new
        /// cursor — the file-writer thread's tailing interface. Lines
        /// evicted from retention before being read are lost (the
        /// drop counter still saw them into the ring).
        pub fn lines_since(&self, cursor: u64) -> (Vec<String>, u64) {
            let st = crate::lock(&self.drain);
            let front = st.total - st.lines.len() as u64;
            let skip = cursor.saturating_sub(front) as usize;
            (st.lines.iter().skip(skip).cloned().collect(), st.total)
        }

        /// Log totals for the serving snapshot.
        pub fn totals(&self) -> QlogTotals {
            QlogTotals {
                logged: self.logged.load(Ordering::Relaxed),
                dropped: self.dropped.load(Ordering::Relaxed),
                drained: crate::lock(&self.drain).total,
            }
        }
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::enabled::{RETAIN, RING_CAPACITY};
    use super::*;

    fn cfg_all() -> QlogConfig {
        QlogConfig { enabled: true, sample_every: 1 }
    }

    fn rec(request_id: u64, e2e_ns: u64) -> QlogRecord {
        QlogRecord {
            request_id,
            tag: request_id + 100,
            conn_id: 3,
            client_ts_us: 42,
            queue_ns: 10,
            dispatch_ns: 20,
            search_ns: 500,
            merge_ns: 30,
            deliver_ns: 5,
            e2e_ns,
            slot: 1,
            worker: 0,
            hops: 17,
            slo_level: 2,
            rerank_depth: 24,
            entry_code: 2,
            status: STATUS_OK,
        }
    }

    #[test]
    fn record_roundtrips_through_words_and_json() {
        let r = rec(9, 565);
        assert_eq!(QlogRecord::from_words(&r.to_words()), r);
        let doc = Value::parse(&r.to_json_value().render()).unwrap();
        assert_eq!(doc.get("request_id").unwrap().as_u64(), Some(9));
        assert_eq!(doc.get("conn").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("entry").unwrap().as_str(), Some("hashed"));
        assert_eq!(doc.get("hops").unwrap().as_u64(), Some(17));
        assert_eq!(doc.get("slo_level").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("e2e_ns").unwrap().as_u64(), Some(565));
    }

    #[test]
    fn logs_drain_in_order_as_json_lines() {
        let log = QueryLog::new(cfg_all());
        for i in 0..5 {
            log.log(&rec(i, 100 + i));
        }
        assert_eq!(log.drain(), 5);
        let lines = log.lines();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let doc = Value::parse(line).expect("every line parses");
            assert_eq!(doc.get("request_id").unwrap().as_u64(), Some(i as u64));
        }
        let t = log.totals();
        assert_eq!((t.logged, t.dropped, t.drained), (5, 0, 5));
    }

    #[test]
    fn sampling_selects_ok_records_and_refusals_always_log() {
        let log = QueryLog::new(QlogConfig { enabled: true, sample_every: 3 });
        // 10 ok queries, however slow: every 3rd samples. One
        // rejected: always.
        for i in 1..=9u64 {
            log.log(&rec(i, 10));
        }
        log.log(&rec(100, 5_000));
        log.log(&QlogRecord { request_id: 200, status: STATUS_REJECTED, ..Default::default() });
        log.drain();
        let lines = log.lines();
        let ids: Vec<u64> = lines
            .iter()
            .map(|l| Value::parse(l).unwrap().get("request_id").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ids, vec![3, 6, 9, 200]);
        let rejected = Value::parse(lines.last().unwrap()).unwrap();
        assert_eq!(rejected.get("status").unwrap().as_str(), Some("rejected"));
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let log = QueryLog::new(cfg_all());
        for i in 0..RING_CAPACITY as u64 + 12 {
            log.log(&rec(i, 50));
        }
        let t = log.totals();
        assert_eq!(t.logged, RING_CAPACITY as u64, "ring holds exactly its capacity");
        assert_eq!(t.dropped, 12, "overflow is counted, not blocked on");
        assert_eq!(log.drain(), RING_CAPACITY);
        // The ring is free again after draining.
        log.log(&rec(99, 50));
        assert_eq!(log.drain(), 1);
    }

    #[test]
    fn retention_bounds_lines_and_cursor_tails() {
        let log = QueryLog::new(cfg_all());
        for i in 0..3 {
            log.log(&rec(i, 50));
        }
        log.drain();
        let (first, cursor) = log.lines_since(0);
        assert_eq!(first.len(), 3);
        assert_eq!(cursor, 3);
        // Six lines past the retention bound, drained in two batches so
        // the ring never overflows.
        let end = RETAIN as u64 + 6;
        for batch in [3..RETAIN as u64, RETAIN as u64..end] {
            for i in batch {
                log.log(&rec(i, 50));
            }
            log.drain();
        }
        assert_eq!(log.lines().len(), RETAIN, "retention is bounded");
        // The cursor resumes where it left off; lines evicted before
        // the read are gone (3..6 were evicted).
        let (rest, cursor) = log.lines_since(cursor);
        assert_eq!(cursor, end);
        let ids: Vec<u64> = rest
            .iter()
            .map(|l| Value::parse(l).unwrap().get("request_id").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(ids, (6..end).collect::<Vec<_>>());
    }

    #[test]
    fn disabled_log_ignores_everything() {
        let log = QueryLog::new(QlogConfig::default());
        log.log(&rec(1, u64::MAX));
        assert_eq!(log.drain(), 0);
        assert!(log.lines().is_empty());
        assert_eq!(log.totals(), QlogTotals::default());
    }

    #[test]
    fn concurrent_writers_lose_nothing_with_room() {
        let log = std::sync::Arc::new(QueryLog::new(cfg_all()));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = std::sync::Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..256u64 {
                        log.log(&rec(t * 1_000 + i, 50));
                    }
                });
            }
        });
        assert_eq!(4 * 256, RING_CAPACITY, "exactly a ringful");
        assert_eq!(log.drain(), 4 * 256);
        let t = log.totals();
        assert_eq!((t.logged, t.dropped), (1024, 0));
    }

    #[test]
    fn names_cover_codes() {
        assert_eq!(status_name(STATUS_OK), "ok");
        assert_eq!(status_name(STATUS_REJECTED), "rejected");
        assert_eq!(status_name(STATUS_ERROR), "error");
        assert_eq!(status_name(99), "unknown");
        for code in 0..4 {
            assert_ne!(entry_policy_name(code), "unknown");
        }
        assert_eq!(entry_policy_code(&algas_graph::EntryPolicy::Medoid), 1);
        assert_eq!(
            entry_policy_name(entry_policy_code(&algas_graph::EntryPolicy::HashTable)),
            "hash_table"
        );
    }
}
