//! An open-loop load generator for the query protocol, behind
//! `algas bench-net`.
//!
//! *Open-loop* is the property that matters: requests are sent on a
//! precomputed arrival schedule regardless of whether earlier replies
//! have come back, so a slow server faces a growing backlog exactly
//! like it would from independent real-world clients — closed-loop
//! drivers (send, wait, send) self-throttle and hide queueing collapse
//! ("coordinated omission"). Arrivals are seeded Poisson draws from
//! [`algas_gpu_sim::ArrivalProcess`], so a fixed seed reproduces the
//! identical schedule.
//!
//! Per connection, a **sender** thread walks the schedule and a
//! **receiver** thread drains replies (requests stay pipelined; the
//! server may answer out of order). Client-side latency is
//! send-to-reply per request id; RETRY_AFTER replies count as
//! `rejected` and contribute *no* latency sample — the whole point of
//! backpressure is that rejected work doesn't smear the served-work
//! tail. The warm-up prefix of the schedule is excluded from the
//! latency histogram and SLO attainment ([`warmup_len`],
//! [`attainment_fraction`]).

use std::io;
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use algas_core::net::client::{NetClient, Reply};
use algas_core::obs::{Histogram, HistogramSnapshot};
use algas_gpu_sim::ArrivalProcess;

/// Load-generator parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Mean Poisson arrival rate, queries/second.
    pub target_qps: f64,
    /// Total requests across all connections.
    pub requests: usize,
    /// TCP connections driven concurrently (each pipelines).
    pub connections: usize,
    /// Seed for the arrival schedule.
    pub seed: u64,
    /// Leading fraction of requests excluded from latency/attainment.
    pub warmup_fraction: f64,
    /// Client-side latency SLO for attainment reporting.
    pub slo: Option<Duration>,
    /// Receiver safety timeout per blocking read.
    pub recv_timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            target_qps: 1000.0,
            requests: 1000,
            connections: 1,
            seed: 42,
            warmup_fraction: 0.2,
            slo: None,
            recv_timeout: Duration::from_secs(10),
        }
    }
}

/// What an open-loop run measured (client side).
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Requests actually sent.
    pub offered: usize,
    /// RESULT replies received (including warm-up).
    pub completed: usize,
    /// RETRY_AFTER replies (backpressure; no latency samples).
    pub rejected: usize,
    /// Error replies, transport errors, and receiver timeouts.
    pub errors: usize,
    /// Post-warm-up RESULT latency samples.
    pub measured: usize,
    /// First send to last reply.
    pub elapsed: Duration,
    /// `completed / elapsed`.
    pub achieved_qps: f64,
    /// Post-warm-up client-side latency (send → RESULT), ns buckets.
    pub latency: HistogramSnapshot,
    /// Fraction of measured samples within the SLO (1.0 when no SLO).
    pub attainment: f64,
    /// The slowest post-warm-up request as `(request_id, latency_ns)`;
    /// `None` when nothing was measured. Requests are sent with
    /// `FLAG_CLIENT_TS`, so this id resolves server-side: grep it in
    /// `/traces` and `/query-log`.
    pub slowest: Option<(u64, u64)>,
}

/// The seeded Poisson arrival schedule the generator replays:
/// non-decreasing ns offsets from the run's epoch. Fixed
/// `(qps, n, seed)` ⇒ identical schedule.
///
/// # Panics
/// Panics on a non-positive rate.
pub fn poisson_schedule(target_qps: f64, n: usize, seed: u64) -> Vec<u64> {
    ArrivalProcess::Poisson { rate_qps: target_qps, seed }.generate(n)
}

/// How many leading requests the warm-up excludes: `⌊total·fraction⌋`,
/// clamped so at least one request is measured when any exist.
pub fn warmup_len(total: usize, warmup_fraction: f64) -> usize {
    if total == 0 {
        return 0;
    }
    let frac = warmup_fraction.clamp(0.0, 1.0);
    (((total as f64) * frac) as usize).min(total - 1)
}

/// Fraction of latency samples within the SLO. Empty input is
/// vacuously attained (1.0) — "no measured traffic missed".
pub fn attainment_fraction(latencies_ns: &[u64], slo_ns: u64) -> f64 {
    if latencies_ns.is_empty() {
        return 1.0;
    }
    let ok = latencies_ns.iter().filter(|&&l| l <= slo_ns).count();
    ok as f64 / latencies_ns.len() as f64
}

/// Runs one open-loop session against `addr`. Request `i` (global
/// schedule order, also its wire request id) sends
/// `queries[i % queries.len()]` on connection `i % connections`.
///
/// # Errors
/// Propagates connect failures; per-request transport errors after
/// that are counted in [`LoadReport::errors`], not returned.
///
/// # Panics
/// Panics if `queries` is empty or any config count is zero.
pub fn run_load(
    addr: impl ToSocketAddrs,
    queries: &[Vec<f32>],
    cfg: &LoadConfig,
) -> io::Result<LoadReport> {
    assert!(!queries.is_empty(), "need at least one query vector");
    assert!(cfg.requests > 0 && cfg.connections > 0, "requests/connections must be nonzero");
    let schedule = poisson_schedule(cfg.target_qps, cfg.requests, cfg.seed);
    let warmup = warmup_len(cfg.requests, cfg.warmup_fraction);

    // Send timestamps indexed by request id, as ns offsets from a
    // shared epoch (0 = not yet sent); lock-free hand-off from sender
    // to receiver threads.
    let sent_at: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.requests).map(|_| AtomicU64::new(0)).collect());

    // Connect everything up front so the epoch starts with sockets
    // established.
    let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let mut pairs = Vec::with_capacity(cfg.connections);
    for _ in 0..cfg.connections {
        let client = NetClient::connect(addr)?;
        client.set_read_timeout(Some(cfg.recv_timeout))?;
        let reader = NetClient::from_stream(client.try_clone_stream()?);
        pairs.push((client, reader));
    }

    let epoch = Instant::now();
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for (conn_idx, (mut writer, mut reader)) in pairs.into_iter().enumerate() {
        let my_ids: Vec<usize> =
            (0..cfg.requests).filter(|i| i % cfg.connections == conn_idx).collect();
        let expected = my_ids.len();

        let send_ids = my_ids.clone();
        let send_schedule: Vec<u64> = send_ids.iter().map(|&i| schedule[i]).collect();
        let send_queries: Vec<Vec<f32>> =
            send_ids.iter().map(|&i| queries[i % queries.len()].clone()).collect();
        let send_stamp = Arc::clone(&sent_at);
        senders.push(std::thread::spawn(move || -> usize {
            let mut sent = 0;
            for ((i, at_ns), query) in send_ids.iter().zip(send_schedule).zip(send_queries) {
                let at = Duration::from_nanos(at_ns);
                // Open loop: pace off the epoch, never off replies.
                let now = epoch.elapsed();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let now = epoch.elapsed();
                send_stamp[*i].store(now.as_nanos().max(1) as u64, Ordering::Release);
                // The send stamp also rides the wire (µs) so the
                // server's query log can attribute wire-transit delay.
                if writer.send_search_ts(*i as u64, &query, now.as_micros() as u64).is_err() {
                    break;
                }
                sent += 1;
            }
            sent
        }));

        let recv_stamp = Arc::clone(&sent_at);
        receivers.push(std::thread::spawn(move || {
            RecvTally::collect(&mut reader, expected, epoch, &recv_stamp, warmup)
        }));
    }

    let offered: usize = senders.into_iter().map(|h| h.join().unwrap_or(0)).sum();
    let mut tally = RecvTally::default();
    for h in receivers {
        tally.merge(h.join().unwrap_or_default());
    }
    let elapsed =
        if tally.last_reply_at > Duration::ZERO { tally.last_reply_at } else { epoch.elapsed() };

    let hist = Histogram::new();
    for &l in &tally.latencies_ns {
        hist.record(l);
    }
    let attainment = match cfg.slo {
        Some(slo) => attainment_fraction(&tally.latencies_ns, slo.as_nanos() as u64),
        None => 1.0,
    };
    Ok(LoadReport {
        offered,
        completed: tally.completed,
        rejected: tally.rejected,
        errors: tally.errors,
        measured: tally.latencies_ns.len(),
        elapsed,
        achieved_qps: tally.completed as f64 / elapsed.as_secs_f64().max(1e-9),
        latency: hist.snapshot(),
        attainment,
        slowest: tally.slowest,
    })
}

#[derive(Default)]
struct RecvTally {
    completed: usize,
    rejected: usize,
    errors: usize,
    latencies_ns: Vec<u64>,
    last_reply_at: Duration,
    /// Slowest post-warm-up `(request_id, latency_ns)` on this
    /// connection.
    slowest: Option<(u64, u64)>,
}

impl RecvTally {
    fn collect(
        reader: &mut NetClient,
        expected: usize,
        epoch: Instant,
        sent_at: &[AtomicU64],
        warmup: usize,
    ) -> RecvTally {
        let mut t = RecvTally::default();
        for _ in 0..expected {
            match reader.recv() {
                Ok(Reply::Result { request_id, .. }) => {
                    let now_ns = epoch.elapsed().as_nanos() as u64;
                    t.completed += 1;
                    t.last_reply_at = epoch.elapsed();
                    let i = request_id as usize;
                    let sent = sent_at.get(i).map_or(0, |a| a.load(Ordering::Acquire));
                    if sent > 0 && i >= warmup {
                        let l = now_ns.saturating_sub(sent).max(1);
                        t.latencies_ns.push(l);
                        if t.slowest.is_none_or(|(_, worst)| l > worst) {
                            t.slowest = Some((request_id, l));
                        }
                    }
                }
                Ok(Reply::RetryAfter { .. }) => t.rejected += 1,
                Ok(_) => t.errors += 1,
                Err(_) => {
                    // Timeout or transport failure: everything still
                    // owed on this connection is unaccounted.
                    t.errors += 1;
                    break;
                }
            }
        }
        t
    }

    fn merge(&mut self, other: RecvTally) {
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.errors += other.errors;
        self.latencies_ns.extend(other.latencies_ns);
        self.last_reply_at = self.last_reply_at.max(other.last_reply_at);
        if let Some((id, l)) = other.slowest {
            if self.slowest.is_none_or(|(_, worst)| l > worst) {
                self.slowest = Some((id, l));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_reproduces_the_schedule() {
        let a = poisson_schedule(50_000.0, 512, 7);
        let b = poisson_schedule(50_000.0, 512, 7);
        assert_eq!(a, b, "same seed must replay the identical arrival schedule");
        let c = poisson_schedule(50_000.0, 512, 8);
        assert_ne!(a, c, "a different seed must change the schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are non-decreasing");
    }

    #[test]
    fn warmup_len_excludes_the_leading_fraction() {
        assert_eq!(warmup_len(100, 0.2), 20);
        assert_eq!(warmup_len(10, 0.5), 5);
        assert_eq!(warmup_len(0, 0.5), 0);
        // At least one request stays measured.
        assert_eq!(warmup_len(4, 1.0), 3);
        assert_eq!(warmup_len(1, 0.99), 0);
        // Fraction is clamped, not trusted.
        assert_eq!(warmup_len(100, -3.0), 0);
        assert_eq!(warmup_len(100, 7.0), 99);
    }

    #[test]
    fn attainment_counts_inclusive_and_handles_empty() {
        assert_eq!(attainment_fraction(&[], 100), 1.0);
        assert_eq!(attainment_fraction(&[50, 100, 150, 200], 100), 0.5);
        assert_eq!(attainment_fraction(&[1, 2, 3], 3), 1.0);
        assert_eq!(attainment_fraction(&[10], 9), 0.0);
    }
}
