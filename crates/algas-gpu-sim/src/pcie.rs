//! PCIe interconnect model.
//!
//! §V-A identifies host↔GPU state traffic as an I/O bottleneck: the host
//! polls slot states with a storm of tiny transactions that contend with
//! query/result transfers. The model here is a single shared bus (one
//! PCIe link) on which every transaction pays a fixed per-transaction
//! overhead plus a bandwidth term, and transactions serialize in FIFO
//! order — exactly the arithmetic the paper's GDRcopy optimization
//! exploits (local polling = zero bus transactions; one write per actual
//! state change).

/// Latency/bandwidth parameters of the link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcieModel {
    /// Fixed cost per transaction in ns (DMA setup / MMIO round trip).
    pub transaction_overhead_ns: u64,
    /// Sustained bandwidth in bytes per ns (PCIe 4.0 x16 ≈ 25 GB/s
    /// effective ≈ 25 B/ns).
    pub bytes_per_ns: f64,
    /// Extra cost of a host-initiated *read* of device memory in ns
    /// (non-posted request: the host stalls for the completion).
    pub read_round_trip_ns: u64,
}

impl Default for PcieModel {
    fn default() -> Self {
        Self { transaction_overhead_ns: 400, bytes_per_ns: 25.0, read_round_trip_ns: 800 }
    }
}

impl PcieModel {
    /// Duration of a posted write of `bytes` (host→GPU or GPU→host DMA).
    pub fn write_ns(&self, bytes: u64) -> u64 {
        self.transaction_overhead_ns + (bytes as f64 / self.bytes_per_ns).ceil() as u64
    }

    /// Duration of a host-initiated read of `bytes` from device memory.
    pub fn read_ns(&self, bytes: u64) -> u64 {
        self.transaction_overhead_ns
            + self.read_round_trip_ns
            + (bytes as f64 / self.bytes_per_ns).ceil() as u64
    }
}

/// The shared link as a FIFO resource in the event simulation.
///
/// `acquire` reserves the bus for a transaction starting no earlier than
/// `now`, returning `(start, end)`. Deterministic: callers are serviced
/// in call order, which the simulators keep globally time-ordered.
#[derive(Clone, Debug, Default)]
pub struct PcieBus {
    free_at: u64,
    /// Total busy ns (for utilization reporting).
    busy_ns: u64,
    /// Number of transactions carried.
    transactions: u64,
}

impl PcieBus {
    /// Creates an idle bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupies the bus for `duration_ns` starting at
    /// `max(now, bus free)`; returns the transaction's `(start, end)`.
    pub fn acquire(&mut self, now: u64, duration_ns: u64) -> (u64, u64) {
        let start = self.free_at.max(now);
        let end = start + duration_ns;
        self.free_at = end;
        self.busy_ns += duration_ns;
        self.transactions += 1;
        (start, end)
    }

    /// Earliest time a new transaction could start.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Total bus-busy nanoseconds so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Number of transactions carried so far.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cost_has_overhead_plus_bandwidth() {
        let p = PcieModel::default();
        assert_eq!(p.write_ns(0), 400);
        assert_eq!(p.write_ns(25_000), 400 + 1000);
    }

    #[test]
    fn reads_cost_more_than_writes() {
        let p = PcieModel::default();
        assert!(p.read_ns(4) > p.write_ns(4));
    }

    #[test]
    fn bus_serializes_contending_transactions() {
        let mut bus = PcieBus::new();
        let (s1, e1) = bus.acquire(0, 100);
        let (s2, e2) = bus.acquire(50, 100); // arrives while busy
        let (s3, e3) = bus.acquire(500, 10); // arrives after idle gap
        assert_eq!((s1, e1), (0, 100));
        assert_eq!((s2, e2), (100, 200)); // queued behind first
        assert_eq!((s3, e3), (500, 510)); // bus was idle
        assert_eq!(bus.busy_ns(), 210);
        assert_eq!(bus.transactions(), 3);
    }

    #[test]
    fn polling_traffic_dwarfs_state_copy_traffic() {
        // The §V-A arithmetic: 1000 polls of a 4-byte state cost far
        // more bus time than the handful of actual state transitions.
        let p = PcieModel::default();
        let poll_traffic = 1000 * p.read_ns(4);
        let copy_traffic = 4 * p.write_ns(4); // 4 transitions
        assert!(poll_traffic > 100 * copy_traffic);
    }
}
