//! GPU device properties (Table II of the paper).

/// Static properties of the simulated GPU.
///
/// Field names follow `cudaDeviceProp`; defaults reproduce Table II
/// (NVIDIA RTX A6000). The occupancy math of §IV-C consumes exactly
/// these fields.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceProps {
    /// Marketing name, for report labels.
    pub name: &'static str,
    /// Shared memory per block without opt-in (bytes). Table II: 48 KiB.
    pub shared_mem_per_block: usize,
    /// Shared memory per multiprocessor (bytes). Table II: 100 KiB.
    pub shared_mem_per_sm: usize,
    /// Reserved shared memory per block (bytes). Table II: 1 KiB.
    pub reserved_shared_mem_per_block: usize,
    /// `sharedMemPerBlockOptin` (bytes). Table II: 99 KiB.
    pub shared_mem_per_block_optin: usize,
    /// Number of streaming multiprocessors. Table II: 84.
    pub num_sms: usize,
    /// Maximum resident blocks per SM. Table II: 16.
    pub max_blocks_per_sm: usize,
    /// Maximum threads per block. Table II: 1024.
    pub max_threads_per_block: usize,
    /// Warp size. Table II: 32.
    pub warp_size: usize,
    /// Core clock in GHz (A6000 boost ≈ 1.80, sustained ≈ 1.41).
    pub clock_ghz: f64,
}

impl DeviceProps {
    /// The paper's evaluation GPU (Table II).
    pub fn rtx_a6000() -> Self {
        DeviceProps {
            name: "NVIDIA RTX A6000",
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 100 * 1024,
            reserved_shared_mem_per_block: 1024,
            shared_mem_per_block_optin: 99 * 1024,
            num_sms: 84,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            warp_size: 32,
            clock_ghz: 1.41,
        }
    }

    /// A deliberately tiny device for unit tests (4 SMs, 4 blocks/SM),
    /// so occupancy limits and wave effects trigger at small scales.
    pub fn tiny_test_gpu() -> Self {
        DeviceProps {
            name: "TinyTestGPU",
            shared_mem_per_block: 16 * 1024,
            shared_mem_per_sm: 32 * 1024,
            reserved_shared_mem_per_block: 1024,
            shared_mem_per_block_optin: 31 * 1024,
            num_sms: 4,
            max_blocks_per_sm: 4,
            max_threads_per_block: 256,
            warp_size: 32,
            clock_ghz: 1.0,
        }
    }

    /// Maximum number of simultaneously resident blocks on the whole
    /// device, ignoring shared memory (the §IV-C hard cap
    /// `N_SM · N_max_block_per_SM`).
    pub fn max_resident_blocks(&self) -> usize {
        self.num_sms * self.max_blocks_per_sm
    }

    /// Converts GPU cycles to nanoseconds at this device's clock.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        // ns = cycles / (cycles per ns); round up so work never takes 0 ns.
        ((cycles as f64 / self.clock_ghz).ceil()) as u64
    }

    /// Validates internal consistency (used by config-loading paths).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 || self.max_blocks_per_sm == 0 {
            return Err("device must have SMs and block slots".into());
        }
        if self.warp_size == 0 || self.max_threads_per_block < self.warp_size {
            return Err("threads per block must fit at least one warp".into());
        }
        if self.shared_mem_per_block_optin > self.shared_mem_per_sm {
            return Err("opt-in shared memory cannot exceed per-SM capacity".into());
        }
        if self.clock_ghz <= 0.0 {
            return Err("clock must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a6000_matches_table_ii() {
        let d = DeviceProps::rtx_a6000();
        assert_eq!(d.shared_mem_per_block, 49_152);
        assert_eq!(d.shared_mem_per_sm, 102_400);
        assert_eq!(d.reserved_shared_mem_per_block, 1024);
        assert_eq!(d.shared_mem_per_block_optin, 101_376);
        assert_eq!(d.num_sms, 84);
        assert_eq!(d.max_blocks_per_sm, 16);
        assert_eq!(d.max_threads_per_block, 1024);
        assert_eq!(d.warp_size, 32);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn max_resident_blocks_is_product() {
        assert_eq!(DeviceProps::rtx_a6000().max_resident_blocks(), 84 * 16);
        assert_eq!(DeviceProps::tiny_test_gpu().max_resident_blocks(), 16);
    }

    #[test]
    fn cycles_to_ns_rounds_up() {
        let d = DeviceProps::tiny_test_gpu(); // 1 GHz: 1 cycle = 1 ns
        assert_eq!(d.cycles_to_ns(10), 10);
        let a = DeviceProps::rtx_a6000();
        assert_eq!(a.cycles_to_ns(141), 100);
        assert!(a.cycles_to_ns(1) >= 1);
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut d = DeviceProps::tiny_test_gpu();
        d.num_sms = 0;
        assert!(d.validate().is_err());
        let mut d2 = DeviceProps::tiny_test_gpu();
        d2.shared_mem_per_block_optin = d2.shared_mem_per_sm + 1;
        assert!(d2.validate().is_err());
        let mut d3 = DeviceProps::tiny_test_gpu();
        d3.clock_ghz = 0.0;
        assert!(d3.validate().is_err());
    }
}
