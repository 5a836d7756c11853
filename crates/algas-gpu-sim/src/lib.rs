//! # algas-gpu-sim
//!
//! A deterministic, discrete-event **GPU cost-model simulator** — the
//! hardware substrate of the ALGAS reproduction (see DESIGN.md §2 for
//! why a simulator substitutes for the paper's RTX A6000).
//!
//! The crate models exactly the resources the paper's design reasons
//! about:
//!
//! * [`device::DeviceProps`] — SM count, block residency limits, shared
//!   memory capacities (Table II), and the clock that converts cycles
//!   to nanoseconds.
//! * [`cost::CostModel`] — per-operation cycle costs: warp-parallel
//!   distance evaluation, bitonic sort/merge stages, visited-bitmap
//!   filtering, cross-CTA GPU merging, persistent-kernel polling; and
//!   [`cost::HostCostModel`], the host's price for the TopK merge.
//! * [`occupancy`] — the §IV-C constraint system
//!   (`N_parallel·slot ≤ N_SM·N_max_block_per_SM`, shared-memory
//!   budgets) and the adaptive tuner ([`occupancy::tune`]) that solves
//!   it for the largest resident `N_parallel`.
//! * [`pcie`] — a shared FIFO PCIe link with per-transaction overhead,
//!   the resource the §V-A state optimization conserves.
//! * [`engine`] — the deterministic event queue and the residency-wave
//!   block scheduler.
//! * [`sched`] — the two batching disciplines: classic
//!   [`sched::static_batch`] (with its query bubble) and ALGAS
//!   [`sched::dynamic`] slots on a persistent kernel.
//!
//! Search algorithms run **functionally** elsewhere (`algas-core`,
//! `algas-baselines`); `algas-baselines` packs the cycles they charged
//! into timed work ([`work::QueryWork`]) for this crate. Everything
//! here is replayable and fully deterministic.

pub mod arrivals;
pub mod cost;
pub mod device;
pub mod engine;
pub mod occupancy;
pub mod pcie;
pub mod sched;
pub mod work;

pub use arrivals::ArrivalProcess;
pub use cost::{CostModel, HostCostModel};
pub use device::DeviceProps;
pub use occupancy::{tune, TuningError, TuningInput, TuningPlan};
pub use pcie::{PcieBus, PcieModel};
pub use sched::dynamic::{run_dynamic, DynamicConfig, StateMode};
pub use sched::partitioned::{run_partitioned, PartitionedConfig};
pub use sched::static_batch::{run_static, StaticBatchConfig};
pub use sched::{MergePlacement, QueryTiming, SimReport};
pub use work::{CtaWork, QueryWork};
