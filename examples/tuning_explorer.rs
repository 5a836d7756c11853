//! Tuning explorer: walks the §IV-C adaptive-tuning constraint system
//! of the simulated GPU over slot counts and list sizes, printing the
//! feasible region — the tool a user would reach for before deploying
//! ALGAS on a new GPU — then the effort ladder the SLO controller sheds
//! along at runtime. The figures run this tuner for the methods they
//! simulate; the CPU engine keeps no residency to fit.
//!
//! ```text
//! cargo run --release --example tuning_explorer
//! ```

use algas::core::search::BeamParams;
use algas::core::tuning::EffortLadder;
use algas::gpu::occupancy::{device_occupancy, BlockDemand};
use algas::gpu::occupancy::{tune, TuningInput};
use algas::gpu::DeviceProps;

fn main() {
    let device = DeviceProps::rtx_a6000();
    println!(
        "device: {} ({} SMs, {} blocks/SM, {} KiB shared/SM)\n",
        device.name,
        device.num_sms,
        device.max_blocks_per_sm,
        device.shared_mem_per_sm / 1024
    );

    // How N_parallel degrades as slots grow (fixed SIFT-like shape).
    println!("== N_parallel vs slot count (dim 128, L 64) ==");
    println!("{:<8} {:>10} {:>12} {:>16}", "slots", "N_parallel", "blocks/SM", "shmem/block (B)");
    for slots in [1usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        match tune(&TuningInput::new(device, slots, 128, 64, 16)) {
            Ok(plan) => println!(
                "{:<8} {:>10} {:>12} {:>16}",
                slots, plan.n_parallel, plan.blocks_per_sm, plan.shared_mem_per_block
            ),
            Err(e) => println!("{slots:<8} infeasible: {e}"),
        }
    }

    // How the shared-memory constraint bites as L and dim grow.
    println!("\n== feasibility: L × dim at 16 slots ==");
    print!("{:<8}", "L \\ dim");
    let dims = [128usize, 200, 256, 384, 960];
    for d in dims {
        print!("{d:>8}");
    }
    println!();
    for l in [32usize, 64, 128, 256, 512, 1024] {
        print!("{l:<8}");
        for d in dims {
            let cell = match tune(&TuningInput::new(device, 16, d, l, 16)) {
                Ok(plan) => format!("np={}", plan.n_parallel),
                Err(_) => "--".into(),
            };
            print!("{cell:>8}");
        }
        println!();
    }

    // Raw occupancy curve: blocks/SM as a block's shared memory grows.
    println!("\n== occupancy vs per-block shared memory (32 threads) ==");
    for kib in [1usize, 2, 4, 6, 8, 12, 16, 24, 32, 48] {
        let occ =
            device_occupancy(&device, &BlockDemand { threads: 32, shared_mem_bytes: kib * 1024 });
        println!(
            "{:>3} KiB/block → {:>2} blocks/SM, {:>4} resident blocks",
            kib, occ.blocks_per_sm, occ.total_resident_blocks
        );
    }

    println!(
        "\nReading the tables: the persistent kernel needs every slot's CTAs \
         resident simultaneously, so slots × N_parallel ≤ {} here, and the \
         shared-memory budget per block shrinks as residency demand grows — \
         exactly the trade-off §IV-C's formulas encode.",
        device.max_resident_blocks()
    );

    // The static plan fixes the shape; the SLO controller moves along
    // this ladder at runtime — rung 0 is the plan (max recall), each
    // higher rung strictly cheaper.
    let beam = Some(BeamParams { offset_beam: 4, beam_width: 4 });
    let ladder = EffortLadder::build(8, beam, Some(64), 10);
    println!(
        "\n== SLO controller effort ladder (8 CTAs, k=10, rerank 64, beam 4@4) ==\n\
         {:<6} {:>12} {:>12} {:>12} {:>8}",
        "rung", "rerank", "beam_width", "offset_beam", "ctas"
    );
    for (level, s) in ladder.steps().iter().enumerate() {
        println!(
            "{level:<6} {:>12} {:>12} {:>12} {:>8}",
            s.rerank_depth,
            s.beam.map_or(0, |b| b.beam_width),
            s.beam.map_or(0, |b| b.offset_beam),
            s.n_ctas,
        );
    }
    println!(
        "\nServe with `--slo-us <target>` and the controller walks down this \
         ladder whenever the live p99 breaches the target (and back up once \
         it clears), holding tail latency at the highest-recall rung the \
         load allows; its position is exported as `algas_control_level`."
    );
}
