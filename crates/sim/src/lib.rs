//! Event-driven simulator for the RPU (§VI, Contribution 4).
//!
//! Executes the three per-core instruction streams produced by
//! `rpu-isa` on a model of the reasoning-core microarchitecture: three
//! decoupled pipelines (memory, compute, network) that communicate only
//! through SRAM buffers guarded by pipeline-arbiter valid counters.
//! Data is symbolic — each event carries (tag, size) like the paper's
//! simulator — and rates come from the Fig. 6 table (32 GB/s HBM-CO
//! pseudo-channel per core, 1024-bit stream-decoder bus, 1 TFLOP TMACs,
//! 16 GB/s per-core ring links, ≤10 ns CU hops).
//!
//! The simulator executes one *representative core*; column sharding
//! makes every core's schedule identical (mirrored symmetry), so
//! system-level latency equals the representative core's latency and
//! system energy is the per-core energy scaled by the core count. This
//! is the same single-CU view the paper's Fig. 8 presents.
//!
//! Per-event state is addressed by index, never hashed: the three
//! buffers by [`BufferId`], tags by their number (the compiler
//! allocates them densely from 0), and per-kernel busy time by
//! `KernelKind`'s discriminant. The serving cost model runs one
//! simulation per distinct decode step, so this is its miss cost.
//!
//! Ablation switches reproduce §IX: `coupled_pipelines` inserts a
//! barrier between kernels (no prefetch-ahead), `global_sync` makes
//! every network collective a global barrier.
//!
//! # Examples
//!
//! ```
//! use rpu_isa::{compile_decode_step, ShardPlan};
//! use rpu_models::{ModelConfig, Precision};
//! use rpu_sim::{SimConfig, Simulator};
//! use rpu_hbmco::HbmCoConfig;
//!
//! let plan = ShardPlan::new(64, 16);
//! let prec = Precision::mxfp4_inference();
//! let model = ModelConfig::llama3_8b();
//! let prog = compile_decode_step(&model, prec, 1, 8192, &plan);
//! let sim = Simulator::new(HbmCoConfig::candidate(), prec, plan, SimConfig::default());
//! let report = sim.run(&prog).unwrap();
//! // BS=1 decode saturates the memory pipeline.
//! assert!(report.mem_bw_utilization() > 0.9);
//! ```

#![warn(missing_docs)]

mod buffers;
mod engine;
mod report;

pub use buffers::{BufferId, BufferState, DataflowState};
pub use engine::{SimConfig, SimError, Simulator};
pub use report::{EnergyBuckets, KernelStat, SimReport, Trace};
