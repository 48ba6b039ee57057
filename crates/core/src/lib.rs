//! RPU system composition, design-space exploration and the paper's
//! experiments.
//!
//! This crate is the top of the reproduction stack: it glues the HBM-CO
//! memory model, the RPU architecture model, the ISA compiler, the
//! event-driven simulator and the GPU baseline into a single API —
//! [`RpuSystem`] — and provides one module per paper figure under
//! [`experiments`], each returning both structured results (for tests
//! and examples) and printable tables (for the `repro` binary).
//!
//! # Examples
//!
//! ```
//! use rpu_core::RpuSystem;
//! use rpu_models::{ModelConfig, Precision};
//!
//! let model = ModelConfig::llama3_8b();
//! let prec = Precision::mxfp4_inference();
//! let sys = RpuSystem::with_optimal_memory(&model, prec, 1, 8192, 64).unwrap();
//! let report = sys.decode_step(&model, 1, 8192).unwrap();
//! // Fast thinking: well under a millisecond per token for 8B.
//! assert!(report.total_time_s < 1e-3);
//! ```

#![warn(missing_docs)]

mod cost;
pub mod deployment;
mod dse;
pub mod engine;
pub mod experiments;
pub mod serving;
mod system;

pub use cost::{system_cost, CostBreakdown, CostModel};
pub use deployment::{Deployment, ReasoningTask, TurnLatency, INTERACTION_THRESHOLD_S};
pub use dse::{optimal_memory, required_bytes_per_core};
pub use serving::{sweep_cost_model, PrefillBackend, RpuCostModel};
pub use system::{BuildError, RpuSystem};
