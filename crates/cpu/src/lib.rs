//! A trace-driven out-of-order core timing model.
//!
//! The paper evaluates L-NUCA on an extended SimpleScalar/Alpha out-of-order
//! processor (Table I: 4-wide fetch/issue/commit, 128-entry ROB, 64-entry
//! LSQ, 32/24/16-entry INT/FP/MEM issue windows, 48-entry store buffer,
//! bimodal + gshare predictor, 8-cycle misprediction penalty). SimpleScalar
//! itself is a C simulator that cannot be reused here, so this crate rebuilds
//! the pieces of it that the evaluation depends on: the ability (limited by
//! ROB/issue-window/MSHR capacity and branch mispredictions) to overlap cache
//! misses with useful work, which is what turns cache-hit latency into IPC.
//!
//! * [`CoreConfig`] — the Table I core parameters,
//! * [`HybridPredictor`] — the bimodal + gshare branch predictor,
//! * [`DataMemory`] — the interface the core uses to talk to any memory
//!   hierarchy (implemented by `lnuca-sim`'s hierarchies and by the simple
//!   [`FixedLatencyMemory`] used in tests),
//! * [`OooCore`] — the pipeline model itself.
//!
//! # Example
//!
//! ```
//! use lnuca_cpu::{CoreConfig, DataMemory, FixedLatencyMemory, OooCore};
//! use lnuca_types::Cycle;
//! use lnuca_workloads::{TraceGenerator, WorkloadProfile};
//!
//! let trace = TraceGenerator::new(WorkloadProfile::default(), 1).take(10_000);
//! let mut core = OooCore::new(CoreConfig::paper(), trace)?;
//! let mut memory = FixedLatencyMemory::new(4);
//! let mut now = Cycle(0);
//! while !core.is_finished() {
//!     memory.tick(now);
//!     core.tick(now, &mut memory);
//!     now = now.next();
//! }
//! assert!(core.stats().ipc(now) > 0.1);
//! # Ok::<(), lnuca_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod memory;
pub mod predictor;

pub use crate::core::{CoreStats, OooCore};
pub use config::CoreConfig;
pub use memory::{CompletionQueue, DataMemory, FixedLatencyMemory};
pub use predictor::HybridPredictor;
