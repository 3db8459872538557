//! Umbrella crate for the Light NUCA (DATE 2009) reproduction workspace.
//!
//! This crate re-exports the public API of every workspace member so that the
//! runnable examples under `examples/` and the integration tests under
//! `tests/` can use a single import root. Library users normally depend on
//! the individual crates (`lnuca-core`, `lnuca-sim`, ...) directly.
//!
//! # Example
//!
//! ```
//! use lnuca_suite::sim::spec::HierarchySpec;
//!
//! let spec = HierarchySpec::lnuca_l3(3)?;
//! assert_eq!(spec.fabric.as_ref().map(|f| f.levels), Some(3));
//! assert_eq!(spec.label(), "LN3-144KB");
//! # Ok::<(), lnuca_suite::types::ConfigError>(())
//! ```

pub use lnuca_coherence as coherence;
pub use lnuca_core as core;
pub use lnuca_cpu as cpu;
pub use lnuca_dnuca as dnuca;
pub use lnuca_energy as energy;
pub use lnuca_mem as mem;
pub use lnuca_noc as noc;
pub use lnuca_sim as sim;
pub use lnuca_types as types;
pub use lnuca_verify as verify;
pub use lnuca_workloads as workloads;
