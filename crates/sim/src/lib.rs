//! Full-system simulation and experiment harness for the Light NUCA paper.
//!
//! This crate glues every substrate together: the out-of-order core
//! (`lnuca-cpu`), the conventional caches and DRAM (`lnuca-mem`), the L-NUCA
//! fabric (`lnuca-core`), the D-NUCA baseline (`lnuca-dnuca`), the synthetic
//! workloads (`lnuca-workloads`) and the energy/area models (`lnuca-energy`).
//! It provides:
//!
//! * [`configs`] — the paper's four hierarchy configurations (Fig. 1) with
//!   all Table I parameters as defaults,
//! * [`spec`] — the declarative [`HierarchySpec`]: root cache + optional
//!   L-NUCA fabric + intermediate cache chain + L3/D-NUCA/memory backing,
//!   subsuming all four [`HierarchyKind`] variants and admitting shapes the
//!   closed enum could not express,
//! * [`hierarchy`] — [`ClassicHierarchy`] (fabric-less) and
//!   [`LNucaHierarchy`] (fabric-fronted), both built from specs and
//!   implementing [`lnuca_cpu::DataMemory`],
//! * [`system`] — a [`System`] = core + hierarchy, runnable for a given
//!   instruction budget,
//! * [`energy_model`] — turns run statistics into the stacked-bar energy
//!   accounts of Figs. 4(b) and 5(b),
//! * [`batch`] — the [`BatchRunner`], the one run driver: it runs N
//!   independent simulations one after another; every solo, CMP and
//!   supervised run is a one-member batch,
//! * [`experiments`] — the declarative [`ExperimentPlan`] and the single
//!   [`Study::run`] entry point (the paper studies are the built-in
//!   `paper_*` plans); `ExperimentOptions::batch_size` sets how many
//!   consecutive jobs a worker claims at a time,
//! * [`supervise`] — run supervision (DESIGN.md §14): panic isolation per
//!   job, per-job cycle/livelock/wall-clock watchdogs, bounded
//!   retry, the cooperative [`StopSignal`] behind service cancellation and
//!   drain (DESIGN.md §15), and the deterministic fault-injection seam,
//! * [`journal`] — the crash-safe, content-addressed study journal behind
//!   `lnuca run --journal`/`--resume`,
//! * [`scenario`] — `lnuca-scenario/v1` JSON documents for plans, the
//!   built-in scenario registry and the `lnuca-report/v1` emitter,
//! * [`report`] — plain-text table formatting shared by the bench binaries.
//!
//! # Example
//!
//! ```
//! use lnuca_sim::spec::HierarchySpec;
//! use lnuca_sim::system::System;
//! use lnuca_workloads::suites;
//!
//! // The paper's 2-level L-NUCA in front of the 8 MB L3, as a composed spec.
//! let spec = HierarchySpec::builder()
//!     .fabric(lnuca_core::LNucaConfig::paper(2)?)
//!     .backing_cache(lnuca_sim::configs::paper_l3())
//!     .build()?;
//! let profile = suites::spec_int_like()[0].clone();
//! let result = System::run_spec(&spec, &profile, 20_000, 1)?;
//! assert!(result.ipc > 0.0);
//! assert_eq!(result.label, "LN2-72KB");
//! # Ok::<(), lnuca_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cmp;
mod codec;
pub mod configs;
pub mod energy_model;
pub mod experiments;
pub mod hierarchy;
pub mod journal;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod supervise;
pub mod sweep;
pub mod system;

pub use batch::{BatchJob, BatchRunner};
pub use cmp::{CmpMachine, CmpMemory, CoherenceStats, CoreRow};
pub use configs::HierarchyKind;
pub use experiments::{ExperimentPlan, FailedRun, Study};
pub use hierarchy::{ClassicHierarchy, HierarchyStats, LNucaHierarchy};
pub use spec::{BackingSpec, HierarchySpec, IntermediateSpec};
pub use supervise::{Budgets, StopSignal, Supervisor};
pub use sweep::{SweepConfig, SweepOutcome};
pub use system::{Engine, RunResult, System};
