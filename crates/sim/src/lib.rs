//! Full-system simulation and experiment harness for the Light NUCA paper.
//!
//! This crate glues every substrate together: the out-of-order core
//! (`lnuca-cpu`), the conventional caches and DRAM (`lnuca-mem`), the L-NUCA
//! fabric (`lnuca-core`), the D-NUCA baseline (`lnuca-dnuca`), the synthetic
//! workloads (`lnuca-workloads`) and the energy/area models (`lnuca-energy`).
//! It provides:
//!
//! * [`configs`] — the Table I component parameters (L1, L2, L3, DRAM,
//!   MSHRs, write buffers, bus transfers),
//! * [`spec`] — the declarative [`HierarchySpec`], the one way to name a
//!   hierarchy: root cache + optional L-NUCA fabric + intermediate cache
//!   chain + L3/D-NUCA/memory backing. The paper's four organisations
//!   (Fig. 1) are its presets ([`HierarchySpec::conventional`],
//!   [`HierarchySpec::lnuca_l3`], [`HierarchySpec::dnuca`],
//!   [`HierarchySpec::lnuca_dnuca`]); the builder composes any other shape,
//! * [`hierarchy`] — [`ClassicHierarchy`] (fabric-less) and
//!   [`LNucaHierarchy`] (fabric-fronted), both built from specs and
//!   implementing [`lnuca_cpu::DataMemory`],
//! * [`system`] — a [`System`] = core + hierarchy, runnable for a given
//!   instruction budget,
//! * [`energy_model`] — turns run statistics into the stacked-bar energy
//!   accounts of Figs. 4(b) and 5(b),
//! * [`batch`] — the [`BatchRunner`], the one run driver: it runs N
//!   independent simulations one after another, building each when it
//!   starts and freeing it when it retires; every solo, CMP and
//!   supervised run is a one-member batch,
//! * [`experiments`] — the declarative [`ExperimentPlan`] and the single
//!   [`Study::run`] entry point (the paper studies are the built-in
//!   `paper_*` plans); `ExperimentOptions::batch_size` only groups jobs
//!   (workers claim one job at a time whatever it is),
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
//! // The paper's 2-level L-NUCA in front of the 8 MB L3.
//! let spec = HierarchySpec::lnuca_l3(2)?;
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
pub use experiments::{ExperimentPlan, FailedRun, Study};
pub use hierarchy::{ClassicHierarchy, HierarchyStats, LNucaHierarchy};
pub use spec::{BackingSpec, HierarchySpec, IntermediateSpec};
pub use supervise::{Budgets, StopSignal, Supervisor};
pub use sweep::{SweepConfig, SweepOutcome};
pub use system::{Engine, RunResult, System};
