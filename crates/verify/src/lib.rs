//! Differential oracle for the Light NUCA reproduction.
//!
//! Three PRs of aggressive hot-path rewrites (zero-allocation drains, flat
//! packed-tag arrays, event-horizon skipping) made the detailed simulator
//! fast — and made "is it still *correct*?" a question nothing answered
//! independently: the existing pins only check the simulator against
//! itself (engine vs engine, thread count vs thread count). This crate is
//! the missing correctness layer:
//!
//! * [`mod@reference`] — an obviously-correct, timing-free functional model:
//!   nested-`Vec` set-associative LRU arrays ([`reference::RefArray`]),
//!   the counter discipline of the conventional caches
//!   ([`reference::RefCache`]), the D-NUCA's probe/promote/fill rules
//!   ([`reference::RefDnuca`]) and the outer-level composition
//!   ([`reference::RefOuter`]). No cycles, no ports, no NoC.
//! * [`hierarchy`] — [`hierarchy::RefHierarchy`] assembles the reference
//!   pieces into the hierarchy a spec describes and replays a
//!   recorded probe stream through them, cross-checking every functional
//!   decision (hit level, victim choice, dirty propagation, custody of the
//!   fabric's exclusion set).
//! * [`harness`] — [`harness::run_differential_spec`] runs the detailed
//!   simulator with a [`recorder::RecordingProbe`], replays the stream,
//!   and asserts per-level hit/miss counts, final resident line sets and
//!   writeback totals agree; `run_differential_spec_both_engines` additionally
//!   pins the two time-stepping engines to the identical event stream.
//! * [`mod@chaos`] — the deterministic fault-injection harness
//!   (DESIGN.md §14): [`chaos::ChaosPlan`] schedules panics and watchdog
//!   trips at exact cycles of exact runs through the supervision layer's
//!   fault hook, pinning per-job isolation, bounded retry, stop and
//!   checkpoint/resume behaviour without any timing dependence.
//! * [`mod@batch`] — the batch-equivalence layer (DESIGN.md §13):
//!   [`batch::SequentialBaseline`] verifies every case through the oracle
//!   once, then [`batch::SequentialBaseline::check_batched`] pins a
//!   `lnuca_sim::batch::BatchRunner` pass at any batch size to the
//!   identical per-run results and probe streams.
//!
//! # What is an input and what is checked
//!
//! Timing-dependent *scheduling* — which accesses merged into in-flight
//! MSHRs, when the write buffer drained, which searches resolved in which
//! order — is taken from the recorded stream as an input. Every
//! *cache-content* decision is recomputed independently and compared:
//! set indexing, tag matching, LRU victim selection, write-allocate fills,
//! dirty propagation and writebacks, the L2→L3 victim chain, D-NUCA
//! promotion swaps, and the fabric's content exclusion. The one detailed
//! structure the reference deliberately does not reproduce is the fabric's
//! per-tile placement (decided by seeded random routing): custody, hit and
//! miss totals, the eviction/spill ledger and the final custody set are
//! exact; the per-level hit split is validated structurally
//! (DESIGN.md §11).
//!
//! # Example
//!
//! ```
//! use lnuca_sim::spec::HierarchySpec;
//! use lnuca_sim::system::Engine;
//! use lnuca_verify::harness::run_differential_spec;
//! use lnuca_workloads::suites;
//!
//! let spec = HierarchySpec::lnuca_l3(3)?;
//! let profile = suites::by_name("int.compress")?;
//! let report = run_differential_spec(&spec, &profile, 2_000, 1, Engine::EventHorizon)?;
//! assert!(report.events as u64 >= report.accesses);
//! assert!(report.accesses > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod coherence;
pub mod harness;
pub mod hierarchy;
pub mod recorder;
pub mod reference;

pub use batch::{BatchCase, BatchEquivalenceReport, SequentialBaseline};
pub use coherence::{run_coherence, run_coherence_both_engines, CoherenceError, CoherenceReport};
pub use harness::{
    run_differential_spec, run_differential_spec_both_engines, DifferentialError,
    DifferentialReport,
};
pub use hierarchy::RefHierarchy;
pub use recorder::RecordingProbe;
