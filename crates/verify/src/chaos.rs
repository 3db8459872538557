//! Deterministic chaos harness for the supervised experiment engine
//! (DESIGN.md §14).
//!
//! The supervision layer's claims — a panic in one job leaves every other
//! job of its study bit-identical to its solo baseline, watchdogs trip at
//! reproducible cycles, a killed study resumes to a byte-identical report —
//! are only worth anything if something hostile exercises them. This module
//! is that something: a declarative [`ChaosPlan`] of [`ScheduledFault`]s is
//! compiled into a fault hook ([`ChaosPlan::hook`]) that a test attaches to
//! one [`Supervisor`](lnuca_sim::supervise::Supervisor) with
//! `with_fault_hook`, so panics and watchdog trips fire at **exact
//! simulated cycles** of **exact runs** — no timing, no randomness, every
//! chaos test replays identically.
//!
//! Faults target runs by [`RunKey`] fields (configuration label, workload
//! name, trace seed — `None` matches anything) and fire the first time the
//! guarded loop observes a cycle at or past `at_cycle`. A fault may be
//! limited to the first attempt ([`ScheduledFault::first_attempt_only`]) to
//! model transient failures that a retry survives, or fire on every attempt
//! to model deterministic poison.
//!
//! The hook reaches only the runs driven by the supervisor it is attached
//! to (`run_job_supervised`, or a whole study through
//! `Study::run_controlled`), so chaos tests and their unfaulted baselines
//! run concurrently without seeing each other's faults.
//!
//! # Example
//!
//! ```
//! use lnuca_sim::experiments::ExperimentOptions;
//! use lnuca_sim::spec::HierarchySpec;
//! use lnuca_sim::supervise::{run_job_supervised, Supervisor};
//! use lnuca_sim::system::Engine;
//! use lnuca_verify::chaos::{ChaosPlan, FaultKind, ScheduledFault};
//! use lnuca_workloads::suites;
//!
//! let spec = HierarchySpec::conventional();
//! let profile = suites::by_name("int.compress")?;
//! let plan = ChaosPlan::new().fault(ScheduledFault {
//!     at_cycle: 50,
//!     first_attempt_only: true, // transient: the retry runs clean
//!     kind: FaultKind::Panic,
//!     ..ScheduledFault::any()
//! });
//! let supervisor =
//!     Supervisor::from_options(&ExperimentOptions::default()).with_fault_hook(plan.hook());
//! let outcome = run_job_supervised(Engine::EventHorizon, &spec, &profile, 1_000, 1, &supervisor);
//! assert_eq!(outcome.attempts, 2); // attempt 0 panicked, attempt 1 succeeded
//! assert!(outcome.outcome.is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use lnuca_sim::supervise::{FaultHook, RunKey};
use lnuca_types::RunError;
use std::sync::Arc;

/// What an armed [`ScheduledFault`] does when it fires.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// Panic inside the guarded run loop — the hard-crash model. The panic
    /// unwinds only the job it fires in: the job's own `catch_unwind`
    /// turns it into a [`RunError::Panic`], and the jobs after it run
    /// untouched.
    Panic,
    /// Return this structured failure from the guard — the clean-trip model
    /// (the job stops without unwinding). The injected error's retry
    /// semantics follow [`RunError::is_transient`], just as a genuine
    /// watchdog trip would.
    Trip(RunError),
}

/// One scheduled fault: a [`RunKey`] filter plus a trigger cycle and a
/// [`FaultKind`]. `None` filter fields match every run.
#[derive(Debug, Clone)]
pub struct ScheduledFault {
    /// Fire only on runs of this configuration label (`None` = any).
    pub label: Option<String>,
    /// Fire only on runs of this workload (`None` = any).
    pub workload: Option<String>,
    /// Fire only on runs with this trace seed (`None` = any).
    pub seed: Option<u64>,
    /// Fire at the first observation whose cycle is `>= at_cycle`.
    pub at_cycle: u64,
    /// Fire only on attempt 0 (a transient fault the bounded retry
    /// survives); `false` re-fires on every attempt (deterministic poison).
    pub first_attempt_only: bool,
    /// What happens when the fault fires.
    pub kind: FaultKind,
}

impl ScheduledFault {
    /// A wildcard fault template: matches every run, fires at cycle 0,
    /// fires on every attempt, panics. Meant for struct-update syntax —
    /// `ScheduledFault { workload: Some(...), ..ScheduledFault::any() }`.
    #[must_use]
    pub fn any() -> Self {
        ScheduledFault {
            label: None,
            workload: None,
            seed: None,
            at_cycle: 0,
            first_attempt_only: false,
            kind: FaultKind::Panic,
        }
    }

    /// Whether this fault fires for `key` at `cycle`.
    fn matches(&self, key: &RunKey, cycle: u64) -> bool {
        cycle >= self.at_cycle
            && (!self.first_attempt_only || key.attempt == 0)
            && self.label.as_deref().is_none_or(|l| l == key.label)
            && self.workload.as_deref().is_none_or(|w| w == key.workload)
            && self.seed.is_none_or(|s| s == key.seed)
    }
}

/// A set of [`ScheduledFault`]s, attached to a supervisor through
/// [`ChaosPlan::hook`]. The first fault (in insertion order) matching an
/// observation fires.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    faults: Vec<ScheduledFault>,
}

impl ChaosPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Adds a fault to the plan.
    #[must_use]
    pub fn fault(mut self, fault: ScheduledFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Fires the first fault matching `key` at `cycle`: panics for a
    /// [`FaultKind::Panic`], returns the error of a [`FaultKind::Trip`],
    /// and returns `None` when no fault matches. This is what
    /// [`ChaosPlan::hook`] calls; a test hook that also observes runs
    /// delegates to it.
    pub fn fire(&self, key: &RunKey, cycle: u64) -> Option<RunError> {
        let fault = self.faults.iter().find(|f| f.matches(key, cycle))?;
        match &fault.kind {
            FaultKind::Panic => panic!(
                "chaos: injected panic in {}/{} (seed {}, attempt {}) at cycle {cycle}",
                key.label, key.workload, key.seed, key.attempt
            ),
            FaultKind::Trip(error) => Some(error.clone()),
        }
    }

    /// This plan's faults as a fault hook backed by [`ChaosPlan::fire`],
    /// for `Supervisor::with_fault_hook`.
    #[must_use]
    pub fn hook(&self) -> Arc<FaultHook> {
        let plan = self.clone();
        Arc::new(move |key, cycle, _committed| plan.fire(key, cycle))
    }
}
