//! Deterministic chaos harness for the supervised experiment engine
//! (DESIGN.md §14).
//!
//! The supervision layer's claims — a panic in one job leaves every other
//! job of its study bit-identical to its solo baseline, watchdogs trip at
//! reproducible cycles, a killed study resumes to a byte-identical report —
//! are only worth anything if something hostile exercises them. This module
//! is that something: a declarative [`ChaosPlan`] of [`ScheduledFault`]s is
//! compiled into the process-global fault hook of
//! [`lnuca_sim::supervise`], so panics and watchdog trips fire at **exact
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
//! The hook is process-global, so concurrent chaos scopes would trample
//! each other; [`with_hook`] (behind [`ChaosPlan::with_chaos`]) serialises
//! all chaos scopes behind one mutex and guarantees the hook is disarmed
//! again even if the scope's body panics. A supervised run outside any
//! scope would still see a sibling scope's hook, so the unfaulted
//! baselines of chaos tests run inside [`without_faults`], which takes the
//! same mutex with no hook installed.
//!
//! # Example
//!
//! ```
//! use lnuca_sim::configs::{self, HierarchyKind};
//! use lnuca_sim::experiments::ExperimentOptions;
//! use lnuca_sim::supervise::{run_job_supervised, Supervisor};
//! use lnuca_sim::system::Engine;
//! use lnuca_verify::chaos::{ChaosPlan, FaultKind, ScheduledFault};
//! use lnuca_workloads::suites;
//!
//! let spec = HierarchyKind::Conventional(configs::conventional()).to_spec();
//! let profile = suites::by_name("int.compress")?;
//! let plan = ChaosPlan::new().fault(ScheduledFault {
//!     at_cycle: 50,
//!     first_attempt_only: true, // transient: the retry runs clean
//!     kind: FaultKind::Panic,
//!     ..ScheduledFault::any()
//! });
//! let supervisor = Supervisor::from_options(&ExperimentOptions::default());
//! let outcome = plan.with_chaos(|| {
//!     run_job_supervised(Engine::EventHorizon, &spec, &profile, 1_000, 1, &supervisor)
//! });
//! assert_eq!(outcome.attempts, 2); // attempt 0 panicked, attempt 1 succeeded
//! assert!(outcome.outcome.is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use lnuca_sim::supervise::{clear_fault_hook, install_fault_hook, RunKey};
use lnuca_types::RunError;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// A set of [`ScheduledFault`]s plus the scope machinery to arm them. The
/// first fault (in insertion order) matching an observation fires.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    faults: Vec<ScheduledFault>,
}

/// Serialises chaos scopes: the fault hook is process-global state, so two
/// concurrent [`with_hook`] bodies would observe each other's faults.
static CHAOS_SCOPE: Mutex<()> = Mutex::new(());

/// Disarms the hook when a chaos scope ends — including by panic, so one
/// failing chaos test cannot leave the hook armed for unrelated tests.
struct Disarm<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

impl Drop for Disarm<'_> {
    fn drop(&mut self) {
        clear_fault_hook();
    }
}

impl ChaosPlan {
    /// An empty plan (no faults; [`ChaosPlan::with_chaos`] still serialises the scope).
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
    /// and returns `None` when no fault matches. This is the hook
    /// [`ChaosPlan::with_chaos`] installs; a test hook that also observes
    /// runs delegates to it.
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

    /// Runs `body` with this plan's faults armed (see [`with_hook`]).
    pub fn with_chaos<R>(&self, body: impl FnOnce() -> R) -> R {
        let plan = self.clone();
        with_hook(move |key, cycle, _committed| plan.fire(key, cycle), body)
    }
}

/// Runs `body` with `hook` as the process-global fault hook: takes the
/// global chaos scope, installs the hook, runs `body`, and disarms the hook
/// again (even if `body` panics). [`ChaosPlan::with_chaos`] installs a
/// plan's faults this way; a test installs its own hook to observe every
/// guarded run or to act on a study from inside one of its jobs.
pub fn with_hook<R>(
    hook: impl Fn(&RunKey, u64, u64) -> Option<RunError> + Send + Sync + 'static,
    body: impl FnOnce() -> R,
) -> R {
    // A previous scope whose body panicked poisoned nothing real — the
    // lock guards no data — so recover the guard and continue.
    let scope = CHAOS_SCOPE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = Disarm(scope);
    install_fault_hook(Arc::new(hook));
    body()
}

/// Convenience: [`ChaosPlan::with_chaos`] with a single fault.
pub fn with_fault<R>(fault: ScheduledFault, body: impl FnOnce() -> R) -> R {
    ChaosPlan::new().fault(fault).with_chaos(body)
}

/// Runs `body` with no fault hook installed: takes the global chaos scope
/// (so no [`with_hook`] body runs concurrently) and runs `body`
/// unguarded by any fault. Chaos tests run their unfaulted baselines here,
/// so a sibling test's faults cannot leak into them.
pub fn without_faults<R>(body: impl FnOnce() -> R) -> R {
    let _scope = CHAOS_SCOPE.lock().unwrap_or_else(PoisonError::into_inner);
    body()
}
