//! The run driver: every simulation — solo, CMP, supervised or batched —
//! is stepped here (DESIGN.md §13).
//!
//! A [`BatchRunner`] owns N fully independent members (hierarchy + core +
//! trace, or a whole CMP machine), all built when the runner is, and runs
//! them **one after another**: every [`BatchRunner::step`] advances the
//! current member one engine iteration (DESIGN.md §10), and a member that
//! finishes — or goes quiescent past its cycle cap — retires and hands
//! over to the next.
//!
//! One member's run loop is written once, in `advance` (engine step, cycle
//! cap, watchdog observation and horizon clamp) and `retire` (the run tail
//! that materialises its [`RunResult`]). A solo run
//! ([`crate::system::System::run_spec_probed`] and its wrappers), a CMP run
//! and a supervised job ([`crate::supervise::run_job_supervised`]) are
//! one-member batches.
//!
//! Members share no state, and each is ticked at precisely the clock
//! values its own run would visit, so a batched run is **bit-identical**
//! to its one-member counterpart for every member — results *and* probe
//! event streams. This is the batch-equivalence invariant; `lnuca-verify`
//! layers it over the differential oracle and `tests/batch_equivalence.rs`
//! pins it across the full verify matrix.
//!
//! After construction the steady-state loop performs no heap allocation
//! (DESIGN.md §9); memory is touched again only when a member retires and
//! its [`RunResult`] is materialised.
//!
//! # Example
//!
//! ```
//! use lnuca_sim::batch::{BatchJob, BatchRunner};
//! use lnuca_sim::spec::HierarchySpec;
//! use lnuca_sim::system::{Engine, System};
//! use lnuca_workloads::suites;
//!
//! let spec = HierarchySpec::builder()
//!     .fabric(lnuca_core::LNucaConfig::paper(2)?)
//!     .build()?;
//! let profiles = suites::spec_int_like();
//! let jobs: Vec<BatchJob> = profiles[..2]
//!     .iter()
//!     .map(|profile| BatchJob { spec: &spec, profile, instructions: 2_000, seed: 7 })
//!     .collect();
//! let batched = BatchRunner::new(Engine::EventHorizon, &jobs)?.run_results();
//! let solo = System::run_spec_with(Engine::EventHorizon, &spec, &profiles[0], 2_000, 7)?;
//! assert_eq!(batched[0], solo, "batched members are bit-identical to solo runs");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::energy_model;
use crate::hierarchy::AnyHierarchy;
use crate::spec::HierarchySpec;
use crate::supervise::JobGuard;
use crate::system::{Engine, RunResult, System};
use lnuca_cpu::{CoreConfig, DataMemory, OooCore};
use lnuca_mem::{NoProbe, ProbeSink};
use lnuca_types::{ConfigError, Cycle, RunError};
use lnuca_workloads::{Suite, TraceGenerator, WorkloadProfile};

/// One member of a batch: the same (spec, profile, instructions, seed)
/// quadruple a solo [`System::run_spec_with`] call takes.
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'a> {
    /// Hierarchy to simulate.
    pub spec: &'a HierarchySpec,
    /// Synthetic workload profile.
    pub profile: &'a WorkloadProfile,
    /// Instruction budget.
    pub instructions: u64,
    /// Trace seed.
    pub seed: u64,
}

/// The simulated components of one member: a single-core hierarchy+core
/// pair, or a whole CMP machine when the member's spec has `cores > 1`.
/// Both expose the same tick/horizon/finish surface, so [`advance`] and
/// [`retire`] drive either one.
enum Machine<P: ProbeSink> {
    Solo {
        hierarchy: AnyHierarchy<P>,
        core: OooCore<std::iter::Take<TraceGenerator>>,
    },
    Cmp(crate::cmp::CmpMachine<P>),
}

impl<P: ProbeSink> Machine<P> {
    fn is_finished(&self) -> bool {
        match self {
            Machine::Solo { core, .. } => core.is_finished(),
            Machine::Cmp(m) => m.is_finished(),
        }
    }

    fn committed(&self) -> u64 {
        match self {
            Machine::Solo { core, .. } => core.committed(),
            Machine::Cmp(m) => m.committed(),
        }
    }

    fn tick(&mut self, now: Cycle) {
        match self {
            Machine::Solo { hierarchy, core } => {
                hierarchy.tick(now);
                core.tick(now, hierarchy);
            }
            Machine::Cmp(m) => m.tick(now),
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self {
            Machine::Solo { hierarchy, core } => {
                match (hierarchy.next_event(now), core.next_event(now)) {
                    (Some(h), Some(c)) => Some(h.min(c)),
                    (h, c) => h.or(c),
                }
            }
            Machine::Cmp(m) => m.next_event(now),
        }
    }

    fn into_hierarchy(self) -> AnyHierarchy<P> {
        match self {
            Machine::Solo { hierarchy, .. } => hierarchy,
            Machine::Cmp(m) => AnyHierarchy::Cmp(m.into_memory()),
        }
    }
}

/// One in-flight member: its components plus its private clock. The clock
/// always holds the `now` value the member's next [`advance`] ticks at.
struct Member<P: ProbeSink> {
    machine: Machine<P>,
    workload: String,
    suite: Suite,
    /// Generous safety cap (`instructions * 400 + 1_000_000`): no
    /// workload should need 400 cycles per instruction; hitting the cap
    /// indicates a simulator bug and shows up as an implausible IPC.
    cap: u64,
    now: Cycle,
    done: Option<RunResult>,
    /// Watchdog of a supervised member (`None` on the plain path, which
    /// then has zero per-tick observation overhead).
    guard: Option<JobGuard>,
    /// A tripped watchdog's failure lands here; the member's stats are
    /// never finalised and `done` stays empty.
    failed: Option<RunError>,
}

/// Runs a batch of independent simulations one after another; see the
/// [module docs](self) for the execution model and the equivalence
/// invariant.
pub struct BatchRunner<P: ProbeSink = NoProbe> {
    engine: Engine,
    members: Vec<Member<P>>,
    /// The member [`BatchRunner::step`] advances; every member before it
    /// has retired.
    current: usize,
    live: usize,
}

impl BatchRunner<NoProbe> {
    /// Builds a batch over `jobs` with no instrumentation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any member's configuration is invalid.
    pub fn new(engine: Engine, jobs: &[BatchJob<'_>]) -> Result<Self, ConfigError> {
        Self::with_probes(engine, jobs, || NoProbe)
    }
}

impl<P: ProbeSink> BatchRunner<P> {
    /// Builds a batch over `jobs`, giving each member the probe sink the
    /// factory produces for it (in job order). Like the solo probed entry
    /// points, probes observe but never feed back: results are
    /// bit-identical for any sink.
    ///
    /// All allocation happens here: every member's components are built
    /// up front.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any member's configuration is invalid.
    pub fn with_probes(
        engine: Engine,
        jobs: &[BatchJob<'_>],
        probe: impl FnMut() -> P,
    ) -> Result<Self, ConfigError> {
        Self::with_supervision(engine, jobs, probe, |_| None)
    }

    /// [`BatchRunner::with_probes`] plus per-member supervision
    /// (DESIGN.md §14): `guard` produces each member's watchdog (in job
    /// order; `None` = unsupervised member). A member whose guard trips
    /// stops being stepped and reports its failure through
    /// [`BatchRunner::run_outcomes`]; the members after it run as if it
    /// had finished. A guard's wall clock starts when the guard is built,
    /// so a supervised job runs as a one-member batch
    /// ([`crate::supervise::run_job_supervised`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any member's configuration is invalid.
    pub fn with_supervision(
        engine: Engine,
        jobs: &[BatchJob<'_>],
        mut probe: impl FnMut() -> P,
        mut guard: impl FnMut(usize) -> Option<JobGuard>,
    ) -> Result<Self, ConfigError> {
        let mut members = Vec::with_capacity(jobs.len());
        for (idx, job) in jobs.iter().enumerate() {
            let machine = if job.spec.cores > 1 {
                Machine::Cmp(crate::cmp::CmpMachine::from_spec(
                    job.spec,
                    job.profile,
                    job.instructions,
                    job.seed,
                    probe(),
                )?)
            } else {
                let hierarchy = System::build_spec_probed(job.spec, probe())?;
                let trace = TraceGenerator::new(job.profile.clone(), job.seed)
                    .take(usize::try_from(job.instructions).unwrap_or(usize::MAX));
                let core = OooCore::new(CoreConfig::paper(), trace)?;
                Machine::Solo { hierarchy, core }
            };
            members.push(Member {
                machine,
                workload: job.profile.name.clone(),
                suite: job.profile.suite,
                cap: job.instructions.saturating_mul(400) + 1_000_000,
                now: Cycle(0),
                done: None,
                guard: guard(idx),
                failed: None,
            });
        }

        let mut live = 0;
        for member in &mut members {
            // A member that is already finished (or capped) at cycle 0
            // retires without a single tick.
            if member.machine.is_finished() || member.now.0 >= member.cap {
                retire(member);
            } else {
                live += 1;
            }
        }
        Ok(BatchRunner {
            engine,
            members,
            current: 0,
            live,
        })
    }

    /// Number of members (live or retired).
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the batch has no members at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of members still running.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Advances the current member one engine iteration (one horizon, or
    /// one cycle under [`Engine::CycleStep`]), moving on to the next live
    /// member once it retires. Returns `true` while members remain live.
    ///
    /// The steady-state path performs no heap allocation; a retiring
    /// member allocates once to materialise its [`RunResult`].
    pub fn step(&mut self) -> bool {
        while let Some(member) = self.members.get_mut(self.current) {
            if member.done.is_some() || member.failed.is_some() {
                self.current += 1;
                continue;
            }
            if advance(member, self.engine).is_none() {
                self.live -= 1;
                self.current += 1;
            }
            return self.live > 0;
        }
        false
    }

    /// Runs the batch to completion and returns every member's result and
    /// final hierarchy (probe still inside), in job order. Only for
    /// unguarded batches — a supervised member's failure panics here; use
    /// [`BatchRunner::run_outcomes`] for supervised batches.
    #[must_use]
    pub fn run(self) -> Vec<(RunResult, AnyHierarchy<P>)> {
        self.run_outcomes()
            .into_iter()
            .map(|(outcome, hierarchy)| {
                (
                    outcome.expect("unguarded batch members cannot fail"),
                    hierarchy,
                )
            })
            .collect()
    }

    /// Runs the batch to completion and returns every member's outcome —
    /// its bit-identical [`RunResult`] or the watchdog failure that
    /// stopped it — plus its final hierarchy, in job order.
    #[must_use]
    pub fn run_outcomes(mut self) -> Vec<(Result<RunResult, RunError>, AnyHierarchy<P>)> {
        while self.step() {}
        self.members
            .into_iter()
            .map(|m| {
                let outcome = match m.failed {
                    Some(err) => Err(err),
                    None => Ok(m.done.expect("stepping retired every non-failed member")),
                };
                (outcome, m.machine.into_hierarchy())
            })
            .collect()
    }

    /// Runs the batch to completion and returns the results in job order
    /// (unguarded batches only; see [`BatchRunner::run`]).
    #[must_use]
    pub fn run_results(self) -> Vec<RunResult> {
        self.run().into_iter().map(|(result, _)| result).collect()
    }
}

/// One iteration of a member's run loop: observes the watchdog, ticks the
/// member at `member.now`, and moves its clock to the next cycle the engine
/// visits. Returns that cycle while the member stays live; otherwise the
/// member has retired (its [`RunResult`] is materialised) or its watchdog
/// tripped (the failure is kept in `failed`, never finalised) and `None`
/// comes back.
#[inline]
fn advance<P: ProbeSink>(member: &mut Member<P>, engine: Engine) -> Option<Cycle> {
    let now = member.now;
    let cap = member.cap;
    if let Some(guard) = member.guard.as_mut() {
        if let Err(err) = guard.observe(now, member.machine.committed()) {
            member.failed = Some(err);
            return None;
        }
    }
    member.machine.tick(now);
    let next = match engine {
        Engine::CycleStep => now.next(),
        Engine::EventHorizon => {
            if member.machine.is_finished() {
                // Match the reference engine's final clock exactly.
                now.next()
            } else {
                // Jump to the earliest cycle any component can act. `None`
                // means nothing will ever act again: jump to the cap,
                // exactly where per-cycle stepping (all no-op ticks) would
                // also end up.
                let next = member
                    .machine
                    .next_event(now)
                    .unwrap_or(Cycle(cap))
                    .max(now.next())
                    .min(Cycle(cap).max(now.next()));
                match member.guard.as_ref().and_then(JobGuard::horizon_clamp) {
                    // Never jump past the next cycle the watchdog must
                    // observe, while always making progress. Ticks at
                    // non-event cycles are no-ops, so results never change.
                    Some(clamp) => next.min(Cycle(clamp.max(now.0 + 1))),
                    None => next,
                }
            }
        }
    };
    member.now = next;
    if !member.machine.is_finished() && next.0 < cap {
        Some(next)
    } else {
        retire(member);
        None
    }
}

/// The run tail: closes the member's stall windows at its final clock and
/// materialises its [`RunResult`]. Cold: it runs once per member, and
/// keeping it out of line keeps [`advance`]'s per-iteration code small.
#[cold]
#[inline(never)]
fn retire<P: ProbeSink>(member: &mut Member<P>) {
    let now = member.now;
    match &mut member.machine {
        Machine::Solo { hierarchy, core } => {
            core.finalize_stats(now);
            let stats = hierarchy.stats();
            let energy = energy_model::account_for(&stats, now.0);
            member.done = Some(RunResult {
                label: stats.label.clone(),
                workload: member.workload.clone(),
                suite: member.suite,
                instructions: core.committed(),
                cycles: now.0,
                ipc: core.stats().ipc(now),
                core: *core.stats(),
                hierarchy: stats,
                energy,
                per_core: Vec::new(),
                coherence: None,
            });
        }
        Machine::Cmp(machine) => {
            machine.finalize(now);
            member.done = Some(machine.result(now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{self, HierarchyKind};
    use lnuca_workloads::suites;

    fn paper_specs() -> Vec<HierarchySpec> {
        vec![
            HierarchyKind::Conventional(configs::conventional()).to_spec(),
            HierarchyKind::LNucaL3(configs::lnuca_hierarchy(2)).to_spec(),
            HierarchyKind::DNuca(configs::dnuca_hierarchy()).to_spec(),
        ]
    }

    #[test]
    fn a_mixed_batch_matches_its_solo_runs_bit_for_bit() {
        for engine in [Engine::EventHorizon, Engine::CycleStep] {
            let specs = paper_specs();
            let profiles = suites::spec_int_like();
            let jobs: Vec<BatchJob> = specs
                .iter()
                .zip(&profiles)
                .enumerate()
                .map(|(i, (spec, profile))| BatchJob {
                    spec,
                    profile,
                    instructions: 1_500 + 200 * i as u64,
                    seed: 3 + i as u64,
                })
                .collect();
            let batched = BatchRunner::new(engine, &jobs).unwrap().run_results();
            for (job, result) in jobs.iter().zip(&batched) {
                let solo =
                    System::run_spec_with(engine, job.spec, job.profile, job.instructions, job.seed)
                        .unwrap();
                assert_eq!(result, &solo, "{} under {:?}", job.profile.name, engine);
            }
        }
    }

    #[test]
    fn members_retire_independently_and_in_any_order() {
        let specs = paper_specs();
        let profile = &suites::spec_int_like()[0];
        // Wildly different budgets: the long member keeps running after the
        // short ones retire.
        let jobs: Vec<BatchJob> = [4_000u64, 0, 400]
            .iter()
            .map(|&instructions| BatchJob {
                spec: &specs[1],
                profile,
                instructions,
                seed: 11,
            })
            .collect();
        let mut runner = BatchRunner::new(Engine::EventHorizon, &jobs).unwrap();
        assert_eq!(runner.len(), 3);
        assert_eq!(runner.live(), 3, "even a zero-budget member gets its first tick, as solo would");
        // Members run in job order: the live count drops as each retires.
        let mut live_seen = vec![runner.live()];
        while runner.step() {
            if live_seen.last() != Some(&runner.live()) {
                live_seen.push(runner.live());
            }
        }
        assert_eq!(live_seen, [3, 2, 1]);
        assert_eq!(runner.live(), 0);
        assert!(!runner.step(), "a finished batch stays finished");
        let results = runner.run_results();
        assert_eq!(results[0].instructions, 4_000);
        assert_eq!(results[1].instructions, 0);
        assert_eq!(results[2].instructions, 400);
        for (job, result) in jobs.iter().zip(&results) {
            let solo = System::run_spec_with(
                Engine::EventHorizon,
                job.spec,
                job.profile,
                job.instructions,
                job.seed,
            )
            .unwrap();
            assert_eq!(result, &solo);
        }
    }

    #[test]
    fn an_empty_batch_is_immediately_complete() {
        let mut runner = BatchRunner::new(Engine::EventHorizon, &[]).unwrap();
        assert!(runner.is_empty());
        assert!(!runner.step());
        assert!(runner.run_results().is_empty());
    }
}
