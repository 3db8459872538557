//! The run driver: every simulation — solo, CMP, supervised or batched —
//! is stepped here (DESIGN.md §13).
//!
//! A [`BatchRunner`] is a queue of N fully independent jobs, run **one
//! after another**. Every job is validated when the runner is built, but a
//! member's machine (hierarchy + core + trace, or a whole CMP machine) is
//! built only when [`BatchRunner::step`] reaches it, and dropped as soon as
//! the member retires: a retired member keeps its [`RunResult`] (or the
//! [`RunError`] that stopped it) and its probe sink, nothing else. So a
//! batch holds at most one machine at a time, whatever its width. Every
//! step advances the current member one engine iteration (DESIGN.md §10),
//! and a member that finishes — or goes quiescent past its cycle cap —
//! retires and hands over to the next.
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
//! Once a member is built, stepping it performs no heap allocation
//! (DESIGN.md §9); memory is touched again only at the handover, when the
//! member retires (its [`RunResult`] is materialised, its machine freed)
//! and the next one is built.
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
use lnuca_workloads::{TraceGenerator, WorkloadProfile};

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
/// [`retire`] drive either one. The core and the CMP machine are boxed,
/// like the hierarchy's variants, so the two variants are the same size.
enum Machine<P: ProbeSink> {
    Solo {
        hierarchy: AnyHierarchy<P>,
        core: Box<OooCore<std::iter::Take<TraceGenerator>>>,
    },
    Cmp(Box<crate::cmp::CmpMachine<P>>),
}

impl<P: ProbeSink> Machine<P> {
    fn build(job: &BatchJob<'_>, probe: P) -> Result<Self, ConfigError> {
        Ok(if job.spec.cores > 1 {
            Machine::Cmp(Box::new(crate::cmp::CmpMachine::from_spec(
                job.spec,
                job.profile,
                job.instructions,
                job.seed,
                probe,
            )?))
        } else {
            let hierarchy = System::build_spec_probed(job.spec, probe)?;
            let trace = TraceGenerator::new(job.profile.clone(), job.seed)
                .take(usize::try_from(job.instructions).unwrap_or(usize::MAX));
            let core = Box::new(OooCore::new(CoreConfig::paper(), trace)?);
            Machine::Solo { hierarchy, core }
        })
    }

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
            Machine::Cmp(m) => AnyHierarchy::Cmp(Box::new(m.into_memory())),
        }
    }
}

/// One queued member. Until it starts it holds its job, probe sink and
/// guard; once it retires it holds its outcome and probe sink only.
struct Member<'a, P: ProbeSink> {
    job: BatchJob<'a>,
    /// Made for this member in job order when the runner is built; it
    /// moves into the machine when the member starts and comes back when
    /// it retires.
    probe: Option<P>,
    /// Watchdog of a supervised member (`None` on the plain path, which
    /// then has zero per-tick observation overhead); it moves into the
    /// running member when the member starts.
    guard: Option<JobGuard>,
    /// The member's [`RunResult`], or the failure that stopped it; set
    /// when it retires.
    outcome: Option<Result<RunResult, RunError>>,
}

/// The member in flight: its machine plus its private clock. The clock
/// always holds the `now` value the member's next [`advance`] ticks at.
struct Running<P: ProbeSink> {
    machine: Machine<P>,
    /// Generous safety cap (`instructions * 400 + 1_000_000`): no
    /// workload should need 400 cycles per instruction; hitting the cap
    /// indicates a simulator bug and shows up as an implausible IPC.
    cap: u64,
    now: Cycle,
    guard: Option<JobGuard>,
    /// A tripped watchdog's failure lands here; the member's stats are
    /// then never finalised.
    failed: Option<RunError>,
}

/// Runs a batch of independent simulations one after another, building
/// each member when it starts and freeing it when it retires; see the
/// [module docs](self) for the execution model and the equivalence
/// invariant.
pub struct BatchRunner<'a, P: ProbeSink = NoProbe> {
    engine: Engine,
    members: Vec<Member<'a, P>>,
    /// Members started so far; the last of them is `running` unless it
    /// has retired.
    started: usize,
    running: Option<Running<P>>,
}

impl<'a> BatchRunner<'a, NoProbe> {
    /// Builds a batch over `jobs` with no instrumentation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any member's configuration is invalid.
    pub fn new(engine: Engine, jobs: &[BatchJob<'a>]) -> Result<Self, ConfigError> {
        Self::with_probes(engine, jobs, || NoProbe)
    }
}

impl<'a, P: ProbeSink> BatchRunner<'a, P> {
    /// Builds a batch over `jobs`, giving each member the probe sink the
    /// factory produces for it (in job order). Like the solo probed entry
    /// points, probes observe but never feed back: results are
    /// bit-identical for any sink.
    ///
    /// Every job is validated and its probe made here, but no machine is
    /// built: [`BatchRunner::step`] builds each member when it reaches it
    /// and frees it when the member retires.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any member's configuration is invalid.
    pub fn with_probes(
        engine: Engine,
        jobs: &[BatchJob<'a>],
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
        jobs: &[BatchJob<'a>],
        mut probe: impl FnMut() -> P,
        mut guard: impl FnMut(usize) -> Option<JobGuard>,
    ) -> Result<Self, ConfigError> {
        let mut members = Vec::with_capacity(jobs.len());
        for (idx, job) in jobs.iter().enumerate() {
            // Every error a member's build can report is a spec error (the
            // CMP's set-associative equivalents derive from validated
            // parts), so a member that passes here always builds.
            job.spec.validate()?;
            members.push(Member {
                job: *job,
                probe: Some(probe()),
                guard: guard(idx),
                outcome: None,
            });
        }
        Ok(BatchRunner {
            engine,
            members,
            started: 0,
            running: None,
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

    /// Number of members still running or waiting to start. A member
    /// always gets at least one tick, as its solo run would: a freshly
    /// built machine is never finished (its core has not yet looked at its
    /// trace) and every cap is positive.
    #[must_use]
    pub fn live(&self) -> usize {
        self.members.len() - self.started + usize::from(self.running.is_some())
    }

    /// Advances the current member one engine iteration (one horizon, or
    /// one cycle under [`Engine::CycleStep`]), building it first if it has
    /// not started, and freeing its machine once it retires. Returns
    /// `true` while members remain live.
    ///
    /// Stepping a built member performs no heap allocation; the handover
    /// allocates, to materialise the retiring member's [`RunResult`] and to
    /// build the next member.
    pub fn step(&mut self) -> bool {
        if let Some(machine) = self.step_member() {
            self.members[self.started - 1].probe = Some(machine.into_hierarchy().into_probe());
        }
        self.live() > 0
    }

    /// One iteration of [`BatchRunner::step`]. When the member retires in
    /// it, its outcome is recorded and its machine, probe still inside,
    /// comes back to the caller.
    fn step_member(&mut self) -> Option<Machine<P>> {
        let running = match &mut self.running {
            Some(running) => running,
            None => {
                let member = self.members.get_mut(self.started)?;
                self.started += 1;
                self.running.insert(start(member))
            }
        };
        if advance(running, self.engine) {
            return None;
        }
        let mut running = self.running.take().expect("the member just stepped");
        let member = &mut self.members[self.started - 1];
        member.outcome = Some(match running.failed {
            Some(err) => Err(err),
            None => Ok(retire(&mut running.machine, running.now, member.job.profile)),
        });
        Some(running.machine)
    }

    /// Runs the batch to completion and returns every member's result and
    /// probe sink, in job order. Only for unguarded batches — a supervised
    /// member's failure panics here; use [`BatchRunner::run_outcomes`] for
    /// supervised batches.
    #[must_use]
    pub fn run(self) -> Vec<(RunResult, P)> {
        self.run_outcomes()
            .into_iter()
            .map(|(outcome, probe)| (outcome.expect("unguarded batch members cannot fail"), probe))
            .collect()
    }

    /// Runs the batch to completion and returns every member's outcome —
    /// its bit-identical [`RunResult`] or the watchdog failure that
    /// stopped it — plus its probe sink, in job order.
    #[must_use]
    pub fn run_outcomes(mut self) -> Vec<(Result<RunResult, RunError>, P)> {
        while self.step() {}
        self.members
            .into_iter()
            .map(|m| {
                let outcome = m.outcome.expect("stepping retired every member");
                (outcome, m.probe.expect("a retired member holds its probe"))
            })
            .collect()
    }

    /// Runs the batch to completion and returns the results in job order
    /// (unguarded batches only; see [`BatchRunner::run`]).
    #[must_use]
    pub fn run_results(self) -> Vec<RunResult> {
        self.run().into_iter().map(|(result, _)| result).collect()
    }

    /// Runs an unguarded one-member batch to completion and returns its
    /// result with its final hierarchy (probe still inside) instead of
    /// freeing it: the tail of [`System::run_spec_probed`].
    pub(crate) fn run_one(mut self) -> (RunResult, AnyHierarchy<P>) {
        assert_eq!(self.members.len(), 1, "run_one drives a one-member batch");
        loop {
            if let Some(machine) = self.step_member() {
                let outcome = self.members.pop().and_then(|m| m.outcome);
                let result = outcome
                    .expect("a retired member holds its outcome")
                    .expect("unguarded batch members cannot fail");
                return (result, machine.into_hierarchy());
            }
        }
    }
}

/// Builds a member's machine and starts its clock at cycle 0. Cold: it
/// runs once per member.
#[cold]
#[inline(never)]
fn start<P: ProbeSink>(member: &mut Member<'_, P>) -> Running<P> {
    let job = member.job;
    let probe = member.probe.take().expect("a member starts once");
    Running {
        machine: Machine::build(&job, probe).expect("a spec that passed validation always builds"),
        cap: job.instructions.saturating_mul(400) + 1_000_000,
        now: Cycle(0),
        guard: member.guard.take(),
        failed: None,
    }
}

/// One iteration of a member's run loop: observes the watchdog, ticks the
/// member at `running.now`, and moves its clock to the next cycle the
/// engine visits. Returns `true` while the member stays live; `false` once
/// it finished, reached its cap or tripped its watchdog (the failure is
/// kept in `failed`).
#[inline]
fn advance<P: ProbeSink>(running: &mut Running<P>, engine: Engine) -> bool {
    let now = running.now;
    let cap = running.cap;
    if let Some(guard) = running.guard.as_mut() {
        if let Err(err) = guard.observe(now, running.machine.committed()) {
            running.failed = Some(err);
            return false;
        }
    }
    running.machine.tick(now);
    let next = match engine {
        Engine::CycleStep => now.next(),
        Engine::EventHorizon => {
            if running.machine.is_finished() {
                // Match the reference engine's final clock exactly.
                now.next()
            } else {
                // Jump to the earliest cycle any component can act. `None`
                // means nothing will ever act again: jump to the cap,
                // exactly where per-cycle stepping (all no-op ticks) would
                // also end up.
                let next = running
                    .machine
                    .next_event(now)
                    .unwrap_or(Cycle(cap))
                    .max(now.next())
                    .min(Cycle(cap).max(now.next()));
                match running.guard.as_ref().and_then(JobGuard::horizon_clamp) {
                    // Never jump past the next cycle the watchdog must
                    // observe, while always making progress. Ticks at
                    // non-event cycles are no-ops, so results never change.
                    Some(clamp) => next.min(Cycle(clamp.max(now.0 + 1))),
                    None => next,
                }
            }
        }
    };
    running.now = next;
    !running.machine.is_finished() && next.0 < cap
}

/// The run tail: closes the member's stall windows at its final clock
/// `now` and materialises its [`RunResult`]. Cold: it runs once per
/// member, and keeping it out of line keeps [`advance`]'s per-iteration
/// code small.
#[cold]
#[inline(never)]
fn retire<P: ProbeSink>(
    machine: &mut Machine<P>,
    now: Cycle,
    profile: &WorkloadProfile,
) -> RunResult {
    match machine {
        Machine::Solo { hierarchy, core } => {
            core.finalize_stats(now);
            let stats = hierarchy.stats();
            let energy = energy_model::account_for(&stats, now.0);
            RunResult {
                label: stats.label.clone(),
                workload: profile.name.clone(),
                suite: profile.suite,
                instructions: core.committed(),
                cycles: now.0,
                ipc: core.stats().ipc(now),
                core: *core.stats(),
                hierarchy: stats,
                energy,
                per_core: Vec::new(),
                coherence: None,
            }
        }
        Machine::Cmp(machine) => {
            machine.finalize(now);
            machine.result(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_workloads::suites;

    fn paper_specs() -> Vec<HierarchySpec> {
        vec![
            HierarchySpec::conventional(),
            HierarchySpec::lnuca_l3(2).unwrap(),
            HierarchySpec::dnuca(),
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
                let solo = System::run_spec_with(
                    engine,
                    job.spec,
                    job.profile,
                    job.instructions,
                    job.seed,
                )
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
        assert_eq!(
            runner.live(),
            3,
            "even a zero-budget member gets its first tick, as solo would"
        );
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
    fn an_invalid_member_fails_construction_before_any_member_is_built() {
        let profile = &suites::spec_int_like()[0];
        let mut broken = HierarchySpec::lnuca_l3(2).unwrap();
        broken.fabric.as_mut().unwrap().block_size = 64;
        let mut cmp = HierarchySpec::builder().cores(2).build().unwrap();
        cmp.cores = 0;
        for bad in [broken, cmp] {
            let specs = [HierarchySpec::conventional(), HierarchySpec::dnuca(), bad];
            let jobs: Vec<BatchJob> = specs
                .iter()
                .map(|spec| BatchJob {
                    spec,
                    profile,
                    instructions: 1_000,
                    seed: 5,
                })
                .collect();
            let mut probes_made = 0;
            let err = BatchRunner::with_probes(Engine::EventHorizon, &jobs, || {
                probes_made += 1;
                NoProbe
            })
            .err()
            .expect("member 2 is invalid");
            let expected = specs[2].validate().unwrap_err();
            assert_eq!(err, expected, "the member's own ConfigError comes back");
            assert_eq!(probes_made, 2, "validation stops at the bad member, in job order");
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
