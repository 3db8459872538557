//! The traced run loops: the solo and CMP run loops of `lnuca-sim`,
//! re-driven from outside through public calls with a timer around each
//! call, so host time splits by layer without touching the simulator.
//!
//! Each loop mirrors its library twin step for step (the solo loop of
//! `System::run_spec_guarded` and `cmp::run_cmp_guarded`, both with no
//! guard), so its `RunResult` must equal the untraced one bit for bit; the
//! callers check that for every job.

use lnuca_cpu::{CoreConfig, DataMemory, OooCore};
use lnuca_sim::energy_model;
use lnuca_sim::hierarchy::AnyHierarchy;
use lnuca_sim::{CmpMachine, Engine, HierarchySpec, RunResult, System};
use lnuca_types::{ConfigError, Cycle, MemRequest, MemResponse};
use lnuca_workloads::{Instr, TraceGenerator, WorkloadProfile};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Host time and call counts per layer, summed over every traced job.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// `TraceGenerator::next` time and instructions it produced.
    pub gen: Duration,
    pub gen_instrs: u64,
    /// `OooCore::tick` minus the memory and generator calls nested in it.
    pub cpu_self: Duration,
    pub cpu_ticks: u64,
    /// `DataMemory` calls on the hierarchy.
    pub hier_tick: Duration,
    pub hier_issue: Duration,
    pub hier_drain: Duration,
    pub issues: u64,
    pub issues_refused: u64,
    /// Hierarchy self time (tick + issue + drain + its `next_event`) per
    /// configuration label.
    pub hier_self_by_config: BTreeMap<String, Duration>,
    /// Both `next_event`s of the solo loop and the CMP machine's.
    pub next_event: Duration,
    pub iterations: u64,
    pub cycles: u64,
    /// `System::build_spec` + `OooCore::new`, or `CmpMachine::from_spec`.
    pub build: Duration,
    /// `CmpMachine::tick` / `CmpMachine::next_event`.
    pub cmp_tick: Duration,
    pub cmp_next_event: Duration,
    /// `energy_model::account_for`.
    pub energy: Duration,
}

/// Wraps the trace so every `next` call is timed into shared counters.
struct TimedTrace<I> {
    inner: I,
    nanos: Rc<Cell<u64>>,
    produced: Rc<Cell<u64>>,
}

impl<I: Iterator<Item = Instr>> Iterator for TimedTrace<I> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let start = Instant::now();
        let item = self.inner.next();
        self.nanos.set(self.nanos.get() + nanos(start.elapsed()));
        if item.is_some() {
            self.produced.set(self.produced.get() + 1);
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// A `DataMemory` adapter that times every call into the hierarchy.
struct TimedMemory<'a> {
    inner: &'a mut AnyHierarchy,
    tick: Duration,
    issue: Duration,
    drain: Duration,
    issues: u64,
    refused: u64,
}

impl<'a> TimedMemory<'a> {
    fn new(inner: &'a mut AnyHierarchy) -> Self {
        TimedMemory {
            inner,
            tick: Duration::ZERO,
            issue: Duration::ZERO,
            drain: Duration::ZERO,
            issues: 0,
            refused: 0,
        }
    }
}

impl DataMemory for TimedMemory<'_> {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let start = Instant::now();
        let accepted = self.inner.issue(req, now);
        self.issue += start.elapsed();
        self.issues += 1;
        self.refused += u64::from(!accepted);
        accepted
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let start = Instant::now();
        self.inner.drain_completions(now, out);
        self.drain += start.elapsed();
    }

    fn tick(&mut self, now: Cycle) {
        let start = Instant::now();
        self.inner.tick(now);
        self.tick += start.elapsed();
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event(now)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The earlier of two optional horizons (`None` = never).
fn min_horizon(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// The event-horizon jump shared by both loops, clamped to the cycle cap.
fn jump(horizon: Option<Cycle>, now: Cycle, cycle_cap: u64) -> Cycle {
    horizon
        .unwrap_or(Cycle(cycle_cap))
        .max(now.next())
        .min(Cycle(cycle_cap).max(now.next()))
}

/// Runs one single-core job with every layer timed from outside.
///
/// # Errors
///
/// Returns a [`ConfigError`] if the composition is invalid.
pub fn run_solo(
    engine: Engine,
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    times: &mut LayerTimes,
) -> Result<RunResult, ConfigError> {
    let gen_nanos = Rc::new(Cell::new(0u64));
    let produced = Rc::new(Cell::new(0u64));
    let build_start = Instant::now();
    let mut hierarchy = System::build_spec(spec)?;
    let trace = TimedTrace {
        inner: TraceGenerator::new(profile.clone(), seed)
            .take(usize::try_from(instructions).unwrap_or(usize::MAX)),
        nanos: Rc::clone(&gen_nanos),
        produced: Rc::clone(&produced),
    };
    let mut core = OooCore::new(CoreConfig::paper(), trace)?;
    times.build += build_start.elapsed();

    let mut hier_self = Duration::ZERO;
    let mut now = Cycle(0);
    let cycle_cap = instructions.saturating_mul(400) + 1_000_000;
    while !core.is_finished() && now.0 < cycle_cap {
        times.iterations += 1;
        let mut memory = TimedMemory::new(&mut hierarchy);
        memory.tick(now);
        let gen_before = gen_nanos.get();
        let tick_start = Instant::now();
        core.tick(now, &mut memory);
        let core_wall = tick_start.elapsed();
        let gen_in_tick = Duration::from_nanos(gen_nanos.get() - gen_before);
        let nested = memory.issue + memory.drain + gen_in_tick;
        times.cpu_self += core_wall.saturating_sub(nested);
        times.cpu_ticks += 1;
        times.hier_tick += memory.tick;
        times.hier_issue += memory.issue;
        times.hier_drain += memory.drain;
        times.issues += memory.issues;
        times.issues_refused += memory.refused;
        hier_self += memory.tick + memory.issue + memory.drain;
        now = match engine {
            Engine::CycleStep => now.next(),
            Engine::EventHorizon => {
                if core.is_finished() {
                    now.next()
                } else {
                    let start = Instant::now();
                    let h = hierarchy.next_event(now);
                    let hier_next = start.elapsed();
                    let c = core.next_event(now);
                    times.next_event += start.elapsed();
                    hier_self += hier_next;
                    jump(min_horizon(h, c), now, cycle_cap)
                }
            }
        };
    }
    core.finalize_stats(now);

    let stats = hierarchy.stats();
    let start = Instant::now();
    let energy = energy_model::account_for(&stats, now.0);
    times.energy += start.elapsed();
    *times
        .hier_self_by_config
        .entry(stats.label.clone())
        .or_default() += hier_self;
    times.gen += Duration::from_nanos(gen_nanos.get());
    times.gen_instrs += produced.get();
    times.cycles += now.0;
    Ok(RunResult {
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
    })
}

/// Runs one multicore job with `CmpMachine::tick` / `next_event` timed
/// from outside (the machine ticks its cores and private domains inside
/// one call, so the CMP layer is not split further).
///
/// # Errors
///
/// Returns a [`ConfigError`] if the composition is invalid.
pub fn run_cmp(
    engine: Engine,
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    times: &mut LayerTimes,
) -> Result<RunResult, ConfigError> {
    let build_start = Instant::now();
    let mut machine: CmpMachine =
        CmpMachine::from_spec(spec, profile, instructions, seed, lnuca_mem::NoProbe)?;
    times.build += build_start.elapsed();
    let cycle_cap = instructions.saturating_mul(400) + 1_000_000;
    let mut now = Cycle(0);
    while !machine.is_finished() && now.0 < cycle_cap {
        times.iterations += 1;
        let start = Instant::now();
        machine.tick(now);
        times.cmp_tick += start.elapsed();
        now = match engine {
            Engine::CycleStep => now.next(),
            Engine::EventHorizon => {
                if machine.is_finished() {
                    now.next()
                } else {
                    let start = Instant::now();
                    let horizon = machine.next_event(now);
                    let spent = start.elapsed();
                    times.cmp_next_event += spent;
                    times.next_event += spent;
                    jump(horizon, now, cycle_cap)
                }
            }
        };
    }
    machine.finalize(now);
    let result = machine.result(now);
    // `result` runs the energy model internally; time the same call on the
    // same input from outside, and check it agrees.
    let start = Instant::now();
    let energy = energy_model::account_for(&result.hierarchy, result.cycles);
    times.energy += start.elapsed();
    assert_eq!(
        energy, result.energy,
        "energy accounting is a pure function"
    );
    times.cycles += now.0;
    Ok(result)
}
