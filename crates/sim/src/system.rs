//! A complete system: out-of-order core + memory hierarchy.
//!
//! [`System`] builds hierarchies and is the front door for single runs.
//! Every run entry point is a one-member [`BatchRunner`], so the run loop
//! (engine step, cycle cap, run tail) is written once, in
//! [`crate::batch`]; specs with `cores > 1` run on the CMP machine
//! (DESIGN.md §17) through the same driver.

use crate::batch::{BatchJob, BatchRunner};
use crate::configs::HierarchyKind;
use crate::hierarchy::{AnyHierarchy, ClassicHierarchy, HierarchyStats, LNucaHierarchy};
use crate::spec::HierarchySpec;
use lnuca_cpu::CoreStats;
use lnuca_energy::EnergyAccount;
use lnuca_mem::{NoProbe, ProbeSink};
use lnuca_types::ConfigError;
use lnuca_workloads::{Suite, WorkloadProfile};

/// How [`System::run_workload_with`] advances simulated time.
///
/// Both engines drive the same components through the same ticks and are
/// **bit-identical** in every [`RunResult`] field — pinned by
/// `tests/event_horizon_determinism.rs` — they differ only in how much wall
/// clock is wasted crawling through dead cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Advance `now` by one cycle per iteration (the reference engine).
    CycleStep,
    /// Jump `now` straight to the minimum [`lnuca_cpu::DataMemory::next_event`]
    /// / [`lnuca_cpu::OooCore::next_event`] horizon whenever no component is
    /// actively transferring, instead of single-stepping through idle time
    /// (DESIGN.md §10).
    #[default]
    EventHorizon,
}

impl Engine {
    /// Machine-readable engine name, as recorded in the
    /// `lnuca-bench-baseline/v2` schema's `engine` field.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::CycleStep => "cycle-step",
            Engine::EventHorizon => "event-horizon",
        }
    }

    /// Parses an engine name as the `LNUCA_ENGINE` knob and the scenario
    /// files spell it; `None` for anything unrecognised.
    #[must_use]
    pub fn parse(raw: &str) -> Option<Engine> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "event" | "event-horizon" | "horizon" => Some(Engine::EventHorizon),
            "cycle" | "cycle-step" | "step" | "naive" => Some(Engine::CycleStep),
            _ => None,
        }
    }
}

/// The outcome of simulating one workload on one hierarchy.
///
/// Every field is a deterministic function of (hierarchy kind, workload
/// profile, instruction count, seed) — `PartialEq` compares bit-exactly,
/// which is what the parallel-vs-sequential determinism tests rely on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunResult {
    /// Hierarchy label (e.g. `LN3-144KB`).
    pub label: String,
    /// Workload name (e.g. `int.compress`).
    pub workload: String,
    /// Workload suite (Integer or Floating-Point).
    pub suite: Suite,
    /// Instructions committed.
    pub instructions: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Core-side counters.
    pub core: CoreStats,
    /// Hierarchy-side counters.
    pub hierarchy: HierarchyStats,
    /// Energy ledger of the run.
    pub energy: EnergyAccount,
    /// Per-core rows of a CMP run; empty for single-core runs, so
    /// single-core comparisons and serialisations are unchanged.
    pub per_core: Vec<crate::cmp::CoreRow>,
    /// MSI-directory counters of a CMP run; `None` for single-core runs.
    pub coherence: Option<crate::cmp::CoherenceStats>,
}

/// Builder/driver for a core + hierarchy simulation.
///
/// # Example
///
/// ```
/// use lnuca_sim::configs::{self, HierarchyKind};
/// use lnuca_sim::system::System;
/// use lnuca_workloads::WorkloadProfile;
///
/// let kind = HierarchyKind::Conventional(configs::conventional());
/// let result = System::run_workload(&kind, &WorkloadProfile::default(), 5_000, 7)?;
/// assert_eq!(result.instructions, 5_000);
/// assert!(result.ipc > 0.0);
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct System;

impl System {
    /// Instantiates the hierarchy described by `kind`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any component configuration is invalid.
    pub fn build_hierarchy(kind: &HierarchyKind) -> Result<AnyHierarchy, ConfigError> {
        Self::build_hierarchy_probed(kind, NoProbe)
    }

    /// Instantiates the hierarchy described by `kind` with functional
    /// instrumentation reporting to `probe` (DESIGN.md §11). The enum is
    /// lowered to its [`HierarchySpec`] first; the spec path is the one
    /// implementation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any component configuration is invalid.
    pub fn build_hierarchy_probed<P: ProbeSink>(
        kind: &HierarchyKind,
        probe: P,
    ) -> Result<AnyHierarchy<P>, ConfigError> {
        Self::build_spec_probed(&kind.to_spec(), probe)
    }

    /// Instantiates the hierarchy described by `spec`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the composition is invalid.
    pub fn build_spec(spec: &HierarchySpec) -> Result<AnyHierarchy, ConfigError> {
        Self::build_spec_probed(spec, NoProbe)
    }

    /// Instantiates the hierarchy described by `spec` with functional
    /// instrumentation reporting to `probe`: a
    /// [`crate::hierarchy::LNucaHierarchy`] when the spec has a fabric, a
    /// [`crate::hierarchy::ClassicHierarchy`] otherwise.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the composition is invalid.
    pub fn build_spec_probed<P: ProbeSink>(
        spec: &HierarchySpec,
        probe: P,
    ) -> Result<AnyHierarchy<P>, ConfigError> {
        Ok(if spec.fabric.is_some() {
            AnyHierarchy::LNuca(LNucaHierarchy::from_spec_probed(spec, probe)?)
        } else {
            AnyHierarchy::Classic(ClassicHierarchy::from_spec_probed(spec, probe)?)
        })
    }

    /// Runs `instructions` instructions of `profile` on the hierarchy
    /// described by `kind`, with the paper's core configuration and the
    /// default [`Engine::EventHorizon`] time stepping.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any configuration is invalid.
    pub fn run_workload(
        kind: &HierarchyKind,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
    ) -> Result<RunResult, ConfigError> {
        Self::run_workload_with(Engine::EventHorizon, kind, profile, instructions, seed)
    }

    /// Runs `instructions` instructions of `profile` on the hierarchy
    /// described by `kind`, advancing time with the given [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any configuration is invalid.
    pub fn run_workload_with(
        engine: Engine,
        kind: &HierarchyKind,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
    ) -> Result<RunResult, ConfigError> {
        Self::run_workload_probed(engine, kind, profile, instructions, seed, NoProbe)
            .map(|(result, _)| result)
    }

    /// Runs `instructions` instructions of `profile` on the hierarchy
    /// described by `kind`, reporting every functional state transition to
    /// `probe`, and returns the final hierarchy (probe still inside —
    /// [`AnyHierarchy::into_probe`] extracts it) alongside the results so
    /// callers can also enumerate final cache residency.
    ///
    /// The probe observes but never feeds back: results are bit-identical to
    /// [`System::run_workload_with`] for any sink. The differential oracle in
    /// `lnuca-verify` records the event stream this way and replays it
    /// through its timing-free reference model.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any configuration is invalid.
    pub fn run_workload_probed<P: ProbeSink>(
        engine: Engine,
        kind: &HierarchyKind,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
        probe: P,
    ) -> Result<(RunResult, AnyHierarchy<P>), ConfigError> {
        Self::run_spec_probed(engine, &kind.to_spec(), profile, instructions, seed, probe)
    }

    /// Runs `instructions` instructions of `profile` on the hierarchy
    /// described by `spec`, with the default [`Engine::EventHorizon`] time
    /// stepping.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the composition is invalid.
    pub fn run_spec(
        spec: &HierarchySpec,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
    ) -> Result<RunResult, ConfigError> {
        Self::run_spec_with(Engine::EventHorizon, spec, profile, instructions, seed)
    }

    /// Runs `instructions` instructions of `profile` on the hierarchy
    /// described by `spec`, advancing time with the given [`Engine`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the composition is invalid.
    pub fn run_spec_with(
        engine: Engine,
        spec: &HierarchySpec,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
    ) -> Result<RunResult, ConfigError> {
        Self::run_spec_probed(engine, spec, profile, instructions, seed, NoProbe)
            .map(|(result, _)| result)
    }

    /// The spec-level core of every run entry point: see
    /// [`System::run_workload_probed`] for the probe semantics. The run is
    /// a one-member [`BatchRunner`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the composition is invalid.
    pub fn run_spec_probed<P: ProbeSink>(
        engine: Engine,
        spec: &HierarchySpec,
        profile: &WorkloadProfile,
        instructions: u64,
        seed: u64,
        probe: P,
    ) -> Result<(RunResult, AnyHierarchy<P>), ConfigError> {
        let job = BatchJob {
            spec,
            profile,
            instructions,
            seed,
        };
        let mut probe = Some(probe);
        let runner = BatchRunner::with_probes(engine, &[job], || {
            probe.take().expect("a one-member batch builds one member")
        })?;
        Ok(runner.run().pop().expect("a one-member batch has one result"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use lnuca_workloads::suites;

    const SMALL_RUN: u64 = 4_000;

    #[test]
    fn every_hierarchy_kind_builds() {
        for kind in [
            HierarchyKind::Conventional(configs::conventional()),
            HierarchyKind::LNucaL3(configs::lnuca_hierarchy(2)),
            HierarchyKind::LNucaL3(configs::lnuca_hierarchy(4)),
            HierarchyKind::DNuca(configs::dnuca_hierarchy()),
            HierarchyKind::LNucaDNuca(configs::lnuca_dnuca_hierarchy(3)),
        ] {
            assert!(System::build_hierarchy(&kind).is_ok(), "failed to build {}", kind.label());
        }
    }

    #[test]
    fn a_small_run_commits_every_instruction_and_reports_energy() {
        let kind = HierarchyKind::LNucaL3(configs::lnuca_hierarchy(3));
        let profile = &suites::spec_int_like()[0];
        let result = System::run_workload(&kind, profile, SMALL_RUN, 1).unwrap();
        assert_eq!(result.instructions, SMALL_RUN);
        assert!(result.ipc > 0.05 && result.ipc < 4.0, "IPC {} out of range", result.ipc);
        assert!(result.energy.total_pj() > 0.0);
        assert!(result.hierarchy.lnuca.is_some());
        assert_eq!(result.label, "LN3-144KB");
        assert_eq!(result.workload, profile.name);
    }

    #[test]
    fn runs_are_reproducible_for_the_same_seed() {
        let kind = HierarchyKind::Conventional(configs::conventional());
        let profile = &suites::spec_fp_like()[0];
        let a = System::run_workload(&kind, profile, SMALL_RUN, 9).unwrap();
        let b = System::run_workload(&kind, profile, SMALL_RUN, 9).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert!((a.ipc - b.ipc).abs() < 1e-12);
    }

    #[test]
    fn the_fabric_services_a_visible_share_of_former_l2_hits() {
        // The structural claim behind Table III: under an L-NUCA hierarchy a
        // workload with an L2-sized working set gets a significant number of
        // its reads serviced by the tiles.
        let profile = &suites::spec_int_like()[0];
        let lnuca = System::run_workload(
            &HierarchyKind::LNucaL3(configs::lnuca_hierarchy(3)),
            profile,
            15_000,
            2,
        )
        .unwrap();
        let fabric = lnuca.hierarchy.lnuca.as_ref().unwrap();
        assert!(fabric.read_hits() > 30, "fabric read hits: {}", fabric.read_hits());
        assert!(
            fabric.read_hits_in_level(2) >= fabric.read_hits_in_level(3),
            "closer levels service at least as many hits as farther ones"
        );
    }
}
