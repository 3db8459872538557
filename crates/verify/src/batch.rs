//! The batch-equivalence layer over the differential oracle
//! (DESIGN.md §13).
//!
//! The batched engine's contract is stronger than "same final counters":
//! every member of a [`BatchRunner`] must be **bit-identical** to its solo
//! run — the full [`lnuca_sim::system::RunResult`] *and* the complete
//! probe event stream, so batch composition can never leak between
//! members even in ways the counters would not show.
//!
//! The layer reuses the PR 4 plumbing end to end: a
//! [`SequentialBaseline`] first runs every case through the sequential
//! differential oracle (recording probe → reference-model replay →
//! counter/residency cross-check), keeping each run's result and live
//! event stream. [`SequentialBaseline::check_batched`] then replays the
//! same cases through a [`BatchRunner`] at any batch size and asserts
//! both artefacts match run for run. A batched run therefore inherits the
//! oracle's functional guarantees by transitivity: identical stream ⇒
//! identical replay.
//!
//! # Example
//!
//! ```
//! use lnuca_sim::spec::HierarchySpec;
//! use lnuca_sim::system::Engine;
//! use lnuca_verify::batch::{BatchCase, SequentialBaseline};
//! use lnuca_workloads::suites;
//!
//! let spec = HierarchySpec::lnuca_l3(2).unwrap();
//! let cases: Vec<BatchCase> = suites::spec_int_like()[..2]
//!     .iter()
//!     .map(|profile| BatchCase {
//!         spec: spec.clone(),
//!         profile: profile.clone(),
//!         instructions: 1_000,
//!         seed: 1,
//!     })
//!     .collect();
//! let baseline = SequentialBaseline::capture(Engine::EventHorizon, cases)?;
//! let report = baseline.check_batched(2)?;
//! assert_eq!(report.runs, 2);
//! assert_eq!(report.batches, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::harness::{run_differential_impl, DifferentialError, DifferentialReport, LiveRun};
use crate::recorder::RecordingProbe;
use lnuca_sim::batch::{BatchJob, BatchRunner};
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::Engine;
use lnuca_workloads::WorkloadProfile;

/// One run of the equivalence matrix (the owned form of
/// [`lnuca_sim::batch::BatchJob`]).
#[derive(Debug, Clone)]
pub struct BatchCase {
    /// Hierarchy to simulate.
    pub spec: HierarchySpec,
    /// Synthetic workload profile.
    pub profile: WorkloadProfile,
    /// Instruction budget.
    pub instructions: u64,
    /// Trace seed.
    pub seed: u64,
}

/// Summary of one batched pass over a verified baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEquivalenceReport {
    /// Batch size the pass ran at.
    pub batch_size: usize,
    /// Batches the cases were cut into.
    pub batches: usize,
    /// Runs compared bit-for-bit (all of them, or the pass failed).
    pub runs: usize,
}

/// The sequential side of the equivalence check: every case run through
/// the full differential oracle once, with its result and live event
/// stream retained for any number of batched passes to compare against.
pub struct SequentialBaseline {
    engine: Engine,
    cases: Vec<BatchCase>,
    runs: Vec<LiveRun>,
    /// The oracle reports of the sequential runs, case for case.
    pub reports: Vec<DifferentialReport>,
}

impl SequentialBaseline {
    /// Runs every case through the sequential differential oracle
    /// ([`crate::harness::run_differential_spec`] semantics), retaining the
    /// per-case results and live event streams.
    ///
    /// # Errors
    ///
    /// Returns the oracle's [`DifferentialError`] for the first case that
    /// diverges from the reference model (or fails to build).
    pub fn capture(engine: Engine, cases: Vec<BatchCase>) -> Result<Self, DifferentialError> {
        let mut runs = Vec::with_capacity(cases.len());
        let mut reports = Vec::with_capacity(cases.len());
        for case in &cases {
            let (report, live) = run_differential_impl(
                &case.spec,
                &case.profile,
                case.instructions,
                case.seed,
                engine,
            )?;
            runs.push(live);
            reports.push(report);
        }
        Ok(SequentialBaseline {
            engine,
            cases,
            runs,
            reports,
        })
    }

    /// Number of cases in the baseline.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// `true` when the baseline holds no cases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// Cuts the cases into contiguous batches of `batch_size` (`0` means
    /// one full-width batch), runs each through a probed [`BatchRunner`],
    /// and asserts every member's [`lnuca_sim::system::RunResult`] and
    /// probe event stream are bit-identical to its sequential baseline
    /// run.
    ///
    /// # Errors
    ///
    /// Returns a [`DifferentialError`] naming the diverging run, or the
    /// member configuration that failed to build.
    pub fn check_batched(
        &self,
        batch_size: usize,
    ) -> Result<BatchEquivalenceReport, DifferentialError> {
        let width = if batch_size == 0 {
            self.cases.len().max(1)
        } else {
            batch_size
        };
        let mut batches = 0;
        let mut runs = 0;
        for (batch_index, (cases, expected)) in self
            .cases
            .chunks(width)
            .zip(self.runs.chunks(width))
            .enumerate()
        {
            let jobs: Vec<BatchJob<'_>> = cases
                .iter()
                .map(|case| BatchJob {
                    spec: &case.spec,
                    profile: &case.profile,
                    instructions: case.instructions,
                    seed: case.seed,
                })
                .collect();
            let runner = BatchRunner::with_probes(self.engine, &jobs, RecordingProbe::default)
                .map_err(|e| DifferentialError {
                    context: format!("batch #{batch_index} of width {width}"),
                    details: vec![format!("configuration error: {e}")],
                })?;
            batches += 1;
            for ((case, expect), (result, probe)) in cases.iter().zip(expected).zip(runner.run()) {
                let context = format!(
                    "{} / {} / seed {} / {} / {} instructions / batch #{batch_index} width {width}",
                    case.spec.label(),
                    case.profile.name,
                    case.seed,
                    self.engine.label(),
                    case.instructions
                );
                if result != expect.result {
                    return Err(DifferentialError {
                        context,
                        details: vec![
                            "batched RunResult differs from the sequential run".to_owned()
                        ],
                    });
                }
                // The batched run stops exactly where the solo run loop
                // does (no quiescing walk), so its whole stream must equal
                // the baseline's pre-quiescing prefix.
                let events = &probe.events;
                if events != &expect.live_events {
                    let first = events
                        .iter()
                        .zip(&expect.live_events)
                        .position(|(a, b)| a != b)
                        .unwrap_or(events.len().min(expect.live_events.len()));
                    return Err(DifferentialError {
                        context,
                        details: vec![format!(
                            "probe streams diverge at event #{first} \
                             ({} batched vs {} sequential events)",
                            events.len(),
                            expect.live_events.len()
                        )],
                    });
                }
                runs += 1;
            }
        }
        Ok(BatchEquivalenceReport {
            batch_size: width,
            batches,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_workloads::suites;

    fn small_cases() -> Vec<BatchCase> {
        let specs = [
            HierarchySpec::conventional(),
            HierarchySpec::lnuca_l3(2).unwrap(),
        ];
        let profiles = suites::spec_int_like();
        specs
            .iter()
            .flat_map(|spec| {
                profiles[..2].iter().map(|profile| BatchCase {
                    spec: spec.clone(),
                    profile: profile.clone(),
                    instructions: 800,
                    seed: 5,
                })
            })
            .collect()
    }

    #[test]
    fn every_cut_of_the_case_list_is_equivalent() {
        let baseline = SequentialBaseline::capture(Engine::EventHorizon, small_cases()).unwrap();
        assert_eq!(baseline.len(), 4);
        for (batch_size, batches) in [(1, 4), (3, 2), (0, 1)] {
            let report = baseline.check_batched(batch_size).unwrap();
            assert_eq!(report.runs, 4, "batch size {batch_size}");
            assert_eq!(report.batches, batches, "batch size {batch_size}");
        }
    }

    #[test]
    fn the_reports_carry_real_oracle_traffic() {
        let baseline = SequentialBaseline::capture(Engine::CycleStep, small_cases()).unwrap();
        assert!(baseline
            .reports
            .iter()
            .all(|r| r.accesses > 0 && r.events as u64 >= r.accesses));
        baseline.check_batched(2).unwrap();
    }
}
