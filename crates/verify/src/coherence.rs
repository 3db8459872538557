//! The coherence oracle (DESIGN.md §17): a timing-free, map-based MSI
//! reference directory that replays the coherence event stream of a CMP
//! run and cross-checks it against the detailed machine.
//!
//! The detailed side uses the fixed-slot [`lnuca_coherence::Directory`];
//! the oracle deliberately does **not** share that code. It keeps an
//! unbounded `BTreeMap` of line states and applies the MSI transition
//! rules from first principles, so a bookkeeping bug in the fixed-slot
//! implementation cannot hide in both models at once. Capacity recalls
//! are the one thing an unbounded map cannot predict, so those arrive as
//! explicit [`ProbeEvent::CoherentRecall`] events and the oracle checks
//! they are *legal* (the line was tracked) rather than *necessary*.
//!
//! Checked per run:
//!
//! * **transition legality** — every claimed private-domain hit had the
//!   required permission (read: any copy; write: owned Modified), every
//!   eviction notice came from a holder, every recall hit a tracked
//!   line, and Modified lines never have co-sharers;
//! * **per-core counters** — hits, misses and invalidations received per
//!   core match the [`CoreRow`](lnuca_sim::CoreRow)s of the result;
//! * **directory counters** — every [`DirectoryCounters`] field,
//!   including the per-core invalidation vector, matches the replay;
//! * **writeback totals** — the model's writeback count matches the
//!   hierarchy's drain counter;
//! * **final owner/sharer sets** — the lines the fixed-slot directory
//!   still tracks at the end of the run, with their exact state, sharer
//!   mask and owner, equal the oracle's surviving map entries.

use crate::recorder::RecordingProbe;
use lnuca_coherence::{DirectoryCounters, MsiState};
use lnuca_mem::ProbeEvent;
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::{Engine, RunResult, System};
use lnuca_sim::CmpMemory;
use lnuca_workloads::WorkloadProfile;
use std::collections::BTreeMap;
use std::fmt;

/// A divergence between the detailed CMP machine and the reference MSI
/// model (or an invalid configuration / a non-CMP spec).
#[derive(Debug)]
pub struct CoherenceError {
    /// Which run diverged.
    pub context: String,
    /// What diverged.
    pub details: Vec<String>,
}

impl fmt::Display for CoherenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "coherence oracle failed for {}", self.context)?;
        for d in &self.details {
            writeln!(f, "  - {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CoherenceError {}

/// Summary of one verified CMP run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceReport {
    /// Hierarchy label (e.g. `4x LN2-72KB`).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Seed of the synthetic trace.
    pub seed: u64,
    /// Cores in the machine.
    pub cores: usize,
    /// Coherence events replayed.
    pub events: usize,
    /// Demand accesses observed (hits + misses over all cores).
    pub accesses: u64,
    /// Directory read/write transactions.
    pub transactions: u64,
    /// Capacity recalls the fixed-slot directory performed.
    pub recalls: u64,
    /// Dirty lines drained to the shared level.
    pub writebacks: u64,
    /// Lines the directory still tracked when the run ended.
    pub live_lines: usize,
}

/// One tracked line of the reference model. `owner == Some(c)` means
/// Modified (and then `sharers` must be exactly core `c`'s bit);
/// `owner == None` means Shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModelLine {
    sharers: u64,
    owner: Option<usize>,
}

/// The timing-free reference directory: unbounded line map plus every
/// counter the fixed-slot implementation keeps.
#[derive(Debug)]
struct Model {
    cores: usize,
    block_size: u64,
    lines: BTreeMap<u64, ModelLine>,
    // Per-core demand counters (mirroring the lanes).
    hits: Vec<u64>,
    misses: Vec<u64>,
    // Mirrors of `DirectoryCounters`.
    reads: u64,
    writes: u64,
    evictions: u64,
    dir_hits: u64,
    dir_misses: u64,
    invalidations_sent: u64,
    downgrades: u64,
    writebacks: u64,
    recalls: u64,
    per_core_invalidations: Vec<u64>,
    errors: Vec<String>,
}

impl Model {
    fn new(cores: usize, block_size: u64) -> Self {
        Model {
            cores,
            block_size,
            lines: BTreeMap::new(),
            hits: vec![0; cores],
            misses: vec![0; cores],
            reads: 0,
            writes: 0,
            evictions: 0,
            dir_hits: 0,
            dir_misses: 0,
            invalidations_sent: 0,
            downgrades: 0,
            writebacks: 0,
            recalls: 0,
            per_core_invalidations: vec![0; cores],
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        // Keep the first few divergences; a broken run floods otherwise.
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn send_invalidations(&mut self, mask: u64) {
        for c in 0..self.cores {
            if mask & (1u64 << c) != 0 {
                self.invalidations_sent += 1;
                self.per_core_invalidations[c] += 1;
            }
        }
    }

    fn apply(&mut self, index: usize, event: &ProbeEvent) {
        match *event {
            ProbeEvent::CoherentAccess {
                core,
                addr,
                is_write,
                hit,
            } => {
                let core = core as usize;
                if core >= self.cores {
                    self.fail(format!("event {index}: core {core} out of range"));
                    return;
                }
                let line = addr.0 / self.block_size;
                let bit = 1u64 << core;
                if hit {
                    self.hits[core] += 1;
                    let held = self.lines.get(&line);
                    let legal = match held {
                        Some(l) if is_write => l.owner == Some(core),
                        Some(l) => l.sharers & bit != 0,
                        None => false,
                    };
                    if !legal {
                        self.fail(format!(
                            "event {index}: core {core} claims a {} hit on line {line:#x} \
                             without permission ({held:?})",
                            if is_write { "write" } else { "read" },
                        ));
                    }
                    return;
                }
                self.misses[core] += 1;
                if is_write {
                    self.writes += 1;
                    match self.lines.get(&line).copied() {
                        Some(l) => {
                            self.dir_hits += 1;
                            if l.owner.is_some() && l.sharers != bit {
                                self.writebacks += 1;
                            }
                            self.send_invalidations(l.sharers & !bit);
                            self.lines.insert(
                                line,
                                ModelLine {
                                    sharers: bit,
                                    owner: Some(core),
                                },
                            );
                        }
                        None => {
                            self.dir_misses += 1;
                            self.lines.insert(
                                line,
                                ModelLine {
                                    sharers: bit,
                                    owner: Some(core),
                                },
                            );
                        }
                    }
                } else {
                    self.reads += 1;
                    match self.lines.get(&line).copied() {
                        Some(mut l) => {
                            self.dir_hits += 1;
                            if l.owner.is_some() && l.sharers != bit {
                                // Remote owner downgrades, staying a sharer.
                                self.downgrades += 1;
                                self.writebacks += 1;
                                l.owner = None;
                            }
                            if l.owner.is_none() {
                                l.sharers |= bit;
                            }
                            self.lines.insert(line, l);
                        }
                        None => {
                            self.dir_misses += 1;
                            self.lines.insert(
                                line,
                                ModelLine {
                                    sharers: bit,
                                    owner: None,
                                },
                            );
                        }
                    }
                }
            }
            ProbeEvent::CoherentEvict { core, addr } => {
                let core = core as usize;
                self.evictions += 1;
                let line = addr.0 / self.block_size;
                let bit = 1u64 << core;
                let Some(mut l) = self.lines.get(&line).copied() else {
                    self.fail(format!(
                        "event {index}: core {core} evicts untracked line {line:#x}"
                    ));
                    return;
                };
                if l.sharers & bit == 0 {
                    self.fail(format!(
                        "event {index}: core {core} evicts line {line:#x} it does not hold"
                    ));
                    return;
                }
                if l.owner == Some(core) {
                    self.writebacks += 1;
                }
                l.sharers &= !bit;
                l.owner = None;
                if l.sharers == 0 {
                    self.lines.remove(&line);
                } else {
                    self.lines.insert(line, l);
                }
            }
            ProbeEvent::CoherentRecall { addr } => {
                self.recalls += 1;
                let line = addr.0 / self.block_size;
                let Some(l) = self.lines.remove(&line) else {
                    self.fail(format!("event {index}: recall of untracked line {line:#x}"));
                    return;
                };
                if l.owner.is_some() {
                    self.writebacks += 1;
                }
                self.send_invalidations(l.sharers);
            }
            ref other => {
                self.fail(format!("event {index}: non-coherence event in a CMP stream: {other:?}"));
            }
        }
        // MSI invariant after every transition: Modified is exclusive.
        if let ProbeEvent::CoherentAccess { addr, .. } = *event {
            let line = addr.0 / self.block_size;
            if let Some(l) = self.lines.get(&line) {
                if let Some(owner) = l.owner {
                    if l.sharers != 1u64 << owner {
                        self.fail(format!(
                            "event {index}: line {line:#x} Modified by core {owner} with \
                             sharer mask {:#x}",
                            l.sharers
                        ));
                    }
                }
            }
        }
    }

    fn check_counters(&mut self, counters: &DirectoryCounters) {
        let pairs = [
            ("reads", self.reads, counters.reads),
            ("writes", self.writes, counters.writes),
            ("evictions", self.evictions, counters.evictions),
            ("hits", self.dir_hits, counters.hits),
            ("misses", self.dir_misses, counters.misses),
            ("invalidations_sent", self.invalidations_sent, counters.invalidations_sent),
            ("downgrades", self.downgrades, counters.downgrades),
            ("writebacks", self.writebacks, counters.writebacks),
            ("recalls", self.recalls, counters.recalls),
        ];
        for (name, model, detailed) in pairs {
            if model != detailed {
                self.fail(format!(
                    "directory counter {name}: {detailed} detailed vs {model} reference"
                ));
            }
        }
        if self.per_core_invalidations != counters.per_core_invalidations {
            self.fail(format!(
                "per-core invalidations: {:?} detailed vs {:?} reference",
                counters.per_core_invalidations, self.per_core_invalidations
            ));
        }
    }

    fn check_rows(&mut self, result: &RunResult) {
        if result.per_core.len() != self.cores {
            self.fail(format!(
                "result has {} per-core rows for {} cores",
                result.per_core.len(),
                self.cores
            ));
            return;
        }
        for row in &result.per_core {
            let c = row.core;
            if row.coherence_hits != self.hits[c] || row.coherence_misses != self.misses[c] {
                self.fail(format!(
                    "core {c} demand counters: {}/{} detailed vs {}/{} reference (hits/misses)",
                    row.coherence_hits, row.coherence_misses, self.hits[c], self.misses[c]
                ));
            }
            if row.invalidations_received != self.per_core_invalidations[c] {
                self.fail(format!(
                    "core {c} invalidations received: {} detailed vs {} reference",
                    row.invalidations_received, self.per_core_invalidations[c]
                ));
            }
        }
        if result.hierarchy.write_drains != self.writebacks {
            self.fail(format!(
                "write drains: {} detailed vs {} reference",
                result.hierarchy.write_drains, self.writebacks
            ));
        }
        match &result.coherence {
            Some(stats) => {
                if stats.writebacks != self.writebacks || stats.recalls != self.recalls {
                    self.fail(format!(
                        "result coherence block disagrees with the replay: {stats:?}"
                    ));
                }
            }
            None => self.fail("CMP result is missing its coherence block".to_owned()),
        }
    }

    fn check_final_lines(&mut self, mem: &CmpMemory<RecordingProbe>) {
        let detailed: BTreeMap<u64, (MsiState, u64, Option<usize>)> = mem
            .tracked_lines()
            .map(|(line, state, sharers, owner)| (line, (state, sharers, owner)))
            .collect();
        let modelled: BTreeMap<u64, (MsiState, u64, Option<usize>)> = self
            .lines
            .iter()
            .map(|(&line, l)| {
                let state = match l.owner {
                    Some(_) => MsiState::Modified,
                    None => MsiState::Shared,
                };
                (line, (state, l.sharers, l.owner))
            })
            .collect();
        if detailed != modelled {
            let only_detailed: Vec<_> = detailed
                .iter()
                .filter(|(k, v)| modelled.get(k) != Some(v))
                .take(4)
                .collect();
            let only_model: Vec<_> = modelled
                .iter()
                .filter(|(k, v)| detailed.get(k) != Some(v))
                .take(4)
                .collect();
            self.fail(format!(
                "final owner/sharer sets differ: {} detailed vs {} reference lines; \
                 detailed-only (first 4): {only_detailed:x?}; \
                 reference-only (first 4): {only_model:x?}",
                detailed.len(),
                modelled.len()
            ));
        }
    }
}

/// Runs `profile` on the CMP hierarchy described by `spec` (which must
/// have `cores > 1`... or 1 — the degenerate machine verifies too, it
/// must simply never produce coherence traffic beyond its own misses),
/// records the coherence event stream and replays it through the
/// reference MSI model described in the [module docs](self).
///
/// `instructions` is the per-core budget, as everywhere in the CMP path.
///
/// # Errors
///
/// Returns a [`CoherenceError`] describing the first divergences (or an
/// invalid configuration).
pub fn run_coherence(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    engine: Engine,
) -> Result<CoherenceReport, CoherenceError> {
    let context = format!(
        "{} / {} / seed {} / {} / {} instructions x {} cores",
        spec.label(),
        profile.name,
        seed,
        engine.label(),
        instructions,
        spec.cores
    );
    let fail = |details: Vec<String>| CoherenceError {
        context: context.clone(),
        details,
    };

    let (result, hierarchy) = System::run_spec_probed(
        engine,
        spec,
        profile,
        instructions,
        seed,
        RecordingProbe::default(),
    )
    .map_err(|e| fail(vec![format!("configuration error: {e}")]))?;
    let lnuca_sim::hierarchy::AnyHierarchy::Cmp(mem) = hierarchy else {
        return Err(fail(vec![format!(
            "spec with {} cores did not build a CMP machine",
            spec.cores
        )]));
    };

    let mut model = Model::new(mem.cores(), mem.block_size());
    for (index, event) in mem.probe().events.iter().enumerate() {
        model.apply(index, event);
    }
    model.check_counters(mem.directory_counters());
    model.check_rows(&result);
    model.check_final_lines(&mem);
    if !model.errors.is_empty() {
        return Err(fail(std::mem::take(&mut model.errors)));
    }
    Ok(CoherenceReport {
        label: result.label.clone(),
        workload: profile.name.clone(),
        seed,
        cores: mem.cores(),
        events: mem.probe().events.len(),
        accesses: model.hits.iter().sum::<u64>() + model.misses.iter().sum::<u64>(),
        transactions: model.reads + model.writes,
        recalls: model.recalls,
        writebacks: model.writebacks,
        live_lines: model.lines.len(),
    })
}

/// [`run_coherence`] under both engines, additionally asserting the two
/// reports (and hence the two runs' coherence behaviour) are identical.
///
/// # Errors
///
/// Returns a [`CoherenceError`] from either engine's run, or one
/// describing the cross-engine divergence.
pub fn run_coherence_both_engines(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> Result<CoherenceReport, CoherenceError> {
    let horizon = run_coherence(spec, profile, instructions, seed, Engine::EventHorizon)?;
    let step = run_coherence(spec, profile, instructions, seed, Engine::CycleStep)?;
    if horizon != step {
        return Err(CoherenceError {
            context: format!("{} / {} / seed {seed}", spec.label(), profile.name),
            details: vec![format!(
                "engines diverged: event-horizon {horizon:?} vs cycle-step {step:?}"
            )],
        });
    }
    Ok(horizon)
}
