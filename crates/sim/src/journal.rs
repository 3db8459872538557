//! The crash-safe study journal behind `lnuca run --journal`/`--resume`
//! (DESIGN.md §14).
//!
//! A journal is a JSON-Lines file: one header line identifying the plan,
//! then one self-checked record line per **completed** run, appended (and
//! pushed to the OS in a single `write` call) the moment the run finishes.
//! Failures are never journaled — they are deterministic (or worth
//! retrying) and simply run again on resume. Both line kinds are declared
//! in the crate's JSON codec and written compactly; every float is stored
//! as its exact bit pattern, so a resumed report is byte-identical.
//!
//! The header carries a digest over the plan's *semantic* fields only: the
//! resolved workload names, the instruction budget, the base seed and the
//! fully-expanded hierarchy configurations. Execution knobs that cannot
//! change results — thread count, engine, batch size, watchdog budgets,
//! retries, the plan name — are excluded, so a study journaled on one
//! machine can be resumed with different parallelism and still produce a
//! byte-identical report (runs are deterministic; see
//! `tests/journal_digest.rs` for the pinned invariants).
//!
//! Robustness contract:
//!
//! * a torn trailing line (the process died mid-append) is silently
//!   dropped — that run simply re-runs;
//! * any other malformed line, a failed per-line checksum, a header
//!   mismatch or an out-of-range job index is a structured
//!   [`RunError::JournalCorrupt`] — never a panic, never silent reuse of
//!   data from a different plan.

use crate::codec::{self, names, record, At, Bits, DecodeError, Kind, Obj, Omit};
use crate::experiments::{ExperimentPlan, RunPerf};
use crate::hierarchy::HierarchyStats;
use crate::scenario::spec_to_value;
use crate::system::RunResult;
use lnuca_core::LNucaStats;
use lnuca_cpu::CoreStats;
use lnuca_dnuca::DNucaStats;
use lnuca_energy::EnergyAccount;
use lnuca_mem::CacheStats;
use lnuca_noc::mesh::MeshStats;
use lnuca_types::{ConfigError, RunError};
use lnuca_workloads::Suite;
use serde::json::{self, Value};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Schema identifier of the journal header line.
pub const JOURNAL_SCHEMA: &str = "lnuca-journal/v1";

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over a byte string — stable, dependency-free, plenty for
/// torn-write detection and plan identity (this is an integrity check, not
/// a cryptographic commitment).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The semantic identity of a plan: exactly the fields that determine the
/// bit-identical results of its matrix. Workloads are resolved to their
/// final name list (capturing both the selection keyword and any
/// per-suite cap); configurations are fully expanded spec documents.
fn plan_semantic_value(plan: &ExperimentPlan) -> Result<Value, ConfigError> {
    let workloads: Vec<Value> = plan
        .options
        .workloads()?
        .iter()
        .map(|profile| Value::String(profile.name.clone()))
        .collect();
    let mut members = Vec::new();
    codec::push_schema(&mut members, JOURNAL_SCHEMA);
    members.extend([
        (
            "instructions".to_owned(),
            Value::UInt(plan.options.instructions),
        ),
        ("seed".to_owned(), Value::UInt(plan.options.seed)),
        ("workloads".to_owned(), Value::Array(workloads)),
        (
            "configs".to_owned(),
            Value::Array(plan.configs.iter().map(spec_to_value).collect()),
        ),
    ]);
    Ok(Value::Object(members))
}

/// Digest of a plan's semantic fields (see `plan_semantic_value`) — the
/// content address a journal is bound to.
///
/// # Errors
///
/// [`RunError::Config`] when the plan's workload selection does not
/// resolve.
pub fn plan_digest(plan: &ExperimentPlan) -> Result<u64, RunError> {
    let value = plan_semantic_value(plan).map_err(RunError::Config)?;
    Ok(fnv1a(value.to_compact().as_bytes()))
}

/// Number of (configuration, workload) cells in a plan's matrix — the
/// index space journal records live in.
///
/// # Errors
///
/// [`RunError::Config`] when the plan's workload selection does not
/// resolve.
pub fn job_count(plan: &ExperimentPlan) -> Result<usize, RunError> {
    let workloads = plan.options.workloads().map_err(RunError::Config)?;
    Ok(plan.configs.len() * workloads.len())
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

// ---------------------------------------------------------------------------
// Lines (bit-exact: floats travel as `f64::to_bits`)
// ---------------------------------------------------------------------------

/// The header line binding a journal to its plan.
#[derive(Default)]
pub(crate) struct Header {
    plan: String,
    digest: String,
    jobs: usize,
}

record! {
    /// The header line.
    JournalHeader(Header), required, schema JOURNAL_SCHEMA {
        "plan" => plan: String,
        "digest" => digest: String,
        "jobs" => jobs: usize,
    }
}

/// One record line, without its `check` member.
#[derive(Default)]
pub(crate) struct Record {
    job: usize,
    result: RunResult,
    perf: RunPerf,
}

record! {
    /// A record line's body: the matrix index and the completed run.
    JournalRecord(Record), required {
        "job" => job: usize,
        "result" => result: JournalResult,
        "perf" => perf: JournalPerf,
    }
}

names! { Suite, "suite" {
    Suite::Integer => "int",
    Suite::FloatingPoint => "fp",
} }

record! {
    /// A [`RunResult`]. The CMP members are written only for CMP results,
    /// so single-core lines (and their digests) match older releases, and
    /// lines from before the multicore model still decode.
    JournalResult(RunResult), required {
        "label" => label: String,
        "workload" => workload: String,
        "suite" => suite: Suite,
        "instructions" => instructions: u64,
        "cycles" => cycles: u64,
        "ipc" => ipc: Bits,
        "core" => core: JournalCoreStats,
        "hierarchy" => hierarchy: JournalHierarchy,
        "energy" => energy: JournalEnergy,
        "per_core" => per_core: Omit<Vec<JournalCoreRow>>,
        "coherence" => coherence: Omit<Option<JournalCoherence>>,
    }
}

record! {
    /// A [`RunPerf`].
    JournalPerf(RunPerf), required {
        "label" => label: String,
        "workload" => workload: String,
        "wall_nanos" => wall_nanos: u64,
        "cycles" => cycles: u64,
        "kcycles_per_sec" => kcycles_per_sec: Bits,
    }
}

record! {
    /// A [`CoreStats`].
    JournalCoreStats(CoreStats), required {
        "fetched" => fetched: u64,
        "committed" => committed: u64,
        "loads" => loads: u64,
        "stores" => stores: u64,
        "branches" => branches: u64,
        "mispredictions" => mispredictions: u64,
        "load_latency_sum" => load_latency_sum: u64,
        "load_latency_samples" => load_latency_samples: u64,
        "rob_full_stalls" => rob_full_stalls: u64,
        "memory_reject_stalls" => memory_reject_stalls: u64,
        "store_buffer_stalls" => store_buffer_stalls: u64,
    }
}

record! {
    /// A [`CacheStats`].
    JournalCacheStats(CacheStats), required {
        "accesses" => accesses: u64,
        "read_hits" => read_hits: u64,
        "read_misses" => read_misses: u64,
        "write_hits" => write_hits: u64,
        "write_misses" => write_misses: u64,
        "fills" => fills: u64,
        "clean_evictions" => clean_evictions: u64,
        "dirty_evictions" => dirty_evictions: u64,
    }
}

record! {
    /// A [`HierarchyStats`].
    JournalHierarchy(HierarchyStats), required {
        "label" => label: String,
        "l1" => l1: JournalCacheStats,
        "l2" => l2: Option<JournalCacheStats>,
        "deeper_levels" => deeper_levels: Vec<JournalCacheStats>,
        "l3" => l3: Option<JournalCacheStats>,
        "lnuca" => lnuca: Option<JournalLNucaStats>,
        "lnuca_tiles" => lnuca_tiles: usize,
        "dnuca" => dnuca: Option<JournalDNucaStats>,
        "dnuca_mesh" => dnuca_mesh: Option<JournalMeshStats>,
        "dnuca_banks" => dnuca_banks: usize,
        "memory_accesses" => memory_accesses: u64,
        "write_drains" => write_drains: u64,
    }
}

record! {
    /// An [`LNucaStats`].
    JournalLNucaStats(LNucaStats), required {
        "searches" => searches: u64,
        "read_hits_per_level" => read_hits_per_level: Vec<u64>,
        "write_hits_per_level" => write_hits_per_level: Vec<u64>,
        "global_misses" => global_misses: u64,
        "tile_lookups" => tile_lookups: u64,
        "in_flight_hits" => in_flight_hits: u64,
        "tile_fills" => tile_fills: u64,
        "spills" => spills: u64,
        "root_evictions" => root_evictions: u64,
        "transport_deliveries" => transport_deliveries: u64,
        "transport_latency_sum" => transport_latency_sum: u64,
        "transport_min_latency_sum" => transport_min_latency_sum: u64,
        "transport_stall_cycles" => transport_stall_cycles: u64,
        "replacement_stall_cycles" => replacement_stall_cycles: u64,
        "search_link_traversals" => search_link_traversals: u64,
        "transport_link_traversals" => transport_link_traversals: u64,
        "replacement_link_traversals" => replacement_link_traversals: u64,
    }
}

record! {
    /// A [`DNucaStats`].
    JournalDNucaStats(DNucaStats), required {
        "accesses" => accesses: u64,
        "hits_per_row" => hits_per_row: Vec<u64>,
        "misses" => misses: u64,
        "bank_lookups" => bank_lookups: u64,
        "bank_fills" => bank_fills: u64,
        "migrations" => migrations: u64,
        "dirty_evictions" => dirty_evictions: u64,
        "hit_latency_sum" => hit_latency_sum: u64,
    }
}

record! {
    /// A D-NUCA [`MeshStats`].
    JournalMeshStats(MeshStats), required {
        "messages" => messages: u64,
        "hops" => hops: u64,
        "flit_hops" => flit_hops: u64,
        "contention_cycles" => contention_cycles: u64,
    }
}

record! {
    /// A [`CoreRow`](crate::cmp::CoreRow) of a CMP result.
    JournalCoreRow(crate::cmp::CoreRow), required {
        "core" => core: usize,
        "instructions" => instructions: u64,
        "ipc" => ipc: Bits,
        "stats" => stats: JournalCoreStats,
        "l1" => l1: JournalCacheStats,
        "fabric" => fabric: Option<JournalCacheStats>,
        "coherence_hits" => coherence_hits: u64,
        "coherence_misses" => coherence_misses: u64,
        "invalidations_received" => invalidations_received: u64,
    }
}

record! {
    /// The [`CoherenceStats`](crate::cmp::CoherenceStats) of a CMP result.
    JournalCoherence(crate::cmp::CoherenceStats), required {
        "reads" => reads: u64,
        "writes" => writes: u64,
        "hits" => hits: u64,
        "misses" => misses: u64,
        "evictions" => evictions: u64,
        "invalidations_sent" => invalidations_sent: u64,
        "downgrades" => downgrades: u64,
        "writebacks" => writebacks: u64,
        "recalls" => recalls: u64,
        "per_core_invalidations" => per_core_invalidations: Vec<u64>,
    }
}

/// The energy ledger: its `dynamic` and `static` buckets, each an object of
/// component name to exact bit pattern.
pub(crate) struct JournalEnergy;

impl Kind for JournalEnergy {
    type T = EnergyAccount;
    fn base() -> EnergyAccount {
        EnergyAccount::new()
    }
    fn encode(account: &EnergyAccount) -> Value {
        let bucket = |entries: &mut dyn Iterator<Item = (&str, f64)>| {
            Value::Object(
                entries
                    .map(|(name, pj)| (name.to_owned(), Bits::encode(&pj)))
                    .collect(),
            )
        };
        Value::Object(vec![
            ("dynamic".to_owned(), bucket(&mut account.dynamic_entries())),
            ("static".to_owned(), bucket(&mut account.static_entries())),
        ])
    }
    fn decode(at: At<'_>, json: &Value, slot: &mut EnergyAccount) -> Result<(), DecodeError> {
        let mut obj = Obj::new(at, json)?;
        let mut account = EnergyAccount::new();
        type Add = fn(&mut EnergyAccount, &str, f64);
        let buckets: [(&str, Add); 2] = [
            ("dynamic", EnergyAccount::add_dynamic),
            ("static", EnergyAccount::add_static),
        ];
        for (key, add) in buckets {
            let bucket_at = at.key(key);
            let bucket = obj.need(key)?;
            let entries = bucket.as_object().ok_or_else(|| {
                bucket_at.error(format!("expected an object, got {}", bucket.type_name()))
            })?;
            for (name, pj) in entries {
                add(
                    &mut account,
                    name,
                    codec::read::<Bits>(bucket_at.key(name), pj)?,
                );
            }
        }
        *slot = account;
        obj.finish()
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An append-only journal file shared by every worker of a study.
///
/// `record` is called from worker threads as runs complete; each record is
/// one `write` call of one newline-terminated line, so an interrupted
/// process leaves at most one torn trailing line (which
/// [`read_journal`] drops). Write errors are sticky and surfaced by
/// [`JournalWriter::finish`] — a journal problem must not abort the study
/// mid-flight, only mark it at the end.
#[derive(Debug)]
pub struct JournalWriter {
    inner: Mutex<WriterInner>,
}

#[derive(Debug)]
struct WriterInner {
    file: File,
    error: Option<String>,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path` and writes the header
    /// line binding it to `plan`.
    ///
    /// # Errors
    ///
    /// [`RunError::JournalCorrupt`] when the file cannot be created or the
    /// plan's workloads do not resolve.
    pub fn create(path: &Path, plan: &ExperimentPlan, jobs: usize) -> Result<Self, RunError> {
        let digest = plan_digest(plan)?;
        let header = JournalHeader::encode(&Header {
            plan: plan.name.clone(),
            digest: hex(digest),
            jobs,
        });
        let mut file = File::create(path).map_err(|e| corrupt(path, &e.to_string()))?;
        let mut line = header.to_compact();
        line.push('\n');
        file.write_all(line.as_bytes())
            .map_err(|e| corrupt(path, &e.to_string()))?;
        Ok(JournalWriter {
            inner: Mutex::new(WriterInner { file, error: None }),
        })
    }

    /// Opens an existing, already-validated journal for appending (the
    /// resume path: [`read_journal`] has checked the header).
    ///
    /// # Errors
    ///
    /// [`RunError::JournalCorrupt`] when the file cannot be opened.
    pub fn append(path: &Path) -> Result<Self, RunError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| corrupt(path, &e.to_string()))?;
        Ok(JournalWriter {
            inner: Mutex::new(WriterInner { file, error: None }),
        })
    }

    /// Appends one completed run. Never fails the caller — I/O errors are
    /// remembered and surfaced by [`JournalWriter::finish`].
    pub fn record(&self, index: usize, result: &RunResult, perf: &RunPerf) {
        let body = JournalRecord::encode(&Record {
            job: index,
            result: result.clone(),
            perf: perf.clone(),
        });
        let check = fnv1a(body.to_compact().as_bytes());
        let Value::Object(mut members) = body else {
            unreachable!("records encode as objects")
        };
        members.push(("check".to_owned(), Value::String(hex(check))));
        let mut line = Value::Object(members).to_compact();
        line.push('\n');
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if inner.error.is_some() {
            return;
        }
        if let Err(e) = inner.file.write_all(line.as_bytes()) {
            inner.error = Some(format!("journal append failed: {e}"));
        }
    }

    /// Flushes and surfaces any write error encountered during the study.
    ///
    /// # Errors
    ///
    /// [`RunError::JournalCorrupt`] when any record failed to append.
    pub fn finish(self) -> Result<(), RunError> {
        let inner = self
            .inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        match inner.error {
            Some(detail) => Err(RunError::JournalCorrupt { detail }),
            None => Ok(()),
        }
    }
}

fn corrupt(path: &Path, detail: &str) -> RunError {
    RunError::JournalCorrupt {
        detail: format!("{}: {detail}", path.display()),
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Reads a journal back for resumption: validates the header against
/// `plan`, checks every record line's checksum and returns the completed
/// runs indexed by matrix position (`None` = not journaled, re-run it).
///
/// A torn **trailing** line is dropped silently (the crash the journal
/// exists for); any other defect is [`RunError::JournalCorrupt`].
///
/// # Errors
///
/// [`RunError::JournalCorrupt`] on an unreadable file, a header that does
/// not match the plan (wrong schema, digest or job count) or a corrupt
/// interior line.
pub fn read_journal(
    path: &Path,
    plan: &ExperimentPlan,
    jobs: usize,
) -> Result<Vec<Option<(RunResult, RunPerf)>>, RunError> {
    let text = std::fs::read_to_string(path).map_err(|e| corrupt(path, &e.to_string()))?;
    let digest = plan_digest(plan)?;
    let lines: Vec<&str> = text.lines().filter(|line| !line.trim().is_empty()).collect();
    let Some((&header_line, records)) = lines.split_first() else {
        return Err(corrupt(path, "journal is empty (no header line)"));
    };
    let header = json::parse(header_line)
        .map_err(|e| e.to_string())
        .and_then(|json| {
            codec::read::<JournalHeader>(At::Root("$"), &json).map_err(|e| e.to_string())
        })
        .map_err(|e| corrupt(path, &format!("header: {e}")))?;
    if header.digest != hex(digest) {
        return Err(corrupt(
            path,
            &format!(
                "journal was written for a different plan (digest {}, this plan is {})",
                header.digest,
                hex(digest)
            ),
        ));
    }
    if header.jobs != jobs {
        return Err(corrupt(
            path,
            &format!(
                "journal header declares {} jobs, this plan has {jobs}",
                header.jobs
            ),
        ));
    }

    let mut loaded: Vec<Option<(RunResult, RunPerf)>> = (0..jobs).map(|_| None).collect();
    for (i, line) in records.iter().enumerate() {
        let last = i + 1 == records.len();
        match decode_record(line, jobs) {
            Ok((index, result, perf)) => loaded[index] = Some((result, perf)),
            // The only tolerated defect: the final line was torn by the
            // crash/kill this journal exists to survive. That run re-runs.
            Err(_) if last => break,
            Err(detail) => {
                return Err(corrupt(path, &format!("record line {}: {detail}", i + 2)))
            }
        }
    }
    Ok(loaded)
}

fn decode_record(line: &str, jobs: usize) -> Result<(usize, RunResult, RunPerf), String> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    let members = value
        .as_object()
        .ok_or_else(|| "record is not an object".to_owned())?;
    let (checks, body): (Vec<_>, Vec<_>) =
        members.iter().cloned().partition(|(key, _)| key == "check");
    let stored_check = match checks.as_slice() {
        [(_, Value::String(check))] => check.clone(),
        _ => return Err("missing checksum".to_owned()),
    };
    let body = Value::Object(body);
    let computed = hex(fnv1a(body.to_compact().as_bytes()));
    if stored_check != computed {
        return Err(format!(
            "checksum mismatch (stored {stored_check}, computed {computed})"
        ));
    }
    let record = codec::read::<JournalRecord>(At::Root("$"), &body).map_err(|e| e.to_string())?;
    if record.job >= jobs {
        return Err(format!(
            "job index {} out of range (plan has {jobs} jobs)",
            record.job
        ));
    }
    Ok((record.job, record.result, record.perf))
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{ExperimentOptions, Study};
    use crate::spec::HierarchySpec;

    fn tiny_plan(name: &str) -> ExperimentPlan {
        ExperimentPlan::builder(name)
            .config(
                HierarchySpec::builder()
                    .fabric(lnuca_core::LNucaConfig::paper(2).expect("paper fabric is valid"))
                    .build()
                    .expect("tiny spec is valid"),
            )
            .options(
                ExperimentOptions::builder()
                    .instructions(1_500)
                    .benchmarks_per_suite(Some(1))
                    .build(),
            )
            .build()
            .expect("tiny plan is valid")
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "lnuca-journal-test-{tag}-{}.jsonl",
            std::process::id()
        ));
        path
    }

    #[test]
    fn result_codec_round_trips_bit_identically() {
        let plan = tiny_plan("codec");
        let study = Study::run(&plan).expect("tiny plan runs");
        for (result, perf) in study.results.iter().zip(&study.perf) {
            let back = codec::read::<JournalResult>(At::Root("$"), &JournalResult::encode(result))
                .expect("decodes");
            assert_eq!(&back, result);
            let perf_back = codec::read::<JournalPerf>(At::Root("$"), &JournalPerf::encode(perf))
                .expect("decodes");
            assert_eq!(&perf_back, perf);
        }
    }

    #[test]
    fn journaled_run_resumes_to_identical_study() {
        let plan = tiny_plan("resume");
        let path = temp_path("resume");
        let full = Study::run_journaled(&plan, &path, false).expect("journaled run succeeds");

        // Simulate a crash: drop the journal's trailing records (keep the
        // header and the first record) plus a torn half-line.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "expected header + 2 records");
        lines.truncate(2);
        let torn = format!("{}\n{{\"job\":1,\"result\":{{\"lab", lines.join("\n"));
        std::fs::write(&path, torn).expect("journal writable");

        let resumed = Study::run_journaled(&plan, &path, true).expect("resume succeeds");
        assert_eq!(resumed.results, full.results);
        assert_eq!(resumed.configs, full.configs);
        assert!(resumed.failures.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_or_corrupt_journals_are_rejected() {
        let plan = tiny_plan("corrupt");
        let other = tiny_plan_with_seed(99);
        let path = temp_path("corrupt");
        Study::run_journaled(&plan, &path, false).expect("journaled run succeeds");

        // A journal for a different plan must not resume.
        let err = Study::run_journaled(&other, &path, true)
            .expect_err("foreign journal must be rejected");
        assert!(matches!(err, RunError::JournalCorrupt { .. }), "got {err}");

        // A corrupted interior record must be rejected, not skipped.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let mangled = text.replacen("\"cycles\":", "\"cycles\":9", 1);
        assert_ne!(text, mangled, "expected to mangle a record");
        std::fs::write(&path, mangled).expect("journal writable");
        let err = Study::run_journaled(&plan, &path, true)
            .expect_err("mangled journal must be rejected");
        assert!(matches!(err, RunError::JournalCorrupt { .. }), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    fn tiny_plan_with_seed(seed: u64) -> ExperimentPlan {
        let base = tiny_plan("corrupt");
        ExperimentPlan::builder("corrupt")
            .configs(base.configs)
            .options(
                ExperimentOptions::builder()
                    .instructions(1_500)
                    .benchmarks_per_suite(Some(1))
                    .seed(seed)
                    .build(),
            )
            .build()
            .expect("plan is valid")
    }

    #[test]
    fn digest_ignores_execution_knobs_but_not_semantics() {
        let base = tiny_plan("digest");
        let base_digest = plan_digest(&base).expect("digest computes");

        // Non-semantic knobs: threads, engine, batch size, budgets, name.
        let mut exec = base.clone();
        exec.name = "renamed".to_owned();
        exec.options = ExperimentOptions::builder()
            .instructions(1_500)
            .benchmarks_per_suite(Some(1))
            .threads(7)
            .engine(crate::system::Engine::CycleStep)
            .batch_size(4)
            .cycle_budget(Some(123))
            .run_timeout_ms(Some(456))
            .livelock_window(Some(789))
            .retries(9)
            .build();
        assert_eq!(plan_digest(&exec).expect("digest computes"), base_digest);

        // Semantic fields: seed, instructions.
        let mut seeded = base.clone();
        seeded.options = ExperimentOptions::builder()
            .instructions(1_500)
            .benchmarks_per_suite(Some(1))
            .seed(2)
            .build();
        assert_ne!(plan_digest(&seeded).expect("digest computes"), base_digest);

        let mut longer = base.clone();
        longer.options = ExperimentOptions::builder()
            .instructions(3_000)
            .benchmarks_per_suite(Some(1))
            .build();
        assert_ne!(plan_digest(&longer).expect("digest computes"), base_digest);
    }

    #[test]
    fn compact_writer_is_parseable_and_stable() {
        // A journal line is the compact rendering of its record: one line
        // that parses back to the same value and re-renders to the same
        // bytes, escapes included.
        let record = Record {
            job: 3,
            result: RunResult {
                label: "a\"b\\c\nd".to_owned(),
                ..RunResult::default()
            },
            perf: RunPerf::default(),
        };
        let value = JournalRecord::encode(&record);
        let text = value.to_compact();
        assert!(!text.contains('\n'), "compact output must be one line");
        let reparsed = json::parse(&text).expect("compact output parses");
        assert_eq!(reparsed, value);
        assert_eq!(reparsed.to_compact(), text);
    }
}
