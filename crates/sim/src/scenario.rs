//! Scenario files: the on-disk, declarative form of an [`ExperimentPlan`].
//!
//! A scenario is a JSON document (`lnuca-scenario/v1`) naming a set of
//! [`HierarchySpec`] configurations and the run options to drive them with.
//! The `lnuca` CLI loads scenarios from files or from the built-in registry
//! ([`builtin`]), layers the `LNUCA_*` environment knobs on top, runs them
//! through [`Study::run`](crate::experiments::Study::run) and emits an
//! `lnuca-report/v1` document next to the text tables.
//!
//! Parsing is **strict**: unknown object keys are rejected with their path
//! (schema drift in a committed scenario file fails CI instead of being
//! silently ignored), integers are range-checked, and name lookups (presets,
//! workload names) fail with the full valid-name list through the shared
//! [`UnknownNameError`] message.
//!
//! The document model is the vendored `serde::json` shim. Each document
//! type declares its JSON members once, in the crate's declared codec: the
//! scenario, report and journal encoders and their strict decoders are all
//! generated from those declarations, so a key cannot be spelled one way on
//! the way out and another on the way in. Only the rules that span several
//! members are written by hand here: the presets and the `levels`
//! shortcut, the `*_kb` size aliases, the `workloads` keyword-or-array, the
//! `backing` tagged union, the zero checks, and the report's status switch.
//!
//! # Scenario schema (`lnuca-scenario/v1`)
//!
//! ```json
//! {
//!   "schema": "lnuca-scenario/v1",
//!   "name": "paper-conventional",
//!   "description": "...",
//!   "options": {
//!     "instructions": 100000, "seed": 1, "benchmarks_per_suite": null,
//!     "workloads": "paper", "threads": 0, "engine": "event",
//!     "batch_size": 1
//!   },
//!   "configs": [
//!     {"preset": "conventional"},
//!     {"preset": "lnuca-l3", "levels": 3},
//!     {"label": "LN3 big tiles",
//!      "fabric": {"levels": 3, "tile_size_bytes": 16384},
//!      "backing": {"kind": "cache", "cache": {"preset": "paper-l3"}}}
//!   ]
//! }
//! ```
//!
//! Every `configs` entry starts from a preset (or from the builder default:
//! paper L1 root, no fabric, memory backing) and overrides components;
//! cache/fabric/D-NUCA objects work the same way (`preset` + field
//! overrides). A size may be given in bytes or, for hand-written files, in
//! KiB (`size_kb`, `tile_size_kb`, `bank_size_kb`), but not both.
//! `"workloads"` is a keyword or an explicit name array; `"threads": 0`
//! means "auto" (the CLI resolves it to the hardware thread count;
//! [`Study::run`](crate::experiments::Study::run) itself treats it as 1).
//! DESIGN.md §12 documents the full schema and the layering rules.

use crate::cmp::{CoherenceStats, CoreRow};
use crate::codec::{self, names, record, At, DecodeError, Float, Kind, Maybe, Obj, Omit};
use crate::configs::{self, HierarchyKind};
use crate::experiments::{
    EnergySummaryRow, ExperimentOptions, ExperimentPlan, HitDistributionRow, IpcSummaryRow, Study,
    WorkloadSelection,
};
use crate::spec::{BackingSpec, HierarchySpec, IntermediateSpec};
use crate::sweep::{ReportSweep, SweepSummary};
use crate::system::Engine;
use lnuca_core::LNucaConfig;
use lnuca_dnuca::{DNucaConfig, SearchPolicy};
use lnuca_mem::{AccessMode, CacheConfig, MemoryConfig, ReplacementPolicy, WritePolicy};
use lnuca_noc::RoutingPolicy;
use lnuca_types::{ConfigError, UnknownNameError};
use lnuca_workloads::Suite;
use serde::json::{self, Value};
use std::fmt;

/// Schema identifier of scenario documents.
pub const SCENARIO_SCHEMA: &str = "lnuca-scenario/v1";
/// Schema identifier of report documents.
pub const REPORT_SCHEMA: &str = "lnuca-report/v1";

/// A named experiment plan plus its human-readable description — the
/// in-memory form of one scenario file.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// What the scenario evaluates (one sentence, shown by `lnuca list`).
    pub description: String,
    /// The plan to run.
    pub plan: ExperimentPlan,
}

impl Scenario {
    /// The scenario name (the plan's name).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.plan.name
    }

    /// Renders the scenario as a canonical `lnuca-scenario/v1` document
    /// (fully explicit — presets are expanded — pretty-printed, stable
    /// under round trips).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// The scenario as a JSON [`Value`] tree.
    #[must_use]
    pub fn to_value(&self) -> Value {
        ScenarioDoc::encode(self)
    }

    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] on JSON syntax errors, schema violations
    /// (including unknown fields and unknown preset or workload names) or
    /// invalid configurations.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Converts a parsed JSON tree into a scenario.
    ///
    /// # Errors
    ///
    /// See [`Scenario::from_json`].
    pub fn from_value(value: &Value) -> Result<Self, ScenarioError> {
        let doc = codec::read::<ScenarioDoc>(At::Root("$"), value).map_err(schema_error)?;
        let plan = ExperimentPlan::builder(doc.plan.name)
            .configs(doc.plan.configs)
            .options(doc.plan.options)
            .build()?;
        Ok(Scenario {
            description: doc.description,
            plan,
        })
    }
}

/// Why a scenario document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The text is not valid JSON.
    Parse(json::ParseError),
    /// The document violates the schema: wrong type, missing or unknown
    /// field, out-of-range value, unknown preset or workload name, or an
    /// invalid configuration. Carries the JSON path.
    Schema {
        /// JSON path of the violation (e.g. `$.configs[1].fabric.levels`).
        path: String,
        /// What is wrong there.
        message: String,
    },
    /// The document parsed but describes an invalid plan (e.g. two
    /// configurations with the same label).
    Config(ConfigError),
}

fn schema_error(e: DecodeError) -> ScenarioError {
    ScenarioError::Schema {
        path: e.path,
        message: e.message,
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::Schema { path, message } => {
                write!(f, "invalid scenario at {path}: {message}")
            }
            ScenarioError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<json::ParseError> for ScenarioError {
    fn from(e: json::ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

// ---------------------------------------------------------------------------
// Scenario documents
// ---------------------------------------------------------------------------

record! {
    /// An `lnuca-scenario/v1` document. `from_value` rebuilds the plan
    /// through its builder, which validates it as a whole.
    ScenarioDoc(Scenario), required, schema SCENARIO_SCHEMA, base {
        Scenario {
            description: String::new(),
            plan: ExperimentPlan {
                name: String::new(),
                configs: Vec::new(),
                options: ExperimentOptions::default(),
            },
        }
    } {
        "name" => plan.name: String,
        "description" => description: Maybe<String>,
        "options" => plan.options: Maybe<ScenarioOptions>,
        "configs" => plan.configs: Vec<ScenarioSpec>,
    }
}

record! {
    /// The run options. A report's `options` object is validated by this
    /// same declaration, so the two documents cannot drift apart.
    ScenarioOptions(ExperimentOptions), optional {
        "instructions" => instructions: u64,
        "seed" => seed: u64,
        // Null and absent both mean "no cap", the field default.
        "benchmarks_per_suite" => benchmarks_per_suite: Option<usize>
            where codec::at_least_one("must be at least 1 (omit or null to run every benchmark)"),
        "workloads" => workloads: Workloads,
        "threads" => threads: usize,
        "engine" => engine: Engine,
        "batch_size" => batch_size: usize where codec::at_least_one(
            "must be at least 1 (a zero-wide batch would simulate nothing)",
        ),
        // Watchdog knobs (DESIGN.md §14): null and absent both mean "off".
        "cycle_budget" => cycle_budget: Option<u64>,
        "run_timeout_ms" => run_timeout_ms: Option<u64>,
        "livelock_window" => livelock_window: Option<u64>,
        "retries" => retries: u32,
    }
}

/// `workloads`: a selection keyword, or an explicit array of profile names.
pub(crate) struct Workloads;

impl Kind for Workloads {
    type T = WorkloadSelection;
    fn base() -> WorkloadSelection {
        WorkloadSelection::default()
    }
    fn encode(workloads: &WorkloadSelection) -> Value {
        match workloads {
            WorkloadSelection::Named(names) => Vec::<String>::encode(names),
            keyword => Value::String(keyword.keyword().unwrap_or_default().to_owned()),
        }
    }
    fn decode(at: At<'_>, json: &Value, slot: &mut WorkloadSelection) -> Result<(), DecodeError> {
        *slot = match json {
            Value::String(keyword) => {
                WorkloadSelection::from_keyword(keyword).ok_or_else(|| {
                    at.error(format!(
                        "unknown workload keyword {keyword:?} (expected paper, extended or \
                         adversarial; use an array for explicit names)"
                    ))
                })?
            }
            Value::Array(_) => {
                let names = codec::read::<Vec<String>>(at, json)?;
                // Resolve now so a typo fails at load time with the full
                // valid-name list rather than at run time.
                for name in &names {
                    lnuca_workloads::suites::by_name(name).map_err(|e| at.error(e.to_string()))?;
                }
                WorkloadSelection::Named(names)
            }
            other => {
                return Err(at.error(format!(
                    "expected a keyword string or a name array, got {}",
                    other.type_name()
                )))
            }
        };
        Ok(())
    }
}

/// `engine`: written as its label, read through [`Engine::parse`] (which
/// also accepts the `LNUCA_ENGINE` spellings).
impl Kind for Engine {
    type T = Engine;
    fn base() -> Engine {
        Engine::default()
    }
    fn encode(engine: &Engine) -> Value {
        Value::String(engine.label().to_owned())
    }
    fn decode(at: At<'_>, json: &Value, slot: &mut Engine) -> Result<(), DecodeError> {
        let raw = codec::read::<String>(at, json)?;
        *slot = Engine::parse(&raw)
            .ok_or_else(|| at.error(format!("unknown engine {raw:?} (expected event or cycle)")))?;
        Ok(())
    }
}

names! { AccessMode, "access mode" {
    AccessMode::Parallel => "parallel",
    AccessMode::Serial => "serial",
} }

names! { WritePolicy, "write policy" {
    WritePolicy::WriteThrough => "write-through",
    WritePolicy::CopyBack => "copy-back",
} }

names! { ReplacementPolicy, "replacement policy" {
    ReplacementPolicy::Lru => "lru",
    ReplacementPolicy::Fifo => "fifo",
    ReplacementPolicy::Random => "random",
} }

names! { RoutingPolicy, "routing policy" {
    RoutingPolicy::RandomValid => "random" | "random-valid",
    RoutingPolicy::DimensionOrder => "dimension-order" | "dim-order",
} }

names! { SearchPolicy, "search policy" {
    SearchPolicy::Multicast => "multicast",
    SearchPolicy::Incremental => "incremental",
} }

record! {
    /// One `configs` entry: an optional hierarchy `preset` (plus the
    /// `levels` shortcut of the fabric presets) and component overrides,
    /// validated as a whole.
    ScenarioSpec(HierarchySpec), optional,
        base { HierarchySpec::builder().build().expect("builder defaults are valid") },
        decode spec_members {
        "label" => label: Omit<Option<String>>,
        "root" => root: ScenarioCache,
        "fabric" => fabric: Omit<Option<ScenarioFabric>>,
        "intermediate" => intermediate: Omit<Vec<ScenarioIntermediate>>,
        "backing" => backing: Backing,
        "memory" => memory: ScenarioMemory,
        "cores" => cores: Cores where codec::at_least_one("a machine has at least one core"),
    }
}

fn spec_members(obj: &mut Obj<'_, '_>, spec: &mut HierarchySpec) -> Result<(), DecodeError> {
    let here = obj.at;
    let levels = obj
        .present("levels")
        .map(|json| codec::read::<u8>(here.key("levels"), json))
        .transpose()?;
    match obj.present("preset") {
        Some(json) => {
            let name = codec::read::<String>(here.key("preset"), json)?;
            *spec = hierarchy_preset(here, &name, levels)?;
        }
        None if levels.is_some() => {
            return Err(here
                .key("levels")
                .error("\"levels\" shortcuts a fabric preset; set fabric.levels instead"))
        }
        None => {}
    }
    ScenarioSpec::fields(obj, spec)?;
    spec.memory
        .validate()
        .and_then(|()| spec.validate())
        .map_err(|e| here.error(e.to_string()))
}

/// The spec-level presets: the paper's four shapes by name. `levels`
/// shortcuts the fabric level count and is only meaningful for the fabric
/// presets — pairing it with `conventional`/`dnuca` is rejected rather
/// than silently ignored (the strict-parsing promise).
fn hierarchy_preset(
    at: At<'_>,
    name: &str,
    levels: Option<u8>,
) -> Result<HierarchySpec, DecodeError> {
    let fabric =
        || LNucaConfig::paper(levels.unwrap_or(3)).map(|f| HierarchySpec::builder().fabric(f));
    let spec = match (name, levels) {
        ("conventional" | "dnuca", Some(_)) => {
            return Err(at.key("levels").error(format!(
                "the {name:?} preset has no fabric; \"levels\" does not apply"
            )))
        }
        ("conventional", None) => {
            Ok(HierarchyKind::Conventional(configs::conventional()).to_spec())
        }
        ("dnuca", None) => Ok(HierarchyKind::DNuca(configs::dnuca_hierarchy()).to_spec()),
        ("lnuca-l3", _) => fabric().and_then(|b| b.backing_cache(configs::paper_l3()).build()),
        ("lnuca-dnuca", _) => fabric().and_then(|b| b.backing_dnuca(DNucaConfig::paper()).build()),
        (other, _) => {
            let valid = ["conventional", "lnuca-l3", "dnuca", "lnuca-dnuca"];
            return Err(at
                .key("preset")
                .error(UnknownNameError::new("hierarchy preset", other, valid).to_string()));
        }
    };
    spec.map_err(|e| at.error(e.to_string()))
}

/// A component preset: its name and its constructor.
type Preset<T> = (&'static str, fn() -> T);

/// Resolves a component `preset` member through its name table.
fn preset<T>(
    at: At<'_>,
    json: &Value,
    what: &'static str,
    table: &[Preset<T>],
) -> Result<T, DecodeError> {
    let name = codec::read::<String>(at, json)?;
    table
        .iter()
        .find(|(known, _)| *known == name)
        .map(|(_, make)| make())
        .ok_or_else(|| {
            let valid = table.iter().map(|(known, _)| *known);
            at.error(UnknownNameError::new(what, name, valid).to_string())
        })
}

/// The `<stem>_kb` shorthand of a `<stem>_bytes` member: KiB for
/// hand-written files. Rejected next to the byte form (which one would win
/// is not obvious) and when the byte count overflows.
fn kib(obj: &mut Obj<'_, '_>, stem: &str, bytes: &mut u64) -> Result<(), DecodeError> {
    let key = format!("{stem}_kb");
    let Some(json) = obj.present(&key) else {
        return Ok(());
    };
    let here = obj.at;
    let at = here.key(&key);
    let bytes_key = format!("{stem}_bytes");
    if obj.present(&bytes_key).is_some() {
        return Err(at.error(format!(
            "conflicts with {bytes_key:?}; give the size one way"
        )));
    }
    *bytes = codec::read::<u64>(at, json)?
        .checked_mul(1024)
        .ok_or_else(|| at.error("size in bytes does not fit in 64 bits"))?;
    Ok(())
}

record! {
    /// A cache: an optional `preset` (`paper-l1/-l2/-l3`), field overrides
    /// and the `size_kb` alias.
    ScenarioCache(CacheConfig), optional, base { configs::paper_l1() }, decode cache_members {
        "name" => name: String,
        "size_bytes" => size_bytes: u64,
        "ways" => ways: usize,
        "block_size" => block_size: u64,
        "completion_cycles" => completion_cycles: u64,
        "initiation_interval" => initiation_interval: u64,
        "miss_determination_cycles" => miss_determination_cycles: u64,
        "ports" => ports: usize,
        "access_mode" => access_mode: AccessMode,
        "write_policy" => write_policy: WritePolicy,
        "replacement" => replacement: ReplacementPolicy,
    }
}

fn cache_members(obj: &mut Obj<'_, '_>, cache: &mut CacheConfig) -> Result<(), DecodeError> {
    if let Some(json) = obj.present("preset") {
        let presets: [Preset<CacheConfig>; 3] = [
            ("paper-l1", configs::paper_l1),
            ("paper-l2", configs::paper_l2),
            ("paper-l3", configs::paper_l3),
        ];
        *cache = preset(obj.at.key("preset"), json, "cache preset", &presets)?;
    }
    ScenarioCache::fields(obj, cache)?;
    kib(obj, "size", &mut cache.size_bytes)
}

record! {
    /// An L-NUCA fabric: field overrides and the `tile_size_kb` alias.
    ScenarioFabric(LNucaConfig), optional, decode fabric_members {
        "levels" => levels: u8,
        "tile_size_bytes" => tile_size_bytes: u64,
        "tile_ways" => tile_ways: usize,
        "block_size" => block_size: u64,
        "buffer_entries" => buffer_entries: usize,
        "routing" => routing: RoutingPolicy,
        "tile_replacement" => tile_replacement: ReplacementPolicy,
        "seed" => seed: u64,
    }
}

fn fabric_members(obj: &mut Obj<'_, '_>, fabric: &mut LNucaConfig) -> Result<(), DecodeError> {
    ScenarioFabric::fields(obj, fabric)?;
    kib(obj, "tile_size", &mut fabric.tile_size_bytes)
}

record! {
    /// An intermediate level: an optional `preset` (`paper-l2`) and
    /// overrides.
    ScenarioIntermediate(IntermediateSpec), optional,
        base { IntermediateSpec::new(configs::paper_l2()) }, decode intermediate_members {
        "cache" => cache: ScenarioCache,
        "request_transfer_cycles" => request_transfer_cycles: u64,
        "response_transfer_cycles" => response_transfer_cycles: u64,
    }
}

fn intermediate_members(
    obj: &mut Obj<'_, '_>,
    level: &mut IntermediateSpec,
) -> Result<(), DecodeError> {
    if let Some(json) = obj.present("preset") {
        let presets: [Preset<IntermediateSpec>; 1] = [("paper-l2", IntermediateSpec::paper_l2)];
        *level = preset(obj.at.key("preset"), json, "intermediate preset", &presets)?;
    }
    ScenarioIntermediate::fields(obj, level)
}

/// `backing`: a union tagged by `kind`; the `cache` and `dnuca` payloads
/// override the paper L3 and the paper D-NUCA.
pub(crate) struct Backing;

impl Kind for Backing {
    type T = BackingSpec;
    fn base() -> BackingSpec {
        BackingSpec::Memory
    }
    fn encode(backing: &BackingSpec) -> Value {
        let mut out = vec![(
            "kind".to_owned(),
            Value::String(backing.kind_name().to_owned()),
        )];
        match backing {
            BackingSpec::Cache(cache) => {
                out.push(("cache".to_owned(), ScenarioCache::encode(cache)));
            }
            BackingSpec::DNuca(dnuca) => {
                out.push(("dnuca".to_owned(), ScenarioDNuca::encode(dnuca)));
            }
            BackingSpec::Memory => {}
        }
        Value::Object(out)
    }
    fn decode(at: At<'_>, json: &Value, slot: &mut BackingSpec) -> Result<(), DecodeError> {
        fn payload<K: Kind>(
            obj: &mut Obj<'_, '_>,
            key: &str,
            mut value: K::T,
        ) -> Result<K::T, DecodeError> {
            if let Some(json) = obj.present(key) {
                K::decode(obj.at.key(key), json, &mut value)?;
            }
            Ok(value)
        }
        let mut obj = Obj::new(at, json)?;
        let kind_at = at.key("kind");
        *slot = match codec::read::<String>(kind_at, obj.need("kind")?)?.as_str() {
            "cache" => {
                let l3 = configs::paper_l3();
                BackingSpec::Cache(payload::<ScenarioCache>(&mut obj, "cache", l3)?)
            }
            "dnuca" => {
                let paper = DNucaConfig::paper();
                BackingSpec::DNuca(payload::<ScenarioDNuca>(&mut obj, "dnuca", paper)?)
            }
            "memory" => BackingSpec::Memory,
            other => {
                return Err(kind_at.error(format!(
                    "unknown backing kind {other:?} (expected cache, dnuca or memory)"
                )))
            }
        };
        obj.finish()
    }
}

record! {
    /// A D-NUCA: field overrides of the paper D-NUCA and the `bank_size_kb`
    /// alias.
    ScenarioDNuca(DNucaConfig), optional, base { DNucaConfig::paper() }, decode dnuca_members {
        "rows" => rows: usize,
        "cols" => cols: usize,
        "bank_size_bytes" => bank_size_bytes: u64,
        "bank_ways" => bank_ways: usize,
        "block_size" => block_size: u64,
        "bank_completion_cycles" => bank_completion_cycles: u64,
        "bank_initiation_interval" => bank_initiation_interval: u64,
        "flit_bytes" => flit_bytes: u64,
        "routing_latency" => routing_latency: u64,
        "virtual_channels" => virtual_channels: usize,
        "search" => search: SearchPolicy,
        "promotion" => promotion: bool,
    }
}

fn dnuca_members(obj: &mut Obj<'_, '_>, dnuca: &mut DNucaConfig) -> Result<(), DecodeError> {
    ScenarioDNuca::fields(obj, dnuca)?;
    kib(obj, "bank_size", &mut dnuca.bank_size_bytes)
}

record! {
    /// Main-memory timing (validated with the spec that holds it).
    ScenarioMemory(MemoryConfig), optional, base { configs::paper_memory() } {
        "first_chunk_cycles" => first_chunk_cycles: u64,
        "inter_chunk_cycles" => inter_chunk_cycles: u64,
        "chunk_bytes" => chunk_bytes: u64,
    }
}

/// `cores`: written only for CMP shapes, so every single-core document
/// keeps its bytes.
pub(crate) struct Cores;

impl Kind for Cores {
    type T = usize;
    fn base() -> usize {
        1
    }
    fn encode(cores: &usize) -> Value {
        usize::encode(cores)
    }
    fn decode(at: At<'_>, json: &Value, slot: &mut usize) -> Result<(), DecodeError> {
        usize::decode(at, json, slot)
    }
    fn omit(cores: &usize) -> bool {
        *cores <= 1
    }
}

/// Encodes a spec fully explicitly (presets expanded).
#[must_use]
pub fn spec_to_value(spec: &HierarchySpec) -> Value {
    ScenarioSpec::encode(spec)
}

/// Decodes a spec: an optional hierarchy `preset` plus component
/// overrides, validated on the way out. `path` names the spec's position
/// in its document (`$` for a standalone value).
///
/// # Errors
///
/// Returns a [`ScenarioError::Schema`] on schema violations, unknown
/// presets or an invalid composition.
pub fn spec_from_value(path: &str, value: &Value) -> Result<HierarchySpec, ScenarioError> {
    codec::read::<ScenarioSpec>(At::Root(path), value).map_err(schema_error)
}

// ---------------------------------------------------------------------------
// Built-in scenarios
// ---------------------------------------------------------------------------

/// Names of the built-in scenarios, in listing order. The committed
/// `scenarios/*.json` files are the canonical serializations of these
/// (pinned by `tests/scenario_golden.rs`); `lnuca export <name>` regenerates
/// one.
#[must_use]
pub fn builtin_names() -> Vec<&'static str> {
    vec![
        "paper-conventional",
        "paper-dnuca",
        "adversarial",
        "ablation-tile-size",
        "ablation-routing",
        "ln3-no-l3",
        "deep-stack",
        "trace-replay",
        "cmp-sharing",
        "cmp-lnuca-dnuca",
    ]
}

/// Resolves a built-in scenario by name.
///
/// # Errors
///
/// Returns an [`UnknownNameError`] listing the valid names.
pub fn builtin(name: &str) -> Result<Scenario, UnknownNameError> {
    let full_options = || {
        let mut options = ExperimentOptions::builder().instructions(100_000).build();
        options.threads = 0; // auto: the CLI resolves to the hardware threads
        options
    };
    let ablation_options = || {
        let mut options = full_options();
        options.benchmarks_per_suite = Some(3);
        options
    };
    let expect_plan = |builder: ExperimentPlanBuilderResult| {
        builder.expect("built-in scenarios are valid by construction")
    };
    let scenario = |description: &str, plan: ExperimentPlan| Scenario {
        description: description.to_owned(),
        plan,
    };
    match name.trim() {
        "paper-conventional" => {
            let plan = expect_plan(ExperimentPlan::paper_conventional(&full_options()));
            Ok(scenario(
                "The conventional study: L2-256KB baseline vs LN2/LN3/LN4 + L3 \
                 (Figs. 4(a), 4(b) and Table III).",
                plan,
            ))
        }
        "paper-dnuca" => {
            let plan = expect_plan(ExperimentPlan::paper_dnuca(&full_options()));
            Ok(scenario(
                "The D-NUCA study: DN-4x8 baseline vs LN2/LN3/LN4 + DN-4x8 \
                 (Figs. 5(a) and 5(b)).",
                plan,
            ))
        }
        "adversarial" => {
            let mut options = full_options();
            options.workloads = WorkloadSelection::Adversarial;
            let plan = expect_plan(
                ExperimentPlan::builder("adversarial")
                    .config(crate::configs::HierarchyKind::Conventional(configs::conventional()).to_spec())
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(3).expect("3 levels is valid"))
                            .backing_cache(configs::paper_l3())
                            .build()
                            .expect("paper LN3 is valid"),
                    )
                    .options(options)
                    .build(),
            );
            Ok(scenario(
                "L2-256KB vs LN3-144KB under the four adversarial access-pattern \
                 classes (pointer chase, strided streaming, GUPS, phase mix).",
                plan,
            ))
        }
        "ablation-tile-size" => {
            let mut builder = ExperimentPlan::builder("ablation-tile-size");
            for tile_kb in [2u64, 4, 8, 16] {
                let mut fabric = LNucaConfig::paper(3).expect("3 levels is valid");
                fabric.tile_size_bytes = tile_kb * 1024;
                builder = builder.config(
                    HierarchySpec::builder()
                        .fabric(fabric)
                        .backing_cache(configs::paper_l3())
                        .build()
                        .expect("ablation tile sizes are valid"),
                );
            }
            let plan = expect_plan(builder.options(ablation_options()).build());
            Ok(scenario(
                "Tile-size ablation (§IV): a 3-level fabric with 2/4/8/16 KB tiles; \
                 the paper fixes 8 KB for single-cycle timing.",
                plan,
            ))
        }
        "ablation-routing" => {
            let mut builder = ExperimentPlan::builder("ablation-routing");
            for (label, routing) in [
                ("LN3-144KB (random)", lnuca_noc::RoutingPolicy::RandomValid),
                ("LN3-144KB (dim-order)", lnuca_noc::RoutingPolicy::DimensionOrder),
            ] {
                let mut fabric = LNucaConfig::paper(3).expect("3 levels is valid");
                fabric.routing = routing;
                builder = builder.config(
                    HierarchySpec::builder()
                        .label(label)
                        .fabric(fabric)
                        .backing_cache(configs::paper_l3())
                        .build()
                        .expect("routing ablation configs are valid"),
                );
            }
            let plan = expect_plan(builder.options(ablation_options()).build());
            Ok(scenario(
                "Routing ablation (§III-B): distributed random routing vs \
                 dimension-order on the 3-level fabric.",
                plan,
            ))
        }
        "ln3-no-l3" => {
            let plan = expect_plan(
                ExperimentPlan::builder("ln3-no-l3")
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(3).expect("3 levels is valid"))
                            .backing_cache(configs::paper_l3())
                            .build()
                            .expect("paper LN3 is valid"),
                    )
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(3).expect("3 levels is valid"))
                            .build()
                            .expect("fabric over bare memory is valid"),
                    )
                    .options(full_options())
                    .build(),
            );
            Ok(scenario(
                "A shape the old HierarchyKind enum could not express: the 3-level \
                 fabric with nothing behind it but DRAM, vs the same fabric with \
                 the 8 MB L3.",
                plan,
            ))
        }
        "deep-stack" => {
            let l2b = CacheConfig::builder("L2B")
                .size_bytes(1024 * 1024)
                .ways(8)
                .block_size(64)
                .completion_cycles(8)
                .initiation_interval(4)
                .access_mode(AccessMode::Serial)
                .write_policy(WritePolicy::CopyBack)
                .build()
                .expect("the deep-stack middle level is valid");
            let plan = expect_plan(
                ExperimentPlan::builder("deep-stack")
                    .config(crate::configs::HierarchyKind::Conventional(configs::conventional()).to_spec())
                    .config(
                        HierarchySpec::builder()
                            .intermediate(IntermediateSpec::paper_l2())
                            .intermediate(IntermediateSpec::new(l2b).with_transfers(3, 3))
                            .backing_cache(configs::paper_l3())
                            .build()
                            .expect("the deep stack is valid"),
                    )
                    .options(full_options())
                    .build(),
            );
            Ok(scenario(
                "A four-level conventional stack (L1 + L2 + 1 MB L2B + L3) composed \
                 through HierarchySpec — deeper than any paper configuration.",
                plan,
            ))
        }
        "trace-replay" => {
            let mut options = ExperimentOptions::builder().instructions(20_000).build();
            options.threads = 0;
            // The committed sample corpus, repo-root-relative (the file is
            // opened when the run starts, not when the scenario loads).
            options.workloads =
                WorkloadSelection::Named(vec!["scenarios/traces/sample.lnt".to_owned()]);
            let plan = expect_plan(
                ExperimentPlan::builder("trace-replay")
                    .config(crate::configs::HierarchyKind::Conventional(configs::conventional()).to_spec())
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(3).expect("3 levels is valid"))
                            .backing_cache(configs::paper_l3())
                            .build()
                            .expect("paper LN3 is valid"),
                    )
                    .options(options)
                    .build(),
            );
            Ok(scenario(
                "Replay of the committed sample trace corpus (lnuca-trace/v1, built \
                 by `lnuca ingest`) on the conventional baseline and LN3.",
                plan,
            ))
        }
        "cmp-sharing" => {
            let mut options = ExperimentOptions::builder().instructions(50_000).build();
            options.threads = 0;
            options.workloads = WorkloadSelection::Named(vec![
                "sh.prodcons".to_owned(),
                "sh.migratory".to_owned(),
                "sh.falseshare".to_owned(),
            ]);
            let plan = expect_plan(
                ExperimentPlan::builder("cmp-sharing")
                    .config(
                        HierarchySpec::builder()
                            .backing_cache(configs::paper_l3())
                            .cores(2)
                            .build()
                            .expect("the 2-core shape is valid"),
                    )
                    .config(
                        HierarchySpec::builder()
                            .backing_cache(configs::paper_l3())
                            .cores(4)
                            .build()
                            .expect("the 4-core shape is valid"),
                    )
                    .options(options)
                    .build(),
            );
            Ok(scenario(
                "Multicore sharing study (DESIGN.md §17): 2 and 4 private L1s over \
                 the shared 8 MB L3, driven by the three sharing workload classes \
                 through the MSI directory.",
                plan,
            ))
        }
        "cmp-lnuca-dnuca" => {
            let mut options = ExperimentOptions::builder().instructions(50_000).build();
            options.threads = 0;
            options.workloads = WorkloadSelection::Named(vec![
                "sh.prodcons".to_owned(),
                "sh.falseshare".to_owned(),
                "int.compress".to_owned(),
            ]);
            let plan = expect_plan(
                ExperimentPlan::builder("cmp-lnuca-dnuca")
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(2).expect("2 levels is valid"))
                            .backing_dnuca(DNucaConfig::paper())
                            .cores(4)
                            .build()
                            .expect("the 4-core fabric shape is valid"),
                    )
                    .config(
                        HierarchySpec::builder()
                            .backing_dnuca(DNucaConfig::paper())
                            .cores(4)
                            .build()
                            .expect("the fabric-less control is valid"),
                    )
                    .options(options)
                    .build(),
            );
            Ok(scenario(
                "The flagship CMP shape: four cores with private L1 + 2-level \
                 L-NUCA fabric over a shared D-NUCA, vs the fabric-less control, \
                 on sharing and private workloads.",
                plan,
            ))
        }
        other => Err(UnknownNameError::new("scenario", other, builtin_names())),
    }
}

type ExperimentPlanBuilderResult = Result<ExperimentPlan, ConfigError>;

// ---------------------------------------------------------------------------
// Reports (lnuca-report/v1)
// ---------------------------------------------------------------------------

/// An `lnuca-report/v1` document, as [`ReportDoc`] writes and checks it.
#[derive(Default)]
pub(crate) struct Report {
    scenario: String,
    options: ExperimentOptions,
    baseline: String,
    configs: Vec<String>,
    results: Vec<ResultRow>,
    ipc_summary: Vec<IpcSummaryRow>,
    energy_summary: Vec<EnergySummaryRow>,
    hit_distribution: Vec<HitDistributionRow>,
    /// The `lnuca sweep` extension (DESIGN.md §16).
    pub(crate) sweep: Option<SweepSummary>,
}

/// One `results` row: a completed run's measurement, or a failed run's
/// structured failure (DESIGN.md §14). The `status` member tells which.
pub(crate) enum ResultRow {
    Completed(RunRow),
    Failed(FailRow),
}

/// A completed run (`status` is `ok`).
#[derive(Default)]
pub(crate) struct RunRow {
    label: String,
    workload: String,
    suite: Suite,
    status: String,
    instructions: u64,
    cycles: u64,
    ipc: f64,
    memory_accesses: u64,
    write_drains: u64,
    energy_total_pj: f64,
    per_core: Vec<CoreRow>,
    coherence: Option<CoherenceStats>,
}

/// A run that produced no result.
#[derive(Default)]
pub(crate) struct FailRow {
    label: String,
    workload: String,
    suite: Suite,
    status: String,
    seed: u64,
    error: String,
    attempts: u32,
}

names! { SuiteLabel(Suite), "suite" {
    Suite::Integer => "Int",
    Suite::FloatingPoint => "FP",
} }

record! {
    /// The whole report. Each array row has an exact member set; unknown
    /// members fail with their JSON path anywhere in the document.
    ReportDoc(Report), required, schema REPORT_SCHEMA {
        "scenario" => scenario: String,
        "options" => options: ScenarioOptions,
        "baseline" => baseline: String,
        "configs" => configs: Vec<String> where codec::non_empty("report lists no configurations"),
        "results" => results: Vec<ReportResult> where codec::non_empty("report carries no results"),
        "ipc_summary" => ipc_summary: Vec<ReportIpc>,
        "energy_summary" => energy_summary: Vec<ReportEnergy>,
        "hit_distribution" => hit_distribution: Vec<ReportHits>,
        "sweep" => sweep: Omit<Option<ReportSweep>>,
    }
}

fn known_status(status: &str) -> Result<(), String> {
    if lnuca_types::RunError::is_known_status(status) {
        Ok(())
    } else {
        let known = lnuca_types::RUN_STATUSES.join(", ");
        Err(format!("unknown status {status:?} (known: {known})"))
    }
}

record! {
    /// A completed run. The CMP members appear only for `cores > 1`, so
    /// single-core rows are unchanged.
    ReportRun(RunRow), required {
        "label" => label: String,
        "workload" => workload: String,
        "suite" => suite: SuiteLabel,
        "status" => status: String,
        "instructions" => instructions: u64,
        "cycles" => cycles: u64,
        "ipc" => ipc: Float,
        "memory_accesses" => memory_accesses: u64,
        "write_drains" => write_drains: u64,
        "energy_total_pj" => energy_total_pj: Float,
        "per_core" => per_core: Omit<Vec<ReportCore>>
            where codec::non_empty("a CMP result reports at least one core"),
        "coherence" => coherence: Omit<Option<ReportCoherence>>,
    }
}

record! {
    /// A failed run.
    ReportFailure(FailRow), required {
        "label" => label: String,
        "workload" => workload: String,
        "suite" => suite: SuiteLabel,
        "status" => status: String where known_status,
        "seed" => seed: u64,
        "error" => error: String,
        "attempts" => attempts: u32,
    }
}

/// A `results` row, in the exact shape its `status` selects.
pub(crate) struct ReportResult;

impl Kind for ReportResult {
    type T = ResultRow;
    fn base() -> ResultRow {
        ResultRow::Completed(RunRow::default())
    }
    fn encode(row: &ResultRow) -> Value {
        match row {
            ResultRow::Completed(run) => ReportRun::encode(run),
            ResultRow::Failed(failure) => ReportFailure::encode(failure),
        }
    }
    fn decode(at: At<'_>, json: &Value, row: &mut ResultRow) -> Result<(), DecodeError> {
        *row = if json.get("status").and_then(Value::as_str) == Some("ok") {
            let run = codec::read::<ReportRun>(at, json)?;
            if run.per_core.is_empty() != run.coherence.is_none() {
                return Err(at.error("\"per_core\" and \"coherence\" must appear together"));
            }
            ResultRow::Completed(run)
        } else {
            ResultRow::Failed(codec::read::<ReportFailure>(at, json)?)
        };
        Ok(())
    }
}

record! {
    /// One core of a CMP result.
    ReportCore(CoreRow), required {
        "core" => core: usize,
        "instructions" => instructions: u64,
        "ipc" => ipc: Float,
        "coherence_hits" => coherence_hits: u64,
        "coherence_misses" => coherence_misses: u64,
        "invalidations_received" => invalidations_received: u64,
    }
}

record! {
    /// The MSI directory counters of a CMP result.
    ReportCoherence(CoherenceStats), required {
        "reads" => reads: u64,
        "writes" => writes: u64,
        "hits" => hits: u64,
        "misses" => misses: u64,
        "evictions" => evictions: u64,
        "invalidations_sent" => invalidations_sent: u64,
        "downgrades" => downgrades: u64,
        "writebacks" => writebacks: u64,
        "recalls" => recalls: u64,
    }
}

record! {
    /// One Fig. 4(a)/5(a) row.
    ReportIpc(IpcSummaryRow), required {
        "label" => label: String,
        "int_ipc" => int_ipc: Float,
        "fp_ipc" => fp_ipc: Float,
        "int_gain_pct" => int_gain_pct: Float,
        "fp_gain_pct" => fp_gain_pct: Float,
    }
}

record! {
    /// One Fig. 4(b)/5(b) row.
    ReportEnergy(EnergySummaryRow), required {
        "label" => label: String,
        "dynamic" => dynamic: Float,
        "static_l1" => static_l1: Float,
        "static_second" => static_second: Float,
        "static_last" => static_last: Float,
        "total" => total: Float,
    }
}

record! {
    /// One Table III row.
    ReportHits(HitDistributionRow), required {
        "label" => label: String,
        "suite" => suite: SuiteLabel,
        "level_percent" => level_percent: Vec<Float>,
        "all_levels_percent" => all_levels_percent: Float,
        "avg_to_min_transport" => avg_to_min_transport: Float,
    }
}

/// The report of one scenario run, before encoding.
pub(crate) fn report(plan: &ExperimentPlan, study: &Study) -> Report {
    let completed = study.results.iter().map(|r| {
        ResultRow::Completed(RunRow {
            label: r.label.clone(),
            workload: r.workload.clone(),
            suite: r.suite,
            status: "ok".to_owned(),
            instructions: r.instructions,
            cycles: r.cycles,
            ipc: r.ipc,
            memory_accesses: r.hierarchy.memory_accesses,
            write_drains: r.hierarchy.write_drains,
            energy_total_pj: r.energy.total_pj(),
            per_core: r.per_core.clone(),
            coherence: r.coherence.clone(),
        })
    });
    // Failed runs appear in the same array with their structured status
    // (DESIGN.md §14), so a report always accounts for the whole matrix.
    let failed = study.failures.iter().map(|f| {
        ResultRow::Failed(FailRow {
            label: f.label.clone(),
            workload: f.workload.clone(),
            suite: f.suite,
            status: f.error.status().to_owned(),
            seed: f.seed,
            error: f.error.to_string(),
            attempts: f.attempts,
        })
    });
    Report {
        scenario: plan.name.clone(),
        options: plan.options.clone(),
        baseline: study.baseline.clone(),
        configs: study.configs.clone(),
        results: completed.chain(failed).collect(),
        ipc_summary: study.ipc_summary(),
        energy_summary: study.energy_summary(),
        hit_distribution: study.hit_distribution(),
        sweep: None,
    }
}

/// Renders the structured report of one scenario run: the resolved options,
/// every [`RunResult`](crate::system::RunResult) in run order, and the
/// derived summaries the text tables print.
#[must_use]
pub fn report_value(plan: &ExperimentPlan, study: &Study) -> Value {
    ReportDoc::encode(&report(plan, study))
}

/// Structurally validates an `lnuca-report/v1` document against the same
/// declarations [`report_value`] writes from: the schema marker, the exact
/// member set of the document, of every `results` row (completed or
/// failed) and of every summary table, and — when present — the `sweep`
/// extension. Unknown fields anywhere fail with their JSON path, with the
/// same strictness the scenario parser applies on the way in
/// ([`Scenario::from_json`]); the `options` object is checked by the
/// scenario parser's own declaration. Used by `lnuca check-report` (and CI)
/// to catch emission drift.
///
/// # Errors
///
/// Returns a description of the first violation, carrying its JSON path.
pub fn validate_report(value: &Value) -> Result<(), String> {
    codec::read::<ReportDoc>(At::Root("$"), value)
        .map(drop)
        .map_err(|e| format!("invalid report at {}: {}", e.path, e.message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_parses_back_from_its_canonical_json() {
        for name in builtin_names() {
            let scenario = builtin(name).expect("builtin resolves");
            assert_eq!(scenario.name(), name);
            assert!(!scenario.description.is_empty());
            let text = scenario.to_json();
            let reparsed = Scenario::from_json(&text)
                .unwrap_or_else(|e| panic!("{name} round trip failed: {e}"));
            assert_eq!(reparsed, scenario, "{name}: JSON round trip is lossless");
        }
    }

    #[test]
    fn unknown_builtin_lists_the_registry() {
        let err = builtin("papr").unwrap_err().to_string();
        assert!(err.contains("unknown scenario"), "{err}");
        for name in builtin_names() {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
    }

    #[test]
    fn presets_expand_and_overrides_apply() {
        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "configs": [
                {"preset": "lnuca-l3", "levels": 2},
                {"label": "big tiles", "preset": "lnuca-l3",
                 "fabric": {"levels": 3, "tile_size_kb": 16}}
            ]
        }"#;
        let scenario = Scenario::from_json(text).unwrap();
        assert_eq!(scenario.plan.configs.len(), 2);
        assert_eq!(scenario.plan.configs[0].label(), "LN2-72KB");
        let big = &scenario.plan.configs[1];
        assert_eq!(big.label(), "big tiles");
        assert_eq!(big.fabric.as_ref().unwrap().tile_size_bytes, 16 * 1024);
        // Options were absent: defaults.
        assert_eq!(scenario.plan.options.seed, 1);
    }

    #[test]
    fn unknown_fields_are_rejected_with_their_path() {
        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "configs": [{"preset": "conventional", "tyop": 1}]
        }"#;
        let err = Scenario::from_json(text).unwrap_err().to_string();
        assert!(err.contains("$.configs[0]"), "{err}");
        assert!(err.contains("tyop"), "{err}");

        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "options": {"instructions": 5, "frobnicate": true},
            "configs": [{"preset": "conventional"}]
        }"#;
        let err = Scenario::from_json(text).unwrap_err().to_string();
        assert!(err.contains("$.options") && err.contains("frobnicate"), "{err}");
    }

    #[test]
    fn bad_names_fail_at_load_time_with_valid_lists() {
        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "options": {"workloads": ["int.compress", "no.such"]},
            "configs": [{"preset": "conventional"}]
        }"#;
        let err = Scenario::from_json(text).unwrap_err().to_string();
        assert!(err.contains("no.such") && err.contains("adv.gups"), "{err}");

        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "configs": [{"preset": "lnuca-l9000"}]
        }"#;
        let err = Scenario::from_json(text).unwrap_err().to_string();
        assert!(err.contains("hierarchy preset") && err.contains("lnuca-dnuca"), "{err}");
    }

    #[test]
    fn levels_on_a_fabricless_preset_is_rejected_not_ignored() {
        for preset in ["conventional", "dnuca"] {
            let text = format!(
                r#"{{
                    "schema": "lnuca-scenario/v1",
                    "name": "t",
                    "configs": [{{"preset": "{preset}", "levels": 2}}]
                }}"#
            );
            let err = Scenario::from_json(&text).unwrap_err().to_string();
            assert!(
                err.contains("levels") && err.contains("no fabric"),
                "{preset}: {err}"
            );
        }
        // On the fabric presets it is meaningful and accepted.
        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "configs": [{"preset": "lnuca-dnuca", "levels": 4}]
        }"#;
        let scenario = Scenario::from_json(text).unwrap();
        assert_eq!(scenario.plan.configs[0].fabric.as_ref().unwrap().levels, 4);
    }

    #[test]
    fn wrong_schema_marker_is_rejected() {
        let err = Scenario::from_json(r#"{"schema": "lnuca-scenario/v9", "name": "t", "configs": []}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("lnuca-scenario/v1"), "{err}");
    }

    #[test]
    fn spec_value_round_trip_is_identity() {
        for name in builtin_names() {
            for (i, spec) in builtin(name).unwrap().plan.configs.iter().enumerate() {
                let value = spec_to_value(spec);
                let back = spec_from_value("$", &value)
                    .unwrap_or_else(|e| panic!("{name}[{i}]: {e}"));
                assert_eq!(&back, spec, "{name}[{i}]: spec → JSON → spec is identity");
            }
        }
    }

    #[test]
    fn report_of_a_tiny_run_validates() {
        let mut options = ExperimentOptions::quick();
        options.instructions = 1_000;
        options.benchmarks_per_suite = Some(1);
        options.lnuca_levels = vec![2];
        let plan = ExperimentPlan::paper_conventional(&options).unwrap();
        let study = Study::run(&plan).unwrap();
        let report = report_value(&plan, &study);
        validate_report(&report).expect("freshly emitted reports validate");
        // And the document survives a parse round trip.
        let text = report.to_pretty();
        let parsed = json::parse(&text).unwrap();
        validate_report(&parsed).unwrap();
        assert_eq!(parsed.get("baseline").unwrap().as_str(), Some("L2-256KB"));
    }

    #[test]
    fn report_validation_catches_drift() {
        assert!(validate_report(&Value::Null).is_err());
        let mut members = vec![
            ("schema".to_owned(), Value::String(REPORT_SCHEMA.to_owned())),
            ("scenario".to_owned(), Value::String("t".to_owned())),
        ];
        assert!(validate_report(&Value::Object(members.clone())).unwrap_err().contains("options"));
        members.push(("options".to_owned(), Value::Object(vec![])));
        members.push(("baseline".to_owned(), Value::String("b".to_owned())));
        members.push(("configs".to_owned(), Value::Array(vec![])));
        let err = validate_report(&Value::Object(members)).unwrap_err();
        assert!(err.contains("no configurations"), "{err}");
    }

    /// A valid tiny report to mutate in the negative tests below.
    fn tiny_report() -> Value {
        let mut options = ExperimentOptions::quick();
        options.instructions = 500;
        options.benchmarks_per_suite = Some(1);
        options.lnuca_levels = vec![2];
        let plan = ExperimentPlan::paper_conventional(&options).unwrap();
        let study = Study::run(&plan).unwrap();
        report_value(&plan, &study)
    }

    fn push_field(value: &mut Value, path: &[&str], key: &str, v: Value) {
        let Value::Object(members) = value else { panic!("expected object") };
        if let [head, rest @ ..] = path {
            let slot = members
                .iter_mut()
                .find(|(k, _)| k == head)
                .map(|(_, v)| v)
                .expect("path exists");
            let target = if let Value::Array(items) = slot { &mut items[0] } else { slot };
            push_field(target, rest, key, v);
        } else {
            members.push((key.to_owned(), v));
        }
    }

    #[test]
    fn report_validation_rejects_unknown_fields_with_their_path() {
        // Top level.
        let mut report = tiny_report();
        push_field(&mut report, &[], "bogus", Value::Bool(true));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("invalid report at $") && err.contains("bogus"), "{err}");

        // Inside a result row — the path names the row.
        let mut report = tiny_report();
        push_field(&mut report, &["results"], "stray", Value::UInt(1));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("$.results[0]") && err.contains("stray"), "{err}");

        // Inside the options object — strictness parity with the scenario
        // parser, which uses the very same walker.
        let mut report = tiny_report();
        push_field(&mut report, &["options"], "not_a_knob", Value::UInt(1));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("$.options") && err.contains("not_a_knob"), "{err}");
    }

    #[test]
    fn report_validation_checks_the_sweep_extension() {
        let frontier_row = |label: &str| {
            Value::Object(vec![
                ("label".to_owned(), Value::String(label.to_owned())),
                ("ipc".to_owned(), Value::Float(0.5)),
                ("energy_pj".to_owned(), Value::Float(100.0)),
                ("area_mm2".to_owned(), Value::Float(1.0)),
            ])
        };
        let sweep = |evaluated: u64, pruned: u64, survivors: u64, frontier: Vec<Value>| {
            Value::Object(vec![
                ("evaluated".to_owned(), Value::UInt(evaluated)),
                ("pruned".to_owned(), Value::UInt(pruned)),
                ("survivors".to_owned(), Value::UInt(survivors)),
                ("epsilon".to_owned(), Value::Float(0.02)),
                ("probe_instructions".to_owned(), Value::UInt(1000)),
                ("frontier".to_owned(), Value::Array(frontier)),
            ])
        };

        let mut report = tiny_report();
        push_field(&mut report, &[], "sweep", sweep(10, 6, 4, vec![frontier_row("a")]));
        validate_report(&report).expect("a well-formed sweep extension validates");

        // Inconsistent counts.
        let mut report = tiny_report();
        push_field(&mut report, &[], "sweep", sweep(10, 6, 5, vec![frontier_row("a")]));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("$.sweep") && err.contains("must equal evaluated"), "{err}");

        // Unknown field inside a frontier row, with its path.
        let mut row = frontier_row("a");
        push_field(&mut row, &[], "extra", Value::UInt(1));
        let mut report = tiny_report();
        push_field(&mut report, &[], "sweep", sweep(10, 6, 4, vec![row]));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("$.sweep.frontier[0]") && err.contains("extra"), "{err}");
    }

    #[test]
    fn zero_batch_and_zero_benchmarks_are_rejected_with_their_paths() {
        let scenario_with_options = |options: &str| {
            format!(
                r#"{{"schema": "lnuca-scenario/v1", "name": "t",
                     "options": {options},
                     "configs": [{{"preset": "conventional"}}]}}"#
            )
        };
        let err = Scenario::from_json(&scenario_with_options(r#"{"batch_size": 0}"#)).unwrap_err();
        assert!(
            err.to_string().contains("$.options.batch_size"),
            "the error names the offending knob: {err}"
        );
        let err = Scenario::from_json(&scenario_with_options(r#"{"benchmarks_per_suite": 0}"#))
            .unwrap_err();
        assert!(
            err.to_string().contains("$.options.benchmarks_per_suite"),
            "the error names the offending knob: {err}"
        );
        // 1 stays accepted.
        Scenario::from_json(&scenario_with_options(r#"{"batch_size": 1, "benchmarks_per_suite": 1}"#))
            .expect("nonzero values are valid");
    }

    #[test]
    fn kib_sizes_reject_overflow_and_conflicts_with_their_paths() {
        let scenario_with = |config: &str| {
            format!(r#"{{"schema": "lnuca-scenario/v1", "name": "t", "configs": [{config}]}}"#)
        };
        let schema_error = |config: &str| match Scenario::from_json(&scenario_with(config)) {
            Err(ScenarioError::Schema { path, message }) => (path, message),
            other => panic!("{config}: expected a schema error, got {other:?}"),
        };
        // 2^54 + 1 KiB is 2^64 + 1024 bytes: an unchecked multiply wraps to
        // a 1 KiB cache.
        let huge = 18_014_398_509_481_985_u64;
        for (config, at) in [
            (
                format!(r#"{{"root": {{"preset": "paper-l1", "size_kb": {huge}}}}}"#),
                "$.configs[0].root.size_kb",
            ),
            (
                format!(r#"{{"preset": "lnuca-l3", "fabric": {{"tile_size_kb": {huge}}}}}"#),
                "$.configs[0].fabric.tile_size_kb",
            ),
            (
                format!(
                    r#"{{"backing": {{"kind": "dnuca", "dnuca": {{"bank_size_kb": {huge}}}}}}}"#
                ),
                "$.configs[0].backing.dnuca.bank_size_kb",
            ),
        ] {
            let (path, message) = schema_error(&config);
            assert_eq!(path, at, "{message}");
            assert!(message.contains("does not fit in 64 bits"), "{message}");
        }
        for (config, at) in [
            (
                r#"{"root": {"size_bytes": 16384, "size_kb": 16}}"#,
                "$.configs[0].root.size_kb",
            ),
            (
                r#"{"preset": "lnuca-l3", "fabric": {"tile_size_bytes": 8192, "tile_size_kb": 8}}"#,
                "$.configs[0].fabric.tile_size_kb",
            ),
            (
                r#"{"backing": {"kind": "dnuca",
                    "dnuca": {"bank_size_bytes": 65536, "bank_size_kb": 64}}}"#,
                "$.configs[0].backing.dnuca.bank_size_kb",
            ),
        ] {
            let (path, message) = schema_error(config);
            assert_eq!(path, at, "{message}");
            assert!(message.contains("conflicts with"), "{message}");
        }
        // Either form alone is accepted.
        let scenario = Scenario::from_json(&scenario_with(r#"{"root": {"size_kb": 16}}"#)).unwrap();
        assert_eq!(scenario.plan.configs[0].root.size_bytes, 16 * 1024);
    }
}
