//! The `lnuca` command-line driver and the shared section printers every
//! per-figure binary delegates to.
//!
//! One code path runs every experiment: resolve a scenario (built-in name
//! or `lnuca-scenario/v1` file), layer the `LNUCA_*` environment knobs on
//! top of its options ([`crate::knobs`]), hand the plan to
//! [`Study::run`], print the requested table sections, and optionally emit
//! the `lnuca-report/v1` JSON document. The twelve per-figure binaries are
//! thin `main`s over [`figure_main`] / the `*_main` drivers here; the
//! `lnuca` binary exposes the whole surface as subcommands
//! (`list` / `run` / `validate` / `export` / `check-report` /
//! `ingest` / `sweep`).

use crate::{baseline, f3, knobs, signed_pct};
use lnuca_sim::experiments::{area_table, headline, ExperimentPlan, Study};
use lnuca_sim::report::format_table;
use lnuca_sim::scenario::{self, Scenario};
use lnuca_sim::sweep::SweepConfig;
use lnuca_workloads::{trace, Suite};
use std::path::Path;
use std::time::Instant;

/// One printable table of a study (the sections the figure binaries pick
/// from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Fig. 4(a) / 5(a): harmonic-mean IPC per suite.
    IpcSummary,
    /// Fig. 4(b) / 5(b): normalised stacked energy.
    EnergySummary,
    /// Table III: read hits per fabric level vs the baseline's second level.
    HitDistribution,
    /// Simulator wall-clock throughput (host metric, not modelled time).
    Throughput,
    /// Tile-size ablation extras: fabric capacity next to the IPC.
    TileAblation,
    /// Routing ablation extras: transport contention next to the IPC.
    RoutingAblation,
}

/// A scenario plus where it came from: the built-in registry or a file.
/// The distinction matters because only *registry* paper scenarios may
/// regenerate their configuration matrix from `LNUCA_LEVELS` — a file the
/// user edited must run exactly the configurations it spells out.
#[derive(Debug, Clone)]
pub struct ResolvedScenario {
    /// The scenario itself.
    pub scenario: Scenario,
    /// `true` when resolved from the built-in registry (not a file).
    pub from_registry: bool,
}

/// Resolves a scenario argument: an existing file path (or anything
/// path-like) loads as a scenario document, everything else is looked up in
/// the built-in registry.
///
/// # Errors
///
/// Returns a printable message (I/O, parse or unknown-name).
pub fn resolve_scenario(arg: &str) -> Result<ResolvedScenario, String> {
    let path_like = arg.ends_with(".json") || arg.contains('/') || Path::new(arg).exists();
    if path_like {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
        let scenario = Scenario::from_json(&text).map_err(|e| format!("{arg}: {e}"))?;
        Ok(ResolvedScenario {
            scenario,
            from_registry: false,
        })
    } else {
        let scenario = scenario::builtin(arg).map_err(|e| e.to_string())?;
        Ok(ResolvedScenario {
            scenario,
            from_registry: true,
        })
    }
}

/// Applies the environment layer to a resolved scenario and returns the
/// plan to run. The two **registry** paper scenarios regenerate their
/// configuration list from the layered options so `LNUCA_LEVELS` keeps
/// working exactly as it did for the old per-figure binaries; every
/// file-loaded scenario (even one reusing a registry name) keeps its own
/// configurations.
///
/// # Errors
///
/// Returns a printable message for invalid layered options.
pub fn resolved_plan(resolved: &ResolvedScenario) -> Result<ExperimentPlan, String> {
    let mut options = resolved.scenario.plan.options.clone();
    knobs::apply_env(&mut options);
    if resolved.from_registry {
        match resolved.scenario.name() {
            "paper-conventional" => {
                return ExperimentPlan::paper_conventional(&options).map_err(|e| e.to_string())
            }
            "paper-dnuca" => {
                return ExperimentPlan::paper_dnuca(&options).map_err(|e| e.to_string())
            }
            _ => {}
        }
    }
    let mut plan = resolved.scenario.plan.clone();
    plan.options = options;
    Ok(plan)
}

/// Runs a plan, timing it.
///
/// # Errors
///
/// Returns a printable message for configuration errors.
pub fn run_plan(plan: &ExperimentPlan) -> Result<(Study, f64), String> {
    run_plan_journaled(plan, None, false)
}

/// [`run_plan`] with an optional crash-safe journal: with `journal` set,
/// completed runs are appended to that file as they finish and — with
/// `resume` — a journal left by an interrupted invocation of the same plan
/// is continued instead of restarted (`Study::run_journaled`).
///
/// # Errors
///
/// Returns a printable message for configuration and journal errors.
pub fn run_plan_journaled(
    plan: &ExperimentPlan,
    journal: Option<&str>,
    resume: bool,
) -> Result<(Study, f64), String> {
    let batch = match plan.options.batch_size {
        0 | 1 => String::new(),
        usize::MAX => ", full-width batches".to_owned(),
        n => format!(", batches of {n}"),
    };
    eprintln!(
        "running {:?}: {} configuration(s), {} instructions per run, {} worker thread(s){batch}",
        plan.name,
        plan.configs.len(),
        plan.options.instructions,
        plan.options.threads,
    );
    let started = Instant::now();
    let study = match journal {
        Some(path) => {
            Study::run_journaled(plan, std::path::Path::new(path), resume)
                .map_err(|e| e.to_string())?
        }
        None => Study::run(plan).map_err(|e| e.to_string())?,
    };
    Ok((study, started.elapsed().as_secs_f64()))
}

/// Prints the requested sections of a finished study.
pub fn print_sections(plan: &ExperimentPlan, study: &Study, wall_seconds: f64, sections: &[Section]) {
    for section in sections {
        match section {
            Section::IpcSummary => print_ipc(study),
            Section::EnergySummary => print_energy(study),
            Section::HitDistribution => print_hits(study),
            Section::Throughput => print_throughput(&[baseline::StudyPerf {
                name: &plan.name,
                wall_seconds,
                runs: &study.perf,
            }]),
            Section::TileAblation => print_tile_ablation(plan, study),
            Section::RoutingAblation => print_routing_ablation(study),
        }
    }
}

/// The standard `lnuca run` driver for one scenario argument: resolve,
/// layer, run, print, optionally write the report.
///
/// # Errors
///
/// Returns a printable message.
pub fn run_scenario(arg: &str, report_path: Option<&str>) -> Result<(), String> {
    run_scenario_batched(arg, report_path, None)
}

/// [`run_scenario`] with an explicit batch size override (the
/// `lnuca run --batch-size` flag), applied above every other layer —
/// including `LNUCA_BATCH`.
///
/// # Errors
///
/// Returns a printable message.
pub fn run_scenario_batched(
    arg: &str,
    report_path: Option<&str>,
    batch_size: Option<usize>,
) -> Result<(), String> {
    run_scenario_supervised(arg, report_path, batch_size, None, false).map(|_| ())
}

/// The full `lnuca run` driver: [`run_scenario_batched`] plus the
/// `--journal`/`--resume` flags. Returns how many runs of the study failed
/// (the report is still printed and written — a supervised failure must
/// not discard its siblings' results — but the caller should exit
/// nonzero).
///
/// # Errors
///
/// Returns a printable message.
pub fn run_scenario_supervised(
    arg: &str,
    report_path: Option<&str>,
    batch_size: Option<usize>,
    journal: Option<&str>,
    resume: bool,
) -> Result<usize, String> {
    let resolved = resolve_scenario(arg)?;
    let scenario = &resolved.scenario;
    if !scenario.description.is_empty() {
        eprintln!("{}: {}", scenario.name(), scenario.description);
    }
    let mut plan = resolved_plan(&resolved)?;
    if let Some(batch) = batch_size {
        plan.options.batch_size = batch.max(1);
    }
    let (study, wall) = run_plan_journaled(&plan, journal, resume)?;
    let mut sections = vec![Section::IpcSummary, Section::EnergySummary];
    if study.results.iter().any(|r| r.hierarchy.lnuca.is_some()) {
        sections.push(Section::HitDistribution);
    }
    sections.push(Section::Throughput);
    print_sections(&plan, &study, wall, &sections);
    if let Some(path) = report_path {
        let report = scenario::report_value(&plan, &study);
        std::fs::write(path, report.to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path} ({})", scenario::REPORT_SCHEMA);
    }
    for failure in &study.failures {
        eprintln!(
            "failed: {}/{} (seed {}) [{}] after {} attempt(s): {}",
            failure.label,
            failure.workload,
            failure.seed,
            failure.error.status(),
            failure.attempts,
            failure.error,
        );
    }
    Ok(study.failures.len())
}

/// Shared driver of the per-figure binaries: run a built-in scenario and
/// print one titled section set plus the paper-reference footer.
pub fn figure_main(scenario_name: &str, title: &str, sections: &[Section], footer: &str) {
    let resolved = ResolvedScenario {
        scenario: scenario::builtin(scenario_name).expect("figure binaries name built-ins"),
        from_registry: true,
    };
    let plan = resolved_plan(&resolved).expect("layered paper options are valid");
    let (study, wall) = run_plan(&plan).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("{title}\n");
    print_sections(&plan, &study, wall, sections);
    if !footer.is_empty() {
        println!("{footer}");
    }
}

// ---------------------------------------------------------------------------
// Section printers (shared by the figure binaries and `lnuca run`)
// ---------------------------------------------------------------------------

/// Fig. 4(a) / 5(a): harmonic-mean IPC per suite, per configuration.
pub fn print_ipc(study: &Study) {
    let rows: Vec<Vec<String>> = study
        .ipc_summary()
        .into_iter()
        .map(|r| {
            vec![
                r.label,
                f3(r.int_ipc),
                signed_pct(r.int_gain_pct),
                f3(r.fp_ipc),
                signed_pct(r.fp_gain_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["configuration", "Integer IPC", "vs baseline", "FP IPC", "vs baseline"],
            &rows
        )
    );
}

/// Fig. 4(b) / 5(b): stacked energy normalised to the baseline.
pub fn print_energy(study: &Study) {
    let rows: Vec<Vec<String>> = study
        .energy_summary()
        .into_iter()
        .map(|r| {
            vec![
                r.label,
                f3(r.dynamic),
                f3(r.static_l1),
                f3(r.static_second),
                f3(r.static_last),
                f3(r.total),
                signed_pct((r.total - 1.0) * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["configuration", "dyn.", "sta. L1-RT", "sta. 2nd level", "sta. last level", "total", "vs baseline"],
            &rows
        )
    );
}

/// Table III: per-level fabric read hits relative to the baseline's second
/// level.
pub fn print_hits(study: &Study) {
    let rows: Vec<Vec<String>> = study
        .hit_distribution()
        .into_iter()
        .map(|row| {
            let levels: Vec<String> = row.level_percent.iter().map(|v| format!("{v:.1}")).collect();
            vec![
                row.label.clone(),
                match row.suite {
                    Suite::Integer => "Int.".to_owned(),
                    Suite::FloatingPoint => "FP.".to_owned(),
                },
                levels.join(" / "),
                format!("{:.1}", row.all_levels_percent),
                format!("{:.3}", row.avg_to_min_transport),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["configuration", "suite", "Le2 / Le3 / ... (%)", "all levels (%)", "avg/min transport"],
            &rows
        )
    );
}

/// Simulator wall-clock throughput per configuration (host metric).
pub fn print_throughput(studies: &[baseline::StudyPerf<'_>]) {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for study in studies {
        for (label, runs, wall, cycles, kcps) in baseline::per_configuration(study.runs) {
            rows.push(vec![
                study.name.to_owned(),
                label,
                runs.to_string(),
                format!("{wall:.3}"),
                format!("{:.1}", cycles as f64 / 1e6),
                format!("{kcps:.0}"),
            ]);
        }
        rows.push(vec![
            study.name.to_owned(),
            "(whole study)".to_owned(),
            study.runs.len().to_string(),
            format!("{:.3}", study.wall_seconds),
            format!(
                "{:.1}",
                study.runs.iter().map(|r| r.cycles).sum::<u64>() as f64 / 1e6
            ),
            String::new(),
        ]);
    }
    println!("== Simulator throughput (wall-clock, not modelled time) ==\n");
    println!(
        "{}",
        format_table(
            &["study", "configuration", "runs", "wall s", "Mcycles", "kcycles/s"],
            &rows
        )
    );
}

/// Tile-size ablation: fabric capacity (from the plan's specs) next to the
/// harmonic-mean IPC over every run of each configuration.
pub fn print_tile_ablation(plan: &ExperimentPlan, study: &Study) {
    let mut rows = Vec::new();
    for spec in &plan.configs {
        let label = spec.label();
        let capacity = spec.fabric.as_ref().map(|fabric| {
            let tiles = lnuca_core::LNucaGeometry::new(fabric.levels)
                .map(|g| g.capacity_bytes(fabric.tile_size_bytes))
                .unwrap_or(0);
            (fabric.tile_size_bytes, (tiles + spec.root.size_bytes) / 1024)
        });
        let ipcs: Vec<f64> = study.results_for(&label).map(|r| r.ipc).collect();
        rows.push(vec![
            capacity.map_or("—".to_owned(), |(tile, _)| format!("{} KB tiles", tile / 1024)),
            capacity.map_or("—".to_owned(), |(_, kb)| format!("{kb} KB")),
            f3(lnuca_types::stats::harmonic_mean(&ipcs).unwrap_or(0.0)),
        ]);
    }
    println!(
        "{}",
        format_table(&["tile size", "total capacity (with L1)", "harmonic-mean IPC"], &rows)
    );
}

/// Routing ablation: IPC, the avg/min Transport latency ratio (the Table III
/// contention metric) and network stall cycles per routing policy.
pub fn print_routing_ablation(study: &Study) {
    let mut rows = Vec::new();
    for label in &study.configs {
        let mut ipcs = Vec::new();
        let mut latency_sum = 0u64;
        let mut min_sum = 0u64;
        let mut stalls = 0u64;
        for result in study.results_for(label) {
            ipcs.push(result.ipc);
            if let Some(fabric) = &result.hierarchy.lnuca {
                latency_sum += fabric.transport_latency_sum;
                min_sum += fabric.transport_min_latency_sum;
                stalls += fabric.transport_stall_cycles + fabric.replacement_stall_cycles;
            }
        }
        let ratio = if min_sum == 0 { 1.0 } else { latency_sum as f64 / min_sum as f64 };
        rows.push(vec![
            label.clone(),
            f3(lnuca_types::stats::harmonic_mean(&ipcs).unwrap_or(0.0)),
            format!("{ratio:.4}"),
            stalls.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["configuration", "harmonic-mean IPC", "avg/min transport latency", "network stall cycles"],
            &rows
        )
    );
}

/// The headline table (abstract/§V-A): LN3-144KB vs L2-256KB.
pub fn print_headline(study: &Study) {
    let h = headline(study);
    println!(
        "{}",
        format_table(
            &["metric", "measured", "paper"],
            &[
                vec!["area".to_owned(), signed_pct(h.area_change_pct), "-5.3%".to_owned()],
                vec!["Integer IPC".to_owned(), signed_pct(h.int_ipc_gain_pct), "+6.1%".to_owned()],
                vec!["Floating-Point IPC".to_owned(), signed_pct(h.fp_ipc_gain_pct), "+15.0%".to_owned()],
                vec!["total energy".to_owned(), signed_pct(h.energy_change_pct), "-14.2%".to_owned()],
            ]
        )
    );
}

/// Table II: the paper's areas next to the analytical model's.
pub fn print_area_table() {
    let rows: Vec<Vec<String>> = area_table()
        .into_iter()
        .map(|row| {
            vec![
                row.label,
                row.paper_mm2.map_or("—".to_owned(), |v| format!("{v:.2}")),
                format!("{:.2}", row.model_mm2),
                row.paper_network_pct.map_or("—".to_owned(), |v| format!("{v:.1}%")),
                format!("{:.1}%", row.model_network_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["configuration", "paper mm2", "model mm2", "paper net %", "model net %"],
            &rows
        )
    );
}

/// Table I: the configuration defaults next to the paper's parameters
/// (no simulation).
pub fn print_table1() {
    let l1 = lnuca_sim::configs::paper_l1();
    let l2 = lnuca_sim::configs::paper_l2();
    let l3 = lnuca_sim::configs::paper_l3();
    let mem = lnuca_sim::configs::paper_memory();
    let lnuca = lnuca_core::LNucaConfig::default();
    let dnuca = lnuca_dnuca::DNucaConfig::paper();
    let core = lnuca_cpu::CoreConfig::paper();

    let cache_row = |name: &str, cfg: &lnuca_mem::CacheConfig| -> Vec<String> {
        vec![
            name.to_owned(),
            format!("{} KB", cfg.size_bytes / 1024),
            format!("{}-way", cfg.ways),
            format!("{} B", cfg.block_size),
            format!("{} / {}", cfg.completion_cycles, cfg.initiation_interval),
            match cfg.write_policy {
                lnuca_mem::WritePolicy::WriteThrough => "write-through".to_owned(),
                lnuca_mem::WritePolicy::CopyBack => "copy-back".to_owned(),
            },
        ]
    };

    let cache_rows = vec![
        cache_row("L1 / r-tile", &l1),
        cache_row("L2", &l2),
        cache_row("L3", &l3),
        vec![
            "L-NUCA tile".to_owned(),
            format!("{} KB", lnuca.tile_size_bytes / 1024),
            format!("{}-way", lnuca.tile_ways),
            format!("{} B", lnuca.block_size),
            "1 / 1".to_owned(),
            "copy-back".to_owned(),
        ],
        vec![
            "D-NUCA bank".to_owned(),
            format!("{} KB", dnuca.bank_size_bytes / 1024),
            format!("{}-way", dnuca.bank_ways),
            format!("{} B", dnuca.block_size),
            format!("{} / {}", dnuca.bank_completion_cycles, dnuca.bank_initiation_interval),
            "copy-back".to_owned(),
        ],
    ];
    println!(
        "{}",
        format_table(
            &["cache", "size", "assoc", "block", "completion/initiation", "write policy"],
            &cache_rows
        )
    );

    let core_rows = vec![
        vec!["fetch / issue / commit width".to_owned(), format!("{} / {}+{} / {}", core.fetch_width, core.issue_width_int_mem, core.issue_width_fp, core.commit_width)],
        vec!["ROB / LSQ".to_owned(), format!("{} / {}", core.rob_size, core.lsq_size)],
        vec!["INT / FP / MEM issue windows".to_owned(), format!("{} / {} / {}", core.int_window, core.fp_window, core.mem_window)],
        vec!["store buffer".to_owned(), core.store_buffer_size.to_string()],
        vec!["branch mispredict penalty".to_owned(), format!("{} cycles", core.mispredict_penalty)],
        vec!["MSHRs L1 / L2 / L3".to_owned(), format!("{} / {} / {}", lnuca_sim::configs::L1_MSHRS, lnuca_sim::configs::L2_MSHRS, lnuca_sim::configs::L3_MSHRS)],
        vec!["MSHR secondary misses".to_owned(), lnuca_sim::configs::MSHR_SECONDARY.to_string()],
        vec!["L2/L3 write buffers".to_owned(), format!("{0} / {0}", lnuca_sim::configs::WRITE_BUFFER_ENTRIES)],
        vec!["main memory".to_owned(), format!("{} + {} cycles/chunk, {} B wires", mem.first_chunk_cycles, mem.inter_chunk_cycles, mem.chunk_bytes)],
        vec!["D-NUCA mesh".to_owned(), format!("{}x{} banks, {} VCs, {} B flits", dnuca.cols, dnuca.rows, dnuca.virtual_channels, dnuca.flit_bytes)],
        vec!["L-NUCA buffers".to_owned(), format!("{} entries per link", lnuca.buffer_entries)],
    ];
    println!("{}", format_table(&["core / memory parameter", "value"], &core_rows));
}

/// Search-topology ablation (§III-A): broadcast tree vs 2-D mesh, computed
/// from the tile geometry (no simulation).
pub fn print_search_topology() {
    /// Number of directed links of a 4-neighbour mesh over the tile grid
    /// plus the root position.
    fn mesh_link_count(g: &lnuca_core::LNucaGeometry) -> usize {
        let mut nodes: Vec<(i16, i16)> = g.tiles().iter().map(|t| (t.col, t.row)).collect();
        nodes.push((0, 0));
        let mut links = 0;
        for &(c, r) in &nodes {
            for (dc, dr) in [(1i16, 0i16), (-1, 0), (0, 1), (0, -1)] {
                if nodes.contains(&(c + dc, r + dr)) {
                    links += 1;
                }
            }
        }
        links
    }

    let mut rows = Vec::new();
    for levels in 2..=6u8 {
        let g = lnuca_core::LNucaGeometry::new(levels).expect("levels in supported range");
        let tiles = g.tile_count();
        let tree_links = tiles;
        let tree_max_hops = u64::from(levels) - 1;
        let mesh_links = mesh_link_count(&g);
        let mesh_max_hops = g
            .tiles()
            .iter()
            .map(|t| t.manhattan_to_root())
            .max()
            .unwrap_or(0);
        rows.push(vec![
            format!("LN{levels}"),
            tiles.to_string(),
            tree_links.to_string(),
            tree_max_hops.to_string(),
            mesh_links.to_string(),
            mesh_max_hops.to_string(),
            format!("{:+.0}%", (mesh_links as f64 / tree_links as f64 - 1.0) * 100.0),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "fabric",
                "tiles",
                "tree links",
                "tree max hops",
                "mesh links",
                "mesh max hops",
                "mesh link overhead"
            ],
            &rows
        )
    );
}

/// Driver of the `headline_summary` binary: the conventional study with LN3
/// guaranteed present, the optional perf-baseline write, and the headline
/// table.
pub fn headline_main() {
    let scenario = scenario::builtin("paper-conventional").expect("builtin exists");
    let mut options = scenario.plan.options.clone();
    knobs::apply_env(&mut options);
    if !options.lnuca_levels.contains(&3) {
        options.lnuca_levels.push(3);
    }
    let plan = ExperimentPlan::paper_conventional(&options).expect("paper configurations are valid");
    let (study, wall) = run_plan(&plan).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let simulated: u64 = study.perf.iter().map(|p| p.cycles).sum();
    eprintln!(
        "simulated {:.1} Mcycles in {wall:.3} s wall-clock ({:.0} kcycles/s aggregate)",
        simulated as f64 / 1e6,
        if wall > 0.0 { simulated as f64 / 1_000.0 / wall } else { 0.0 },
    );
    if let Some(path) = baseline::path_from_env(false) {
        let studies = [baseline::StudyPerf {
            name: "conventional",
            wall_seconds: wall,
            runs: &study.perf,
        }];
        let json = baseline::baseline_json(&plan.options, &studies, wall);
        if let Err(err) = baseline::write(&path, &json) {
            eprintln!("warning: could not write {}: {err}", path.display());
        }
    }
    println!("Headline — LN3-144KB versus L2-256KB\n");
    print_headline(&study);
}

/// Driver of the `all_experiments` binary: both paper studies once, every
/// table/figure printed from the shared results, and the machine-readable
/// perf baseline.
pub fn all_experiments_main() {
    let wall_start = Instant::now();

    println!("== Table II — conventional and L-NUCA areas ==\n");
    print_area_table();

    let conventional_scenario = ResolvedScenario {
        scenario: scenario::builtin("paper-conventional").expect("builtin exists"),
        from_registry: true,
    };
    let conventional_plan = resolved_plan(&conventional_scenario).expect("layered options are valid");
    let (conventional, conventional_wall) = run_plan(&conventional_plan).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    println!("== Fig. 4(a) — IPC harmonic mean (conventional study) ==\n");
    print_ipc(&conventional);
    println!("== Fig. 4(b) — total energy normalised to L2-256KB ==\n");
    print_energy(&conventional);
    println!("== Table III — read hits per L-NUCA level relative to L2-256KB ==\n");
    print_hits(&conventional);
    println!("== Headline — LN3-144KB vs L2-256KB ==\n");
    print_headline(&conventional);

    let dnuca_scenario = ResolvedScenario {
        scenario: scenario::builtin("paper-dnuca").expect("builtin exists"),
        from_registry: true,
    };
    let dnuca_plan = resolved_plan(&dnuca_scenario).expect("layered options are valid");
    let (dnuca, dnuca_wall) = run_plan(&dnuca_plan).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    println!("== Fig. 5(a) — IPC harmonic mean (D-NUCA study) ==\n");
    print_ipc(&dnuca);
    println!("== Fig. 5(b) — total energy normalised to DN-4x8 ==\n");
    print_energy(&dnuca);

    // The CMP sharing study (DESIGN.md §17) joins the perf trajectory so
    // `baseline_delta` tracks coherent multicore throughput separately
    // from the single-core points.
    let cmp_scenario = ResolvedScenario {
        scenario: scenario::builtin("cmp-sharing").expect("builtin exists"),
        from_registry: true,
    };
    let cmp_plan = resolved_plan(&cmp_scenario).expect("layered options are valid");
    let (cmp, cmp_wall) = run_plan(&cmp_plan).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let studies = [
        baseline::StudyPerf {
            name: "conventional",
            wall_seconds: conventional_wall,
            runs: &conventional.perf,
        },
        baseline::StudyPerf {
            name: "dnuca",
            wall_seconds: dnuca_wall,
            runs: &dnuca.perf,
        },
        baseline::StudyPerf {
            name: "cmp",
            wall_seconds: cmp_wall,
            runs: &cmp.perf,
        },
    ];
    print_throughput(&studies);

    if let Some(path) = baseline::path_from_env(true) {
        let json = baseline::baseline_json(
            &conventional_plan.options,
            &studies,
            wall_start.elapsed().as_secs_f64(),
        );
        if let Err(err) = baseline::write(&path, &json) {
            eprintln!("warning: could not write {}: {err}", path.display());
        }
    }
}

// ---------------------------------------------------------------------------
// The `lnuca` subcommands
// ---------------------------------------------------------------------------

const USAGE: &str = "\
lnuca — declarative scenario runner for the Light NUCA reproduction

USAGE:
    lnuca list                          list the built-in scenarios
    lnuca run <scenario>... [--report PATH] [--batch-size N|full]
                            [--journal PATH [--resume]]
                                        run built-in scenario(s) or
                                        lnuca-scenario/v1 file(s); --report
                                        (one scenario only) also writes the
                                        lnuca-report/v1 JSON document;
                                        --batch-size sets how many
                                        consecutive jobs a worker claims at
                                        a time (identical results,
                                        DESIGN.md §13);
                                        --journal (one scenario only)
                                        appends completed runs to a
                                        crash-safe lnuca-journal/v1 file and
                                        --resume continues an interrupted
                                        study from it, byte-identical to an
                                        uninterrupted run (DESIGN.md §14);
                                        failed runs are reported with a
                                        structured status and make the exit
                                        code nonzero
    lnuca validate <file>...            strictly parse scenario files
                                        (unknown fields fail)
    lnuca export <name>                 print a built-in scenario as its
                                        canonical JSON document
    lnuca check-report <file>...        validate lnuca-report/v1 documents
    lnuca ingest <dump.txt> [--output PATH]
                                        convert a textual access dump (one
                                        `<r|w> <addr> [pc]` per line, `#`
                                        comments, decimal or 0x hex) into a
                                        compact lnuca-trace/v1 file;
                                        Valgrind lackey --trace-mem dumps
                                        (`I`/`L`/`S`/`M addr,size` lines)
                                        are auto-detected; a malformed line
                                        fails with its line number; the
                                        default output replaces the input
                                        extension with .lnt; the result
                                        replays through any workload slot
                                        that names the .lnt path
    lnuca sweep [--mini] [--epsilon E] [--probe N] [--report PATH]
                                        expand the design-space grid (tile
                                        size x levels x routing x backing x
                                        DRAM timing; 160 points, or the
                                        16-point --mini grid), probe every
                                        point cheaply, prune e-dominated
                                        points, evaluate the survivors with
                                        the batched engine, and print the
                                        Pareto frontier; --report writes
                                        the lnuca-report/v1 document with
                                        the `sweep` extension that
                                        check-report validates

The LNUCA_* environment variables layer on top of every scenario's options
(defaults < scenario file < environment); see the lnuca-bench crate docs.
Sweeps add LNUCA_SWEEP_EPSILON and LNUCA_SWEEP_PROBE (flags win over env).";

/// The `lnuca ingest` driver: read a textual access dump, encode it as
/// `lnuca-trace/v1`, write it, and describe the result.
///
/// # Errors
///
/// Returns a printable message; malformed dump lines carry their 1-based
/// line number ([`lnuca_workloads::IngestError`]).
pub fn ingest_dump(input: &str, output: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let records = trace::ingest_text(&text).map_err(|e| format!("{input}: {e}"))?;
    trace::write_file(output, &records).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "{output}: {} record(s) in {bytes} bytes ({:.2} bytes/record; the dump was {} bytes)",
        records.len(),
        bytes as f64 / records.len() as f64,
        text.len(),
    ))
}

/// The `lnuca sweep` driver: layer the configuration (grid defaults <
/// `LNUCA_SWEEP_*`/`LNUCA_*` environment < flags), run the sweep, print
/// the pruning outcome and the Pareto frontier, and optionally write the
/// extended `lnuca-report/v1` document. Returns how many survivor runs
/// failed (the frontier and report still cover the siblings).
///
/// # Errors
///
/// Returns a printable message.
pub fn sweep_main(
    mini: bool,
    epsilon: Option<f64>,
    probe: Option<u64>,
    report_path: Option<&str>,
) -> Result<usize, String> {
    let mut config = if mini { SweepConfig::miniature() } else { SweepConfig::grid() };
    knobs::apply_sweep_env(&mut config);
    if let Some(e) = epsilon {
        config.epsilon = e;
    }
    if let Some(p) = probe {
        config.probe_instructions = p;
    }
    eprintln!(
        "{}: probing {} grid point(s) at {} instruction(s) each (epsilon {})",
        config.name,
        config.point_count(),
        config.probe_instructions,
        config.epsilon,
    );
    let start = Instant::now();
    let outcome = config.run().map_err(|e| e.to_string())?;
    println!(
        "pruning: {} point(s) probed, {} pruned as epsilon-dominated, {} survivor(s) \
         evaluated in full",
        outcome.evaluated(),
        outcome.pruned,
        outcome.survivors(),
    );
    let rows: Vec<Vec<String>> = outcome
        .frontier
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                f3(p.ipc),
                format!("{:.1}", p.energy_pj),
                format!("{:.3}", p.area_mm2),
            ]
        })
        .collect();
    println!("\nPareto frontier ({} point(s), IPC vs energy vs area):", rows.len());
    println!("{}", format_table(&["config", "ipc", "energy_pj", "area_mm2"], &rows));
    eprintln!("sweep finished in {:.1}s", start.elapsed().as_secs_f64());
    if let Some(path) = report_path {
        std::fs::write(path, outcome.report_value().to_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("report written to {path} ({})", scenario::REPORT_SCHEMA);
    }
    for failure in &outcome.study.failures {
        eprintln!(
            "failed: {}/{} (seed {}) [{}] after {} attempt(s): {}",
            failure.label,
            failure.workload,
            failure.seed,
            failure.error.status(),
            failure.attempts,
            failure.error,
        );
    }
    Ok(outcome.study.failures.len())
}

/// Entry point of the `lnuca` binary: runs one subcommand, returns the
/// process exit code.
#[must_use]
pub fn cli_main(args: &[String]) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    match command.as_str() {
        "list" => {
            println!("built-in scenarios (run with `lnuca run <name>`; export with `lnuca export <name>`):\n");
            let rows: Vec<Vec<String>> = scenario::builtin_names()
                .into_iter()
                .map(|name| {
                    let s = scenario::builtin(name).expect("listed names resolve");
                    vec![
                        name.to_owned(),
                        s.plan.configs.len().to_string(),
                        s.description,
                    ]
                })
                .collect();
            println!("{}", format_table(&["name", "configs", "description"], &rows));
            0
        }
        "run" => {
            let mut scenarios: Vec<&String> = Vec::new();
            let mut report: Option<&str> = None;
            let mut batch_size: Option<usize> = None;
            let mut journal: Option<&str> = None;
            let mut resume = false;
            let mut iter = rest.iter();
            while let Some(arg) = iter.next() {
                if arg == "--report" {
                    match iter.next() {
                        Some(path) => report = Some(path),
                        None => {
                            eprintln!("error: --report needs a path\n{USAGE}");
                            return 2;
                        }
                    }
                } else if arg == "--batch-size" {
                    match iter.next().and_then(|raw| knobs::parse_batch(raw)) {
                        Some(batch) => batch_size = Some(batch),
                        None => {
                            eprintln!(
                                "error: --batch-size needs a batch size >= 1, or \"full\"\n{USAGE}"
                            );
                            return 2;
                        }
                    }
                } else if arg == "--journal" {
                    match iter.next() {
                        Some(path) => journal = Some(path),
                        None => {
                            eprintln!("error: --journal needs a path\n{USAGE}");
                            return 2;
                        }
                    }
                } else if arg == "--resume" {
                    resume = true;
                } else {
                    scenarios.push(arg);
                }
            }
            if scenarios.is_empty() {
                eprintln!("error: `lnuca run` needs at least one scenario\n{USAGE}");
                return 2;
            }
            if report.is_some() && scenarios.len() > 1 {
                eprintln!("error: --report works with exactly one scenario");
                return 2;
            }
            if journal.is_some() && scenarios.len() > 1 {
                eprintln!("error: --journal works with exactly one scenario");
                return 2;
            }
            if resume && journal.is_none() {
                eprintln!("error: --resume needs --journal\n{USAGE}");
                return 2;
            }
            let mut failed_runs = 0;
            for arg in scenarios {
                match run_scenario_supervised(arg, report, batch_size, journal, resume) {
                    Ok(failures) => failed_runs += failures,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return 1;
                    }
                }
            }
            if failed_runs > 0 {
                eprintln!("error: {failed_runs} run(s) failed (see the failure lines above)");
                return 1;
            }
            0
        }
        "validate" => {
            if rest.is_empty() {
                eprintln!("error: `lnuca validate` needs at least one file\n{USAGE}");
                return 2;
            }
            let mut failed = false;
            for path in rest {
                match std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))
                    .and_then(|text| Scenario::from_json(&text).map_err(|e| e.to_string()))
                {
                    Ok(scenario) => println!(
                        "{path}: OK ({} configuration(s), name {:?})",
                        scenario.plan.configs.len(),
                        scenario.name()
                    ),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        failed = true;
                    }
                }
            }
            i32::from(failed)
        }
        "export" => {
            let [name] = rest else {
                eprintln!("error: `lnuca export` takes exactly one built-in name\n{USAGE}");
                return 2;
            };
            match scenario::builtin(name) {
                Ok(scenario) => {
                    print!("{}", scenario.to_json());
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        "check-report" => {
            if rest.is_empty() {
                eprintln!("error: `lnuca check-report` needs at least one file\n{USAGE}");
                return 2;
            }
            let mut failed = false;
            for path in rest {
                let outcome = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))
                    .and_then(|text| {
                        serde::json::parse(&text).map_err(|e| e.to_string())
                    })
                    .and_then(|value| scenario::validate_report(&value));
                match outcome {
                    Ok(()) => println!("{path}: OK ({})", scenario::REPORT_SCHEMA),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        failed = true;
                    }
                }
            }
            i32::from(failed)
        }
        "ingest" => {
            let mut input: Option<&String> = None;
            let mut output: Option<String> = None;
            let mut iter = rest.iter();
            while let Some(arg) = iter.next() {
                if arg == "--output" || arg == "-o" {
                    match iter.next() {
                        Some(path) => output = Some(path.clone()),
                        None => {
                            eprintln!("error: --output needs a path\n{USAGE}");
                            return 2;
                        }
                    }
                } else if input.is_none() {
                    input = Some(arg);
                } else {
                    eprintln!("error: `lnuca ingest` converts exactly one dump\n{USAGE}");
                    return 2;
                }
            }
            let Some(input) = input else {
                eprintln!("error: `lnuca ingest` needs an input dump\n{USAGE}");
                return 2;
            };
            let output = output.unwrap_or_else(|| {
                Path::new(input).with_extension("lnt").to_string_lossy().into_owned()
            });
            match ingest_dump(input, &output) {
                Ok(summary) => {
                    println!("{summary}");
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        "sweep" => {
            let mut mini = false;
            let mut epsilon: Option<f64> = None;
            let mut probe: Option<u64> = None;
            let mut report: Option<&str> = None;
            let mut iter = rest.iter();
            while let Some(arg) = iter.next() {
                if arg == "--mini" {
                    mini = true;
                } else if arg == "--epsilon" {
                    match iter.next().and_then(|raw| knobs::parse_epsilon(raw)) {
                        Some(e) => epsilon = Some(e),
                        None => {
                            eprintln!(
                                "error: --epsilon needs a finite relative margin >= 0\n{USAGE}"
                            );
                            return 2;
                        }
                    }
                } else if arg == "--probe" {
                    match iter.next().and_then(|raw| knobs::parse_u64(raw)).filter(|&v| v >= 1)
                    {
                        Some(p) => probe = Some(p),
                        None => {
                            eprintln!(
                                "error: --probe needs an instruction budget >= 1\n{USAGE}"
                            );
                            return 2;
                        }
                    }
                } else if arg == "--report" {
                    match iter.next() {
                        Some(path) => report = Some(path),
                        None => {
                            eprintln!("error: --report needs a path\n{USAGE}");
                            return 2;
                        }
                    }
                } else {
                    eprintln!("error: unknown sweep argument {arg:?}\n{USAGE}");
                    return 2;
                }
            }
            match sweep_main(mini, epsilon, probe, report) {
                Ok(0) => 0,
                Ok(failures) => {
                    eprintln!("error: {failures} survivor run(s) failed");
                    1
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            0
        }
        other => {
            eprintln!("error: unknown command {other:?}\n{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_scenarios_resolve_through_the_cli_resolver() {
        let s = resolve_scenario("paper-conventional").unwrap();
        assert_eq!(s.scenario.name(), "paper-conventional");
        assert!(s.from_registry);
        let err = resolve_scenario("no-such-scenario").unwrap_err();
        assert!(err.contains("paper-dnuca"), "unknown names list the registry: {err}");
    }

    #[test]
    fn file_scenarios_keep_their_configs_even_under_registry_names() {
        // A user-edited copy of a paper scenario must run exactly what it
        // spells out — only *registry* paper scenarios regenerate their
        // matrix from the layered lnuca_levels.
        if std::env::var("LNUCA_LEVELS").is_ok() || std::env::var("LNUCA_QUICK").is_ok() {
            return; // the env layer would legitimately change the registry plan
        }
        let mut edited = scenario::builtin("paper-conventional").unwrap();
        edited.plan.configs.truncate(2); // user dropped LN3/LN4
        let dir = std::env::temp_dir().join("lnuca-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paper-conventional.json");
        std::fs::write(&path, edited.to_json()).unwrap();

        let resolved = resolve_scenario(path.to_str().unwrap()).unwrap();
        assert!(!resolved.from_registry);
        let plan = resolved_plan(&resolved).unwrap();
        assert_eq!(
            plan.configs.len(),
            2,
            "the file's edited configuration list survives resolution"
        );
    }

    #[test]
    fn ingest_round_trips_a_textual_dump() {
        let dir = std::env::temp_dir().join("lnuca-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("ingest-sample.txt");
        let out = dir.join("ingest-sample.lnt");
        std::fs::write(
            &dump,
            "# a tiny dump\nr 0x1000 0x400000\nw 4104 0x400004\nload 0x1010\n",
        )
        .unwrap();
        let code = cli_main(&[
            "ingest".to_owned(),
            dump.to_str().unwrap().to_owned(),
            "--output".to_owned(),
            out.to_str().unwrap().to_owned(),
        ]);
        assert_eq!(code, 0);
        let data = lnuca_workloads::TraceData::load(out.to_str().unwrap()).unwrap();
        let records = data.decode_all().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].addr, 0x1000);
        assert!(records[1].write);
        assert_eq!(records[2].pc, 0, "a missing pc column defaults to 0");

        // A malformed line fails with its line number in the message.
        std::fs::write(&dump, "r 0x1000\nnot-a-kind 12\n").unwrap();
        let err = ingest_dump(dump.to_str().unwrap(), out.to_str().unwrap()).unwrap_err();
        assert!(err.contains("line 2"), "line numbers survive to the CLI: {err}");
    }

    #[test]
    fn ingest_round_trips_a_lackey_dump() {
        let dir = std::env::temp_dir().join("lnuca-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("ingest-lackey.txt");
        let out = dir.join("ingest-lackey.lnt");
        std::fs::write(
            &dump,
            "==99== Lackey banner\nI  400d7d4,4\n L 4f0a828,8\n M 421b7f0,4\n",
        )
        .unwrap();
        let code = cli_main(&[
            "ingest".to_owned(),
            dump.to_str().unwrap().to_owned(),
            "--output".to_owned(),
            out.to_str().unwrap().to_owned(),
        ]);
        assert_eq!(code, 0);
        let records = lnuca_workloads::TraceData::load(out.to_str().unwrap())
            .unwrap()
            .decode_all()
            .unwrap();
        assert_eq!(records.len(), 3, "M expands to load + store");
        assert_eq!(records[0].addr, 0x4f0_a828);
        assert_eq!(records[0].pc, 0x400_d7d4, "the preceding fetch sets the pc");
        assert!(!records[1].write);
        assert!(records[2].write);
        assert_eq!(records[1].addr, records[2].addr);
    }

    #[test]
    fn ingest_and_sweep_flag_errors_are_usage_errors() {
        assert_eq!(cli_main(&["ingest".to_owned()]), 2);
        assert_eq!(
            cli_main(&["ingest".to_owned(), "a.txt".to_owned(), "--output".to_owned()]),
            2
        );
        assert_eq!(
            cli_main(&["sweep".to_owned(), "--epsilon".to_owned(), "-1".to_owned()]),
            2,
            "a negative epsilon is rejected before anything runs"
        );
        assert_eq!(
            cli_main(&["sweep".to_owned(), "--probe".to_owned(), "0".to_owned()]),
            2,
            "a zero probe budget is rejected before anything runs"
        );
        assert_eq!(cli_main(&["sweep".to_owned(), "--frontier".to_owned()]), 2);
    }

    #[test]
    fn missing_files_and_commands_fail_cleanly() {
        assert!(resolve_scenario("does/not/exist.json").unwrap_err().contains("cannot read"));
        assert_eq!(cli_main(&[]), 2);
        assert_eq!(cli_main(&["frobnicate".to_owned()]), 2);
        assert_eq!(cli_main(&["run".to_owned()]), 2);
        assert_eq!(
            cli_main(&["run".to_owned(), "paper-dnuca".to_owned(), "--batch-size".to_owned()]),
            2,
            "--batch-size without a value is a usage error"
        );
        assert_eq!(
            cli_main(&[
                "run".to_owned(),
                "paper-dnuca".to_owned(),
                "--batch-size".to_owned(),
                "0".to_owned()
            ]),
            2,
            "a zero batch is rejected before anything runs"
        );
        assert_eq!(cli_main(&["export".to_owned(), "nope".to_owned()]), 1);
    }
}
