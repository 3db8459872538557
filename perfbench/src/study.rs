//! The two study workloads, `paper-lnuca` and `cmp-dnuca`: scenario
//! documents generated from the seed, timed `Study::run` passes, the
//! correctness gate, and the traced run that splits host time by layer.

use crate::metrics::{Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::probe;
use crate::stats::{median, sanitize_label, Fnv};
use crate::traced::{self, LayerTimes};
use lnuca_sim::batch::{BatchJob, BatchRunner};
use lnuca_sim::experiments::{
    self, ExperimentOptions, ExperimentPlan, FailedRun, Study, WorkloadSelection,
};
use lnuca_sim::scenario::{self, Scenario};
use lnuca_sim::supervise::{self, Supervisor};
use lnuca_sim::{journal, CmpMachine, HierarchySpec, RunResult, System};
use lnuca_workloads::{suites, WorkloadProfile};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The paper's Fig. 4 headline for LN3-144KB against L2-256KB, in percent:
/// INT IPC gain, FP IPC gain, total-energy change.
pub const PAPER_FIG4: (f64, f64, f64) = (6.1, 15.0, -14.2);

/// Fresh processes that each time one cold set-up after the timed
/// section; `setup_s` is the median of theirs and the run's own.
const SETUP_PROCESSES: usize = 30;
/// Repetitions behind each per-call `*_ms` layer timing.
const CALL_REPS: u32 = 5;

/// The two study workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `paper-conventional`: L2-256KB and LN2/LN3/LN4 + L3 over the 22
    /// SPEC-shaped profiles, batch size 1, one worker.
    PaperLnuca,
    /// Two `cmp-sharing` shapes plus `4x DN-4x8` over sharing and
    /// adversarial profiles, one full-width batch, one worker.
    CmpDnuca,
}

impl Kind {
    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperLnuca => "paper-lnuca",
            Kind::CmpDnuca => "cmp-dnuca",
        }
    }

    /// The study workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::PaperLnuca, Kind::CmpDnuca]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// The profiles the CMP workload runs.
pub const CMP_PROFILES: [&str; 6] = [
    "sh.prodcons",
    "sh.migratory",
    "sh.falseshare",
    "adv.pointer_chase",
    "adv.stream",
    "adv.gups",
];

fn builtin(name: &str) -> Scenario {
    scenario::builtin(name).expect("the built-in scenarios exist")
}

/// The scenario document a run of `kind` feeds the simulator: the
/// committed scenario with the benchmark seed, one worker thread and the
/// workload's batch size.
#[must_use]
pub fn document(kind: Kind, seed: u64) -> String {
    let mut scenario = match kind {
        Kind::PaperLnuca => {
            let mut s = builtin("paper-conventional");
            s.plan.options.batch_size = 1;
            s
        }
        Kind::CmpDnuca => {
            let mut s = builtin("cmp-sharing");
            let control = builtin("cmp-lnuca-dnuca").plan.configs[1].clone();
            assert_eq!(control.label(), "4x DN-4x8", "the fabric-less CMP control");
            s.plan.name = "cmp-dnuca".to_owned();
            s.description = "2x and 4x L1 over the shared 8 MB L3 plus 4x DN-4x8, on sharing \
                             and adversarial profiles, one full-width batch."
                .to_owned();
            s.plan.configs.push(control);
            s.plan.options.workloads =
                WorkloadSelection::Named(CMP_PROFILES.iter().map(|n| (*n).to_owned()).collect());
            s.plan.options.batch_size = usize::MAX;
            s
        }
    };
    scenario.plan.options.seed = seed;
    scenario.plan.options.threads = 1;
    scenario.to_json()
}

/// The profiles a plan's options select, in matrix order (the same
/// resolution `Study::run` performs).
fn profiles(options: &ExperimentOptions) -> Result<Vec<WorkloadProfile>, String> {
    let take = |v: Vec<WorkloadProfile>| -> Vec<WorkloadProfile> {
        match options.benchmarks_per_suite {
            Some(n) => v.into_iter().take(n).collect(),
            None => v,
        }
    };
    let mut paper = take(suites::spec_int_like());
    paper.extend(take(suites::spec_fp_like()));
    Ok(match &options.workloads {
        WorkloadSelection::Paper => paper,
        WorkloadSelection::Extended => {
            paper.extend(take(suites::adversarial()));
            paper
        }
        WorkloadSelection::Adversarial => take(suites::adversarial()),
        WorkloadSelection::Named(names) => names
            .iter()
            .map(|n| suites::by_name(n).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?,
    })
}

/// A parsed, planned scenario.
pub struct Prepared {
    pub plan: ExperimentPlan,
    pub profiles: Vec<WorkloadProfile>,
}

/// One cell of the matrix: configuration-major, seed offset by the
/// profile's index, exactly as `Study::run` lays it out.
struct Job<'a> {
    spec: &'a HierarchySpec,
    profile: &'a WorkloadProfile,
    seed: u64,
}

impl Prepared {
    fn jobs(&self) -> Vec<Job<'_>> {
        let seed = self.plan.options.seed;
        self.plan
            .configs
            .iter()
            .flat_map(|spec| {
                self.profiles
                    .iter()
                    .enumerate()
                    .map(move |(i, profile)| Job {
                        spec,
                        profile,
                        seed: seed.wrapping_add(i as u64),
                    })
            })
            .collect()
    }
}

/// Set-up: parse the document, resolve and digest the plan, and build
/// every configuration's hierarchy once. Returns the prepared plan and the
/// host seconds spent.
pub fn set_up(doc: &str) -> Result<(Prepared, f64), String> {
    let start = Instant::now();
    let scenario = Scenario::from_json(doc).map_err(|e| e.to_string())?;
    let plan = scenario.plan;
    journal::plan_digest(&plan).map_err(|e| e.to_string())?;
    let profiles = profiles(&plan.options)?;
    let first = profiles.first().ok_or("the plan selects no workloads")?;
    for spec in &plan.configs {
        if spec.cores > 1 {
            let machine: CmpMachine = CmpMachine::from_spec(
                spec,
                first,
                plan.options.instructions,
                plan.options.seed,
                lnuca_mem::NoProbe,
            )
            .map_err(|e| e.to_string())?;
            drop(machine);
        } else {
            drop(System::build_spec(spec).map_err(|e| e.to_string())?);
        }
    }
    Ok((Prepared { plan, profiles }, start.elapsed().as_secs_f64()))
}

/// Hash over every `RunResult` (its full `Debug` rendering, which prints
/// floats round-trip exactly): equal digests mean every simulated
/// statistic is identical.
#[must_use]
pub fn results_digest(results: &[RunResult]) -> u64 {
    let mut fnv = Fnv::default();
    for r in results {
        fnv.write(format!("{r:?}").as_bytes());
    }
    fnv.finish()
}

/// The correctness gate, accumulated over every study pass of a run.
#[derive(Debug, Default)]
pub struct Gate {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<u64>,
}

impl Gate {
    /// Records a failed check.
    pub fn fail(&mut self, problem: String) {
        eprintln!("correctness: {problem}");
        self.problems.push(problem);
    }

    /// Checks one study: no failure rows, every run commits exactly the
    /// requested instructions, results in matrix order, a valid report,
    /// and the same results digest as every earlier pass.
    pub fn check(&mut self, prepared: &Prepared, study: &Study) {
        let jobs = prepared.jobs();
        self.attempted += jobs.len() as u64;
        self.failed += study.failures.len() as u64;
        for f in &study.failures {
            self.fail(format!("{} / {} failed: {}", f.label, f.workload, f.error));
        }
        if study.results.len() != jobs.len() {
            self.fail(format!(
                "{} results for {} jobs",
                study.results.len(),
                jobs.len()
            ));
        }
        let instructions = prepared.plan.options.instructions;
        for (job, r) in jobs.iter().zip(&study.results) {
            let expected = instructions * job.spec.cores as u64;
            if r.label != job.spec.label() || r.workload != job.profile.name {
                self.fail(format!(
                    "result {} / {} out of matrix order",
                    r.label, r.workload
                ));
            }
            if r.instructions != expected {
                self.fail(format!(
                    "{} / {} committed {} of {expected} instructions",
                    r.label, r.workload, r.instructions
                ));
            }
        }
        let text = scenario::report_value(&prepared.plan, study).to_pretty();
        let valid = serde::json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|v| scenario::validate_report(&v));
        if let Err(e) = valid {
            self.fail(format!("report rejected: {e}"));
        }
        let digest = results_digest(&study.results);
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => {
                self.fail(format!(
                    "results digest {digest:016x} differs from {d:016x}"
                ));
            }
            Some(_) => {}
        }
    }

    /// Checks a study of a different plan than earlier ones (the serve
    /// workload's documents): everything [`Gate::check`] does except the
    /// cross-pass digest comparison.
    pub fn check_other(&mut self, prepared: &Prepared, study: &Study) {
        let digest = self.digest.take();
        self.check(prepared, study);
        self.digest = digest;
    }

    /// Compares results computed two ways, job by job.
    fn same(&mut self, what: &str, expected: &[RunResult], got: &[RunResult]) {
        if expected.len() != got.len() {
            self.fail(format!(
                "{what}: {} results against {}",
                got.len(),
                expected.len()
            ));
        }
        for (e, g) in expected.iter().zip(got) {
            if e != g {
                self.fail(format!("{what}: {} / {} differs", e.label, e.workload));
            }
        }
    }
}

/// |paper − simulated| of the Fig. 4 headline, in percentage points.
fn fig4_errors(study: &Study) -> (f64, f64, f64) {
    let h = experiments::headline(study);
    (
        (PAPER_FIG4.0 - h.int_ipc_gain_pct).abs(),
        (PAPER_FIG4.1 - h.fp_ipc_gain_pct).abs(),
        (PAPER_FIG4.2 - h.energy_change_pct).abs(),
    )
}

/// Runs one study workload and returns its outcome.
///
/// # Errors
///
/// A setup or configuration error: the run cannot produce a result.
pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let doc = document(kind, seed);
    if trace {
        return run_traced(kind, &doc);
    }
    let (prepared, first_setup) = set_up(&doc)?;
    let mut gate = Gate::default();
    let (mut walls, mut kips, mut kcycles) = (Vec::new(), Vec::new(), Vec::new());
    let mut probes = Vec::new();
    let started = Instant::now();
    let mut first = None;
    loop {
        let start = Instant::now();
        let pass = timed_pass(&prepared)?;
        let raw = start.elapsed().as_secs_f64();
        let probe_s = pass.probe_s.iter().sum::<f64>() / pass.probe_s.len() as f64;
        let wall = probe::at_reference(pass.sim_s, probe_s);
        probes.extend(pass.probe_s);
        gate.check(&prepared, &pass.study);
        let instructions: u64 = pass.study.results.iter().map(|r| r.instructions).sum();
        let cycles: u64 = pass.study.results.iter().map(|r| r.cycles).sum();
        walls.push(wall);
        kips.push(instructions as f64 / 1e3 / wall);
        kcycles.push(cycles as f64 / 1e3 / wall);
        eprintln!(
            "pass {}: {:.3} s simulating, {wall:.3} s at the reference speed",
            walls.len(),
            pass.sim_s
        );
        first.get_or_insert(pass.study);
        if started.elapsed().as_secs_f64() + raw > seconds {
            break;
        }
    }
    // The set-up a user pays is the cold one at process start. Its cost
    // depends on the fresh process's memory state, which differs from
    // process to process, so it is sampled in fresh processes: this run's
    // own plus one per child, once the clock has stopped.
    let mut setups = vec![first_setup];
    for _ in 0..SETUP_PROCESSES {
        setups.push(cold_set_up(kind, seed)?);
    }
    let mean_probe = probes.iter().sum::<f64>() / probes.len() as f64;
    let study = first.expect("at least one pass");
    print_digest(kind, &gate);
    if kind == Kind::PaperLnuca {
        let (int, fp, energy) = fig4_errors(&study);
        eprintln!("fig4 |paper - simulated| pp: int {int:.3} · fp {fp:.3} · energy {energy:.3}");
    }

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("sim_kips", median(&kips));
    metrics.set("sim_kcycles_per_s", median(&kcycles));
    metrics.set("wall_s", median(&walls));
    metrics.set("setup_s", probe::at_reference(median(&setups), mean_probe));
    metrics.set("peak_rss_mb", crate::peak_rss_mb(None).unwrap_or(0.0));
    Ok(Outcome {
        correct: gate.problems.is_empty(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    })
}

/// One timed pass over the study's jobs.
struct Pass {
    /// The jobs' results, assembled as `Study::run` would return them.
    study: Study,
    /// Host seconds spent simulating, probes excluded.
    sim_s: f64,
    /// The host-speed probes taken between jobs or batch slices.
    probe_s: Vec<f64>,
}

/// Host seconds of batch stepping between two probes.
const BATCH_SLICE_S: f64 = 0.1;

/// Runs every job of the plan through the engine entry points `Study::run`
/// uses with one worker: `supervise::run_job_supervised` per job at batch
/// size 1, otherwise `BatchRunner` over each batch. A short host-speed
/// probe runs after every job, or after every `BATCH_SLICE_S` of stepping,
/// so the probes sample the same stretch of host time as the simulation
/// (see `probe`).
fn timed_pass(prepared: &Prepared) -> Result<Pass, String> {
    let plan = &prepared.plan;
    let engine = plan.options.engine;
    let instructions = plan.options.instructions;
    let jobs = prepared.jobs();
    let mut sim = Duration::ZERO;
    let mut probe_s = Vec::new();
    let mut results = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    if plan.options.batch_size <= 1 {
        let supervisor = Supervisor::from_options(&plan.options);
        for job in &jobs {
            let start = Instant::now();
            let outcome = supervise::run_job_supervised(
                engine,
                job.spec,
                job.profile,
                instructions,
                job.seed,
                &supervisor,
            );
            sim += start.elapsed();
            probe_s.push(probe::probe_seconds());
            match outcome.outcome {
                Ok((result, _)) => results.push(result),
                Err(error) => failures.push(FailedRun {
                    label: job.spec.label(),
                    workload: job.profile.name.clone(),
                    suite: job.profile.suite,
                    seed: job.seed,
                    error,
                    attempts: outcome.attempts,
                }),
            }
        }
    } else {
        let batch_jobs: Vec<BatchJob<'_>> = jobs
            .iter()
            .map(|j| BatchJob {
                spec: j.spec,
                profile: j.profile,
                instructions,
                seed: j.seed,
            })
            .collect();
        for chunk in batch_jobs.chunks(plan.options.batch_size) {
            let mut slice = Instant::now();
            let mut runner = BatchRunner::new(engine, chunk).map_err(|e| e.to_string())?;
            let mut steps = 0u32;
            while runner.step() {
                steps = steps.wrapping_add(1);
                if steps % 1024 == 0 && slice.elapsed().as_secs_f64() >= BATCH_SLICE_S {
                    sim += slice.elapsed();
                    probe_s.push(probe::probe_seconds());
                    slice = Instant::now();
                }
            }
            results.extend(runner.run_results());
            sim += slice.elapsed();
            probe_s.push(probe::probe_seconds());
        }
    }
    let configs: Vec<String> = plan.configs.iter().map(HierarchySpec::label).collect();
    let study = Study {
        baseline: configs[0].clone(),
        configs,
        results,
        perf: Vec::new(),
        failures,
    };
    Ok(Pass {
        study,
        sim_s: sim.as_secs_f64(),
        probe_s,
    })
}

fn print_digest(kind: Kind, gate: &Gate) {
    println!(
        "sim_results_digest {} {:016x}",
        kind.name(),
        gate.digest.unwrap_or(0)
    );
}

/// One cold set-up in a fresh process (`--set-up-once`); its host seconds.
fn cold_set_up(kind: Kind, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--set-up-once", kind.name(), &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up process output: {e}"))
}

/// `--set-up-once WORKLOAD SEED`: sets the workload up once, in this
/// fresh process, and prints the host seconds it took.
pub fn set_up_once_main(args: &[String]) -> ExitCode {
    let parsed = match args {
        [workload, seed] => Kind::parse(workload).zip(seed.parse::<u64>().ok()),
        _ => None,
    };
    let Some((kind, seed)) = parsed else {
        eprintln!("usage: --set-up-once paper-lnuca|cmp-dnuca SEED");
        return ExitCode::from(2);
    };
    match set_up(&document(kind, seed)) {
        Ok((_, secs)) => {
            println!("{secs}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Mean milliseconds of `CALL_REPS` calls of `f`.
pub fn mean_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..CALL_REPS {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(CALL_REPS)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: one untraced `Study::run`, the batched engine stepped
/// from outside (batched workloads only), every job solo and untraced,
/// then every job through the traced loop. All four must agree bit for
/// bit.
fn run_traced(kind: Kind, doc: &str) -> Result<Outcome, String> {
    let (prepared, _) = set_up(doc)?;
    let plan = &prepared.plan;
    let engine = plan.options.engine;
    let instructions = plan.options.instructions;
    let jobs = prepared.jobs();
    let mut gate = Gate::default();
    let mut metrics = Metrics::new(PER_LAYER);

    metrics.set(
        "scenario.parse_ms",
        mean_ms(|| Scenario::from_json(doc).map(|_| ())),
    );
    metrics.set("journal.digest_ms", mean_ms(|| journal::plan_digest(plan)));

    let start = Instant::now();
    let study = Study::run(plan).map_err(|e| e.to_string())?;
    let study_wall = start.elapsed();
    gate.check(&prepared, &study);
    let report = scenario::report_value(plan, &study);
    metrics.set("report.render_ms", mean_ms(|| report.to_pretty()));
    let text = report.to_pretty();
    metrics.set(
        "report.validate_ms",
        mean_ms(|| serde::json::parse(&text).map(|v| scenario::validate_report(&v))),
    );

    if plan.options.batch_size > 1 {
        let batch_jobs: Vec<BatchJob<'_>> = jobs
            .iter()
            .map(|j| BatchJob {
                spec: j.spec,
                profile: j.profile,
                instructions,
                seed: j.seed,
            })
            .collect();
        let (mut step_time, mut steps, mut live_sum) = (Duration::ZERO, 0u64, 0u64);
        let mut batched = Vec::with_capacity(jobs.len());
        for chunk in batch_jobs.chunks(plan.options.batch_size) {
            let mut runner = BatchRunner::new(engine, chunk).map_err(|e| e.to_string())?;
            loop {
                live_sum += runner.live() as u64;
                let start = Instant::now();
                let more = runner.step();
                step_time += start.elapsed();
                steps += 1;
                if !more {
                    break;
                }
            }
            batched.extend(runner.run_results());
        }
        gate.same("batched engine vs Study::run", &study.results, &batched);
        metrics.set("batch.step_s", secs(step_time));
        metrics.set("batch.steps", steps as f64);
        metrics.set("batch.mean_live", ratio(live_sum as f64, steps as f64));
    }

    // Every job solo through the library loop, timed per job and per
    // configuration by the benchmark's own clock.
    let mut solo = Vec::with_capacity(jobs.len());
    let mut solo_wall = Duration::ZERO;
    let mut per_config: Vec<(String, Duration)> = Vec::new();
    for job in &jobs {
        let start = Instant::now();
        let r = System::run_spec_with(engine, job.spec, job.profile, instructions, job.seed)
            .map_err(|e| e.to_string())?;
        let wall = start.elapsed();
        solo_wall += wall;
        match per_config.iter_mut().find(|(l, _)| *l == r.label) {
            Some((_, d)) => *d += wall,
            None => per_config.push((r.label.clone(), wall)),
        }
        solo.push(r);
    }
    gate.same("System::run_spec_with vs Study::run", &study.results, &solo);
    for (label, wall) in &per_config {
        eprintln!("solo host time {label:<16} {:.3} s", secs(*wall));
    }

    let mut times = LayerTimes::default();
    let traced_wall = trace_jobs(&prepared, &solo, &mut gate, &mut times)?;
    print_digest(kind, &gate);

    metrics.set(
        "trace.overhead_pct",
        (secs(traced_wall) / secs(solo_wall) - 1.0) * 100.0,
    );
    metrics.set("study.overhead_s", secs(study_wall) - secs(solo_wall));
    if plan.options.batch_size > 1 {
        metrics.set("batch.solo_equiv_s", secs(solo_wall));
    }
    if kind == Kind::PaperLnuca {
        let (int, fp, energy) = fig4_errors(&study);
        metrics.set("fig4a_int_ipc_err_pp", int);
        metrics.set("fig4a_fp_ipc_err_pp", fp);
        metrics.set("fig4b_energy_err_pp", energy);
    }
    metrics.set(
        "failed_ratio",
        ratio(gate.failed as f64, gate.attempted as f64),
    );
    layer_times(&times, &mut metrics);
    simulated_counters(&study.results, &mut metrics);
    Ok(Outcome {
        correct: gate.problems.is_empty(),
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    })
}

/// Runs every job of `prepared` through the traced loop, accumulating
/// `times`, and checks each result against `expected` (the same jobs run
/// untraced). Returns the traced host time.
///
/// # Errors
///
/// A configuration error.
pub fn trace_jobs(
    prepared: &Prepared,
    expected: &[RunResult],
    gate: &mut Gate,
    times: &mut LayerTimes,
) -> Result<Duration, String> {
    let engine = prepared.plan.options.engine;
    let instructions = prepared.plan.options.instructions;
    let jobs = prepared.jobs();
    let mut results = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    for job in &jobs {
        let r = if job.spec.cores > 1 {
            traced::run_cmp(engine, job.spec, job.profile, instructions, job.seed, times)
        } else {
            traced::run_solo(engine, job.spec, job.profile, instructions, job.seed, times)
        }
        .map_err(|e| e.to_string())?;
        results.push(r);
    }
    let wall = start.elapsed();
    gate.same("traced loop vs untraced", expected, &results);
    Ok(wall)
}

/// Host-time layers measured by the traced loops.
pub fn layer_times(t: &LayerTimes, m: &mut Metrics) {
    m.set("workloads.gen_s", secs(t.gen));
    m.set("workloads.instrs", t.gen_instrs as f64);
    m.set("cpu.self_s", secs(t.cpu_self));
    m.set("cpu.ticks", t.cpu_ticks as f64);
    m.set("hierarchy.tick_s", secs(t.hier_tick));
    m.set("hierarchy.issue_s", secs(t.hier_issue));
    m.set("hierarchy.drain_s", secs(t.hier_drain));
    m.set(
        "hierarchy.issue_refused_ratio",
        ratio(t.issues_refused as f64, t.issues as f64),
    );
    for (label, spent) in &t.hier_self_by_config {
        let name = format!("hierarchy.self_s.{}", sanitize_label(label));
        if PER_LAYER.iter().any(|(n, _)| *n == name) {
            m.set(&name, secs(*spent));
        } else {
            eprintln!("{name} {:.6} s (not a listed metric)", secs(*spent));
        }
    }
    m.set("engine.next_event_s", secs(t.next_event));
    m.set("engine.iterations", t.iterations as f64);
    m.set(
        "engine.cycles_per_iteration",
        ratio(t.cycles as f64, t.iterations as f64),
    );
    m.set("build.hierarchy_s", secs(t.build));
    m.set("cmp.tick_s", secs(t.cmp_tick));
    m.set("cmp.next_event_s", secs(t.cmp_next_event));
    m.set("energy.account_s", secs(t.energy));
}

/// Simulated counters, read from the public `RunResult`s.
pub fn simulated_counters(results: &[RunResult], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    m.set(
        "cpu.mean_load_latency_cycles",
        ratio(
            sum(&|r| r.core.load_latency_sum),
            sum(&|r| r.core.load_latency_samples),
        ),
    );
    m.set(
        "cpu.rob_full_stall_frac",
        ratio(
            sum(&|r| r.core.rob_full_stalls),
            sum(&|r| r.cycles * r.per_core.len().max(1) as u64),
        ),
    );
    m.set(
        "cpu.memory_reject_stalls",
        sum(&|r| r.core.memory_reject_stalls),
    );

    let fabric = |f: &dyn Fn(&lnuca_core::LNucaStats) -> u64| {
        sum(&|r| r.hierarchy.lnuca.as_ref().map_or(0, f))
    };
    let read_hits = fabric(&|s| s.read_hits());
    m.set("fabric.searches", fabric(&|s| s.searches));
    m.set(
        "fabric.read_hit_ratio",
        ratio(read_hits, fabric(&|s| s.searches)),
    );
    m.set(
        "fabric.le2_hit_share",
        ratio(fabric(&|s| s.read_hits_in_level(2)), read_hits),
    );
    m.set(
        "fabric.transport_avg_over_min",
        ratio(
            fabric(&|s| s.transport_latency_sum),
            fabric(&|s| s.transport_min_latency_sum),
        ),
    );
    m.set("fabric.spills", fabric(&|s| s.spills));
    m.set(
        "fabric.link_traversals",
        fabric(&|s| {
            s.search_link_traversals + s.transport_link_traversals + s.replacement_link_traversals
        }),
    );

    m.set(
        "l1.miss_ratio",
        ratio(
            sum(&|r| r.hierarchy.l1.misses()),
            sum(&|r| r.hierarchy.l1.accesses),
        ),
    );
    m.set(
        "l2.miss_ratio",
        ratio(
            sum(&|r| r.hierarchy.l2.map_or(0, |s| s.misses())),
            sum(&|r| r.hierarchy.l2.map_or(0, |s| s.accesses)),
        ),
    );
    m.set(
        "l3.accesses",
        sum(&|r| r.hierarchy.l3.map_or(0, |s| s.accesses)),
    );
    m.set("mem.dram_fetches", sum(&|r| r.hierarchy.memory_accesses));
    m.set("mem.write_drains", sum(&|r| r.hierarchy.write_drains));

    let dnuca = |f: &dyn Fn(&lnuca_dnuca::DNucaStats) -> u64| {
        sum(&|r| r.hierarchy.dnuca.as_ref().map_or(0, f))
    };
    let dnuca_hits = dnuca(&|s| s.hits());
    m.set("dnuca.accesses", dnuca(&|s| s.accesses));
    m.set("dnuca.hit_ratio", ratio(dnuca_hits, dnuca(&|s| s.accesses)));
    m.set("dnuca.migrations", dnuca(&|s| s.migrations));
    m.set(
        "dnuca.mean_hit_latency_cycles",
        ratio(dnuca(&|s| s.hit_latency_sum), dnuca_hits),
    );

    let coherence =
        |f: &dyn Fn(&lnuca_sim::CoherenceStats) -> u64| sum(&|r| r.coherence.as_ref().map_or(0, f));
    m.set(
        "coherence.invalidations",
        coherence(&|c| c.invalidations_sent),
    );
    m.set("coherence.downgrades", coherence(&|c| c.downgrades));
    m.set("coherence.recalls", coherence(&|c| c.recalls));
    m.set(
        "coherence.dir_hit_ratio",
        ratio(coherence(&|c| c.hits), coherence(&|c| c.hits + c.misses)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `paper-lnuca` shrunk to one profile per suite and 2 000
    /// instructions, at `seed`.
    fn small_paper_study(seed: u64) -> (Gate, Study) {
        let mut scenario = Scenario::from_json(&document(Kind::PaperLnuca, seed)).unwrap();
        scenario.plan.options.instructions = 2_000;
        scenario.plan.options.benchmarks_per_suite = Some(1);
        let (prepared, _) = set_up(&scenario.to_json()).unwrap();
        let study = Study::run(&prepared.plan).unwrap();
        let mut gate = Gate::default();
        gate.check(&prepared, &study);
        (gate, study)
    }

    #[test]
    fn benchmark_and_held_out_seeds_pass_the_gate_with_different_results() {
        let (bench, bench_study) = small_paper_study(crate::BENCHMARK_SEED);
        let (held, _) = small_paper_study(crate::HELD_OUT_SEED);
        assert!(bench.problems.is_empty(), "{:?}", bench.problems);
        assert!(held.problems.is_empty(), "{:?}", held.problems);
        assert_eq!(bench.attempted, 8, "4 configurations x 2 profiles");
        assert_ne!(bench.digest, held.digest, "the seed reaches the traces");
        assert_eq!(bench_study.results.len(), 8);
    }

    #[test]
    fn the_same_seed_gives_the_same_documents() {
        for kind in [Kind::PaperLnuca, Kind::CmpDnuca] {
            assert_eq!(document(kind, 3), document(kind, 3));
            assert_ne!(document(kind, 3), document(kind, 4));
            let plan = Scenario::from_json(&document(kind, 3)).unwrap().plan;
            assert_eq!(plan.options.threads, 1);
        }
    }

    #[test]
    fn the_cmp_workload_runs_three_multicore_shapes_as_one_batch() {
        let plan = Scenario::from_json(&document(Kind::CmpDnuca, 1))
            .unwrap()
            .plan;
        let labels: Vec<String> = plan.configs.iter().map(HierarchySpec::label).collect();
        assert_eq!(labels.len(), 3);
        assert!(plan.configs.iter().all(|s| s.cores > 1), "{labels:?}");
        assert!(labels.contains(&"4x DN-4x8".to_owned()));
        assert_eq!(plan.options.batch_size, usize::MAX);
    }

    #[test]
    fn the_traced_loop_reproduces_the_library_loop() {
        let plan = Scenario::from_json(&document(Kind::PaperLnuca, 5))
            .unwrap()
            .plan;
        let profile = &suites::spec_fp_like()[0];
        let mut times = LayerTimes::default();
        for spec in &plan.configs {
            let solo = System::run_spec_with(plan.options.engine, spec, profile, 1_500, 5).unwrap();
            let traced =
                traced::run_solo(plan.options.engine, spec, profile, 1_500, 5, &mut times).unwrap();
            assert_eq!(solo, traced, "{}", spec.label());
        }
        assert_eq!(times.gen_instrs, 4 * 1_500);
        assert_eq!(times.hier_self_by_config.len(), 4);
        let cmp = Scenario::from_json(&document(Kind::CmpDnuca, 5))
            .unwrap()
            .plan;
        let profile = suites::by_name("sh.prodcons").unwrap();
        for spec in &cmp.configs {
            let solo = System::run_spec_with(cmp.options.engine, spec, &profile, 800, 5).unwrap();
            let traced =
                traced::run_cmp(cmp.options.engine, spec, &profile, 800, 5, &mut times).unwrap();
            assert_eq!(solo, traced, "{}", spec.label());
        }
    }
}
