//! Criterion benches of the simulator's hot kernels: the L-NUCA fabric tick
//! loop, the trace generator, and a short full-system run for each
//! hierarchy organisation. These
//! track the cost of reproducing the paper's experiments rather than the
//! paper's own metrics (which the `src/bin` harnesses report).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lnuca_core::{LNuca, LNucaConfig};
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::System;
use lnuca_types::{Addr, Cycle, ReqId};
use lnuca_workloads::{suites, TraceGenerator, WorkloadProfile};
use std::hint::black_box;
use std::time::Instant;

/// 10 000 fabric cycles with one search injected every 4 cycles and a root
/// eviction every 8 — a load comparable to an L1 miss rate of 25 %.
fn fabric_tick_loop(levels: u8) -> u64 {
    let mut fabric =
        LNuca::new(LNucaConfig::paper(levels).expect("valid levels")).expect("valid config");
    let mut delivered = 0u64;
    for c in 0..10_000u64 {
        if c % 4 == 0 {
            let addr = Addr((c % 512) * 0x200);
            let _ = fabric.inject_search(addr, ReqId(c), false, Cycle(c));
        }
        if c % 8 == 0 {
            fabric.evict_from_root(Addr((c % 1024) * 0x40), c % 16 == 0);
        }
        fabric.tick(Cycle(c));
        delivered += fabric.pop_arrivals(Cycle(c)).len() as u64;
        let _ = fabric.pop_global_misses(Cycle(c));
        let _ = fabric.pop_spills(Cycle(c));
    }
    delivered
}

fn bench_fabric_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric_tick_10k_cycles");
    for levels in [2u8, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(levels), &levels, |b, &levels| {
            b.iter(|| black_box(fabric_tick_loop(levels)));
        });
    }
    group.finish();

    // Absolute throughput next to the per-iteration times, so a perf
    // regression is a falling number in plain bench output.
    for levels in [2u8, 3, 4] {
        let started = Instant::now();
        let reps = 10u64;
        for _ in 0..reps {
            black_box(fabric_tick_loop(levels));
        }
        let secs = started.elapsed().as_secs_f64();
        let cycles = reps * 10_000;
        eprintln!(
            "throughput fabric_tick/{levels}: {:.0} kcycles/s",
            if secs > 0.0 {
                cycles as f64 / 1_000.0 / secs
            } else {
                0.0
            }
        );
    }
}

/// Instructions drawn per profile by the trace-generator bench.
const GENERATED_PER_PROFILE: usize = 100_000;

/// Draws [`GENERATED_PER_PROFILE`] instructions of each profile at seed 1
/// and folds them into a checksum, so none of the work is optimised away.
fn generate_all(profiles: &[WorkloadProfile]) -> u64 {
    profiles
        .iter()
        .map(|profile| {
            TraceGenerator::new(profile.clone(), 1)
                .take(GENERATED_PER_PROFILE)
                .fold(0u64, |sum, i| {
                    sum.wrapping_mul(31)
                        .wrapping_add(u64::from(i.dep_distance) ^ i.addr.map_or(0, |a| a.0))
                })
        })
        .fold(0, u64::wrapping_add)
}

/// The paper's 22 profiles through `TraceGenerator`: 100 k instructions
/// each, and one construction each (the dependency-distance table is
/// built there).
fn bench_trace_generator(c: &mut Criterion) {
    let profiles = suites::all();
    let mut group = c.benchmark_group("trace_generator");
    group.sample_size(10);
    group.bench_function("paper_22x100k_instructions", |b| {
        b.iter(|| black_box(generate_all(&profiles)));
    });
    group.bench_function("paper_22_constructions", |b| {
        b.iter(|| {
            for profile in &profiles {
                black_box(TraceGenerator::new(profile.clone(), 1));
            }
        });
    });
    group.finish();

    // Per-instruction and per-construction costs in plain numbers. The
    // profiles are cloned outside the timed span; each generator is
    // dropped before the next is built, as in a study.
    let reps = 5;
    let started = Instant::now();
    for _ in 0..reps {
        black_box(generate_all(&profiles));
    }
    let instructions = reps * profiles.len() * GENERATED_PER_PROFILE;
    let ns = started.elapsed().as_secs_f64() * 1e9 / instructions as f64;
    eprintln!("throughput trace_generator/next: {ns:.1} ns/instruction");
    let owned: Vec<WorkloadProfile> = (0..20).flat_map(|_| profiles.iter().cloned()).collect();
    let constructions = owned.len();
    let started = Instant::now();
    for profile in owned {
        black_box(TraceGenerator::new(profile, 1));
    }
    let us = started.elapsed().as_secs_f64() * 1e6 / constructions as f64;
    eprintln!("throughput trace_generator/new: {us:.1} µs/construction");
}

fn bench_full_system(c: &mut Criterion) {
    let profile = suites::spec_int_like()[0].clone();
    let specs = [
        ("conventional", HierarchySpec::conventional()),
        ("lnuca3_l3", HierarchySpec::lnuca_l3(3).unwrap()),
        ("dnuca", HierarchySpec::dnuca()),
        ("lnuca2_dnuca", HierarchySpec::lnuca_dnuca(2).unwrap()),
    ];
    let mut group = c.benchmark_group("full_system_10k_instructions");
    group.sample_size(10);
    for (name, spec) in &specs {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let result =
                    System::run_spec(spec, &profile, 10_000, 1).expect("valid configuration");
                black_box(result.cycles)
            });
        });
    }
    group.finish();

    for (name, spec) in &specs {
        let started = Instant::now();
        let result = System::run_spec(spec, &profile, 10_000, 1).expect("valid configuration");
        let secs = started.elapsed().as_secs_f64();
        eprintln!(
            "throughput full_system/{name}: {:.0} kcycles/s ({} cycles simulated)",
            if secs > 0.0 {
                result.cycles as f64 / 1_000.0 / secs
            } else {
                0.0
            },
            result.cycles,
        );
    }
}

/// The four adversarial access-pattern classes on the LN3 hierarchy: these
/// stress the simulator very differently from the stationary region model
/// (pointer chases maximise search traffic, GUPS maximises tag pressure and
/// DRAM turnaround, phase switching churns the event horizons), so their
/// throughput is tracked as its own bench axis.
fn bench_adversarial_patterns(c: &mut Criterion) {
    let spec = HierarchySpec::lnuca_l3(3).unwrap();
    let mut group = c.benchmark_group("adversarial_10k_instructions");
    group.sample_size(10);
    for profile in suites::adversarial() {
        group.bench_with_input(
            BenchmarkId::from_parameter(&profile.name),
            &profile,
            |b, profile| {
                b.iter(|| {
                    let result =
                        System::run_spec(&spec, profile, 10_000, 1).expect("valid configuration");
                    black_box(result.cycles)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fabric_tick,
    bench_trace_generator,
    bench_full_system,
    bench_adversarial_patterns
);
criterion_main!(benches);
