//! Pins the event-horizon contract end to end: for every paper preset and
//! several seeds, [`Engine::EventHorizon`] — which jumps the clock to the
//! minimum `next_event` horizon instead of single-stepping — produces a
//! `RunResult` **bit-identical** to [`Engine::CycleStep`]: same final cycle
//! count, same IPC bits, same core/hierarchy counters (including the lazily
//! accumulated stall-cycle windows), same energy ledger.
//!
//! A failure here means some component under-reported its horizon (claimed
//! quiescence while a tick would still have changed state) — the one
//! invariant DESIGN.md §10 forbids breaking. The multicore shapes are
//! pinned the same way, per-core rows and directory counters included,
//! since a CMP machine ticks each core only once its own horizon arrives.

use lnuca_suite::sim::configs;
use lnuca_suite::sim::spec::HierarchySpec;
use lnuca_suite::sim::system::{Engine, System};
use lnuca_suite::workloads::suites;

const INSTRUCTIONS: u64 = 5_000;
const SEEDS: [u64; 3] = [1, 2, 3];

fn all_presets() -> Vec<HierarchySpec> {
    vec![
        HierarchySpec::conventional(),
        HierarchySpec::lnuca_l3(3).unwrap(),
        HierarchySpec::dnuca(),
        HierarchySpec::lnuca_dnuca(2).unwrap(),
    ]
}

#[test]
fn event_horizon_is_bit_identical_to_cycle_stepping_everywhere() {
    let profiles = [&suites::spec_int_like()[0], &suites::spec_fp_like()[0]];
    for spec in all_presets() {
        for &seed in &SEEDS {
            for profile in profiles {
                let stepped =
                    System::run_spec_with(Engine::CycleStep, &spec, profile, INSTRUCTIONS, seed)
                        .expect("valid configuration");
                let jumped =
                    System::run_spec_with(Engine::EventHorizon, &spec, profile, INSTRUCTIONS, seed)
                        .expect("valid configuration");
                // Field-by-field first so a mismatch names the field…
                assert_eq!(
                    stepped.cycles,
                    jumped.cycles,
                    "{} on {} seed {seed}: cycle counts diverge",
                    spec.label(),
                    profile.name
                );
                assert_eq!(
                    stepped.ipc.to_bits(),
                    jumped.ipc.to_bits(),
                    "{} on {} seed {seed}: IPC diverges",
                    spec.label(),
                    profile.name
                );
                assert_eq!(
                    stepped.core,
                    jumped.core,
                    "{} on {} seed {seed}: core counters diverge",
                    spec.label(),
                    profile.name
                );
                assert_eq!(
                    stepped.hierarchy,
                    jumped.hierarchy,
                    "{} on {} seed {seed}: hierarchy counters diverge",
                    spec.label(),
                    profile.name
                );
                assert_eq!(
                    stepped.energy,
                    jumped.energy,
                    "{} on {} seed {seed}: energy ledgers diverge",
                    spec.label(),
                    profile.name
                );
                // …then the whole struct, covering any future field.
                assert_eq!(stepped, jumped);
            }
        }
    }
}

/// perfbench's `cmp-dnuca` shapes: 2x and 4x L1 over the 8 MB L3, and 4x
/// L1 over the D-NUCA.
fn cmp_shapes() -> Vec<HierarchySpec> {
    let shape = |cores: usize, dnuca: bool| {
        let builder = HierarchySpec::builder().cores(cores);
        let builder = if dnuca {
            builder.backing_dnuca(lnuca_suite::dnuca::DNucaConfig::paper())
        } else {
            builder.backing_cache(configs::paper_l3())
        };
        builder.build().unwrap()
    };
    vec![shape(2, false), shape(4, false), shape(4, true)]
}

#[test]
fn event_horizon_is_bit_identical_to_cycle_stepping_on_cmp_shapes() {
    let profiles = [
        suites::by_name("sh.migratory").unwrap(),
        suites::by_name("adv.pointer_chase").unwrap(),
    ];
    for spec in cmp_shapes() {
        for &seed in &SEEDS {
            for profile in &profiles {
                let run = |engine| {
                    System::run_spec_with(engine, &spec, profile, INSTRUCTIONS, seed)
                        .expect("valid configuration")
                };
                let (stepped, jumped) = (run(Engine::CycleStep), run(Engine::EventHorizon));
                let context = format!("{} on {} seed {seed}", spec.label(), profile.name);
                assert_eq!(stepped.per_core.len(), spec.cores, "{context}: per-core rows");
                assert_eq!(stepped.per_core, jumped.per_core, "{context}: per-core rows diverge");
                assert!(stepped.coherence.is_some(), "{context}: CMP runs carry coherence");
                assert_eq!(stepped.coherence, jumped.coherence, "{context}: coherence diverges");
                assert_eq!(stepped, jumped, "{context}");
            }
        }
    }
}

#[test]
fn the_default_engine_is_event_horizon() {
    // `run_spec` (the path every experiment takes) must match an
    // explicit event-horizon run bit for bit.
    let spec = HierarchySpec::lnuca_l3(2).unwrap();
    let profile = &suites::spec_int_like()[1];
    let default_run = System::run_spec(&spec, profile, 3_000, 7).unwrap();
    let explicit = System::run_spec_with(Engine::EventHorizon, &spec, profile, 3_000, 7).unwrap();
    assert_eq!(default_run, explicit);
}
