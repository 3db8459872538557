//! Differential coverage for trace-driven workloads (`AccessPattern::Trace`):
//! the committed sample corpus must round-trip from the textual dump through
//! `lnuca ingest` encoding, replay bit-identically under both engines, and
//! survive the batch-equivalence check at batch sizes {1, full}.

use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::Engine;
use lnuca_verify::batch::{BatchCase, SequentialBaseline};
use lnuca_verify::harness::run_differential_spec_both_engines;
use lnuca_workloads::{trace, TraceData};

/// Absolute path of the committed sample dump / corpus, independent of the
/// test runner's working directory.
fn sample_path(file: &str) -> String {
    format!("{}/../../scenarios/traces/{file}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn committed_corpus_matches_its_textual_dump() {
    // The committed .lnt is exactly what `lnuca ingest` produces from the
    // committed .txt — byte for byte, so CI's re-ingestion can `cmp` them.
    let text = std::fs::read_to_string(sample_path("sample.txt")).expect("sample dump reads");
    let records = trace::ingest_text(&text).expect("the committed dump ingests");
    let encoded = trace::encode(&records).expect("ingested records encode");
    let committed = std::fs::read(sample_path("sample.lnt")).expect("sample corpus reads");
    assert_eq!(
        encoded, committed,
        "scenarios/traces/sample.lnt is stale; re-run `lnuca ingest`"
    );

    // And the corpus decodes back to the very records the dump spells out.
    let data = TraceData::from_bytes(committed).expect("the committed corpus loads");
    assert_eq!(data.decode_all().expect("corpus decodes"), records);
}

#[test]
fn trace_replay_passes_the_differential_oracle_under_both_engines() {
    let profile = trace::trace_profile(&sample_path("sample.lnt"));
    for spec in [
        HierarchySpec::conventional(),
        HierarchySpec::lnuca_l3(2).unwrap(),
    ] {
        let report = run_differential_spec_both_engines(&spec, &profile, 6_000, 1)
            .expect("trace replay matches the reference model under both engines");
        assert!(report.accesses > 0, "the replay issued memory operations");
    }
}

#[test]
fn trace_replay_is_batch_equivalent_at_one_and_full_width() {
    let profile = trace::trace_profile(&sample_path("sample.lnt"));
    let specs = [
        HierarchySpec::conventional(),
        HierarchySpec::lnuca_l3(2).unwrap(),
        HierarchySpec::builder()
            .fabric(lnuca_core::LNucaConfig::paper(3).expect("3 levels is in range"))
            .build()
            .expect("a fabric-over-memory spec builds"),
    ];
    let cases: Vec<BatchCase> = specs
        .iter()
        .flat_map(|spec| {
            [1u64, 2].map(|seed| BatchCase {
                spec: spec.clone(),
                profile: profile.clone(),
                instructions: 4_000,
                seed,
            })
        })
        .collect();
    let baseline = SequentialBaseline::capture(Engine::EventHorizon, cases)
        .expect("every trace-replay case passes the sequential oracle");
    for batch_size in [1, 0] {
        let report = baseline
            .check_batched(batch_size)
            .expect("batched trace replays are bit-identical to solo runs");
        assert_eq!(report.runs, baseline.len());
    }
}
