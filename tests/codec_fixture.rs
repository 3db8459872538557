//! Byte pins of the journal and report codecs, through a committed fixture.
//!
//! `tests/fixtures/codec/` holds a tiny scenario (one configuration per
//! journal shape: an L2 and an L3, a deeper intermediate level, an L-NUCA
//! fabric over a D-NUCA with its mesh, and a 2-core CMP with `per_core` and
//! `coherence` rows), the journal of a complete run of it and the report
//! that run wrote. Both tests only decode and re-encode: the journal holds
//! every job, so resuming it simulates nothing, and a later change to the
//! timing model cannot break them.
//!
//! Regenerate the fixture (only when a document format changes on purpose)
//! with `lnuca run tests/fixtures/codec/codec-shapes.json --journal
//! codec-shapes.journal.jsonl --report codec-shapes.report.json`, without
//! any `LNUCA_*` variable set.

use lnuca_suite::sim::experiments::{ExperimentPlan, Study};
use lnuca_suite::sim::journal::{self, JournalWriter};
use lnuca_suite::sim::scenario::{self, Scenario};
use std::path::PathBuf;

fn fixture(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/codec")
        .join(file)
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn plan() -> ExperimentPlan {
    let text = read(&fixture("codec-shapes.json"));
    Scenario::from_json(&text)
        .expect("the fixture scenario parses")
        .plan
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lnuca-codec-fixture-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn resumed_fixture_journal_renders_the_fixture_report_byte_for_byte() {
    let plan = plan();
    let journal_text = read(&fixture("codec-shapes.journal.jsonl"));
    let copy = temp_path("resume");
    std::fs::write(&copy, &journal_text).expect("temp journal writable");

    let study = Study::run_journaled(&plan, &copy, true).expect("the fixture journal resumes");
    assert!(study.failures.is_empty());
    let report = scenario::report_value(&plan, &study).to_pretty();
    assert_eq!(report, read(&fixture("codec-shapes.report.json")), "report bytes drifted");
    scenario::validate_report(&scenario::report_value(&plan, &study)).expect("report validates");
    // Every job came from the journal: nothing re-ran, nothing was appended.
    assert_eq!(read(&copy), journal_text, "resume must not re-run a journaled job");
    std::fs::remove_file(&copy).ok();
}

#[test]
fn fixture_journal_records_re_encode_to_the_same_bytes() {
    let plan = plan();
    let path = fixture("codec-shapes.journal.jsonl");
    let jobs = journal::job_count(&plan).expect("fixture workloads resolve");
    let loaded = journal::read_journal(&path, &plan, jobs).expect("the fixture journal decodes");

    let out = temp_path("reencode");
    let writer = JournalWriter::create(&out, &plan, jobs).expect("temp journal writable");
    for (index, entry) in loaded.iter().enumerate() {
        let (result, perf) = entry.as_ref().expect("the fixture journals every job");
        writer.record(index, result, perf);
    }
    writer.finish().expect("records append");
    let (original, encoded) = (read(&path), read(&out));
    for (i, (a, b)) in original.lines().zip(encoded.lines()).enumerate() {
        assert_eq!(a, b, "journal line {} re-encodes differently", i + 1);
    }
    assert_eq!(original, encoded);
    std::fs::remove_file(&out).ok();
}
