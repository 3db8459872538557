//! Property tests for the `lnuca-trace/v1` format: delta-encoding
//! round-trip identity over arbitrary record streams, rejection of
//! truncated and corrupted images, and determinism of
//! [`AccessPattern::Trace`] replays through [`TraceGenerator`].

use lnuca_workloads::trace::{self, ADDR_LIMIT, CHUNK_RECORDS};
use lnuca_workloads::{Instr, InstrKind, TraceData, TraceGenerator, TraceRecord};
use proptest::prelude::*;

/// Arbitrary records: a mix of fully random references and strided runs, so
/// generated streams exercise both single ops and run compression.
fn records_strategy() -> impl Strategy<Value = Vec<TraceRecord>> {
    let single = (0..ADDR_LIMIT, any::<bool>(), 0..ADDR_LIMIT)
        .prop_map(|(addr, write, pc)| vec![TraceRecord { addr, write, pc }]);
    let run = ((0..ADDR_LIMIT / 2, any::<bool>()), (0..ADDR_LIMIT, 1u64..512, 3usize..40))
        .prop_map(|((base, write), (pc, stride, len))| {
            (0..len)
                .map(|i| TraceRecord {
                    addr: base + i as u64 * stride,
                    write,
                    pc,
                })
                .collect::<Vec<_>>()
        });
    prop::collection::vec(prop_oneof![single, run], 1..60)
        .prop_map(|groups| groups.into_iter().flatten().collect())
}

proptest! {
    #[test]
    fn round_trip_is_identity(records in records_strategy()) {
        let bytes = trace::encode(&records).expect("in-range records encode");
        let data = TraceData::from_bytes(bytes).expect("encoded traces load");
        prop_assert_eq!(data.record_count(), records.len() as u64);
        prop_assert_eq!(data.decode_all().expect("loaded traces decode"), records);
    }

    #[test]
    fn truncation_is_always_rejected(records in records_strategy(), frac in 0.0f64..1.0) {
        let bytes = trace::encode(&records).expect("in-range records encode");
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(
            TraceData::from_bytes(bytes[..cut].to_vec()).is_err(),
            "truncating {} bytes to {cut} must be rejected",
            bytes.len()
        );
    }

    #[test]
    fn single_byte_corruption_is_rejected(records in records_strategy(), pos_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let bytes = trace::encode(&records).expect("in-range records encode");
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = bytes;
        bad[pos] ^= flip;
        // Either the load rejects the image (magic/version/count/checksum
        // violations) or — never — it silently decodes different records.
        if let Ok(data) = TraceData::from_bytes(bad) {
            prop_assert_eq!(data.decode_all().expect("loaded traces decode"), records);
        }
    }
}

/// Replays a trace profile and extracts the memory references it issues.
fn replayed_memory(path: &str, seed: u64, n: usize) -> Vec<(u64, bool)> {
    let profile = trace::trace_profile(path);
    TraceGenerator::new(profile, seed)
        .take(n)
        .filter_map(|i: Instr| i.addr.map(|a| (a.0, matches!(i.kind, InstrKind::Store))))
        .collect()
}

#[test]
fn trace_replay_is_deterministic_and_in_order() {
    let records: Vec<TraceRecord> = (0..CHUNK_RECORDS as u64 + 50)
        .map(|i| TraceRecord {
            addr: 0x4000 + (i * i) % 0x10_0000,
            write: i % 3 == 0,
            pc: 0x400000 + i % 7,
        })
        .collect();
    let path = std::env::temp_dir().join("lnuca-trace-format-replay.lnt");
    let path = path.to_str().expect("temp path is utf-8").to_owned();
    trace::write_file(&path, &records).expect("trace writes");

    // Same seed ⇒ bit-identical instruction stream.
    let a = replayed_memory(&path, 7, 40_000);
    let b = replayed_memory(&path, 7, 40_000);
    assert_eq!(a, b, "replay is deterministic for a fixed seed");
    assert!(a.len() > records.len(), "40k instructions wrap the trace at least once");

    // The memory references are exactly the trace records, in file order,
    // wrapping at the end — regardless of seed (the seed only moves the
    // *positions* of memory instructions within the stream).
    for seed in [7, 8] {
        let replayed = replayed_memory(&path, seed, 40_000);
        for (i, &(addr, write)) in replayed.iter().enumerate() {
            let expected = records[i % records.len()];
            assert_eq!(
                (addr, write),
                (expected.addr, expected.write),
                "record {i} under seed {seed}"
            );
        }
    }
}
