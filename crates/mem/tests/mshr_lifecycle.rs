//! Model-based property test for the fixed-slot [`MshrFile`] lifecycle:
//! random interleavings of `allocate`, `set_arrival`, `retire` and
//! `retire_arrived` against an obviously-correct map model. Slot reuse must
//! never lose, duplicate, reorder or misattribute a waiting request.

use lnuca_mem::{MshrAllocation, MshrFile};
use lnuca_types::{Addr, Cycle, MemRequest, ReqId, ServiceLevel};
use proptest::prelude::*;
use std::collections::HashMap;

const BLOCK: u64 = 64;

/// One step of the random interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    Allocate(u64),
    Retire(u64),
    SetArrival(u64, u64),
    RetireArrived(u64),
}

fn op_strategy(blocks: u64) -> impl Strategy<Value = Op> {
    (0u8..10, 0..blocks, 0u64..40).prop_map(|(kind, block, cycle)| {
        let addr = block * BLOCK + (u64::from(kind) * 9) % BLOCK; // vary offsets within the block
        match kind {
            // Allocation-heavy mix keeps the file near capacity, which is
            // where slot reuse happens.
            0..=4 => Op::Allocate(addr),
            5 | 6 => Op::Retire(addr),
            7 | 8 => Op::SetArrival(addr, cycle),
            _ => Op::RetireArrived(cycle),
        }
    })
}

/// The model's entry for one block: its waiting requests, in allocation
/// order, and its arrival cycle once set.
#[derive(Debug, Default)]
struct Entry {
    waiting: Vec<ReqId>,
    arrival: Option<u64>,
}

fn ids(requests: impl Iterator<Item = MemRequest>) -> Vec<ReqId> {
    requests.map(|r| r.id).collect()
}

proptest! {
    #[test]
    fn fixed_slots_never_lose_or_duplicate_outstanding_misses(
        ops in proptest::collection::vec(op_strategy(12), 1..400),
        capacity in 1usize..9,
        secondary in 0usize..5,
    ) {
        let mut file = MshrFile::new(capacity, secondary, BLOCK).unwrap();
        // The model: block base -> entry.
        let mut model: HashMap<u64, Entry> = HashMap::new();
        let mut next_id = 0u64;

        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Allocate(addr) => {
                    let id = ReqId(next_id);
                    next_id += 1;
                    let base = Addr(addr).block_base(BLOCK).0;
                    let outcome = file.allocate(MemRequest::read(id, Addr(addr), Cycle(step as u64)));
                    let expected = match model.get(&base) {
                        Some(entry) if entry.waiting.len() > secondary => MshrAllocation::Full,
                        Some(_) => MshrAllocation::Secondary,
                        None if model.len() >= capacity => MshrAllocation::Full,
                        None => MshrAllocation::Primary,
                    };
                    prop_assert_eq!(outcome, expected, "allocate({addr:#x}) at step {step}");
                    match outcome {
                        MshrAllocation::Primary => {
                            model.insert(base, Entry { waiting: vec![id], arrival: None });
                        }
                        MshrAllocation::Secondary => {
                            model.get_mut(&base).expect("secondary merges into a live entry").waiting.push(id);
                        }
                        MshrAllocation::Full => {}
                    }
                }
                Op::Retire(addr) => {
                    let base = Addr(addr).block_base(BLOCK).0;
                    let expected = model.remove(&base).map(|e| e.waiting).unwrap_or_default();
                    prop_assert_eq!(
                        ids(file.retire(Addr(addr))),
                        expected,
                        "retire({addr:#x}) at step {step}: waiters lost, duplicated or reordered"
                    );
                }
                Op::SetArrival(addr, at) => {
                    file.set_arrival(Addr(addr), Cycle(at), ServiceLevel::L2);
                    if let Some(entry) = model.get_mut(&Addr(addr).block_base(BLOCK).0) {
                        entry.arrival = Some(at);
                    }
                }
                Op::RetireArrived(now) => {
                    let mut handed: HashMap<u64, Vec<ReqId>> = HashMap::new();
                    file.retire_arrived(Cycle(now), |req, at, served| {
                        assert_eq!(served, ServiceLevel::L2);
                        assert!(at <= Cycle(now), "handed back before its arrival");
                        handed.entry(req.addr.block_base(BLOCK).0).or_default().push(req.id);
                    });
                    let due: Vec<u64> = model
                        .iter()
                        .filter(|(_, e)| e.arrival.is_some_and(|at| at <= now))
                        .map(|(&base, _)| base)
                        .collect();
                    let mut expected = HashMap::new();
                    for base in due {
                        expected.insert(base, model.remove(&base).expect("due entry").waiting);
                    }
                    prop_assert_eq!(handed, expected, "retire_arrived({now}) at step {step}");
                }
            }

            // Global invariants after every step.
            prop_assert_eq!(file.occupancy(), model.len());
            prop_assert_eq!(file.is_full(), model.len() >= capacity);
            for block in 0u64..12 {
                prop_assert_eq!(
                    file.is_pending(Addr(block * BLOCK)),
                    model.contains_key(&(block * BLOCK)),
                    "pending({block}) at step {step}"
                );
            }
            // The arrival horizon may be early, never late.
            if let Some(earliest) = model.values().filter_map(|e| e.arrival).min() {
                prop_assert!(file.next_arrival().is_some_and(|at| at <= Cycle(earliest)));
            }
        }

        // Drain everything: every outstanding miss is returned exactly once.
        let mut remaining: Vec<(u64, Entry)> = model.into_iter().collect();
        remaining.sort_by_key(|(base, _)| *base);
        for (base, entry) in remaining {
            prop_assert_eq!(ids(file.retire(Addr(base))), entry.waiting);
        }
        prop_assert_eq!(file.occupancy(), 0);
        prop_assert!(!file.is_full() || capacity == 0);

        // Freed slots are immediately reusable up to the full capacity.
        for i in 0..capacity as u64 {
            let req = MemRequest::read(ReqId(u64::MAX - i), Addr(0x10_0000 + i * BLOCK), Cycle(0));
            prop_assert!(file.allocate(req).is_primary());
        }
        prop_assert!(file.is_full());
    }
}
