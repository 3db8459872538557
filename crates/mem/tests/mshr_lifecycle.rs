//! Model-based property test for the fixed-slot [`MshrFile`] lifecycle:
//! random interleavings of `allocate`, `retire` and `complete` against an
//! obviously-correct map model. Slot reuse (the PR-3 fixed-array rewrite)
//! must never lose, duplicate or misattribute an outstanding miss.

use lnuca_mem::{MshrAllocation, MshrFile};
use lnuca_types::{Addr, ReqId};
use proptest::prelude::*;
use std::collections::HashMap;

const BLOCK: u64 = 64;

/// One step of the random interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    Allocate(u64),
    Retire(u64),
    Complete(u64),
}

fn op_strategy(blocks: u64) -> impl Strategy<Value = Op> {
    (0u8..8, 0..blocks).prop_map(|(kind, block)| {
        let addr = block * BLOCK + (u64::from(kind) * 9) % BLOCK; // vary offsets within the block
        match kind {
            // Allocation-heavy mix keeps the file near capacity, which is
            // where slot reuse happens.
            0..=4 => Op::Allocate(addr),
            5 | 6 => Op::Retire(addr),
            _ => Op::Complete(addr),
        }
    })
}

proptest! {
    #[test]
    fn fixed_slots_never_lose_or_duplicate_outstanding_misses(
        ops in proptest::collection::vec(op_strategy(12), 1..400),
        capacity in 1usize..9,
        secondary in 0usize..5,
    ) {
        let mut file = MshrFile::new(capacity, secondary, BLOCK).unwrap();
        // The model: block base -> waiters, in allocation order.
        let mut model: HashMap<u64, Vec<ReqId>> = HashMap::new();
        let mut next_id = 0u64;

        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Allocate(addr) => {
                    let id = ReqId(next_id);
                    next_id += 1;
                    let base = Addr(addr).block_base(BLOCK).0;
                    let outcome = file.allocate(Addr(addr), id);
                    let expected = match model.get(&base) {
                        Some(waiters) if waiters.len() > secondary => MshrAllocation::Full,
                        Some(_) => MshrAllocation::Secondary,
                        None if model.len() >= capacity => MshrAllocation::Full,
                        None => MshrAllocation::Primary,
                    };
                    prop_assert_eq!(outcome, expected, "allocate({addr:#x}) at step {step}");
                    match outcome {
                        MshrAllocation::Primary => {
                            model.insert(base, vec![id]);
                        }
                        MshrAllocation::Secondary => {
                            model.get_mut(&base).expect("secondary merges into a live entry").push(id);
                        }
                        MshrAllocation::Full => {}
                    }
                }
                Op::Retire(addr) => {
                    let base = Addr(addr).block_base(BLOCK).0;
                    let expected = model.remove(&base).map(|w| w.len()).unwrap_or(0);
                    prop_assert_eq!(
                        file.retire(Addr(addr)),
                        expected,
                        "retire({addr:#x}) at step {step}"
                    );
                }
                Op::Complete(addr) => {
                    let base = Addr(addr).block_base(BLOCK).0;
                    let expected = model.remove(&base).unwrap_or_default();
                    prop_assert_eq!(
                        file.complete(Addr(addr)),
                        expected,
                        "complete({addr:#x}) at step {step}: waiters lost, duplicated or reordered"
                    );
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
        }

        // Drain everything: every outstanding miss is returned exactly once.
        let mut remaining: Vec<(u64, Vec<ReqId>)> = model.into_iter().collect();
        remaining.sort_by_key(|(base, _)| *base);
        for (base, waiters) in remaining {
            prop_assert_eq!(file.complete(Addr(base)), waiters);
        }
        prop_assert_eq!(file.occupancy(), 0);
        prop_assert!(!file.is_full() || capacity == 0);

        // Freed slots are immediately reusable up to the full capacity.
        for i in 0..capacity as u64 {
            prop_assert!(file.allocate(Addr(0x10_0000 + i * BLOCK), ReqId(u64::MAX - i)).is_primary());
        }
        prop_assert!(file.is_full());
    }
}
