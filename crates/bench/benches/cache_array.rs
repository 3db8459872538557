//! Criterion microbench of [`lnuca_mem::CacheArray`]'s hot entry points —
//! the substrate behind every cache-like structure in the workspace (L1,
//! L2/L3, L-NUCA tiles, D-NUCA banks) and therefore the inner loop of every
//! simulated cycle. The flat tag-lane rewrite (DESIGN.md §10) was measured
//! with exactly these cases; rerun `cargo bench -p lnuca-bench --bench
//! cache_array` to compare before/after any future storage change.
//!
//! Cases:
//! * `lookup/hit` — resident block, recency refresh (the L1-hit fast path;
//!   the blocks are visited in fill order, so each hit is on its set's
//!   least recently used way),
//! * `lookup/hit-mru` — the same on its set's most recently used way,
//!   where the refresh has nothing to reorder,
//! * `lookup/miss` — full-set scan with no match (the path every miss pays
//!   before the hierarchy escalates),
//! * `fill/refresh` — fill of an already-resident block (dirtiness merge),
//! * `fill/evict` — fill into a full set (victim choice + replacement).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lnuca_mem::{CacheArray, CacheGeometry, ReplacementPolicy};
use lnuca_types::Addr;
use std::hint::black_box;

/// The paper's L1 shape: 32 KB, 4-way, 32 B blocks (256 sets).
fn l1_array() -> CacheArray {
    let geometry = CacheGeometry::new(32 * 1024, 4, 32).expect("valid L1 geometry");
    CacheArray::new(geometry, ReplacementPolicy::Lru)
}

/// Fills every way of every set so lookups scan full sets.
fn filled(mut array: CacheArray) -> CacheArray {
    let block = array.geometry().block_size();
    let lines = array.geometry().lines() as u64;
    for i in 0..lines {
        array.fill(Addr(i * block), i % 7 == 0);
    }
    assert_eq!(array.resident(), lines as usize);
    array
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_array/lookup");

    let mut array = filled(l1_array());
    let block = array.geometry().block_size();
    let lines = array.geometry().lines() as u64;
    let mut i = 0u64;
    group.bench_function(BenchmarkId::from_parameter("hit"), |b| {
        b.iter(|| {
            i = (i + 1) % lines;
            black_box(array.lookup(black_box(Addr(i * block))))
        })
    });

    // The last block filled into each set is that set's youngest.
    let mut array = filled(l1_array());
    let sets = array.geometry().sets() as u64;
    let mut k = 0u64;
    group.bench_function(BenchmarkId::from_parameter("hit-mru"), |b| {
        b.iter(|| {
            k = (k + 1) % sets;
            black_box(array.lookup(black_box(Addr((lines - 1 - k) * block))))
        })
    });

    let mut array = filled(l1_array());
    let capacity = array.geometry().size_bytes();
    let mut j = 0u64;
    group.bench_function(BenchmarkId::from_parameter("miss"), |b| {
        b.iter(|| {
            j += 1;
            // Addresses beyond the filled range: same sets, absent tags.
            black_box(array.lookup(black_box(Addr(capacity + j * block))))
        })
    });

    group.finish();
}

fn bench_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_array/fill");

    let mut array = filled(l1_array());
    let block = array.geometry().block_size();
    let lines = array.geometry().lines() as u64;
    let mut i = 0u64;
    group.bench_function(BenchmarkId::from_parameter("refresh"), |b| {
        b.iter(|| {
            i = (i + 1) % lines;
            black_box(array.fill(black_box(Addr(i * block)), false))
        })
    });

    let mut array = filled(l1_array());
    let capacity = array.geometry().size_bytes();
    let mut j = 0u64;
    group.bench_function(BenchmarkId::from_parameter("evict"), |b| {
        b.iter(|| {
            j += 1;
            // Every fill lands in a full set and must choose a victim.
            black_box(array.fill(black_box(Addr(capacity + j * block)), j % 2 == 0))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_lookup, bench_fill);
criterion_main!(benches);
