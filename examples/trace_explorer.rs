//! Inspect the synthetic workloads that stand in for SPEC CPU2006: print the
//! instruction mix, the working-set structure and the resulting cache
//! behaviour of each profile on a stand-alone cache array, so the substitution
//! documented in DESIGN.md can be audited without running the full simulator.
//!
//! ```bash
//! cargo run --release --example trace_explorer
//! ```

use lnuca_suite::mem::{CacheArray, CacheGeometry, ReplacementPolicy};
use lnuca_suite::sim::report::format_table;
use lnuca_suite::workloads::{suites, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sample = 200_000usize;
    println!("synthetic workload profiles ({} sampled instructions per profile)\n", sample);

    // A 256 KB, 8-way array approximates the baseline L2's reach; a 72 KB
    // fully-associative array approximates LN2's reach (L1 + Le2 tiles).
    let l2_geometry = CacheGeometry::new(256 * 1024, 8, 32)?;
    let ln2_geometry = CacheGeometry::new(64 * 1024, 16, 32)?;

    let mut rows = Vec::new();
    for profile in suites::all() {
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut branches = 0u64;
        let mut l2_array = CacheArray::new(l2_geometry, ReplacementPolicy::Lru);
        let mut ln2_array = CacheArray::new(ln2_geometry, ReplacementPolicy::Lru);
        let mut l2_hits = 0u64;
        let mut ln2_hits = 0u64;
        let mut mem_refs = 0u64;
        for instr in TraceGenerator::new(profile.clone(), 123).take(sample) {
            match instr.kind {
                k if k.is_load() => loads += 1,
                k if k.is_store() => stores += 1,
                k if k.is_branch() => branches += 1,
                _ => {}
            }
            if let Some(addr) = instr.addr {
                mem_refs += 1;
                if l2_array.lookup(addr).is_some() {
                    l2_hits += 1;
                } else {
                    l2_array.fill(addr, false);
                }
                if ln2_array.lookup(addr).is_some() {
                    ln2_hits += 1;
                } else {
                    ln2_array.fill(addr, false);
                }
            }
        }
        let pct = |n: u64, d: u64| format!("{:.1}%", n as f64 / d as f64 * 100.0);
        rows.push(vec![
            profile.name.clone(),
            profile.suite.label().to_owned(),
            pct(loads, sample as u64),
            pct(stores, sample as u64),
            pct(branches, sample as u64),
            format!("{} KB", profile.footprint_bytes() / 1024),
            pct(l2_hits, mem_refs),
            pct(ln2_hits, mem_refs),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "profile",
                "suite",
                "loads",
                "stores",
                "branches",
                "footprint",
                "hits in 256KB",
                "hits in 64KB"
            ],
            &rows
        )
    );
    println!("The gap between the last two columns is the reuse that a small, fast L-NUCA\ncan capture versus what needs the full 256 KB L2 — the paper's target traffic.");
    Ok(())
}
