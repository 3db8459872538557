//! Compare all four hierarchies of Fig. 1 (conventional, L-NUCA + L3,
//! D-NUCA, L-NUCA + D-NUCA) on a mixed set of synthetic benchmarks: IPC,
//! where requests are serviced, and total energy.
//!
//! ```bash
//! cargo run --release --example hierarchy_comparison
//! ```

use lnuca_suite::sim::report::format_table;
use lnuca_suite::sim::spec::HierarchySpec;
use lnuca_suite::sim::system::System;
use lnuca_suite::types::stats::harmonic_mean;
use lnuca_suite::workloads::suites;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instructions = 50_000;
    let mut workloads = suites::spec_int_like();
    workloads.truncate(3);
    let mut fp = suites::spec_fp_like();
    fp.truncate(3);
    workloads.extend(fp);

    let specs = [
        HierarchySpec::conventional(),
        HierarchySpec::lnuca_l3(2)?,
        HierarchySpec::lnuca_l3(3)?,
        HierarchySpec::dnuca(),
        HierarchySpec::lnuca_dnuca(2)?,
    ];

    println!(
        "comparing {} hierarchies on {} synthetic benchmarks ({} instructions each)\n",
        specs.len(),
        workloads.len(),
        instructions
    );

    let mut rows = Vec::new();
    for spec in &specs {
        let mut ipcs = Vec::new();
        let mut l1_hit_ratio = 0.0;
        let mut second_level_hits = 0u64;
        let mut memory_accesses = 0u64;
        let mut energy_pj = 0.0;
        for (i, profile) in workloads.iter().enumerate() {
            let r = System::run_spec(spec, profile, instructions, 7 + i as u64)?;
            ipcs.push(r.ipc);
            l1_hit_ratio += 1.0 - r.hierarchy.l1.miss_ratio();
            second_level_hits += r.hierarchy.second_level_read_hits();
            memory_accesses += r.hierarchy.memory_accesses;
            energy_pj += r.energy.total_pj();
        }
        let n = workloads.len() as f64;
        rows.push(vec![
            spec.label(),
            format!("{:.3}", harmonic_mean(&ipcs).unwrap_or(0.0)),
            format!("{:.1}%", l1_hit_ratio / n * 100.0),
            (second_level_hits / workloads.len() as u64).to_string(),
            (memory_accesses / workloads.len() as u64).to_string(),
            format!("{:.2}", energy_pj / n / 1e6),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "configuration",
                "harmonic-mean IPC",
                "L1 hit ratio",
                "2nd-level read hits (avg)",
                "memory fetches (avg)",
                "energy (uJ, avg)"
            ],
            &rows
        )
    );
    println!("The L-NUCA rows should keep IPC at or above their baseline (L2-256KB or DN-4x8)\nwhile shrinking the energy column — the paper's simultaneous win.");
    Ok(())
}
