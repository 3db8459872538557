//! Quickstart: compose hierarchies declaratively, run one synthetic
//! benchmark on the conventional baseline, on the paper's 3-level L-NUCA,
//! and on a shape the paper never built (the same fabric with *nothing*
//! behind it), and print what the fabric did.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The same comparison is one CLI call away — the scenario layer is the
//! file form of exactly this API:
//!
//! ```bash
//! cargo run --release -p lnuca-bench --bin lnuca -- run scenarios/ln3-no-l3.json
//! ```

use lnuca_suite::core::LNucaConfig;
use lnuca_suite::sim::spec::HierarchySpec;
use lnuca_suite::sim::system::System;
use lnuca_suite::workloads::suites;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instructions = 100_000;
    let profile = suites::by_name("int.compress")?;

    println!("workload: {} ({} instructions)\n", profile.name, instructions);

    // The paper's baseline: 32 KB L1 + 256 KB L2 + 8 MB L3 — one point in
    // the composable spec space (root + intermediate L2 + cache backing).
    let baseline = HierarchySpec::conventional();

    // The paper's proposal: replace the L2 with a 3-level, 144 KB L-NUCA.
    let lnuca = HierarchySpec::lnuca_l3(3)?;

    // Beyond the paper: the same fabric with nothing behind it but DRAM.
    let no_l3 = HierarchySpec::builder()
        .fabric(LNucaConfig::paper(3)?)
        .build()?;

    let base = System::run_spec(&baseline, &profile, instructions, 42)?;
    let ln = System::run_spec(&lnuca, &profile, instructions, 42)?;
    let bare = System::run_spec(&no_l3, &profile, instructions, 42)?;

    for r in [&base, &ln, &bare] {
        println!(
            "{:<16} IPC {:.3}   cycles {:>9}   DRAM fetches {:>7}",
            r.label, r.ipc, r.cycles, r.hierarchy.memory_accesses
        );
    }
    println!(
        "\nLN3 vs baseline — IPC change: {:+.1}%   energy change: {:+.1}%",
        (ln.ipc / base.ipc - 1.0) * 100.0,
        (ln.energy.total_pj() / base.energy.total_pj() - 1.0) * 100.0
    );

    let fabric = ln
        .hierarchy
        .lnuca
        .as_ref()
        .expect("the L-NUCA hierarchy has a fabric");
    println!("\nL-NUCA fabric activity (LN3-144KB):");
    println!("  searches injected        {:>9}", fabric.searches);
    for (i, hits) in fabric.read_hits_per_level.iter().enumerate() {
        println!("  read hits in Le{}         {:>9}", i + 2, hits);
    }
    println!("  global misses            {:>9}", fabric.global_misses);
    println!("  blocks spilled to the L3 {:>9}", fabric.spills);
    println!("  avg/min transport latency {:>8.3}", fabric.transport_latency_ratio());
    Ok(())
}
