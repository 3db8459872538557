//! Design-space exploration over the L-NUCA parameters the paper discusses:
//! number of levels, tile size and routing policy. Prints IPC, capacity and
//! estimated area so the trade-off the paper describes (gains saturate
//! around 3–4 levels while area keeps growing) is visible directly.
//!
//! ```bash
//! cargo run --release --example design_space
//! ```

use lnuca_suite::core::{LNucaConfig, LNucaGeometry};
use lnuca_suite::energy::AreaModel;
use lnuca_suite::noc::RoutingPolicy;
use lnuca_suite::sim::configs;
use lnuca_suite::sim::report::format_table;
use lnuca_suite::sim::spec::HierarchySpec;
use lnuca_suite::sim::system::System;
use lnuca_suite::types::stats::harmonic_mean;
use lnuca_suite::workloads::suites;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let instructions = 30_000;
    let mut workloads = suites::spec_int_like();
    workloads.truncate(2);
    let mut fp = suites::spec_fp_like();
    fp.truncate(2);
    workloads.extend(fp);
    let area = AreaModel::paper();

    println!(
        "L-NUCA design space ({} instructions per run, 4 synthetic benchmarks)\n",
        instructions
    );

    let mut rows = Vec::new();
    for levels in 2..=5u8 {
        for (routing_name, routing) in [
            ("random", RoutingPolicy::RandomValid),
            ("dim-order", RoutingPolicy::DimensionOrder),
        ] {
            let spec = HierarchySpec::builder()
                .fabric(LNucaConfig {
                    routing,
                    ..LNucaConfig::paper(levels)?
                })
                .backing_cache(configs::paper_l3())
                .build()?;
            let mut ipcs = Vec::new();
            let mut ratio_num = 0u64;
            let mut ratio_den = 0u64;
            for (i, profile) in workloads.iter().enumerate() {
                let r = System::run_spec(&spec, profile, instructions, 11 + i as u64)?;
                ipcs.push(r.ipc);
                if let Some(f) = &r.hierarchy.lnuca {
                    ratio_num += f.transport_latency_sum;
                    ratio_den += f.transport_min_latency_sum;
                }
            }
            let geometry = LNucaGeometry::new(levels)?;
            let capacity_kb = (geometry.capacity_bytes(8 * 1024) + 32 * 1024) / 1024;
            let mm2 = area.lnuca_mm2(32 * 1024, geometry.tile_count(), 8 * 1024);
            rows.push(vec![
                format!("LN{levels}"),
                routing_name.to_owned(),
                format!("{capacity_kb} KB"),
                format!("{:.2} mm2", mm2),
                format!("{:.3}", harmonic_mean(&ipcs).unwrap_or(0.0)),
                format!(
                    "{:.3}",
                    if ratio_den == 0 {
                        1.0
                    } else {
                        ratio_num as f64 / ratio_den as f64
                    }
                ),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            &[
                "fabric",
                "routing",
                "capacity (with L1)",
                "area",
                "harmonic-mean IPC",
                "avg/min transport"
            ],
            &rows
        )
    );
    println!("Expected shape: IPC grows quickly up to LN3 and flattens, while area keeps growing\nroughly linearly in the tile count — the trade-off behind the paper's LN3 recommendation.");
    Ok(())
}
