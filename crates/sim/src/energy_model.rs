//! Turns run statistics into the energy accounts of Figs. 4(b) and 5(b).

use crate::hierarchy::HierarchyStats;
use lnuca_energy::{CacheEnergyParams, EnergyAccount, NetworkEnergyParams};

/// Component name used for dynamic energy (all structures pooled, as in the
/// single "dyn." bar segment of the paper's figures).
pub const DYNAMIC: &str = "dyn.";
/// Component name for the static energy of the L1 / root tile.
pub const STATIC_L1: &str = "sta. L1-RT";
/// Component name for the static energy of the second level (the L2 for the
/// conventional baseline, the rest of the tiles for L-NUCA configurations).
pub const STATIC_SECOND: &str = "sta. L2/RESTT";
/// Component name for the static energy of the last on-chip level (L3 or
/// D-NUCA).
pub const STATIC_LAST: &str = "sta. L3/D-NUCA";

/// Builds the energy ledger for a run that lasted `cycles` cycles and
/// accumulated `stats`.
///
/// Dynamic energy charges every array access (lookups, fills, drained
/// writes) and every network event (L-NUCA link traversals, D-NUCA flit
/// hops) with the Table I / Orion-style per-event costs; static energy
/// charges each component's leakage power over the whole execution time.
/// Off-chip DRAM energy is outside the paper's scope and is not accounted.
#[must_use]
pub fn account_for(stats: &HierarchyStats, cycles: u64) -> EnergyAccount {
    let l1 = CacheEnergyParams::paper_l1();
    let l2 = CacheEnergyParams::paper_l2();
    let l3 = CacheEnergyParams::paper_l3();
    let tile = CacheEnergyParams::paper_lnuca_tile();
    let bank = CacheEnergyParams::paper_dnuca_bank();
    let net = NetworkEnergyParams::paper();

    let mut account = EnergyAccount::new();

    // --- dynamic -------------------------------------------------------
    let l1_events = stats.l1.accesses + stats.l1.fills;
    account.add_dynamic(DYNAMIC, l1_events as f64 * l1.read_pj);

    if let Some(l2_stats) = &stats.l2 {
        let events = l2_stats.accesses + l2_stats.fills + stats.write_drains;
        account.add_dynamic(DYNAMIC, events as f64 * l2.read_pj);
    }
    // Deep stacks (HierarchySpec-composed): every additional intermediate
    // level is charged with the L2's per-event cost and leakage — the area
    // model has no per-size table for arbitrary middles, and the L2 macro
    // is the closest calibrated point.
    for deeper in &stats.deeper_levels {
        let events = deeper.accesses + deeper.fills;
        account.add_dynamic(DYNAMIC, events as f64 * l2.read_pj);
    }
    if let Some(l3_stats) = &stats.l3 {
        let mut events = l3_stats.accesses + l3_stats.fills;
        if stats.l2.is_none() {
            // Without an L2, the write-through traffic drains into the L3.
            events += stats.write_drains;
        }
        account.add_dynamic(DYNAMIC, events as f64 * l3.read_pj);
    }
    if let Some(fabric) = &stats.lnuca {
        let tile_events = fabric.tile_lookups + fabric.tile_fills;
        account.add_dynamic(DYNAMIC, tile_events as f64 * tile.read_pj);
        let link_events = fabric.search_link_traversals
            + fabric.transport_link_traversals
            + fabric.replacement_link_traversals;
        account.add_dynamic(DYNAMIC, link_events as f64 * net.lnuca_link_pj);
    }
    if let Some(dnuca) = &stats.dnuca {
        let mut events = dnuca.bank_lookups + dnuca.bank_fills;
        if stats.l2.is_none() && stats.l3.is_none() {
            events += stats.write_drains;
        }
        account.add_dynamic(DYNAMIC, events as f64 * bank.read_pj);
    }
    if let Some(mesh) = &stats.dnuca_mesh {
        account.add_dynamic(DYNAMIC, mesh.flit_hops as f64 * net.dnuca_flit_hop_pj);
    }

    // --- static ---------------------------------------------------------
    account.add_static(STATIC_L1, l1.static_energy_pj(cycles));

    if stats.l2.is_some() {
        account.add_static(STATIC_SECOND, l2.static_energy_pj(cycles));
    }
    for _ in &stats.deeper_levels {
        account.add_static(STATIC_SECOND, l2.static_energy_pj(cycles));
    }
    if stats.lnuca.is_some() {
        let tiles = stats.lnuca_tiles as f64;
        let tile_leak = tile.static_energy_pj(cycles) * tiles;
        let network_leak = CacheEnergyParams {
            read_pj: 0.0,
            write_pj: 0.0,
            leakage_mw: net.lnuca_network_leakage_mw_per_tile * tiles,
        }
        .static_energy_pj(cycles);
        account.add_static(STATIC_SECOND, tile_leak + network_leak);
    }
    if stats.l3.is_some() {
        account.add_static(STATIC_LAST, l3.static_energy_pj(cycles));
    }
    if stats.dnuca.is_some() {
        let banks = stats.dnuca_banks as f64;
        let bank_leak = bank.static_energy_pj(cycles) * banks;
        let router_leak = CacheEnergyParams {
            read_pj: 0.0,
            write_pj: 0.0,
            leakage_mw: net.dnuca_router_leakage_mw * banks,
        }
        .static_energy_pj(cycles);
        account.add_static(STATIC_LAST, bank_leak + router_leak);
    }

    account
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_mem::CacheStats;

    fn base_stats() -> HierarchyStats {
        HierarchyStats {
            label: "test".to_owned(),
            l1: CacheStats {
                accesses: 1_000,
                read_hits: 900,
                read_misses: 100,
                ..CacheStats::default()
            },
            ..HierarchyStats::default()
        }
    }

    #[test]
    fn conventional_static_l3_dominates() {
        let mut stats = base_stats();
        stats.l2 = Some(CacheStats {
            accesses: 100,
            ..CacheStats::default()
        });
        stats.l3 = Some(CacheStats {
            accesses: 10,
            ..CacheStats::default()
        });
        let account = account_for(&stats, 1_000_000);
        assert!(account.static_pj(STATIC_LAST) > account.static_pj(STATIC_SECOND));
        assert!(account.static_pj(STATIC_LAST) > account.static_pj(STATIC_L1));
        assert!(account.static_pj(STATIC_LAST) > account.total_dynamic_pj());
    }

    #[test]
    fn lnuca_tiles_leak_less_than_the_l2_they_replace() {
        let cycles = 2_000_000;
        let mut conventional = base_stats();
        conventional.l2 = Some(CacheStats::default());
        conventional.l3 = Some(CacheStats::default());
        let conv = account_for(&conventional, cycles);

        let mut lnuca = base_stats();
        lnuca.lnuca = Some(lnuca_core::LNucaStats::new(3));
        lnuca.lnuca_tiles = 14;
        lnuca.l3 = Some(CacheStats::default());
        let ln = account_for(&lnuca, cycles);

        // 14 tiles at 2.2 mW plus their network leak less than a 66.9 mW L2.
        assert!(ln.static_pj(STATIC_SECOND) < conv.static_pj(STATIC_SECOND));
    }

    #[test]
    fn shorter_runs_consume_less_static_energy() {
        let mut stats = base_stats();
        stats.l3 = Some(CacheStats::default());
        let short = account_for(&stats, 1_000_000);
        let long = account_for(&stats, 1_200_000);
        assert!(long.total_static_pj() > short.total_static_pj());
        assert!((long.static_pj(STATIC_LAST) / short.static_pj(STATIC_LAST) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn dnuca_dynamic_energy_counts_banks_and_flits() {
        let mut stats = base_stats();
        stats.dnuca = Some(lnuca_dnuca::DNucaStats {
            bank_lookups: 1_000,
            ..lnuca_dnuca::DNucaStats::default()
        });
        stats.dnuca_banks = 32;
        stats.dnuca_mesh = Some(lnuca_noc::mesh::MeshStats {
            flit_hops: 5_000,
            ..lnuca_noc::mesh::MeshStats::default()
        });
        let account = account_for(&stats, 1_000);
        // 1000 bank lookups at 131.2 pJ plus 5000 flit-hops at 4.8 pJ plus the L1.
        let expected_dyn = 1_000.0 * 131.2 + 5_000.0 * 4.8 + 1_000.0 * 21.2;
        assert!((account.total_dynamic_pj() - expected_dyn).abs() < 1e-6);
        assert!(account.static_pj(STATIC_LAST) > 0.0);
    }
}
