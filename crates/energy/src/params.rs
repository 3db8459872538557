//! Per-component energy parameters (Table I values plus network estimates).

/// Processor cycle time in nanoseconds.
///
/// The paper assumes a 19 FO4 cycle "similar to the Intel Core2 Duo E8600 in
/// a 32 nm technology"; the E8600 runs at 3.33 GHz, i.e. 0.3 ns per cycle.
#[must_use]
pub fn cycle_time_ns() -> f64 {
    0.3
}

/// Dynamic and static energy parameters of one cache-like component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEnergyParams {
    /// Energy of one read hit, in picojoules.
    pub read_pj: f64,
    /// Energy of one write / fill, in picojoules (taken equal to a read for
    /// the structures the paper does not detail further).
    pub write_pj: f64,
    /// Leakage power in milliwatts.
    pub leakage_mw: f64,
}

impl CacheEnergyParams {
    /// The 32 KB, 4-way, 2-port L1 / root tile (Table I: 21.2 pJ, 12.8 mW).
    #[must_use]
    pub fn paper_l1() -> Self {
        CacheEnergyParams {
            read_pj: 21.2,
            write_pj: 21.2,
            leakage_mw: 12.8,
        }
    }

    /// The 256 KB, 8-way L2 (Table I: 47.2 pJ, 66.9 mW).
    #[must_use]
    pub fn paper_l2() -> Self {
        CacheEnergyParams {
            read_pj: 47.2,
            write_pj: 47.2,
            leakage_mw: 66.9,
        }
    }

    /// One 8 KB, 2-way L-NUCA tile (Table I: 14 pJ, 2.2 mW).
    #[must_use]
    pub fn paper_lnuca_tile() -> Self {
        CacheEnergyParams {
            read_pj: 14.0,
            write_pj: 14.0,
            leakage_mw: 2.2,
        }
    }

    /// The 8 MB, 16-way L3 in low-operating-power transistors
    /// (Table I: 20.9 pJ, 600 mW).
    #[must_use]
    pub fn paper_l3() -> Self {
        CacheEnergyParams {
            read_pj: 20.9,
            write_pj: 20.9,
            leakage_mw: 600.0,
        }
    }

    /// One 256 KB, 2-way D-NUCA bank (Table I: 131.2 pJ, 33.5 mW).
    #[must_use]
    pub fn paper_dnuca_bank() -> Self {
        CacheEnergyParams {
            read_pj: 131.2,
            write_pj: 131.2,
            leakage_mw: 33.5,
        }
    }

    /// Static (leakage) energy accumulated over `cycles` processor cycles,
    /// in picojoules: `P_leak × t` with the 19 FO4 / 0.3 ns cycle.
    #[must_use]
    pub fn static_energy_pj(&self, cycles: u64) -> f64 {
        // 1 mW × 1 ns = 1 pJ.
        self.leakage_mw * cycle_time_ns() * cycles as f64
    }
}

/// Energy per network event, estimated in the style of Orion.
///
/// The paper states that the area and energy of the routers were estimated
/// with Orion but does not publish the per-event numbers, only the outcome
/// that L-NUCA's simple, headerless, message-wide networking costs far less
/// per transaction than the D-NUCA virtual-channel mesh. The constants below
/// encode that relationship: an L-NUCA link traversal moves one 32-byte
/// message through a short link and a cut-through crossbar, while a D-NUCA
/// flit-hop traverses a 256-bit link plus a 4-VC wormhole router pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkEnergyParams {
    /// Energy of moving one message across one L-NUCA link (link + buffer +
    /// cut-through crossbar), in picojoules.
    pub lnuca_link_pj: f64,
    /// Energy of one flit traversing one D-NUCA mesh hop (link + VC router),
    /// in picojoules.
    pub dnuca_flit_hop_pj: f64,
    /// Leakage power of the whole L-NUCA interconnect per tile, in mW.
    pub lnuca_network_leakage_mw_per_tile: f64,
    /// Leakage power of one D-NUCA router, in mW.
    pub dnuca_router_leakage_mw: f64,
}

impl NetworkEnergyParams {
    /// The default Orion-style estimates used throughout the evaluation.
    #[must_use]
    pub fn paper() -> Self {
        NetworkEnergyParams {
            lnuca_link_pj: 1.1,
            dnuca_flit_hop_pj: 4.8,
            lnuca_network_leakage_mw_per_tile: 0.25,
            dnuca_router_leakage_mw: 1.8,
        }
    }
}

impl Default for NetworkEnergyParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values_are_reproduced() {
        assert_eq!(CacheEnergyParams::paper_l1().read_pj, 21.2);
        assert_eq!(CacheEnergyParams::paper_l2().read_pj, 47.2);
        assert_eq!(CacheEnergyParams::paper_lnuca_tile().read_pj, 14.0);
        assert_eq!(CacheEnergyParams::paper_l3().leakage_mw, 600.0);
        assert_eq!(CacheEnergyParams::paper_dnuca_bank().read_pj, 131.2);
    }

    #[test]
    fn static_energy_scales_linearly_with_time() {
        let l3 = CacheEnergyParams::paper_l3();
        let one = l3.static_energy_pj(1_000);
        let ten = l3.static_energy_pj(10_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
        // 600 mW for 1000 cycles of 0.3 ns = 600 * 300 pJ.
        assert!((one - 600.0 * 300.0).abs() < 1e-6);
    }

    #[test]
    fn tile_energy_is_cheaper_than_l2_energy() {
        // The core of the paper's dynamic-energy argument: an 8 KB tile
        // access plus some link traversals is cheaper than a 256 KB L2
        // access, and far cheaper than a 256 KB D-NUCA bank access.
        let tile = CacheEnergyParams::paper_lnuca_tile();
        let net = NetworkEnergyParams::paper();
        let l2 = CacheEnergyParams::paper_l2();
        let bank = CacheEnergyParams::paper_dnuca_bank();
        assert!(tile.read_pj + 3.0 * net.lnuca_link_pj < l2.read_pj);
        assert!(l2.read_pj < bank.read_pj);
    }

    #[test]
    fn cycle_time_matches_a_3_33_ghz_clock() {
        assert!((cycle_time_ns() - 0.3).abs() < 1e-12);
    }
}
