//! Cache and network area models (Table II).

/// One row of the paper's Table II: configuration name, total L1+second-level
/// area in mm² and the percentage of that area spent on the tile network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Configuration name as printed in the paper.
    pub name: &'static str,
    /// L1 + L2 / L-NUCA area in mm².
    pub area_mm2: f64,
    /// Network share of the area in percent (0 for the conventional L2).
    pub network_percent: f64,
}

/// The paper's Table II, verbatim.
pub const PAPER_TABLE2: [Table2Row; 4] = [
    Table2Row {
        name: "L2-256KB",
        area_mm2: 0.91,
        network_percent: 0.0,
    },
    Table2Row {
        name: "LN2-72KB",
        area_mm2: 0.46,
        network_percent: 14.01,
    },
    Table2Row {
        name: "LN3-144KB",
        area_mm2: 0.86,
        network_percent: 18.8,
    },
    Table2Row {
        name: "LN4-248KB",
        area_mm2: 1.59,
        network_percent: 19.02,
    },
];

/// A Cacti-like analytical area model calibrated against Table II.
///
/// Areas are linear in capacity with a fixed per-array overhead; multi-ported
/// arrays pay a port factor; L-NUCA tiles add a per-tile router/link area and
/// D-NUCA banks a per-bank virtual-channel router area. The model reproduces
/// the published Table II values within roughly 10–15 % and, more
/// importantly, preserves their ordering (LN3 smaller than the L2 baseline,
/// LN4 substantially larger), which is what the headline claim uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Area per byte of single-ported high-performance SRAM, in mm².
    pub mm2_per_byte: f64,
    /// Fixed per-array overhead (decoders, sense amplifiers), in mm².
    pub array_overhead_mm2: f64,
    /// Multiplicative factor for a second port.
    pub dual_port_factor: f64,
    /// Router + link area added per L-NUCA tile, in mm².
    pub lnuca_network_mm2_per_tile: f64,
    /// Router area added per D-NUCA bank, in mm².
    pub dnuca_router_mm2_per_bank: f64,
    /// Area per byte of low-operating-power SRAM (the L3), in mm².
    pub lop_mm2_per_byte: f64,
}

impl AreaModel {
    /// The calibration used throughout the repository.
    #[must_use]
    pub fn paper() -> Self {
        AreaModel {
            mm2_per_byte: 2.6e-6,
            array_overhead_mm2: 0.012,
            dual_port_factor: 1.9,
            lnuca_network_mm2_per_tile: 0.012,
            dnuca_router_mm2_per_bank: 0.045,
            lop_mm2_per_byte: 1.45e-6,
        }
    }

    /// Area of a single-ported SRAM array of `size_bytes`.
    #[must_use]
    pub fn sram_mm2(&self, size_bytes: u64) -> f64 {
        self.array_overhead_mm2 + self.mm2_per_byte * size_bytes as f64
    }

    /// Area of the 2-ported L1 / root tile.
    #[must_use]
    pub fn l1_mm2(&self, size_bytes: u64) -> f64 {
        self.sram_mm2(size_bytes) * self.dual_port_factor
    }

    /// Area of an L-NUCA of `tiles` tiles of `tile_bytes` each, **including**
    /// the 2-ported root tile of `l1_bytes` and the three tile networks.
    #[must_use]
    pub fn lnuca_mm2(&self, l1_bytes: u64, tiles: usize, tile_bytes: u64) -> f64 {
        self.l1_mm2(l1_bytes)
            + tiles as f64 * (self.sram_mm2(tile_bytes) + self.lnuca_network_mm2_per_tile)
    }

    /// Network share of an L-NUCA area, in percent.
    #[must_use]
    pub fn lnuca_network_percent(&self, l1_bytes: u64, tiles: usize, tile_bytes: u64) -> f64 {
        let network = tiles as f64 * self.lnuca_network_mm2_per_tile;
        100.0 * network / self.lnuca_mm2(l1_bytes, tiles, tile_bytes)
    }

    /// Area of the conventional L1 + L2 pair of the baseline.
    #[must_use]
    pub fn conventional_mm2(&self, l1_bytes: u64, l2_bytes: u64) -> f64 {
        self.l1_mm2(l1_bytes) + self.sram_mm2(l2_bytes)
    }

    /// Area of a D-NUCA of `banks` banks of `bank_bytes` each, including the
    /// per-bank routers.
    #[must_use]
    pub fn dnuca_mm2(&self, banks: usize, bank_bytes: u64) -> f64 {
        banks as f64 * (self.sram_mm2(bank_bytes) + self.dnuca_router_mm2_per_bank)
    }

    /// Area of the L3 (low-operating-power transistors).
    #[must_use]
    pub fn l3_mm2(&self, size_bytes: u64) -> f64 {
        self.array_overhead_mm2 + self.lop_mm2_per_byte * size_bytes as f64
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;

    #[test]
    fn paper_table2_is_recorded_verbatim() {
        assert_eq!(PAPER_TABLE2[0].area_mm2, 0.91);
        assert_eq!(PAPER_TABLE2[2].name, "LN3-144KB");
        assert_eq!(PAPER_TABLE2[3].network_percent, 19.02);
    }

    #[test]
    fn model_reproduces_table2_within_twenty_percent() {
        let m = AreaModel::paper();
        let modeled = [
            m.conventional_mm2(32 * KB, 256 * KB),
            m.lnuca_mm2(32 * KB, 5, 8 * KB),
            m.lnuca_mm2(32 * KB, 14, 8 * KB),
            m.lnuca_mm2(32 * KB, 27, 8 * KB),
        ];
        for (row, value) in PAPER_TABLE2.iter().zip(modeled) {
            let err = (value - row.area_mm2).abs() / row.area_mm2;
            assert!(
                err < 0.20,
                "{}: model {value:.3} vs paper {} (err {err:.2})",
                row.name,
                row.area_mm2
            );
        }
    }

    #[test]
    fn model_preserves_the_table2_ordering() {
        let m = AreaModel::paper();
        let conventional = m.conventional_mm2(32 * KB, 256 * KB);
        let ln2 = m.lnuca_mm2(32 * KB, 5, 8 * KB);
        let ln3 = m.lnuca_mm2(32 * KB, 14, 8 * KB);
        let ln4 = m.lnuca_mm2(32 * KB, 27, 8 * KB);
        assert!(ln2 < ln3 && ln3 < ln4);
        assert!(ln3 < conventional, "LN3 must save area vs the 256 KB L2 baseline");
        assert!(ln4 > conventional, "LN4 costs more area than the baseline");
    }

    #[test]
    fn network_share_grows_with_the_number_of_tiles_and_stays_below_a_quarter() {
        let m = AreaModel::paper();
        let p2 = m.lnuca_network_percent(32 * KB, 5, 8 * KB);
        let p3 = m.lnuca_network_percent(32 * KB, 14, 8 * KB);
        let p4 = m.lnuca_network_percent(32 * KB, 27, 8 * KB);
        assert!(p2 < p3 && p3 < p4);
        assert!(p4 < 25.0);
        assert!(p2 > 5.0);
    }

    #[test]
    fn dnuca_area_is_dominated_by_its_32_banks() {
        let m = AreaModel::paper();
        let dn = m.dnuca_mm2(32, 256 * KB);
        assert!(dn > 20.0, "8 MB of HP SRAM plus routers is tens of mm2, got {dn}");
        // Adding an LN2 (1.2% claim in the paper) must be a small relative increase.
        let ln2_tiles_only = m.lnuca_mm2(32 * KB, 5, 8 * KB) - m.l1_mm2(32 * KB);
        assert!(ln2_tiles_only / dn < 0.03);
    }

    #[test]
    fn l3_uses_denser_low_power_cells() {
        let m = AreaModel::paper();
        assert!(m.l3_mm2(8 * 1024 * KB) < m.sram_mm2(8 * 1024 * KB));
    }
}
