//! The Fig 9 tile power/area table.
//!
//! The paper place-and-routes one NOCSTAR tile (TLB SRAM slice, latchless
//! switch, four link arbiters) in TSMC 28 nm at a 0.5 ns clock and reports
//! per-component power and area. Those numbers are constants here; the
//! headline claim they support — interconnect area under 1 % of the tile's
//! TLB SRAM — is checked in tests and printed by the Fig 9 bench binary.

/// Power and area of one tile component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentCost {
    /// Component name as printed in Fig 9.
    pub name: &'static str,
    /// Per-core power in milliwatts.
    pub power_mw: f64,
    /// Area in square millimetres.
    pub area_mm2: f64,
}

/// The per-tile cost table of Fig 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileCosts {
    /// The latchless mux switch.
    pub switch: ComponentCost,
    /// The four link arbiters adjacent to the switch.
    pub arbiters: ComponentCost,
    /// The 28 nm SRAM TLB slice.
    pub sram_tlb: ComponentCost,
}

impl TileCosts {
    /// The paper's post-synthesis numbers (Fig 9, 28 nm TSMC, 0.5 ns clock).
    pub fn paper() -> Self {
        Self {
            switch: ComponentCost {
                name: "Switch",
                power_mw: 0.43,
                area_mm2: 0.0022,
            },
            arbiters: ComponentCost {
                name: "4x Arbiters",
                power_mw: 2.39,
                area_mm2: 0.0038,
            },
            sram_tlb: ComponentCost {
                name: "SRAM TLB",
                power_mw: 10.91,
                area_mm2: 0.4646,
            },
        }
    }

    /// Interconnect (switch + arbiters) area as a fraction of the tile's
    /// TLB SRAM area. The paper reports "less than 1%"; note that is the
    /// *switch* alone — switch + arbiters land near 1.3%.
    pub fn interconnect_area_fraction(&self) -> f64 {
        (self.switch.area_mm2 + self.arbiters.area_mm2) / self.sram_tlb.area_mm2
    }

    /// The three rows in Fig 9 order.
    pub fn rows(&self) -> [ComponentCost; 3] {
        [self.switch, self.arbiters, self.sram_tlb]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_area_is_under_one_percent_of_sram() {
        let t = TileCosts::paper();
        assert!(t.switch.area_mm2 / t.sram_tlb.area_mm2 < 0.01);
    }

    #[test]
    fn interconnect_is_a_small_fraction_of_the_tile() {
        let t = TileCosts::paper();
        let frac = t.interconnect_area_fraction();
        assert!(frac < 0.02, "interconnect fraction {frac} too large");
    }

    #[test]
    fn arbiters_are_the_power_hungry_component() {
        // Paper: "the link arbiters ... are the most power hungry
        // component and key overhead" of the interconnect.
        let t = TileCosts::paper();
        assert!(t.arbiters.power_mw > t.switch.power_mw);
    }

    #[test]
    fn rows_are_in_figure_order() {
        let rows = TileCosts::paper().rows();
        assert_eq!(rows[0].name, "Switch");
        assert_eq!(rows[1].name, "4x Arbiters");
        assert_eq!(rows[2].name, "SRAM TLB");
    }
}
