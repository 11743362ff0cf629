//! Router area model (Table 6) of the Table 4 router
//! ([`rcsim_core::table4`]).

use rcsim_core::table4::{BUFFER_DEPTH, FLIT_BYTES, REQ_VCS};
use rcsim_core::{CircuitMode, MechanismConfig};
use serde::{Deserialize, Serialize};

/// Router ports in a mesh (N/E/S/W/Local).
const PORTS: f64 = 5.0;
/// Flit width in bits.
const FLIT_BITS: f64 = (FLIT_BYTES * 8) as f64;

/// Area units per SRAM buffer bit (the normalization unit).
const SRAM_BIT: f64 = 1.0;
/// Crossbar coefficient: `PORTS² · FLIT_BITS · XBAR_K` makes the crossbar
/// ≈ 28/40 of the baseline buffer area.
const XBAR_K: f64 = 2.8;
/// Allocator area grows with the square of the VC count (the VC allocator
/// arbitrates all input VCs against all output VCs).
const ALLOC_K: f64 = 240.0;
/// Fixed pipeline registers, control, clocking (≈ 20% of baseline).
const OTHER: f64 = 6400.0;
/// Circuit-table bits cost slightly more than buffer SRAM per bit: they
/// are latch-based and searched associatively by circuit key (§4.1).
const TABLE_BIT: f64 = 1.1;
/// Bits of a cache-line address stored per circuit entry (block@).
const BLOCK_ADDR_BITS: f64 = 26.0;
/// Output-port field + built bit.
const ENTRY_CTRL_BITS: f64 = 4.0;
/// Each timed entry needs two countdown counters (§4.7) plus the compare
/// logic, modelled as an equivalent bit count.
const TIMED_BITS_PER_ENTRY: f64 = 34.0;

/// Component-wise router area, in normalized units.
///
/// # Examples
///
/// ```
/// use rcsim_core::MechanismConfig;
/// use rcsim_power::{area_savings, RouterArea};
///
/// let a = RouterArea::for_mechanism(&MechanismConfig::fragmented(), 64);
/// assert!(a.circuit_tables > 0.0);
/// // Fragmented adds a buffered VC: area grows (negative savings).
/// assert!(area_savings(&MechanismConfig::fragmented(), 64) < 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterArea {
    /// Input flit buffers.
    pub buffers: f64,
    /// Crossbar switch.
    pub crossbar: f64,
    /// VC + switch allocators.
    pub allocators: f64,
    /// Circuit-information storage (destID, block@, outport, B bit, and
    /// the timed counters where applicable).
    pub circuit_tables: f64,
    /// Pipeline registers, control and clock overhead.
    pub other: f64,
}

impl RouterArea {
    /// The router area for a mechanism configuration in a chip of
    /// `cores` tiles (the core count fixes the destination-id width).
    pub fn for_mechanism(mechanism: &MechanismConfig, cores: usize) -> Self {
        let reply_vcs = mechanism.reply_vcs() as f64;
        let total_vcs = REQ_VCS as f64 + reply_vcs;
        // Complete circuits remove the buffer from the circuit VC (§4.2).
        let buffered_vcs = if mechanism.circuit_vc_buffered() {
            total_vcs
        } else {
            total_vcs - mechanism.circuit_vcs() as f64
        };
        let buffers = PORTS * buffered_vcs * f64::from(BUFFER_DEPTH) * FLIT_BITS * SRAM_BIT;
        let crossbar = PORTS * PORTS * FLIT_BITS * XBAR_K;
        let allocators = ALLOC_K * total_vcs * total_vcs;

        let entries = match mechanism.mode {
            CircuitMode::None => 0.0,
            // The ideal router is explicitly unimplementable (§4.8); give
            // it the complete router's storage for accounting purposes.
            CircuitMode::Ideal => 5.0,
            _ => mechanism.max_circuits_per_input as f64,
        };
        let dest_bits = (cores.max(2) as f64).log2().ceil();
        let mut entry_bits = dest_bits + BLOCK_ADDR_BITS + ENTRY_CTRL_BITS;
        if mechanism.timed.is_timed() {
            entry_bits += TIMED_BITS_PER_ENTRY;
        }
        let circuit_tables = PORTS * entries * entry_bits * TABLE_BIT;

        RouterArea {
            buffers,
            crossbar,
            allocators,
            circuit_tables,
            other: OTHER,
        }
    }

    /// Total router area.
    pub fn total(&self) -> f64 {
        self.buffers + self.crossbar + self.allocators + self.circuit_tables + self.other
    }

    /// Fraction of the router taken by each component.
    pub fn shares(&self) -> [(&'static str, f64); 5] {
        let t = self.total();
        [
            ("buffers", self.buffers / t),
            ("crossbar", self.crossbar / t),
            ("allocators", self.allocators / t),
            ("circuit_tables", self.circuit_tables / t),
            ("other", self.other / t),
        ]
    }
}

/// Router area savings of a mechanism relative to the baseline router
/// (positive = smaller router), as reported in Table 6.
pub fn area_savings(mechanism: &MechanismConfig, cores: usize) -> f64 {
    let base = RouterArea::for_mechanism(&MechanismConfig::baseline(), cores).total();
    let m = RouterArea::for_mechanism(mechanism, cores).total();
    (base - m) / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_shares_match_dsent_profile() {
        let a = RouterArea::for_mechanism(&MechanismConfig::baseline(), 64);
        let shares = a.shares();
        let pct = |name: &str| {
            shares
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| *s)
                .unwrap()
        };
        assert!(
            (0.35..=0.45).contains(&pct("buffers")),
            "buffers {}",
            pct("buffers")
        );
        assert!((0.22..=0.34).contains(&pct("crossbar")));
        assert!((0.08..=0.16).contains(&pct("allocators")));
        assert_eq!(pct("circuit_tables"), 0.0);
    }

    #[test]
    fn table6_shape_holds() {
        for cores in [16usize, 64] {
            let frag = area_savings(&MechanismConfig::fragmented(), cores);
            let complete = area_savings(&MechanismConfig::complete(), cores);
            let timed = area_savings(&MechanismConfig::timed_noack(), cores);
            assert!(
                frag < -0.10,
                "fragmented grows the router ({frag:.3}, {cores} cores)"
            );
            assert!(
                (0.03..=0.10).contains(&complete),
                "complete saves ~6% ({complete:.3}, {cores} cores)"
            );
            assert!(
                timed > 0.0 && timed < complete,
                "timed saves less than complete ({timed:.3} vs {complete:.3})"
            );
        }
    }

    #[test]
    fn savings_decrease_with_core_count() {
        // Wider destination ids make the tables bigger: 64-core savings are
        // no larger than 16-core savings (matches Table 6).
        let c16 = area_savings(&MechanismConfig::complete(), 16);
        let c64 = area_savings(&MechanismConfig::complete(), 64);
        assert!(c64 <= c16);
        let t16 = area_savings(&MechanismConfig::timed_noack(), 16);
        let t64 = area_savings(&MechanismConfig::timed_noack(), 64);
        assert!(t64 <= t16);
    }

    #[test]
    fn baseline_saves_nothing() {
        assert_eq!(area_savings(&MechanismConfig::baseline(), 64), 0.0);
    }

    #[test]
    fn noack_does_not_change_area() {
        // ACK elimination is a protocol change, not a router change.
        assert_eq!(
            area_savings(&MechanismConfig::complete(), 64),
            area_savings(&MechanismConfig::complete_noack(), 64)
        );
    }
}
