//! User Location Information (ULI) geo-referencing.
//!
//! Section 3 of the paper: each IP session is "geo-referenced at the level
//! of Base Transceiver Station (BTS), by exploiting the User Location
//! Information (ULI) field present in the PDP Contexts and EPS Bearers over
//! the GPRS Tunneling Protocol control plane (GTP-C)". We model the ULI as
//! a `(tracking area code, E-UTRAN cell id)` pair with a deterministic
//! mapping to antenna ids; resolution rejects inconsistent control-plane
//! records (which real probes do see and must discard).

/// A decoded ULI: tracking area + cell identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Uli {
    /// Tracking Area Code (16-bit in LTE).
    pub tac: u16,
    /// E-UTRAN Cell Identity (28-bit; we use the low 28 bits of a u32).
    pub eci: u32,
}

/// Cells per tracking area in our synthetic numbering plan.
const CELLS_PER_TA: usize = 256;

/// Maps an antenna id to its ULI. The plan packs antennas into tracking
/// areas of `CELLS_PER_TA` (256) cells; the ECI low byte enumerates the cell
/// within the area.
pub fn uli_for_antenna(antenna_id: usize) -> Uli {
    let tac = (antenna_id / CELLS_PER_TA) as u16;
    let within = (antenna_id % CELLS_PER_TA) as u32;
    // eNodeB id in the high bits, cell id in the low byte.
    let eci = ((tac as u32) << 8 | within) & 0x0FFF_FFFF;
    Uli { tac, eci }
}

/// Recovers the antenna id from a ULI, if the ULI belongs to the plan and
/// `n_antennas` bounds the valid id space.
pub fn antenna_for_uli(uli: Uli, n_antennas: usize) -> Option<usize> {
    let within = (uli.eci & 0xFF) as usize;
    let enb = (uli.eci >> 8) as u16;
    if enb != uli.tac {
        return None; // inconsistent TAC/ECI — malformed record
    }
    let id = uli.tac as usize * CELLS_PER_TA + within;
    if id < n_antennas {
        Some(id)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn antenna_round_trip() {
        for id in [0usize, 1, 255, 256, 4761, 10_000] {
            let uli = uli_for_antenna(id);
            assert_eq!(antenna_for_uli(uli, 20_000), Some(id), "id {id}");
        }
    }

    #[test]
    fn out_of_population_is_none() {
        let uli = uli_for_antenna(5000);
        assert_eq!(antenna_for_uli(uli, 4762), None);
    }

    #[test]
    fn inconsistent_tac_rejected() {
        let mut uli = uli_for_antenna(300);
        uli.tac = 0; // now ECI says eNodeB 1 but TAC says 0
        assert_eq!(antenna_for_uli(uli, 4762), None);
    }

    #[test]
    fn distinct_antennas_distinct_ulis() {
        use std::collections::HashSet;
        let ulis: HashSet<Uli> = (0..5000).map(uli_for_antenna).collect();
        assert_eq!(ulis.len(), 5000);
    }
}
