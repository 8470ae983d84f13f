//! Comparison machines for Tables 1 and 3.
//!
//! The paper compares the J-Machine against contemporary multicomputers
//! using published measurements (its references [6], [7], [14], [17]).
//! Those machines cannot be rebuilt here, so — per the substitution policy
//! in `DESIGN.md` — each is modelled by the published cost constants; the
//! J-Machine rows of both tables are always *measured* from the simulator,
//! never taken from these constants.

/// A software-messaging overhead model: the two-parameter cost model of
/// Table 1 (fixed per-message overhead plus per-byte injection cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessagingModel {
    /// Machine name as printed.
    pub name: &'static str,
    /// Fixed one-way overhead, microseconds (`T_o`).
    pub us_per_msg: f64,
    /// Per-byte overhead, microseconds (`T_b`).
    pub us_per_byte: f64,
    /// Clock used to convert to cycles in the table.
    pub clock_mhz: f64,
}

impl MessagingModel {
    /// Overhead in cycles per message.
    pub fn cycles_per_msg(&self) -> f64 {
        self.us_per_msg * self.clock_mhz
    }

    /// Overhead in cycles per byte.
    pub fn cycles_per_byte(&self) -> f64 {
        self.us_per_byte * self.clock_mhz
    }
}

/// Table 1's comparison rows (vendor libraries and Active Messages).
pub fn table1_models() -> Vec<MessagingModel> {
    vec![
        MessagingModel {
            name: "nCUBE/2 (Vendor)",
            us_per_msg: 160.0,
            us_per_byte: 0.45,
            clock_mhz: 20.0,
        },
        MessagingModel {
            name: "CM-5 (Vendor)",
            us_per_msg: 86.0,
            us_per_byte: 0.12,
            clock_mhz: 33.0,
        },
        MessagingModel {
            name: "DELTA (Vendor)",
            us_per_msg: 72.0,
            us_per_byte: 0.08,
            clock_mhz: 40.0,
        },
        MessagingModel {
            name: "nCUBE/2 (Active)",
            us_per_msg: 23.0,
            us_per_byte: 0.45,
            clock_mhz: 20.0,
        },
        MessagingModel {
            name: "CM-5 (Active)",
            us_per_msg: 3.3,
            us_per_byte: 0.12,
            clock_mhz: 33.0,
        },
    ]
}

/// A software-barrier cost model: published microseconds per barrier at
/// power-of-two machine sizes (Table 3; the paper's references [6], [7],
/// [14]).
#[derive(Debug, Clone, PartialEq)]
pub struct BarrierModel {
    /// Machine name as printed.
    pub name: &'static str,
    /// `(nodes, microseconds)` pairs as published.
    pub points: Vec<(u32, f64)>,
}

impl BarrierModel {
    /// Published value at a machine size, if reported.
    pub fn at(&self, nodes: u32) -> Option<f64> {
        self.points
            .iter()
            .find(|(n, _)| *n == nodes)
            .map(|(_, us)| *us)
    }
}

/// Table 3's comparison columns.
pub fn table3_models() -> Vec<BarrierModel> {
    vec![
        BarrierModel {
            name: "EM4",
            points: vec![(2, 2.7), (4, 3.6), (8, 4.7), (16, 5.4), (64, 7.4)],
        },
        BarrierModel {
            name: "KSR",
            points: vec![(2, 60.0), (4, 90.0), (8, 180.0), (16, 260.0), (32, 525.0)],
        },
        BarrierModel {
            name: "iPSC/860",
            points: vec![
                (2, 111.0),
                (4, 234.0),
                (8, 381.0),
                (16, 546.0),
                (32, 692.0),
                (64, 847.0),
            ],
        },
        BarrierModel {
            name: "Delta",
            points: vec![
                (2, 109.0),
                (4, 248.0),
                (8, 473.0),
                (16, 923.0),
                (32, 1816.0),
                (64, 3587.0),
            ],
        },
    ]
}

/// The paper's measured J-Machine barrier times (for paper-vs-measured
/// reporting only).
pub fn paper_jmachine_barrier() -> Vec<(u32, f64)> {
    vec![
        (2, 4.4),
        (4, 6.5),
        (8, 8.7),
        (16, 11.7),
        (32, 14.4),
        (64, 16.5),
        (128, 20.7),
        (256, 24.4),
        (512, 27.4),
    ]
}

/// The paper's Table 1 J-Machine row (for paper-vs-measured reporting).
pub fn paper_jmachine_overhead() -> (f64, f64) {
    (0.9, 0.04) // µs/msg, µs/byte
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_cycles_match_table1() {
        let ncube = &table1_models()[0];
        assert!((ncube.cycles_per_msg() - 3200.0).abs() < 1.0);
        assert!((ncube.cycles_per_byte() - 9.0).abs() < 0.1);
        let cm5 = &table1_models()[1];
        assert!((cm5.cycles_per_msg() - 2838.0).abs() < 1.0);
    }

    #[test]
    fn barrier_lookup() {
        let em4 = &table3_models()[0];
        assert_eq!(em4.at(8), Some(4.7));
        assert_eq!(em4.at(128), None);
    }
}
