//! The trace instruction format consumed by the core model.

use lnuca_types::Addr;

/// The class of a traced instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Integer ALU operation (1-cycle latency in the core model).
    IntAlu,
    /// Floating-point operation (multi-cycle latency).
    FpAlu,
    /// Data load from `addr`.
    Load,
    /// Data store to `addr`.
    Store,
    /// Conditional branch with the given static identifier and outcome.
    Branch {
        /// Static branch identifier (stands in for the branch PC).
        pc: u64,
        /// Whether the branch is taken.
        taken: bool,
    },
}

impl InstrKind {
    /// Returns `true` for loads.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, InstrKind::Load)
    }

    /// Returns `true` for stores.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, InstrKind::Store)
    }

    /// Returns `true` for loads and stores.
    #[must_use]
    pub fn is_memory(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Returns `true` for branches.
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, InstrKind::Branch { .. })
    }

    /// Returns `true` for floating-point operations.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, InstrKind::FpAlu)
    }
}

/// One traced instruction.
///
/// `dep_distance` expresses register dependencies abstractly: the instruction
/// reads the result of the instruction `dep_distance` positions earlier in
/// the trace (0 means no register dependency). This is how the synthetic
/// traces control the achievable instruction-level parallelism without
/// carrying full register names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Instruction class (and branch outcome for branches).
    pub kind: InstrKind,
    /// Effective address for loads and stores, `None` otherwise.
    pub addr: Option<Addr>,
    /// Distance (in instructions) to the producer of this instruction's
    /// input operand; 0 means the instruction has no in-flight dependency.
    pub dep_distance: u32,
}

impl Instr {
    /// A dependency-free integer ALU instruction (useful in tests).
    #[must_use]
    pub fn int_alu() -> Self {
        Instr {
            kind: InstrKind::IntAlu,
            addr: None,
            dep_distance: 0,
        }
    }

    /// A load from `addr` with no register dependency.
    #[must_use]
    pub fn load(addr: Addr) -> Self {
        Instr {
            kind: InstrKind::Load,
            addr: Some(addr),
            dep_distance: 0,
        }
    }

    /// A store to `addr` with no register dependency.
    #[must_use]
    pub fn store(addr: Addr) -> Self {
        Instr {
            kind: InstrKind::Store,
            addr: Some(addr),
            dep_distance: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(InstrKind::Load.is_load());
        assert!(InstrKind::Load.is_memory());
        assert!(!InstrKind::Load.is_store());
        assert!(InstrKind::Store.is_memory());
        assert!(InstrKind::FpAlu.is_fp());
        assert!(InstrKind::Branch { pc: 3, taken: true }.is_branch());
        assert!(!InstrKind::IntAlu.is_memory());
    }

    #[test]
    fn constructors_fill_fields() {
        let l = Instr::load(Addr(0x40));
        assert_eq!(l.addr, Some(Addr(0x40)));
        assert!(l.kind.is_load());
        let s = Instr::store(Addr(0x80));
        assert!(s.kind.is_store());
        let a = Instr::int_alu();
        assert_eq!(a.addr, None);
        assert_eq!(a.dep_distance, 0);
    }
}
