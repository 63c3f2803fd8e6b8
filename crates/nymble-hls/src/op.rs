//! Datapath operator classes: latencies and per-instance hardware costs.
//!
//! Latencies approximate Intel Stratix 10 hardened/soft operator pipelines at
//! the ~150 MHz the paper's designs close timing at (§V-B). The absolute
//! values matter less than their ratios: a single-precision adder is several
//! cycles deep (driving the recurrence II of reduction loops), multiplies are
//! DSP-mapped, and external memory has a large, variable latency — only its
//! scheduler-assumed *minimum* appears here.

use nymble_ir::{BinOp, ScalarType, UnOp};

/// Functional class of a datapath operator instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer add/sub/logic/compare/select (ALM logic).
    IntAlu,
    /// Integer multiply (DSP block).
    IntMul,
    /// Integer divide/modulo (iterative soft divider).
    IntDiv,
    /// Floating-point add/sub (DSP in FP mode).
    FAdd,
    /// Floating-point multiply.
    FMul,
    /// Floating-point divide.
    FDiv,
    /// Floating-point square root.
    FSqrt,
    /// Type conversion.
    Cast,
    /// External (DRAM) load — variable latency; value is the scheduler's
    /// assumed minimum (§III-B).
    ExtLoad,
    /// External (DRAM) store — posted write.
    ExtStore,
    /// Local BRAM load.
    LocalLoad,
    /// Local BRAM store.
    LocalStore,
    /// Inner (nested, non-unrolled) loop embedded as one VLO node.
    InnerLoop,
    /// Critical section: semaphore acquire + body + release, as one VLO.
    CriticalRegion,
    /// Preloader burst (DMA descriptor issue).
    Burst,
}

impl OpClass {
    /// Scheduler latency in cycles (minimum for VLOs), from the table
    /// perf-lint prices recurrences with ([`nymble_lint::deps::latency`]).
    pub const fn latency(self) -> u32 {
        use nymble_lint::deps::latency as l;
        (match self {
            OpClass::IntAlu => l::INT_ALU,
            OpClass::IntMul => l::INT_MUL,
            OpClass::IntDiv => l::INT_DIV,
            OpClass::FAdd => l::F_ADD,
            OpClass::FMul => l::F_MUL,
            OpClass::FDiv => l::F_DIV,
            OpClass::FSqrt => l::F_SQRT,
            OpClass::Cast => l::CAST,
            OpClass::ExtLoad => l::EXT_LOAD,
            OpClass::ExtStore => l::EXT_STORE,
            OpClass::LocalLoad => l::LOCAL_LOAD,
            OpClass::LocalStore => l::LOCAL_STORE,
            OpClass::InnerLoop => 8,
            OpClass::CriticalRegion => 12,
            OpClass::Burst => 4,
        }) as u32
    }

    /// Whether the runtime delay can exceed [`Self::latency`] (variable
    /// latency operation → its stage becomes a reordering stage).
    pub const fn is_vlo(self) -> bool {
        matches!(
            self,
            OpClass::ExtLoad
                | OpClass::ExtStore
                | OpClass::InnerLoop
                | OpClass::CriticalRegion
                | OpClass::Burst
        )
    }

    /// Which shared resource pool an instance occupies each initiation.
    pub const fn resource(self) -> Resource {
        match self {
            OpClass::ExtLoad | OpClass::Burst => Resource::MemRead,
            OpClass::ExtStore => Resource::MemWrite,
            OpClass::LocalLoad | OpClass::LocalStore => Resource::LocalPort,
            OpClass::FAdd | OpClass::FMul | OpClass::FDiv | OpClass::FSqrt => Resource::Fpu,
            OpClass::IntMul | OpClass::IntDiv => Resource::IntMulDiv,
            _ => Resource::Logic,
        }
    }

    /// Per-instance area cost `(alms, registers, dsps)` for a 32-bit
    /// operator; the caller scales by width/lanes.
    pub const fn area(self) -> (u32, u32, u32) {
        match self {
            OpClass::IntAlu => (32, 33, 0),
            OpClass::IntMul => (20, 96, 2),
            OpClass::IntDiv => (380, 420, 0),
            OpClass::FAdd => (120, 180, 1),
            OpClass::FMul => (60, 140, 2),
            OpClass::FDiv => (900, 1_350, 4),
            OpClass::FSqrt => (850, 1_250, 2),
            OpClass::Cast => (16, 33, 0),
            OpClass::ExtLoad => (150, 260, 0),
            OpClass::ExtStore => (110, 190, 0),
            OpClass::LocalLoad => (24, 70, 0),
            OpClass::LocalStore => (20, 55, 0),
            OpClass::InnerLoop => (90, 120, 0),
            OpClass::CriticalRegion => (140, 160, 0),
            OpClass::Burst => (170, 240, 0),
        }
    }
}

/// Shared resource pools constraining the initiation interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Avalon read port (one per hardware thread, §IV-B.2c).
    MemRead,
    /// Avalon write port (one per hardware thread).
    MemWrite,
    /// Local BRAM port pair.
    LocalPort,
    /// Floating-point unit pool.
    Fpu,
    /// Integer multiply/divide pool.
    IntMulDiv,
    /// Plain ALM logic — effectively unconstrained.
    Logic,
}

/// Classify a binary operation into an operator class.
pub fn classify_binop(op: BinOp, operand: ScalarType) -> OpClass {
    if op.is_comparison() {
        return OpClass::IntAlu;
    }
    match (operand.is_float(), op) {
        (true, BinOp::Mul) => OpClass::FMul,
        (true, BinOp::Div | BinOp::Rem) => OpClass::FDiv,
        (true, _) => OpClass::FAdd,
        (false, BinOp::Mul) => OpClass::IntMul,
        (false, BinOp::Div | BinOp::Rem) => OpClass::IntDiv,
        (false, _) => OpClass::IntAlu,
    }
}

/// Classify a unary operation.
pub fn classify_unop(op: UnOp, operand: ScalarType) -> OpClass {
    match (operand.is_float(), op) {
        (true, UnOp::Sqrt) => OpClass::FSqrt,
        (true, _) => OpClass::FAdd,
        (false, UnOp::Sqrt) => OpClass::IntDiv,
        (false, _) => OpClass::IntAlu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_recurrence_comes_from_fadd() {
        // The naive GEMM `sum += a*b` recurrence is limited by FAdd latency.
        assert!(OpClass::FAdd.latency() >= 3);
        assert!(!OpClass::FAdd.is_vlo());
    }

    #[test]
    fn vlos_are_memory_and_regions() {
        assert!(OpClass::ExtLoad.is_vlo());
        assert!(OpClass::InnerLoop.is_vlo());
        assert!(OpClass::CriticalRegion.is_vlo());
        assert!(!OpClass::LocalLoad.is_vlo(), "BRAM is fixed latency");
    }

    #[test]
    fn classification() {
        assert_eq!(classify_binop(BinOp::Mul, ScalarType::F32), OpClass::FMul);
        assert_eq!(classify_binop(BinOp::Add, ScalarType::I64), OpClass::IntAlu);
        assert_eq!(
            classify_binop(BinOp::Lt, ScalarType::F32),
            OpClass::IntAlu,
            "comparisons map to integer compare units"
        );
        assert_eq!(classify_unop(UnOp::Sqrt, ScalarType::F32), OpClass::FSqrt);
    }

    #[test]
    fn memory_ops_use_per_thread_ports() {
        assert_eq!(OpClass::ExtLoad.resource(), Resource::MemRead);
        assert_eq!(OpClass::ExtStore.resource(), Resource::MemWrite);
    }

    /// The latencies are one table, but `nymble-lint` (below this crate)
    /// classifies operators itself: both sides must classify alike.
    #[test]
    fn lint_latency_mirror_agrees() {
        // Classification agreement, over every BinOp/UnOp × float/int.
        use nymble_ir::{BinOp, UnOp};
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Rem,
            BinOp::Min,
            BinOp::Max,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ] {
            for (st, fl) in [(ScalarType::F32, true), (ScalarType::I64, false)] {
                assert_eq!(
                    nymble_lint::deps::binop_latency(op, fl),
                    u64::from(classify_binop(op, st).latency()),
                    "{op:?} {st:?}"
                );
            }
        }
        for op in [UnOp::Neg, UnOp::Not, UnOp::Abs, UnOp::Sqrt] {
            for (st, fl) in [(ScalarType::F32, true), (ScalarType::I64, false)] {
                assert_eq!(
                    nymble_lint::deps::unop_latency(op, fl),
                    u64::from(classify_unop(op, st).latency()),
                    "{op:?} {st:?}"
                );
            }
        }
    }
}
