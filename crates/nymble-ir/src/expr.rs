//! Expression arena.
//!
//! Expressions are stored in a per-kernel arena ([`crate::Kernel::exprs`]) and
//! referenced by [`ExprId`]. The arena form is what the HLS scheduler lowers
//! into dataflow-graph nodes: every `Binary`/`Unary`/`LoadExt`/… node becomes
//! a datapath operator with a latency and a resource class.

use crate::kernel::{ArgId, LocalMemId, VarId};
use crate::types::{ScalarType, Type, Value};

/// Index of an expression in the kernel's expression arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Binary operators. Integer and floating-point flavours are distinguished by
/// the operand type, not the opcode (as in LLVM IR before instruction
/// selection); the scheduler assigns latencies accordingly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl BinOp {
    /// Comparison operators produce an `I32` boolean regardless of operand type.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
    Abs,
    Sqrt,
}

/// One node in the expression arena.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Compile-time constant.
    Const(Value),
    /// Read of a scalar kernel argument (bound at launch, e.g. `DIM`).
    Arg(ArgId),
    /// `omp_get_thread_num()` — hardware thread id, hardwired per context.
    ThreadId,
    /// `omp_get_num_threads()` — the accelerator's hardware thread count.
    NumThreads,
    /// Read of a thread-local variable (loop induction variable, accumulator…).
    Var(VarId),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation. Lane-wise for vectors.
    Binary(BinOp, ExprId, ExprId),
    /// `cond ? a : b`, lowered to a datapath multiplexer.
    Select {
        cond: ExprId,
        then_v: ExprId,
        else_v: ExprId,
    },
    /// Scalar type conversion.
    Cast(ScalarType, ExprId),
    /// Load of `ty` from an external (DRAM) buffer argument at an element
    /// index; with `ty.lanes > 1` this is the paper's vectorized 128-bit
    /// access (`*((VECTOR*)&A[...])`). A variable-latency operation.
    LoadExt { buf: ArgId, index: ExprId, ty: Type },
    /// Load from an on-chip local memory (BRAM); fixed low latency.
    LoadLocal {
        mem: LocalMemId,
        index: ExprId,
        ty: Type,
    },
    /// Extract lane `lane` of a vector expression.
    Lane(ExprId, u8),
    /// Broadcast a scalar into a `lanes`-wide vector.
    Splat(ExprId, u8),
}

impl Expr {
    /// Children of this node, for generic traversal: at most three, so the
    /// iterator lives on the stack and a tree walk allocates nothing.
    pub fn children(&self) -> impl ExactSizeIterator<Item = ExprId> {
        let none = ExprId(0);
        let (ids, n) = match self {
            Expr::Const(_) | Expr::Arg(_) | Expr::ThreadId | Expr::NumThreads | Expr::Var(_) => {
                ([none; 3], 0)
            }
            Expr::Unary(_, a)
            | Expr::Cast(_, a)
            | Expr::Lane(a, _)
            | Expr::Splat(a, _)
            | Expr::LoadExt { index: a, .. }
            | Expr::LoadLocal { index: a, .. } => ([*a, none, none], 1),
            Expr::Binary(_, a, b) => ([*a, *b, none], 2),
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => ([*cond, *then_v, *else_v], 3),
        };
        ids.into_iter().take(n)
    }

    /// True for operations whose delay cannot be statically bounded
    /// (variable-latency operations, §III-B): external memory accesses.
    pub fn is_vlo(&self) -> bool {
        matches!(self, Expr::LoadExt { .. })
    }
}

/// Evaluate a binary operation on two scalar values. Comparison results are
/// `I32` 0/1; arithmetic follows the operand scalar type.
pub fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Value {
    // Lane-wise vector handling first.
    if let (Value::Vec(va), Value::Vec(vb)) = (a, b) {
        assert_eq!(va.len(), vb.len(), "vector width mismatch in {op:?}");
        let lanes: Vec<Value> = va
            .iter()
            .zip(vb.iter())
            .map(|(x, y)| eval_binop(op, x, y))
            .collect();
        return Value::Vec(lanes.into_boxed_slice());
    }
    let ty = a.ty().scalar;
    if op.is_comparison() {
        let r = if ty.is_float() {
            let (x, y) = (a.as_f64(), b.as_f64());
            match op {
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                _ => unreachable!(),
            }
        } else {
            let (x, y) = (a.as_i64(), b.as_i64());
            match op {
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                _ => unreachable!(),
            }
        };
        return Value::I32(r as i32);
    }
    if ty.is_float() {
        // f32 math is performed in f32 to reproduce the paper's
        // single-precision behaviour (including the π-study instability).
        if ty == ScalarType::F32 {
            let (x, y) = (
                match a {
                    Value::F32(v) => *v,
                    _ => a.as_f64() as f32,
                },
                match b {
                    Value::F32(v) => *v,
                    _ => b.as_f64() as f32,
                },
            );
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => panic!("bitwise op {op:?} on float"),
            };
            Value::F32(r)
        } else {
            let (x, y) = (a.as_f64(), b.as_f64());
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Rem => x % y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                _ => panic!("bitwise op {op:?} on float"),
            };
            Value::F64(r)
        }
    } else {
        let (x, y) = (a.as_i64(), b.as_i64());
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_div(y)
                }
            }
            BinOp::Rem => {
                if y == 0 {
                    0
                } else {
                    x.wrapping_rem(y)
                }
            }
            BinOp::Min => x.min(y),
            BinOp::Max => x.max(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32),
            BinOp::Shr => x.wrapping_shr(y as u32),
            _ => unreachable!(),
        };
        Value::from_i64(ty, r)
    }
}

/// Evaluate a unary operation.
pub fn eval_unop(op: UnOp, a: &Value) -> Value {
    if let Value::Vec(va) = a {
        let lanes: Vec<Value> = va.iter().map(|x| eval_unop(op, x)).collect();
        return Value::Vec(lanes.into_boxed_slice());
    }
    let ty = a.ty().scalar;
    if ty.is_float() {
        let x = a.as_f64();
        let r = match op {
            UnOp::Neg => -x,
            UnOp::Abs => x.abs(),
            UnOp::Sqrt => x.sqrt(),
            UnOp::Not => panic!("bitwise not on float"),
        };
        if ty == ScalarType::F32 {
            Value::F32(r as f32)
        } else {
            Value::F64(r)
        }
    } else {
        let x = a.as_i64();
        let r = match op {
            UnOp::Neg => x.wrapping_neg(),
            UnOp::Abs => x.abs(),
            UnOp::Not => !x,
            UnOp::Sqrt => (x as f64).sqrt() as i64,
        };
        Value::from_i64(ty, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_arithmetic() {
        assert_eq!(
            eval_binop(BinOp::Add, &Value::I32(2), &Value::I32(3)),
            Value::I32(5)
        );
        assert_eq!(
            eval_binop(BinOp::Mul, &Value::I64(-4), &Value::I64(4)),
            Value::I64(-16)
        );
        // Division by zero is defined as 0 (hardware divider quiet output).
        assert_eq!(
            eval_binop(BinOp::Div, &Value::I32(1), &Value::I32(0)),
            Value::I32(0)
        );
    }

    #[test]
    fn float_arithmetic_stays_f32() {
        let r = eval_binop(BinOp::Div, &Value::F32(4.0), &Value::F32(1.0 + 0.5));
        assert_eq!(r, Value::F32(4.0 / 1.5f32));
    }

    #[test]
    fn comparisons_yield_i32() {
        assert_eq!(
            eval_binop(BinOp::Lt, &Value::F32(1.0), &Value::F32(2.0)),
            Value::I32(1)
        );
        assert_eq!(
            eval_binop(BinOp::Ge, &Value::I32(1), &Value::I32(2)),
            Value::I32(0)
        );
    }

    #[test]
    fn vector_lanewise() {
        let a = Value::Vec(vec![Value::F32(1.0), Value::F32(2.0)].into_boxed_slice());
        let b = Value::Vec(vec![Value::F32(10.0), Value::F32(20.0)].into_boxed_slice());
        let r = eval_binop(BinOp::Add, &a, &b);
        assert_eq!(r.lane(0), &Value::F32(11.0));
        assert_eq!(r.lane(1), &Value::F32(22.0));
    }

    #[test]
    fn unops() {
        assert_eq!(eval_unop(UnOp::Neg, &Value::I32(5)), Value::I32(-5));
        assert_eq!(eval_unop(UnOp::Sqrt, &Value::F64(9.0)), Value::F64(3.0));
        assert_eq!(eval_unop(UnOp::Not, &Value::I32(0)), Value::I32(-1));
    }

    #[test]
    fn vlo_classification() {
        let load = Expr::LoadExt {
            buf: ArgId(0),
            index: ExprId(0),
            ty: Type::F32,
        };
        assert!(load.is_vlo());
        let ll = Expr::LoadLocal {
            mem: LocalMemId(0),
            index: ExprId(0),
            ty: Type::F32,
        };
        assert!(!ll.is_vlo());
    }
}
