//! Loop-carried dependence detection and the static latency model.
//!
//! The scheduler in `nymble-hls` derives a pipelined loop's recurrence
//! initiation interval from carried dataflow edges (`finish[def] −
//! start[use]`). This module re-derives the same bound *symbolically* on
//! the IR, without compiling: a recurrence exists when the last assignment
//! to a variable in a loop body transitively reads the variable's carried
//! value, and its latency is the operator-chain depth along that path.
//!
//! The operator latency table lives here, below `nymble-hls` (the HLS
//! crate gates compiles *through* the linter): `OpClass::latency` returns
//! these constants. The linter classifies operators itself, and a test on
//! the `nymble-hls` side checks both sides classify every operator alike.

use nymble_ir::{BinOp, Expr, ExprId, Kernel, Stmt, UnOp, VarId};
use std::collections::HashMap;

/// Operator latencies in cycles: the table `nymble_hls::op::OpClass::latency`
/// schedules with.
pub mod latency {
    pub const INT_ALU: u64 = 1;
    pub const INT_MUL: u64 = 3;
    pub const INT_DIV: u64 = 16;
    pub const F_ADD: u64 = 4;
    pub const F_MUL: u64 = 4;
    pub const F_DIV: u64 = 14;
    pub const F_SQRT: u64 = 14;
    pub const CAST: u64 = 1;
    pub const EXT_LOAD: u64 = 8;
    pub const EXT_STORE: u64 = 1;
    pub const LOCAL_LOAD: u64 = 2;
    pub const LOCAL_STORE: u64 = 1;
}

/// Is the expression's value floating point? Mirrors the type derivation
/// the DFG lowering uses to classify operators (comparisons are integer).
pub(crate) fn expr_float(k: &Kernel, e: ExprId) -> bool {
    match k.expr(e) {
        Expr::Const(v) => v.ty().scalar.is_float(),
        Expr::Arg(a) => match k.arg(*a).kind {
            nymble_ir::ArgKind::Scalar(st) => st.is_float(),
            nymble_ir::ArgKind::Buffer { elem, .. } => elem.is_float(),
        },
        Expr::ThreadId | Expr::NumThreads => false,
        Expr::Var(v) => k.var(*v).ty.scalar.is_float(),
        Expr::Unary(_, a) => expr_float(k, *a),
        Expr::Binary(op, a, b) => {
            if op.is_comparison() {
                false
            } else {
                expr_float(k, *a) || expr_float(k, *b)
            }
        }
        Expr::Select { then_v, else_v, .. } => expr_float(k, *then_v) || expr_float(k, *else_v),
        Expr::Cast(ty, _) => ty.is_float(),
        Expr::LoadExt { ty, .. } | Expr::LoadLocal { ty, .. } => ty.scalar.is_float(),
        Expr::Lane(a, _) | Expr::Splat(a, _) => expr_float(k, *a),
    }
}

/// Latency of a binary operator on the given operand float-ness (the
/// classification of `nymble_hls::op::classify_binop`).
pub fn binop_latency(op: BinOp, float: bool) -> u64 {
    use latency::*;
    if op.is_comparison() {
        return INT_ALU;
    }
    match (float, op) {
        (true, BinOp::Mul) => F_MUL,
        (true, BinOp::Div | BinOp::Rem) => F_DIV,
        (true, _) => F_ADD,
        (false, BinOp::Mul) => INT_MUL,
        (false, BinOp::Div | BinOp::Rem) => INT_DIV,
        (false, _) => INT_ALU,
    }
}

/// Latency of a unary operator (the classification of
/// `nymble_hls::op::classify_unop`).
pub fn unop_latency(op: UnOp, float: bool) -> u64 {
    use latency::*;
    match (float, op) {
        (true, UnOp::Sqrt) => F_SQRT,
        (true, _) => F_ADD,
        (false, UnOp::Sqrt) => INT_DIV,
        (false, _) => INT_ALU,
    }
}

/// Latency contributed by the operator at expression node `e` itself
/// (its output delay relative to its inputs); leaves cost 0.
pub(crate) fn node_latency(k: &Kernel, e: ExprId) -> u64 {
    match k.expr(e) {
        Expr::Unary(op, a) => unop_latency(*op, expr_float(k, *a)),
        Expr::Binary(op, a, b) => binop_latency(*op, expr_float(k, *a) || expr_float(k, *b)),
        Expr::Cast(..) => latency::CAST,
        Expr::Select { .. } => latency::INT_ALU,
        Expr::LoadExt { .. } => latency::EXT_LOAD,
        Expr::LoadLocal { .. } => latency::LOCAL_LOAD,
        _ => 0,
    }
}

/// Total operator latency of the whole expression tree (an upper bound on
/// the critical path; used for pipeline depth estimates).
pub(crate) fn expr_chain_latency(k: &Kernel, e: ExprId) -> u64 {
    let deepest = k
        .expr(e)
        .children()
        .map(|c| expr_chain_latency(k, c))
        .max()
        .unwrap_or(0);
    deepest + node_latency(k, e)
}

/// One detected loop-carried dependence.
#[derive(Clone, Debug, PartialEq)]
pub struct Recurrence {
    /// Variable (or memory) the value is carried through.
    pub name: String,
    /// Operator-chain latency from the carried use to the new definition —
    /// a lower bound on the loop's initiation interval.
    pub latency: u64,
    /// Carried through a local/external memory rather than a register.
    pub through_memory: bool,
}

/// Latency distance of an expression from the carried value: `Some(d)`
/// when evaluating `e` reads (directly or transitively) a variable whose
/// entry in `dist` is `Some`, where `d` includes the operators between
/// the carried read and `e`'s output.
fn expr_dist(k: &Kernel, e: ExprId, dist: &HashMap<VarId, Option<u64>>) -> Option<u64> {
    match k.expr(e) {
        Expr::Var(v) => dist.get(v).copied().flatten(),
        Expr::Const(_) | Expr::Arg(_) | Expr::ThreadId | Expr::NumThreads => None,
        other => {
            let through = other
                .children()
                .filter_map(|c| expr_dist(k, c, dist))
                .max()?;
            Some(through + node_latency(k, e))
        }
    }
}

/// Structural equality of two expression trees (same shape and leaves).
fn same_expr(k: &Kernel, a: ExprId, b: ExprId) -> bool {
    if a == b {
        return true;
    }
    match (k.expr(a), k.expr(b)) {
        (Expr::Const(x), Expr::Const(y)) => x == y,
        (Expr::Arg(x), Expr::Arg(y)) => x == y,
        (Expr::ThreadId, Expr::ThreadId) | (Expr::NumThreads, Expr::NumThreads) => true,
        (Expr::Var(x), Expr::Var(y)) => x == y,
        (Expr::Unary(ox, x), Expr::Unary(oy, y)) => ox == oy && same_expr(k, *x, *y),
        (Expr::Binary(ox, xa, xb), Expr::Binary(oy, ya, yb)) => {
            ox == oy && same_expr(k, *xa, *ya) && same_expr(k, *xb, *yb)
        }
        (Expr::Cast(tx, x), Expr::Cast(ty, y)) => tx == ty && same_expr(k, *x, *y),
        (
            Expr::Select {
                cond: cx,
                then_v: tx,
                else_v: ex,
            },
            Expr::Select {
                cond: cy,
                then_v: ty,
                else_v: ey,
            },
        ) => same_expr(k, *cx, *cy) && same_expr(k, *tx, *ty) && same_expr(k, *ex, *ey),
        (
            Expr::LoadExt {
                buf: bx, index: ix, ..
            },
            Expr::LoadExt {
                buf: by, index: iy, ..
            },
        ) => bx == by && same_expr(k, *ix, *iy),
        (
            Expr::LoadLocal {
                mem: mx, index: ix, ..
            },
            Expr::LoadLocal {
                mem: my, index: iy, ..
            },
        ) => mx == my && same_expr(k, *ix, *iy),
        (Expr::Lane(x, lx), Expr::Lane(y, ly)) => lx == ly && same_expr(k, *x, *y),
        (Expr::Splat(x, lx), Expr::Splat(y, ly)) => lx == ly && same_expr(k, *x, *y),
        _ => false,
    }
}

/// Latency of the path from node `needle` (matched structurally against a
/// load) to the root of `root`'s tree, `None` if unreachable.
fn path_latency_from_load(
    k: &Kernel,
    root: ExprId,
    is_needle: &impl Fn(&Kernel, ExprId) -> bool,
) -> Option<u64> {
    if is_needle(k, root) {
        return Some(0);
    }
    let through = k
        .expr(root)
        .children()
        .filter_map(|c| path_latency_from_load(k, c, is_needle))
        .max()?;
    Some(through + node_latency(k, root))
}

/// Collect the variables assigned anywhere in a (flattened) loop body.
fn assigned_vars(body: &[Stmt], out: &mut Vec<VarId>) {
    for s in body {
        match s {
            Stmt::Assign { var, .. } if !out.contains(var) => out.push(*var),
            Stmt::If { then_b, else_b, .. } => {
                assigned_vars(then_b, out);
                assigned_vars(else_b, out);
            }
            Stmt::For { body, .. } | Stmt::Critical { body } => assigned_vars(body, out),
            _ => {}
        }
    }
}

/// Run one ordered pass over the body tracking each variable's latency
/// distance from `target`'s carried value. An assignment *overwrites* the
/// distance (a kill when the value no longer depends on the carry).
fn carry_pass(k: &Kernel, body: &[Stmt], dist: &mut HashMap<VarId, Option<u64>>) {
    for s in body {
        match s {
            Stmt::Assign { var, expr } => {
                let d = expr_dist(k, *expr, dist);
                dist.insert(*var, d);
            }
            Stmt::If { then_b, else_b, .. } => {
                // Either branch may or may not run: merge conservatively,
                // keeping the longest surviving carry distance.
                let mut dt = dist.clone();
                let mut de = dist.clone();
                carry_pass(k, then_b, &mut dt);
                carry_pass(k, else_b, &mut de);
                let keys: Vec<VarId> = dist
                    .keys()
                    .chain(dt.keys())
                    .chain(de.keys())
                    .copied()
                    .collect();
                for v in keys {
                    let m = [dist.get(&v), dt.get(&v), de.get(&v)]
                        .into_iter()
                        .flatten()
                        .filter_map(|o| *o)
                        .max();
                    dist.insert(v, m);
                }
            }
            // Nested loops/criticals are their own scheduling regions; the
            // enclosing loop is not pipelined then, so stay conservative
            // and treat their assignments as opaque kills of nothing.
            Stmt::For { .. } | Stmt::Critical { .. } => {}
            _ => {}
        }
    }
}

/// Detect loop-carried dependences in `body` (the body of a candidate
/// pipelined loop): register recurrences (`acc = f(acc, …)`, possibly via
/// intermediate variables) and memory recurrences (a store whose value
/// reads the same element it overwrites).
pub fn body_recurrences(k: &Kernel, body: &[Stmt]) -> Vec<Recurrence> {
    let mut out = Vec::new();

    // Register recurrences: seed the target's distance at 0, run the body
    // once in order; a surviving positive distance on the target after the
    // full pass is a carried chain whose latency bounds the II.
    let mut targets = Vec::new();
    assigned_vars(body, &mut targets);
    for v in targets {
        let mut dist: HashMap<VarId, Option<u64>> = HashMap::new();
        dist.insert(v, Some(0));
        carry_pass(k, body, &mut dist);
        if let Some(Some(lat)) = dist.get(&v) {
            if *lat >= 1 {
                out.push(Recurrence {
                    name: k.var(v).name.clone(),
                    latency: *lat,
                    through_memory: false,
                });
            }
        }
    }

    // Memory recurrences: a store whose stored value loads the same
    // element of the same memory. The carried path runs load → operators
    // → store, so its latency includes both memory endpoints.
    fn scan_stores(k: &Kernel, body: &[Stmt], out: &mut Vec<Recurrence>) {
        for s in body {
            match s {
                Stmt::StoreLocal { mem, index, value } => {
                    let needle = |k: &Kernel, e: ExprId| {
                        matches!(k.expr(e), Expr::LoadLocal { mem: m, index: i, .. }
                            if m == mem && same_expr(k, *i, *index))
                    };
                    if let Some(p) = path_latency_from_load(k, *value, &needle) {
                        out.push(Recurrence {
                            name: k.local_mem(*mem).name.clone(),
                            latency: latency::LOCAL_LOAD + p + latency::LOCAL_STORE,
                            through_memory: true,
                        });
                    }
                }
                Stmt::StoreExt { buf, index, value } => {
                    let needle = |k: &Kernel, e: ExprId| {
                        matches!(k.expr(e), Expr::LoadExt { buf: b, index: i, .. }
                            if b == buf && same_expr(k, *i, *index))
                    };
                    if let Some(p) = path_latency_from_load(k, *value, &needle) {
                        out.push(Recurrence {
                            name: k.arg(*buf).name.clone(),
                            latency: latency::EXT_LOAD + p + latency::EXT_STORE,
                            through_memory: true,
                        });
                    }
                }
                Stmt::If { then_b, else_b, .. } => {
                    scan_stores(k, then_b, out);
                    scan_stores(k, else_b, out);
                }
                _ => {}
            }
        }
    }
    scan_stores(k, body, &mut out);
    out.sort_by(|a, b| b.latency.cmp(&a.latency).then(a.name.cmp(&b.name)));
    out
}

/// Largest recurrence-implied II of a body (1 when no recurrence).
pub fn recurrence_ii(k: &Kernel, body: &[Stmt]) -> u64 {
    body_recurrences(k, body)
        .first()
        .map(|r| r.latency)
        .unwrap_or(1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    fn loop_body(k: &Kernel) -> &[Stmt] {
        match &k.body[..] {
            [Stmt::For { body, .. }, ..] => body,
            other => panic!("expected leading loop, got {other:?}"),
        }
    }

    #[test]
    fn fadd_fmul_chain_recurrence() {
        // acc = (acc + A[i]) * c — carried chain FAdd + FMul = 8.
        let mut kb = KernelBuilder::new("rec", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc = kb.var("acc", Type::F32);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            let c = kb.c_f32(1.5);
            let m = kb.mul(s, c);
            kb.set(acc, m);
        });
        let k = kb.finish();
        let recs = body_recurrences(&k, loop_body(&k));
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!(recs[0].name, "acc");
        assert_eq!(recs[0].latency, latency::F_ADD + latency::F_MUL);
        assert!(!recs[0].through_memory);
        assert_eq!(recurrence_ii(&k, loop_body(&k)), 8);
    }

    #[test]
    fn overwritten_temp_is_not_a_recurrence() {
        // t = A[i]; C[i] = t — t is assigned fresh each iteration.
        let mut kb = KernelBuilder::new("fresh", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::From);
        let t = kb.var("t", Type::F32);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            kb.set(t, v);
            let cur = kb.get(t);
            kb.store(c, i, cur);
        });
        let k = kb.finish();
        assert!(body_recurrences(&k, loop_body(&k)).is_empty());
        assert_eq!(recurrence_ii(&k, loop_body(&k)), 1);
    }

    #[test]
    fn chained_through_intermediate_var() {
        // t = acc + x; acc = t * y — still a carried chain on acc.
        let mut kb = KernelBuilder::new("chain", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc = kb.var("acc", Type::F32);
        let t = kb.var("t", Type::F32);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(t, s);
            let tv = kb.get(t);
            let m = kb.mul(tv, v);
            kb.set(acc, m);
        });
        let k = kb.finish();
        let recs = body_recurrences(&k, loop_body(&k));
        let acc_rec = recs
            .iter()
            .find(|r| r.name == "acc")
            .expect("acc recurrence");
        assert_eq!(acc_rec.latency, latency::F_ADD + latency::F_MUL);
    }

    #[test]
    fn memory_recurrence_through_external_buffer() {
        // H[i] = H[i] + 1 — read-modify-write through DRAM.
        let mut kb = KernelBuilder::new("hist", 1);
        let h = kb.buffer("H", ScalarType::I32, MapDir::ToFrom);
        let n = kb.c_i64(16);
        kb.for_range("i", n, |kb, i| {
            let cur = kb.load(h, i, Type::I32);
            let one = kb.c_i32(1);
            let inc = kb.add(cur, one);
            kb.store(h, i, inc);
        });
        let k = kb.finish();
        let recs = body_recurrences(&k, loop_body(&k));
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert!(recs[0].through_memory);
        assert_eq!(
            recs[0].latency,
            latency::EXT_LOAD + latency::INT_ALU + latency::EXT_STORE
        );
    }
}
