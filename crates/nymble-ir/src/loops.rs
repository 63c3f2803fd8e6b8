//! Stable loop identities.
//!
//! The HLS scheduler produces one pipeline schedule per (non-unrolled) loop;
//! the timed executor must charge each dynamic iteration reported by the
//! walker against the right schedule. Both sides therefore need an agreed
//! naming of loops: [`LoopMap`] assigns each `Stmt::For` in a kernel a
//! [`LoopId`] by pre-order traversal.
//!
//! Identity is keyed on the statement's address inside the kernel's (heap
//! allocated, hence stable) block vectors, so a `LoopMap` is valid only for
//! the exact [`Kernel`] value it was built from — not for clones.

use crate::kernel::Kernel;
use crate::stmt::{Block, Stmt, Unroll};
use std::collections::HashMap;

/// Index of a loop in pre-order over the kernel body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

/// Static facts about one loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopInfo {
    /// Loop nesting depth (0 = outermost in the kernel body).
    pub depth: u32,
    /// `#pragma unroll` — inlined into the parent dataflow graph.
    pub unrolled: bool,
    /// Whether the loop body (transitively) contains external memory
    /// accesses, i.e. variable-latency operations.
    pub has_vlo: bool,
    /// Whether the loop contains an inner (non-unrolled) loop.
    pub has_inner_loop: bool,
    /// Source-level name of the induction variable, for diagnostics.
    pub var_name: String,
}

/// Pre-order loop numbering for one kernel instance.
pub struct LoopMap {
    ids: HashMap<usize, LoopId>,
    infos: Vec<LoopInfo>,
}

impl LoopMap {
    /// Build the map for `k`.
    pub fn build(k: &Kernel) -> Self {
        let mut m = LoopMap {
            ids: HashMap::new(),
            infos: Vec::new(),
        };
        visit(k, &k.body, 0, &mut m);
        m
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True when the kernel has no loops.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// Id of a `For` statement belonging to the mapped kernel.
    ///
    /// # Panics
    /// Panics if `s` is not a `For` of the kernel this map was built from.
    pub fn id_of(&self, s: &Stmt) -> LoopId {
        *self
            .ids
            .get(&(s as *const Stmt as usize))
            .expect("statement is not a registered loop of this kernel")
    }

    /// Static info for a loop.
    pub fn info(&self, id: LoopId) -> &LoopInfo {
        &self.infos[id.0 as usize]
    }

    /// Iterate `(LoopId, &LoopInfo)` in pre-order.
    pub fn iter(&self) -> impl Iterator<Item = (LoopId, &LoopInfo)> {
        self.infos
            .iter()
            .enumerate()
            .map(|(i, info)| (LoopId(i as u32), info))
    }
}

fn block_has_vlo(k: &Kernel, b: &Block) -> bool {
    fn expr_has_vlo(k: &Kernel, id: crate::expr::ExprId) -> bool {
        let e = k.expr(id);
        e.is_vlo() || e.children().any(|c| expr_has_vlo(k, c))
    }
    b.iter().any(|s| match s {
        Stmt::Assign { expr, .. } => expr_has_vlo(k, *expr),
        Stmt::StoreExt { .. } | Stmt::Preload { .. } | Stmt::WriteBack { .. } => true,
        Stmt::StoreLocal { index, value, .. } => expr_has_vlo(k, *index) || expr_has_vlo(k, *value),
        Stmt::For { body, .. } | Stmt::Critical { body } => block_has_vlo(k, body),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => expr_has_vlo(k, *cond) || block_has_vlo(k, then_b) || block_has_vlo(k, else_b),
        Stmt::Barrier => false,
    })
}

fn block_has_loop(b: &Block) -> bool {
    b.iter().any(|s| match s {
        Stmt::For { unroll, .. } => *unroll == Unroll::None,
        Stmt::Critical { body } => block_has_loop(body),
        Stmt::If { then_b, else_b, .. } => block_has_loop(then_b) || block_has_loop(else_b),
        _ => false,
    })
}

fn visit(k: &Kernel, b: &Block, depth: u32, m: &mut LoopMap) {
    for s in b {
        match s {
            Stmt::For {
                var, body, unroll, ..
            } => {
                let id = LoopId(m.infos.len() as u32);
                m.ids.insert(s as *const Stmt as usize, id);
                m.infos.push(LoopInfo {
                    depth,
                    unrolled: *unroll == Unroll::Full,
                    has_vlo: block_has_vlo(k, body),
                    has_inner_loop: block_has_loop(body),
                    var_name: k.var(*var).name.clone(),
                });
                visit(k, body, depth + 1, m);
            }
            Stmt::Critical { body } => visit(k, body, depth, m),
            Stmt::If { then_b, else_b, .. } => {
                visit(k, then_b, depth, m);
                visit(k, else_b, depth, m);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::types::ScalarType;
    use crate::{MapDir, Type};

    #[test]
    fn preorder_numbering_and_flags() {
        let mut kb = KernelBuilder::new("t", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let n = kb.c_i64(4);
        kb.for_range("i", n, |kb, _i| {
            let n2 = kb.c_i64(4);
            kb.for_range("j", n2, |kb, j| {
                let v = kb.load(a, j, Type::F32);
                let x = kb.var("x", Type::F32);
                kb.set(x, v);
            });
        });
        let n3 = kb.c_i64(2);
        kb.for_range("k", n3, |_, _| {});
        let k = kb.finish();
        let m = LoopMap::build(&k);
        assert_eq!(m.len(), 3);
        let infos: Vec<_> = m.iter().map(|(_, i)| i.clone()).collect();
        assert_eq!(infos[0].var_name, "i");
        assert_eq!(infos[0].depth, 0);
        assert!(infos[0].has_vlo, "outer sees inner's external load");
        assert!(infos[0].has_inner_loop);
        assert_eq!(infos[1].var_name, "j");
        assert_eq!(infos[1].depth, 1);
        assert!(infos[1].has_vlo);
        assert!(!infos[1].has_inner_loop);
        assert_eq!(infos[2].var_name, "k");
        assert!(!infos[2].has_vlo);
    }

    #[test]
    fn id_of_matches_statement_identity() {
        let mut kb = KernelBuilder::new("t", 1);
        let n = kb.c_i64(1);
        kb.for_range("i", n, |_, _| {});
        let k = kb.finish();
        let m = LoopMap::build(&k);
        let s = &k.body[0];
        assert_eq!(m.id_of(s), LoopId(0));
    }
}
