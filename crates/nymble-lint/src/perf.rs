//! The static cost walker, and the performance diagnostics (`NP0xx`)
//! priced against it.
//!
//! The cost walker is the one cost model of the toolchain, in the spirit of
//! the memory-bound analytic model of Dávila-Guzmán et al. (PAPERS.md): it
//! prices each hardware thread's busy cycles (pipelined loops as
//! `depth + (trip−1)·II`, widened by a bandwidth roofline and read-miss
//! stalls; sequential code per statement), its DRAM line traffic, its
//! critical-section serialization and DMA engine occupancy, and then the
//! span of the host's launch ramp. What the IR alone cannot say comes from
//! a [`CostSource`]:
//!
//! * the structural source here, for code that runs before any compile
//!   exists (perf-lint gates the compile; the region tree is priced during
//!   it): a loop pipelines when [`pipeline_eligible`], its II comes from
//!   the symbolic recurrence analysis in [`crate::deps`] and its depth from
//!   the operator chain;
//! * `fpga_sim::analytic`, for a compiled design and a launch: the
//!   scheduled `(II, depth)`, the calibrated restart-contention term,
//!   scalar launch arguments and the launch-time memory image.
//!
//! The resulting [`PerfModel`] is what every diagnostic's quantitative
//! prediction is priced against, and what `bench` cross-validates against
//! the compiled-schedule estimate within 25% on the triggering fixtures.
//!
//! Short sequential loops are walked iteration by iteration, and such
//! walks nest, so one loop statement is visited many times. The walker
//! therefore prices each loop once per distinct context and reuses the
//! result (with the region profits recorded under it, rescaled). A
//! context is the loop statement, the thread id when the subtree reads it,
//! and the binding and exactness of each variable the subtree's evaluated
//! expressions read from outside it. Nothing else the walk reads varies,
//! so a reused price is the price a fresh walk would give.
//!
//! With a memory image, rows whose inner bounds come from memory are
//! walked one by one, and every row binds a new value, so binding keys
//! never repeat there. Under that walk a loop whose free variables are
//! read only by its own bounds (CSR's `row_ptr[r]..row_ptr[r+1]`) is
//! keyed by value instead: the trip and step its bounds evaluate to, plus
//! the first value of its variable or the outcome of its stride and
//! sharing probes where the loop's facts cannot prove them the same on
//! every row (`ValueKey`). Rows of equal length then share one price.
//! Any other loop there is walked afresh. Facts that depend only on a
//! statement (sequential cycles, bound-load cycles, a pipelined body's
//! accesses, the source's schedule, how the loop is keyed) are derived
//! once per statement.

use crate::deps;
use crate::diag::{Code, Diagnostic, PredMetric};
use nymble_ir::stmt::Unroll;
use nymble_ir::{ArgId, ArgKind, Expr, ExprId, Kernel, MapDir, Stmt, Value, VarId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// The latency/bandwidth parameters the model prices against. These
/// defaults are the platform's: `fpga_sim::SimConfig::default()` takes its
/// shared fields from here, and `SimConfig::perf_params` converts a run's
/// configuration back, so predictions and measurements share one machine
/// description.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfParams {
    pub dram_latency: u64,
    pub dram_bytes_per_cycle: u64,
    pub dram_line_bytes: u64,
    pub launch_interval: u64,
    pub sem_acquire_latency: u64,
    pub sem_release_latency: u64,
    pub barrier_latency: u64,
    pub seq_issue_width: u64,
    pub stmt_base_cost: u64,
    pub burst_issue_cost: u64,
    pub assumed_load_latency: u64,
    pub dma_setup: u64,
    pub line_buffers: bool,
}

impl Default for PerfParams {
    fn default() -> Self {
        PerfParams {
            dram_latency: 48,
            dram_bytes_per_cycle: 64,
            dram_line_bytes: 64,
            launch_interval: 880_000,
            sem_acquire_latency: 12,
            sem_release_latency: 4,
            barrier_latency: 8,
            seq_issue_width: 4,
            stmt_base_cost: 1,
            burst_issue_cost: 4,
            assumed_load_latency: deps::latency::EXT_LOAD,
            dma_setup: 12,
            line_buffers: true,
        }
    }
}

/// The static performance model's summary for one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfModel {
    /// Predicted busy cycles per thread (compute chain vs DMA engine,
    /// whichever finishes later).
    pub per_thread: Vec<u64>,
    /// Predicted DRAM line traffic in bytes, all threads.
    pub dram_bytes: u64,
    /// Predicted serialized critical-section cycles, summed over threads.
    pub critical_cycles: u64,
    /// When the last thread finishes, counting the host's launch ramp.
    pub ramp_span: u64,
    /// Predicted total cycles: the launch-ramp span vs the serialization
    /// floor vs the bandwidth floor, whichever is latest.
    pub total_cycles: u64,
}

/// Price the kernel under `p` with the structural source (no compiled
/// design). `None` when loop bounds are not statically resolvable (scalar
/// launch arguments, data-dependent trips).
pub fn model(k: &Kernel, p: &PerfParams) -> Option<PerfModel> {
    model_with(k, p, Structural::new(p))
}

/// Price the kernel under `p`, asking `src` what the IR alone cannot say.
pub fn model_with<S: CostSource>(k: &Kernel, p: &PerfParams, src: S) -> Option<PerfModel> {
    CostWalker::new(k, p, src).model()
}

/// [`model`] plus the per-region profits, from the same walk: the subtree
/// cost of each loop, critical section and DMA burst, recorded against the
/// statement's address. `None` under the same condition as [`model`].
pub fn model_with_profits(
    k: &Kernel,
    p: &PerfParams,
) -> Option<(PerfModel, HashMap<usize, RegionProfit>)> {
    let mut w = CostWalker::new(k, p, Structural::new(p));
    w.recorded = Some(HashMap::new());
    let m = w.model()?;
    Some((m, w.recorded.take().unwrap_or_default()))
}

/// Statically derived instrumentation profit of one region-forming
/// statement (loop nest / critical section / DMA burst), summed over all
/// hardware threads. Keyed by the statement's address — the same idiom as
/// [`nymble_ir::loops::LoopMap`], so the map is only valid for the exact `Kernel`
/// value it was computed from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionProfit {
    /// Busy cycles spent under the region, all threads.
    pub cycles: u64,
    /// DRAM line traffic attributable to the region, all threads.
    pub dram_bytes: u64,
    /// Serialized critical-section cycles under the region.
    pub critical_cycles: u64,
    /// DMA engine busy cycles under the region.
    pub dma_cycles: u64,
}

impl RegionProfit {
    /// Scalar stall-exposure score the counter-selection optimizer ranks
    /// regions by: busy cycles plus the serialization and DMA exposure
    /// plus the bandwidth-floor cycles of the region's line traffic. Every
    /// term is monotone in a componentwise-larger profit, so an enclosing
    /// region never scores below any region nested inside it.
    pub fn score(&self, dram_bytes_per_cycle: u64) -> u64 {
        self.cycles
            + self.critical_cycles
            + self.dma_cycles
            + self.dram_bytes / dram_bytes_per_cycle.max(1)
    }
}

// ---------------------------------------------------------------------------
// The cost walker.
// ---------------------------------------------------------------------------

/// What the walker asks about a kernel beyond its IR. Every answer has a
/// default that means "unknown here", which is what perf-lint gets. The
/// answers must depend only on their arguments: the walker asks
/// [`Self::pipelined`] once per loop statement and reuses loop costs
/// across visits.
pub trait CostSource {
    /// Pipelined `(ii, depth)` of the non-unrolled loop `loop_stmt` (whose
    /// body is `body`), or `None` when the loop runs sequentially.
    fn pipelined(&self, k: &Kernel, loop_stmt: &Stmt, body: &[Stmt]) -> Option<(u64, u64)>;

    /// Restart-contention cycles of a pipelined loop entered once with
    /// `trip` iterations on `nt` threads, whose thread-independent streams
    /// fetch `indep_miss_freq` lines per iteration. Counted as system time
    /// by the span model.
    fn restart_contention(&self, _nt: u64, _trip: u64, _indep_miss_freq: f64) -> u64 {
        0
    }

    /// The launch value of scalar argument `arg`.
    fn scalar(&self, _arg: ArgId) -> Option<i64> {
        None
    }

    /// Element `index` of the `map(to)` buffer `buf` at launch. Such
    /// buffers never change during a run, so this is the load's value on
    /// every iteration.
    fn load(&self, _buf: ArgId, _index: usize) -> Option<i64> {
        None
    }

    /// Whether [`Self::load`] reads a memory image. Loops whose inner
    /// bounds come from memory are then walked iteration by iteration.
    fn has_image(&self) -> bool {
        false
    }
}

/// The source for code that runs before any compile exists: pipelining
/// is decided structurally ([`pipeline_eligible`]), II by the recurrence
/// analysis and depth by the operator chain.
struct Structural {
    load_latency: u64,
}

impl Structural {
    fn new(p: &PerfParams) -> Self {
        Structural {
            load_latency: p.assumed_load_latency,
        }
    }
}

impl CostSource for Structural {
    fn pipelined(&self, k: &Kernel, _loop_stmt: &Stmt, body: &[Stmt]) -> Option<(u64, u64)> {
        pipeline_eligible(body).then(|| {
            let depth = body_depth(k, body).max(self.load_latency);
            (deps::recurrence_ii(k, body), depth)
        })
    }
}

/// Per-block static cost summary for one thread.
#[derive(Clone, Copy, Debug, Default)]
struct Cost {
    /// Thread-local busy cycles.
    cycles: u64,
    /// DRAM line traffic in bytes attributed to this block.
    dram_bytes: u64,
    /// Cycles spent inside critical sections (included in `cycles` too).
    critical: u64,
    /// Busy cycles of this thread's preloader DMA channel (bursts run on
    /// the engine, overlapped with compute, but serialize per master).
    dma_busy: u64,
    /// Cross-thread memory-contention cycles (included in `cycles` too):
    /// system time, which the launch ramp hides under (see the span model
    /// in [`CostWalker::model`]).
    contention: u64,
}

impl Cost {
    fn add(&mut self, o: Cost) {
        self.cycles += o.cycles;
        self.dram_bytes += o.dram_bytes;
        self.critical += o.critical;
        self.dma_busy += o.dma_busy;
        self.contention += o.contention;
    }
    fn scale(&self, n: u64) -> Cost {
        Cost {
            cycles: self.cycles * n,
            dram_bytes: self.dram_bytes * n,
            critical: self.critical * n,
            dma_busy: self.dma_busy * n,
            contention: self.contention * n,
        }
    }
}

/// Sequential loops at most this long are walked iteration by iteration
/// (exact induction values, exact branch resolution) instead of priced as
/// body-at-iteration-0 × trip. Keeps double buffering's parity/boundary
/// guards honest while long loops stay O(1) in their trip count. Such
/// walks nest (blocked GEMM's `jb` × `kb` around its copy and compute
/// loops), so the walker prices each inner loop once per distinct context
/// and reuses it on every later visit (see [`CostWalker::memoised`]); the
/// exact walk then costs one visit per distinct binding, not one per
/// iteration of the whole nest.
const EXACT_SEQ_TRIP: u64 = 16;

/// Ceiling on the image-driven exact walk (per thread): keeps the model
/// O(rows) on irregular kernels while refusing pathological trip counts.
const MAX_EXACT_WALK: u64 = 1 << 16;

/// A loop's cost in one context, and the region profits recorded under
/// it at unit scale (empty unless recording).
type Memo = (Option<Cost>, Vec<(usize, RegionProfit)>);

/// The walker's per-statement and per-context maps. Their keys are
/// statement addresses and short `i64` slices the walker builds itself,
/// so a multiplicative hash serves them; SipHash's resistance to chosen
/// keys is not needed, and it is most of the cost of a memo hit.
type WalkMap<K, V> = HashMap<K, V, BuildHasherDefault<WalkHasher>>;

/// Word-at-a-time multiplicative hash (the rustc `FxHasher` scheme).
#[derive(Default)]
struct WalkHasher(u64);

impl WalkHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WalkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    /// The product's low bits carry the least of the key (statement
    /// addresses are aligned), and the table picks buckets by the low
    /// bits, so the high bits are rotated down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Walks one kernel's threads in turn, pricing each statement under the
/// thread id and the enclosing loops' induction bindings.
struct CostWalker<'k, S> {
    k: &'k Kernel,
    p: &'k PerfParams,
    src: S,
    tid: i64,
    /// Bindings of loop induction variables (`VarId.0` → value), for
    /// bound/stride evaluation.
    bindings: Vec<Option<i64>>,
    /// Which bindings are first-iteration approximations (the loop's cost
    /// is body-at-iter-0 × trip) rather than exact per-iteration values.
    approx: Vec<bool>,
    /// When `Some`, subtree costs of region-forming statements accumulate
    /// here, keyed by statement address (see [`model_with_profits`]).
    recorded: Option<HashMap<usize, RegionProfit>>,
    /// Iteration multiplier of the enclosing extrapolated/unrolled loops:
    /// blocks walked once but executed `scale` times record scaled costs.
    scale: u64,
    /// Per loop statement (by address): its [`LoopFacts`].
    loops: WalkMap<usize, Rc<LoopFacts>>,
    /// Per straight-line statement (by address): its sequential cycles.
    seq_cycles: WalkMap<usize, u64>,
    /// Loop costs by context; keys are built by [`CostWalker::memoised`].
    memo: WalkMap<Box<[i64]>, Memo>,
    /// Scratch buffer for memo keys, so a hit allocates nothing.
    key: Vec<i64>,
    /// Set inside an image-driven exact walk. Its rows bind new values,
    /// so binding keys never repeat there: a loop under it is keyed by
    /// value ([`Self::value_memoised`]) when its facts allow it, and
    /// walked afresh otherwise.
    no_memo: bool,
}

impl<'k, S: CostSource> CostWalker<'k, S> {
    fn new(k: &'k Kernel, p: &'k PerfParams, src: S) -> Self {
        CostWalker {
            k,
            p,
            src,
            tid: 0,
            bindings: vec![None; k.vars.len()],
            approx: vec![false; k.vars.len()],
            recorded: None,
            scale: 1,
            loops: WalkMap::default(),
            seq_cycles: WalkMap::default(),
            memo: WalkMap::default(),
            key: Vec::new(),
            no_memo: false,
        }
    }

    /// Walk every hardware thread, then apply the span model.
    fn model(&mut self) -> Option<PerfModel> {
        let k = self.k;
        let nt = k.num_threads.max(1) as usize;
        let mut per_thread = Vec::with_capacity(nt);
        let mut contention = Vec::with_capacity(nt);
        let mut dram_bytes = 0u64;
        let mut critical_cycles = 0u64;
        for t in 0..nt {
            self.tid = t as i64;
            let c = self.block_cost(&k.body)?;
            // A thread is done no earlier than its compute chain *and* no
            // earlier than its DMA engine has streamed every burst it issued.
            per_thread.push(c.cycles.max(c.dma_busy));
            contention.push(c.contention);
            dram_bytes += c.dram_bytes;
            critical_cycles += c.critical;
        }
        // Span model: thread t starts at t·launch_interval and runs its
        // busy cycles; the run ends when the last thread finishes.
        // Cross-thread memory contention is *system* time — the shared
        // banks are busy serving everyone from the first thread onward —
        // so the launch ramp hides under it rather than stacking on top:
        // the span is the later of (ramp + contention-free busy) and the
        // fully contended busy measured from host start.
        let ramp_span = per_thread
            .iter()
            .zip(&contention)
            .enumerate()
            .map(|(t, (&c, &ctn))| {
                (t as u64 * self.p.launch_interval + c.saturating_sub(ctn)).max(c)
            })
            .max()
            .unwrap_or(0);
        // Critical sections cannot overlap, and all line traffic must
        // cross the shared channel.
        let memory_floor = dram_bytes / self.p.dram_bytes_per_cycle.max(1);
        let total_cycles = ramp_span.max(critical_cycles).max(memory_floor);
        Some(PerfModel {
            per_thread,
            dram_bytes,
            critical_cycles,
            ramp_span,
            total_cycles,
        })
    }

    /// Accumulate one region-forming statement's subtree cost (times the
    /// enclosing extrapolation multiplier) when recording is on.
    fn record(&mut self, s: &Stmt, c: Cost) {
        if let Some(map) = self.recorded.as_mut() {
            let profit = RegionProfit {
                cycles: c.cycles,
                dram_bytes: c.dram_bytes,
                critical_cycles: c.critical,
                dma_cycles: c.dma_busy,
            };
            credit(map, s as *const Stmt as usize, profit, self.scale);
        }
    }

    fn block_cost(&mut self, block: &[Stmt]) -> Option<Cost> {
        let mut total = Cost::default();
        for s in block {
            total.add(self.stmt_cost(s)?);
        }
        Some(total)
    }

    fn stmt_cost(&mut self, s: &Stmt) -> Option<Cost> {
        let p = self.p;
        match s {
            Stmt::Assign { .. } | Stmt::StoreLocal { .. } => Some(Cost {
                cycles: self.seq_stmt_cycles(s),
                ..Default::default()
            }),
            Stmt::StoreExt { value, .. } => {
                let bytes = expr_bytes(self.k, *value) as u64;
                Some(Cost {
                    cycles: self.seq_stmt_cycles(s),
                    dram_bytes: bytes.max(p.dram_line_bytes / 2),
                    ..Default::default()
                })
            }
            Stmt::Preload { mem, len, .. } | Stmt::WriteBack { mem, len, .. } => {
                let n = self.eval_i64(*len)? as u64;
                let elem = self.k.local_mem(*mem).elem.size_bytes() as u64;
                let bytes = n * elem;
                // The thread pays the issue cost; the DMA engine streams
                // the burst (setup + channel occupancy, serialized per
                // master).
                let occupancy = bytes.max(1).div_ceil(p.dram_bytes_per_cycle.max(1));
                let out = Cost {
                    cycles: p.burst_issue_cost + p.stmt_base_cost,
                    dram_bytes: bytes,
                    dma_busy: p.dma_setup + occupancy,
                    ..Default::default()
                };
                self.record(s, out);
                Some(out)
            }
            Stmt::Critical { body } => {
                let inner = self.block_cost(body)?;
                let c = p.sem_acquire_latency + inner.cycles + p.sem_release_latency;
                let out = Cost {
                    cycles: c,
                    critical: c,
                    ..inner
                };
                self.record(s, out);
                Some(out)
            }
            Stmt::Barrier => Some(Cost {
                cycles: p.barrier_latency,
                ..Default::default()
            }),
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                // Resolve the branch when possible; otherwise price the
                // more expensive side (the datapath computes both). A
                // condition on an enclosing loop's first-iteration binding
                // is treated as unresolvable — e.g. double buffering's
                // `if (kb < nblocks)` compute guard holds on every
                // iteration but the first.
                let mut out = Cost {
                    cycles: self.seq_stmt_cycles(s),
                    ..Default::default()
                };
                let resolved = (!self.uses_bound_var(*cond)).then(|| self.eval_i64(*cond));
                match resolved.flatten() {
                    Some(c) => out.add(self.block_cost(if c != 0 { then_b } else { else_b })?),
                    None => {
                        let a = self.block_cost(then_b)?;
                        let b = self.block_cost(else_b)?;
                        out.add(if a.cycles >= b.cycles { a } else { b });
                    }
                }
                Some(out)
            }
            Stmt::For { .. } => {
                let facts = self.loop_facts(s);
                if self.no_memo {
                    // Under an image-driven walk every row is a new binding,
                    // so only a loop whose price the row reaches through
                    // its own bounds alone is worth keeping, by value.
                    match facts.by_value {
                        Some(by) => self.value_memoised(s, &facts, by),
                        None => self.for_cost(s, &facts),
                    }
                } else if facts.mem_dependent && self.src.has_image() {
                    self.no_memo = true;
                    let out = self.for_cost(s, &facts);
                    self.no_memo = false;
                    out
                } else {
                    self.memoised(s, &facts)
                }
            }
        }
    }

    /// The [`LoopFacts`] of loop `s`, derived on its first visit.
    fn loop_facts(&mut self, s: &Stmt) -> Rc<LoopFacts> {
        let addr = s as *const Stmt as usize;
        if let Some(f) = self.loops.get(&addr) {
            return Rc::clone(f);
        }
        let f = Rc::new(LoopFacts::new(self.k, self.p, &self.src, s));
        self.loops.insert(addr, Rc::clone(&f));
        f
    }

    /// [`Self::for_cost`] once per distinct context. A loop's cost (and
    /// the profits recorded under it) depends only on the thread id, when
    /// the subtree reads it, and on the binding and `approx` flag of each
    /// of its free variables: everything else the walk reads is fixed for
    /// the kernel, the parameters and the source. So the first visit in a
    /// context walks the subtree at unit scale and stores the result; a
    /// later visit in the same context adds the stored profits back times
    /// the current `scale`, which is what walking it again would record.
    fn memoised(&mut self, s: &Stmt, facts: &LoopFacts) -> Option<Cost> {
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.push(s as *const Stmt as usize as i64);
        key.push(if facts.reads_tid { self.tid } else { -1 });
        for v in &facts.free_vars {
            let slot = v.0 as usize;
            key.extend(match self.bindings[slot] {
                Some(x) => [1 + self.approx[slot] as i64, x],
                None => [0, 0],
            });
        }
        self.cached(s, facts, key)
    }

    /// [`Self::memoised`] under an image-driven walk, for a loop whose
    /// free variables are read only by its own bounds ([`ValueKey`]).
    /// Such a loop's price depends on the enclosing rows only through
    /// what those bounds evaluate to, so it is keyed by that instead of
    /// by the bindings: the statement, the thread id when the subtree
    /// reads it, the trip and step, and — where [`LoopFacts`] cannot rule
    /// them out — the first value of the loop's variable and the outcome
    /// of the pipelined body's stride and sharing probes. CSR rows of
    /// equal length then share one price.
    fn value_memoised(&mut self, s: &Stmt, facts: &LoopFacts, by: ValueKey) -> Option<Cost> {
        let Stmt::For {
            var,
            start,
            end,
            step,
            ..
        } = s
        else {
            unreachable!("value_memoised on non-For")
        };
        let (s0, st, trip) = self.trip(*start, *end, *step)?;
        let mut key = std::mem::take(&mut self.key);
        key.clear();
        key.push(s as *const Stmt as usize as i64);
        key.push(if facts.reads_tid { self.tid } else { -1 });
        // Tells these keys from binding keys, which never hold `i64::MIN`.
        key.extend([i64::MIN, trip as i64, st]);
        if by.start {
            key.push(s0);
        }
        if by.probes {
            let tr = self.iter_traffic(*var, *start, (s0, st), &facts.accesses);
            key.extend([
                tr.line_bytes as i64,
                tr.lat_iter as i64,
                tr.indep_miss_freq.to_bits() as i64,
            ]);
        }
        self.cached(s, facts, key)
    }

    /// The memo entry under `key` for loop `s`, walked and stored on a
    /// miss. `key` comes back into `self.key` either way, so a hit
    /// allocates nothing.
    fn cached(&mut self, s: &Stmt, facts: &LoopFacts, key: Vec<i64>) -> Option<Cost> {
        if let Some((cost, profits)) = self.memo.get(key.as_slice()) {
            if let Some(map) = self.recorded.as_mut() {
                for &(addr, p) in profits {
                    credit(map, addr, p, self.scale);
                }
            }
            let out = *cost;
            self.key = key;
            return out;
        }
        let owned: Box<[i64]> = key.as_slice().into();
        self.key = key;
        let scale = std::mem::replace(&mut self.scale, 1);
        let outer = self.recorded.as_mut().map(std::mem::take);
        let out = self.for_cost(s, facts);
        self.scale = scale;
        let profits = match (self.recorded.take(), outer) {
            (Some(unit), Some(mut outer)) => {
                for (&addr, &p) in &unit {
                    credit(&mut outer, addr, p, scale);
                }
                self.recorded = Some(outer);
                unit.into_iter().collect()
            }
            _ => Vec::new(),
        };
        self.memo.insert(owned, (out, profits));
        out
    }

    /// Cost of the loop statement `s` under the current context.
    fn for_cost(&mut self, s: &Stmt, facts: &LoopFacts) -> Option<Cost> {
        let Stmt::For {
            var,
            start,
            end,
            step,
            body,
            unroll,
        } = s
        else {
            unreachable!("for_cost on non-For")
        };
        let (s0, st, trip) = self.trip(*start, *end, *step)?;
        // Bind the induction variable to the first iteration's
        // value so inner bounds/strides that depend on it resolve.
        let slot = var.0 as usize;
        let saved = self.bindings[slot];
        let saved_approx = self.approx[slot];
        self.bindings[slot] = Some(s0);
        self.approx[slot] = true;
        let out = if *unroll == Unroll::Full {
            // Inlined into the parent graph: no loop control.
            self.repeated(body, trip)
        } else {
            self.loop_cost(s, facts, trip, (s0, st))
        };
        self.bindings[slot] = saved;
        self.approx[slot] = saved_approx;
        let mut out = out?;
        out.cycles += facts.bound_load;
        self.record(s, out);
        Some(out)
    }

    /// `body` walked once and priced as run `n` times; regions inside it
    /// record `n` times their cost.
    fn repeated(&mut self, body: &[Stmt], n: u64) -> Option<Cost> {
        let saved_scale = self.scale;
        self.scale = saved_scale.saturating_mul(n);
        let c = self.block_cost(body);
        self.scale = saved_scale;
        c.map(|c| c.scale(n))
    }

    /// Cost of the non-unrolled loop `stmt`, run `trip` times from `s0` by
    /// `st`, with its induction variable bound to `s0`.
    fn loop_cost(
        &mut self,
        stmt: &Stmt,
        facts: &LoopFacts,
        trip: u64,
        (s0, st): (i64, i64),
    ) -> Option<Cost> {
        let Stmt::For {
            var, start, body, ..
        } = stmt
        else {
            unreachable!("loop_cost on non-For")
        };
        if trip == 0 {
            return Some(Cost::default());
        }
        if let Some((ii, depth)) = facts.schedule {
            let tr = self.iter_traffic(*var, *start, (s0, st), &facts.accesses);
            // Effective II: a thread cannot issue iterations faster than
            // its share of the channel sustains its line traffic.
            let nt = self.k.num_threads as u64;
            let mem_ii = tr.line_bytes * nt / self.p.dram_bytes_per_cycle.max(1);
            let eff_ii = (ii + tr.lat_iter).max(mem_ii);
            let restart = self.src.restart_contention(nt, trip, tr.indep_miss_freq);
            return Some(Cost {
                cycles: depth + restart + (trip - 1) * eff_ii,
                dram_bytes: tr.line_bytes * trip,
                contention: restart,
                ..Default::default()
            });
        }
        // Sequential region: per-iteration body cost + loop control.
        // Memory-dependent inner bounds (CSR row lengths) vary per
        // iteration, so walk those exactly whenever the image resolves them.
        let exact = trip <= EXACT_SEQ_TRIP
            || (self.src.has_image() && trip <= MAX_EXACT_WALK && facts.mem_dependent);
        if exact {
            let slot = var.0 as usize;
            let saved_approx = self.approx[slot];
            self.approx[slot] = false;
            let mut total = Cost::default();
            for it in 0..trip {
                self.bindings[slot] = Some(s0 + it as i64 * st);
                let Some(c) = self.block_cost(body) else {
                    self.approx[slot] = saved_approx;
                    return None;
                };
                total.add(c);
                total.cycles += 1; // LoopIter handshake
            }
            self.approx[slot] = saved_approx;
            total.cycles += 1; // LoopExit
            return Some(total);
        }
        let mut out = self.repeated(body, trip)?;
        out.cycles += trip + 1; // LoopIter handshakes + LoopExit
        Some(out)
    }

    /// Per-iteration DRAM behaviour of a pipelined loop body. Line traffic
    /// honours the per-(thread, buffer) line buffer: an access stream
    /// whose stride stays inside a line fetches each line once; a stride
    /// of a line or more fetches a full line per access. Read misses also
    /// stall the iteration by the round trip beyond the assumed load
    /// latency (writes are posted).
    fn iter_traffic(
        &mut self,
        var: VarId,
        start: ExprId,
        first: (i64, i64),
        accesses: &[(ExtAccess, bool)],
    ) -> IterTraffic {
        let line = self.p.dram_line_bytes;
        let bw = self.p.dram_bytes_per_cycle.max(1);
        // Round trip of one line fetch, minus the latency the pipelined
        // schedule already tolerates (`iter_stall` in the executor).
        let miss_stall =
            (line.div_ceil(bw) + self.p.dram_latency).saturating_sub(self.p.assumed_load_latency);
        let mut out = IterTraffic::default();
        let mut shared_miss_streams = 0u64;
        for &(a, gather) in accesses {
            let (i0, i1) = self.first_two(var, first, a.index);
            // A data-dependent index (gather through a loaded value) is
            // priced line-per-access even when the image could evaluate
            // it: the first two iterations' difference is not a stride.
            let stride_bytes = match (i0, i1) {
                (Some(x), Some(y)) if !gather => (y - x).unsigned_abs() * a.bytes as u64,
                _ => line,
            };
            let lat = if self.p.line_buffers && stride_bytes < line {
                // Each line is fetched once and reused; a miss (and its
                // stall) happens once per line's worth of iterations.
                out.line_bytes += stride_bytes.max(a.bytes as u64).min(line);
                out.indep_miss_freq += stride_bytes as f64 / line as f64;
                miss_stall * stride_bytes / line
            } else {
                out.line_bytes += line;
                // A gather is never "shared": the sharing probe re-reads
                // the same stale outer-loop bindings for both thread ids.
                if !a.is_write && !gather && self.shared_across_threads(var, start, a.index, i0) {
                    shared_miss_streams += 1;
                } else {
                    out.indep_miss_freq += 1.0;
                }
                miss_stall
            };
            // Concurrent misses of one iteration overlap (the VLO stage
            // waits for the worst response), so streams combine by max.
            if !a.is_write {
                out.lat_iter = out.lat_iter.max(lat);
            }
        }
        // Thread-invariant miss streams (every thread walks the same
        // lines, e.g. a shared B column) put the threads in near-lockstep:
        // each burst queues behind the other threads' coincident bursts.
        let nt = self.k.num_threads as u64;
        if nt > 1 && shared_miss_streams > 0 {
            out.lat_iter += (nt - 1) * shared_miss_streams * line.div_ceil(bw);
        }
        out
    }

    /// Would another thread's iteration-0 address be the same? Detects
    /// miss streams shared across threads (every thread reading the same B
    /// column). Heuristic: re-evaluates the loop start and index under a
    /// different thread id; tid-dependence routed through *outer* loop
    /// variables is missed — those streams start on different rows and
    /// rarely collide anyway.
    fn shared_across_threads(
        &mut self,
        var: VarId,
        start: ExprId,
        index: ExprId,
        i0: Option<i64>,
    ) -> bool {
        let Some(i0) = i0 else { return false };
        let tid_saved = self.tid;
        let slot = var.0 as usize;
        let saved = self.bindings[slot];
        self.tid = (tid_saved + 1) % self.k.num_threads as i64;
        let alt = self.eval_i64(start).and_then(|s| {
            self.bindings[slot] = Some(s);
            self.eval_i64(index)
        });
        self.bindings[slot] = saved;
        self.tid = tid_saved;
        alt == Some(i0)
    }

    /// Trip count of a loop over `start..end` by `step` under the current
    /// bindings, with its start value and step. `None` when a bound does
    /// not resolve or the step is zero.
    fn trip(&self, start: ExprId, end: ExprId, step: ExprId) -> Option<(i64, i64, u64)> {
        let s0 = self.eval_i64(start)?;
        let e0 = self.eval_i64(end)?;
        let st = self.eval_i64(step)?;
        let span = if st > 0 { e0 - s0 } else { s0 - e0 };
        (st != 0).then(|| (s0, st, (span.max(0) as u64).div_ceil(st.unsigned_abs())))
    }

    /// `index` at the first two iterations of the loop over `var` (start
    /// value and step `(s0, st)`): the stride probe.
    fn first_two(
        &mut self,
        var: VarId,
        (s0, st): (i64, i64),
        index: ExprId,
    ) -> (Option<i64>, Option<i64>) {
        let slot = var.0 as usize;
        let saved = self.bindings[slot];
        self.bindings[slot] = Some(s0);
        let i0 = self.eval_i64(index);
        self.bindings[slot] = Some(s0 + st);
        let i1 = self.eval_i64(index);
        self.bindings[slot] = saved;
        (i0, i1)
    }

    /// [`seq_cycles`] of a straight-line statement, derived once.
    fn seq_stmt_cycles(&mut self, s: &Stmt) -> u64 {
        let (k, p) = (self.k, self.p);
        *self
            .seq_cycles
            .entry(s as *const Stmt as usize)
            .or_insert_with(|| seq_cycles(k, p, s))
    }

    /// Does the expression reference a loop induction variable whose
    /// binding is a first-iteration *approximation*? (Exactly-walked loops
    /// bind true per-iteration values, which are safe to resolve against.)
    fn uses_bound_var(&self, id: ExprId) -> bool {
        match self.k.expr(id) {
            Expr::Var(v) => self.bindings[v.0 as usize].is_some() && self.approx[v.0 as usize],
            e => e.children().any(|c| self.uses_bound_var(c)),
        }
    }

    /// Best-effort constant evaluation under the thread id, the loop
    /// bindings and whatever the source knows of the launch.
    fn eval_i64(&self, id: ExprId) -> Option<i64> {
        match self.k.expr(id) {
            Expr::Const(v) => Some(v.as_i64()),
            Expr::ThreadId => Some(self.tid),
            Expr::NumThreads => Some(self.k.num_threads as i64),
            Expr::Arg(a) if matches!(self.k.arg(*a).kind, ArgKind::Scalar(_)) => {
                self.src.scalar(*a)
            }
            Expr::Var(v) => self.bindings[v.0 as usize],
            Expr::Cast(_, a) => self.eval_i64(*a),
            Expr::Unary(op, a) => {
                let av = self.eval_i64(*a)?;
                Some(nymble_ir::expr::eval_unop(*op, &Value::I64(av)).as_i64())
            }
            Expr::Binary(op, a, b) => {
                let av = self.eval_i64(*a)?;
                let bv = self.eval_i64(*b)?;
                if matches!(*op, nymble_ir::BinOp::Div | nymble_ir::BinOp::Rem) && bv == 0 {
                    return None;
                }
                Some(nymble_ir::expr::eval_binop(*op, &Value::I64(av), &Value::I64(bv)).as_i64())
            }
            Expr::Select {
                cond,
                then_v,
                else_v,
            } => self.eval_i64(if self.eval_i64(*cond)? != 0 {
                *then_v
            } else {
                *else_v
            }),
            // Only device-read-only buffers resolve: the device may have
            // overwritten a writable one by the time the load executes.
            Expr::LoadExt { buf, index, .. } => {
                let ArgKind::Buffer { map, .. } = self.k.arg(*buf).kind else {
                    return None;
                };
                let index = usize::try_from(self.eval_i64(*index)?).ok()?;
                (map == MapDir::To).then(|| self.src.load(*buf, index))?
            }
            _ => None,
        }
    }
}

/// Per-iteration DRAM behaviour of a pipelined loop body.
#[derive(Clone, Copy, Debug, Default)]
struct IterTraffic {
    /// DRAM line traffic in bytes per iteration (amortized).
    line_bytes: u64,
    /// Amortized pipeline stall cycles per iteration from read-miss
    /// latency (beyond the scheduler's assumed load latency).
    lat_iter: u64,
    /// Expected line fetches per iteration from *thread-independent*
    /// streams (gathers, per-thread strided walks; 1 per line-per-access
    /// stream). Shared lockstep streams are priced in `lat_iter` instead.
    indep_miss_freq: f64,
}

/// Add `n` times the unit-scale profit `p` to region `addr`.
fn credit(map: &mut HashMap<usize, RegionProfit>, addr: usize, p: RegionProfit, n: u64) {
    let e = map.entry(addr).or_default();
    e.cycles += p.cycles * n;
    e.dram_bytes += p.dram_bytes * n;
    e.critical_cycles += p.critical_cycles * n;
    e.dma_cycles += p.dma_cycles * n;
}

/// What the walker needs of one loop statement beyond the context it is
/// visited in, derived on the first visit.
struct LoopFacts {
    /// The memo key's variables: those the subtree's evaluated expressions
    /// read outside the scope of any loop in the subtree that binds them
    /// (see [`Reads`]).
    free_vars: Vec<VarId>,
    /// Whether an evaluated expression of the subtree reads `ThreadId`.
    reads_tid: bool,
    /// Whether a loop inside draws its bounds from memory
    /// ([`has_mem_dependent_loop`]): with an image, such a loop is walked
    /// iteration by iteration.
    mem_dependent: bool,
    /// How the loop is keyed under an image-driven walk; `None` when a
    /// free variable is read beyond the loop's own bounds.
    by_value: Option<ValueKey>,
    /// Cycles to evaluate the loop's own bounds ([`bound_load_cycles`]).
    bound_load: u64,
    /// The source's pipelined `(ii, depth)`; `None` when the loop runs
    /// sequentially or is unrolled.
    schedule: Option<(u64, u64)>,
    /// A pipelined body's external accesses, each with whether it is a
    /// gather (its index reads memory).
    accesses: Vec<(ExtAccess, bool)>,
}

impl LoopFacts {
    fn new<S: CostSource>(k: &Kernel, p: &PerfParams, src: &S, s: &Stmt) -> Self {
        let Stmt::For {
            var,
            start,
            body,
            unroll,
            ..
        } = s
        else {
            unreachable!("loop facts of a non-For")
        };
        let mut reads = Reads::default();
        reads.block(k, std::slice::from_ref(s), &mut Vec::new());
        let schedule = if *unroll == Unroll::Full {
            None
        } else {
            src.pipelined(k, s, body)
        };
        let mut accesses = Vec::new();
        if schedule.is_some() {
            collect_ext_accesses(k, body, &mut accesses);
        }
        let accesses: Vec<(ExtAccess, bool)> = accesses
            .into_iter()
            .map(|a| (a, expr_has_load(k, a.index)))
            .collect();
        let mut inside = Reads::default();
        inside.loop_inside(k, *var, body, &mut Vec::new());
        let by_value = inside.vars.is_empty().then(|| {
            if schedule.is_some() {
                // Only the probes read the variable of a pipelined loop.
                // A stride probe of an index affine in it alone sees `st`
                // only, and the sharing probe re-evaluates such an index
                // at the same start unless the start reads the thread id.
                let mut start_reads = Reads::default();
                start_reads.expr(k, *start, &[]);
                let probes = start_reads.tid
                    || accesses
                        .iter()
                        .any(|&(a, gather)| !gather && !affine_in(k, a.index, *var));
                ValueKey {
                    start: false,
                    probes,
                }
            } else {
                let mut walked = Reads::default();
                walked.block(k, body, &mut Vec::new());
                ValueKey {
                    start: walked.vars.contains(var),
                    probes: false,
                }
            }
        });
        LoopFacts {
            free_vars: reads.vars,
            reads_tid: reads.tid,
            mem_dependent: has_mem_dependent_loop(k, body),
            by_value,
            bound_load: bound_load_cycles(k, p, s),
            schedule,
            accesses,
        }
    }
}

/// What a value key must hold beyond the statement, the thread id (when
/// read), the trip and the step, for a loop whose free variables are read
/// only by its own bounds.
#[derive(Clone, Copy, Debug)]
struct ValueKey {
    /// The walked body reads the loop's own variable: its first value.
    start: bool,
    /// The pipelined body's stride or sharing probe is not proven the
    /// same for every start: the probes' outcome ([`IterTraffic`]).
    probes: bool,
}

/// Is `id` affine in `var` with coefficients fixed for the whole walk
/// (constants, `NumThreads`, scalar arguments)? The walker's arithmetic
/// wraps, so such an index moves by the same amount for a given step
/// whatever value `var` starts from.
fn affine_in(k: &Kernel, id: ExprId, var: VarId) -> bool {
    match k.expr(id) {
        Expr::Var(v) => *v == var,
        Expr::Cast(_, a) | Expr::Unary(nymble_ir::UnOp::Neg, a) => affine_in(k, *a, var),
        Expr::Binary(nymble_ir::BinOp::Add | nymble_ir::BinOp::Sub, a, b) => {
            affine_in(k, *a, var) && affine_in(k, *b, var)
        }
        Expr::Binary(nymble_ir::BinOp::Mul, a, b) => {
            (walk_constant(k, *a) && affine_in(k, *b, var))
                || (affine_in(k, *a, var) && walk_constant(k, *b))
        }
        _ => walk_constant(k, id),
    }
}

/// Does `id` evaluate to the same value everywhere in one walk?
fn walk_constant(k: &Kernel, id: ExprId) -> bool {
    match k.expr(id) {
        Expr::Const(_) | Expr::NumThreads => true,
        Expr::Arg(a) => matches!(k.arg(*a).kind, ArgKind::Scalar(_)),
        Expr::Cast(_, a) | Expr::Unary(_, a) => walk_constant(k, *a),
        Expr::Binary(_, a, b) => walk_constant(k, *a) && walk_constant(k, *b),
        _ => false,
    }
}

/// The context a subtree's pricing reads: `ThreadId`, and the variables
/// read outside the scope of the loops that bind them. The evaluated
/// expressions are the ones the walker resolves to values: loop bounds,
/// `If` conditions, burst lengths and the external-access indices of a
/// loop body (probed for strides with only that loop's variable rebound).
#[derive(Default)]
struct Reads {
    vars: Vec<VarId>,
    tid: bool,
}

impl Reads {
    fn expr(&mut self, k: &Kernel, id: ExprId, bound: &[VarId]) {
        match k.expr(id) {
            Expr::ThreadId => self.tid = true,
            Expr::Var(v) => {
                if !bound.contains(v) && !self.vars.contains(v) {
                    self.vars.push(*v);
                }
            }
            e => {
                for c in e.children() {
                    self.expr(k, c, bound);
                }
            }
        }
    }

    /// A loop's body accesses and body, with its variable `var` bound.
    fn loop_inside(&mut self, k: &Kernel, var: VarId, body: &[Stmt], bound: &mut Vec<VarId>) {
        bound.push(var);
        let mut accesses = Vec::new();
        collect_ext_accesses(k, body, &mut accesses);
        for a in accesses {
            self.expr(k, a.index, bound);
        }
        self.block(k, body, bound);
        bound.pop();
    }

    fn block(&mut self, k: &Kernel, block: &[Stmt], bound: &mut Vec<VarId>) {
        for s in block {
            match s {
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                    ..
                } => {
                    for e in [*start, *end, *step] {
                        self.expr(k, e, bound);
                    }
                    self.loop_inside(k, *var, body, bound);
                }
                Stmt::If {
                    cond,
                    then_b,
                    else_b,
                } => {
                    self.expr(k, *cond, bound);
                    self.block(k, then_b, bound);
                    self.block(k, else_b, bound);
                }
                Stmt::Critical { body } => self.block(k, body, bound),
                Stmt::Preload { len, .. } | Stmt::WriteBack { len, .. } => {
                    self.expr(k, *len, bound)
                }
                _ => {}
            }
        }
    }
}

/// One DRAM round trip: line transfer plus access latency.
fn miss_cycles(p: &PerfParams) -> u64 {
    p.dram_line_bytes.div_ceil(p.dram_bytes_per_cycle.max(1)) + p.dram_latency
}

/// Sequential-region cycles of one statement (the executor's
/// `StepEvent::Ops` pricing: base cost + work / issue width). External
/// loads in sequential code are assumed to miss, which holds for the
/// dominant pattern (read-modify-write in critical sections invalidates
/// the port line buffer).
fn seq_cycles(k: &Kernel, p: &PerfParams, s: &Stmt) -> u64 {
    let work = stmt_op_count(k, s);
    let loads = stmt_ext_loads(k, s);
    p.stmt_base_cost + work.div_ceil(p.seq_issue_width.max(1)) + loads * miss_cycles(p)
}

/// Cycles to evaluate a loop's bound expressions when they load from
/// external memory (the CSR `row_ptr[r]..row_ptr[r+1]` pattern). Zero for
/// affine bounds. With line buffers on, adjacent pointers into the same
/// buffer share a fetched line, so each distinct buffer pays one round
/// trip per evaluation; without them every load pays its own.
fn bound_load_cycles(k: &Kernel, p: &PerfParams, s: &Stmt) -> u64 {
    let loads = stmt_ext_loads(k, s);
    if loads == 0 {
        return 0;
    }
    if !p.line_buffers {
        return loads * miss_cycles(p);
    }
    let mut bufs = Vec::new();
    for e in stmt_exprs(s) {
        expr_loads(k, e, &mut bufs);
    }
    bufs.sort_by_key(|a| a.buf.0);
    bufs.dedup_by_key(|a| a.buf.0);
    bufs.len() as u64 * miss_cycles(p)
}

/// Can the loop body be pipelined? Structural form of the scheduler's
/// decision: any nested sequential region (inner non-unrolled loop,
/// critical section, barrier, DMA burst) forces sequential execution.
/// Public so `nymble-hls`'s region analysis classifies loop regions the
/// same way the profit model priced them.
pub fn pipeline_eligible(body: &[Stmt]) -> bool {
    body.iter().all(|s| match s {
        Stmt::For { body, unroll, .. } => *unroll == Unroll::Full && pipeline_eligible(body),
        Stmt::Critical { .. } | Stmt::Barrier | Stmt::Preload { .. } | Stmt::WriteBack { .. } => {
            false
        }
        Stmt::If { then_b, else_b, .. } => pipeline_eligible(then_b) && pipeline_eligible(else_b),
        _ => true,
    })
}

/// Crude pipeline-depth estimate: the summed operator-chain latency of the
/// body's statements (an upper bound; negligible against `(trip−1)·II`).
fn body_depth(k: &Kernel, body: &[Stmt]) -> u64 {
    body.iter()
        .map(|s| match s {
            Stmt::Assign { expr, .. } => deps::expr_chain_latency(k, *expr),
            Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
                deps::expr_chain_latency(k, *index).max(deps::expr_chain_latency(k, *value)) + 1
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                deps::expr_chain_latency(k, *cond)
                    + body_depth(k, then_b).max(body_depth(k, else_b))
            }
            Stmt::For { body, .. } => body_depth(k, body),
            _ => 0,
        })
        .sum()
}

/// Does the expression read external memory anywhere? Such values are
/// data-dependent: an image can evaluate them at one iteration, but the
/// result carries no structure.
fn expr_has_load(k: &Kernel, id: ExprId) -> bool {
    let e = k.expr(id);
    matches!(e, Expr::LoadExt { .. }) || e.children().any(|c| expr_has_load(k, c))
}

/// Does any loop (at any nesting depth) in `block` draw its bounds from
/// external memory? Those trips vary per enclosing iteration.
fn has_mem_dependent_loop(k: &Kernel, block: &[Stmt]) -> bool {
    block.iter().any(|s| match s {
        Stmt::For { body, .. } => {
            stmt_exprs(s).any(|e| expr_has_load(k, e)) || has_mem_dependent_loop(k, body)
        }
        Stmt::If { then_b, else_b, .. } => {
            has_mem_dependent_loop(k, then_b) || has_mem_dependent_loop(k, else_b)
        }
        Stmt::Critical { body } => has_mem_dependent_loop(k, body),
        _ => false,
    })
}

/// One external access inside a pipelined loop body.
#[derive(Clone, Copy, Debug)]
struct ExtAccess {
    buf: ArgId,
    /// Index expression of the access (for stride analysis).
    index: ExprId,
    /// Payload bytes per access.
    bytes: u32,
    /// Posted store (no response latency) vs. load.
    is_write: bool,
}

/// Every external load in the expression tree `id`.
fn expr_loads(kernel: &Kernel, id: ExprId, out: &mut Vec<ExtAccess>) {
    let e = kernel.expr(id);
    if let Expr::LoadExt { buf, index, ty } = e {
        out.push(ExtAccess {
            buf: *buf,
            index: *index,
            bytes: ty.size_bytes(),
            is_write: false,
        });
    }
    for c in e.children() {
        expr_loads(kernel, c, out);
    }
}

/// All external accesses (loads and stores) directly inside `block`,
/// excluding nested non-unrolled loops (they cost themselves).
fn collect_ext_accesses(kernel: &Kernel, block: &[Stmt], out: &mut Vec<ExtAccess>) {
    for s in block {
        match s {
            Stmt::If { then_b, else_b, .. } => {
                collect_ext_accesses(kernel, then_b, out);
                collect_ext_accesses(kernel, else_b, out);
            }
            Stmt::For { body, unroll, .. } => {
                if *unroll == Unroll::Full {
                    collect_ext_accesses(kernel, body, out);
                }
            }
            _ => {
                if let Stmt::StoreExt { buf, index, .. } = s {
                    out.push(ExtAccess {
                        buf: *buf,
                        index: *index,
                        bytes: kernel.buffer_elem_size(*buf),
                        is_write: true,
                    });
                }
                for e in stmt_exprs(s) {
                    expr_loads(kernel, e, out);
                }
            }
        }
    }
}

/// The expressions a statement evaluates itself: nested blocks are
/// statements of their own, and DMA operands are not datapath work.
fn stmt_exprs(s: &Stmt) -> impl Iterator<Item = ExprId> {
    let exprs = match *s {
        Stmt::Assign { expr, .. } | Stmt::If { cond: expr, .. } => [Some(expr), None, None],
        Stmt::StoreExt { index, value, .. } | Stmt::StoreLocal { index, value, .. } => {
            [Some(index), Some(value), None]
        }
        Stmt::For {
            start, end, step, ..
        } => [Some(start), Some(end), Some(step)],
        _ => [None; 3],
    };
    exprs.into_iter().flatten()
}

/// Sum of `count` over every node of the expressions a statement
/// evaluates itself.
fn stmt_expr_sum(k: &Kernel, s: &Stmt, count: fn(&Expr) -> u64) -> u64 {
    fn expr_sum(k: &Kernel, id: ExprId, count: fn(&Expr) -> u64) -> u64 {
        let e = k.expr(id);
        count(e) + e.children().map(|c| expr_sum(k, c, count)).sum::<u64>()
    }
    stmt_exprs(s).map(|e| expr_sum(k, e, count)).sum()
}

/// Scalar-operation count of one statement's expressions. `LoadExt` is
/// excluded — it is priced as a miss by [`stmt_ext_loads`], not as issue
/// work.
fn stmt_op_count(k: &Kernel, s: &Stmt) -> u64 {
    stmt_expr_sum(k, s, |e| {
        matches!(
            e,
            Expr::Unary(..)
                | Expr::Binary(..)
                | Expr::Cast(..)
                | Expr::Select { .. }
                | Expr::LoadLocal { .. }
        ) as u64
    })
}

/// Number of external loads in one statement's expressions (each is a
/// full DRAM round-trip in sequential mode).
fn stmt_ext_loads(k: &Kernel, s: &Stmt) -> u64 {
    stmt_expr_sum(k, s, |e| matches!(e, Expr::LoadExt { .. }) as u64)
}

/// Bytes moved by the value expression of an external store.
fn expr_bytes(k: &Kernel, id: ExprId) -> u32 {
    match k.expr(id) {
        Expr::Const(v) => v.ty().size_bytes(),
        _ => 4,
    }
}

// ---------------------------------------------------------------------------
// The finding passes.
// ---------------------------------------------------------------------------

/// A finding located by pre-order statement index, priced later against
/// the [`PerfModel`].
struct Pending {
    stmt_idx: usize,
    code: Code,
    message: String,
    label: &'static str,
    /// Metric the prediction is denominated in, plus a direct value when
    /// the finding computes one itself (`NP003`/`NP005`); model-priced
    /// codes fill the value at emit time.
    metric: PredMetric,
    direct_value: Option<f64>,
}

struct Finder<'k> {
    k: &'k Kernel,
    nt: usize,
    /// One cost walker per thread, for evaluation under its bindings.
    threads: Vec<CostWalker<'k, Structural>>,
    stmt_idx: usize,
    pending: Vec<Pending>,
    first_top_barrier: Option<usize>,
    /// Per local memory: is it read (`LoadLocal`) / written (`StoreLocal`)
    /// anywhere in the kernel?
    mem_read: Vec<bool>,
    mem_written: Vec<bool>,
    /// Per-thread product of enclosing non-unrolled loop trip counts
    /// (`None` = unresolvable).
    trip_prod: Vec<Option<u64>>,
}

/// Run the performance passes, returning diagnostics sorted by listing
/// position. All `NP` codes are warnings: they flag *slow*, not *wrong*.
pub(crate) fn run_perf_checks(k: &Kernel, p: &PerfParams) -> Vec<Diagnostic> {
    let nt = k.num_threads.max(1) as usize;
    let mut mem_read = vec![false; k.local_mems.len()];
    let mut mem_written = vec![false; k.local_mems.len()];
    mark_local_usage(k, &mut mem_read, &mut mem_written);
    let mut f = Finder {
        k,
        nt,
        threads: (0..nt)
            .map(|t| CostWalker {
                tid: t as i64,
                ..CostWalker::new(k, p, Structural::new(p))
            })
            .collect(),
        stmt_idx: 0,
        pending: Vec::new(),
        first_top_barrier: None,
        mem_read,
        mem_written,
        trip_prod: vec![Some(1); nt],
    };
    f.walk_block(&k.body, true);

    let m = model(k, p);

    // NP005: thread imbalance at a barrier, from the model's per-thread
    // busy cycles (needs both a rendezvous point and a resolvable model).
    if let (Some(bar), Some(m)) = (f.first_top_barrier, m.as_ref()) {
        if nt >= 2 {
            let max = m.per_thread.iter().copied().max().unwrap_or(0);
            let min = m.per_thread.iter().copied().min().unwrap_or(0);
            let ratio = max as f64 / (min.max(1)) as f64;
            if ratio >= 1.5 {
                f.pending.push(Pending {
                    stmt_idx: bar,
                    code: Code::NP005,
                    message: format!(
                        "threads are imbalanced at this barrier: predicted busy-cycle \
                         ratio {ratio:.2} (max {max} vs min {min} cycles); the fast \
                         threads idle until the slowest arrives"
                    ),
                    label: "barrier",
                    metric: PredMetric::ImbalanceRatio,
                    direct_value: Some((ratio * 100.0).round() / 100.0),
                });
            }
        }
    }

    let listing = nymble_ir::pretty::listing(k);
    let mut out: Vec<(usize, Code, Diagnostic)> = Vec::new();
    for pend in f.pending {
        let mut d = Diagnostic::new(
            pend.code,
            pend.message,
            vec![crate::checks::span(&listing, pend.stmt_idx, pend.label)],
        );
        let value = match (pend.direct_value, m.as_ref()) {
            (Some(v), _) => Some(v),
            (None, Some(m)) => Some(match pend.metric {
                PredMetric::TotalCycles => m.total_cycles as f64,
                PredMetric::DramBytes => m.dram_bytes as f64,
                PredMetric::SerialCycles => m.critical_cycles as f64,
                PredMetric::WastedDmaBytes | PredMetric::ImbalanceRatio => {
                    unreachable!("always priced directly")
                }
            }),
            (None, None) => None,
        };
        if let Some(v) = value {
            d = d.with_prediction(pend.metric, v);
        }
        out.push((pend.stmt_idx, pend.code, d));
    }
    out.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then(a.2.message.cmp(&b.2.message))
    });
    out.into_iter().map(|(_, _, d)| d).collect()
}

fn mark_local_usage(k: &Kernel, read: &mut [bool], written: &mut [bool]) {
    fn expr_reads(k: &Kernel, e: ExprId, read: &mut [bool]) {
        if let Expr::LoadLocal { mem, .. } = k.expr(e) {
            read[mem.0 as usize] = true;
        }
        for c in k.expr(e).children() {
            expr_reads(k, c, read);
        }
    }
    nymble_ir::stmt::visit_stmts(&k.body, &mut |s| {
        if let Stmt::StoreLocal { mem, .. } = s {
            written[mem.0 as usize] = true;
        }
        // DMA endpoints themselves don't count as compute usage: that is
        // exactly what NP003 is probing.
        for e in stmt_exprs(s) {
            expr_reads(k, e, read);
        }
    });
}

impl<'k> Finder<'k> {
    fn walk_block(&mut self, block: &[Stmt], top_level: bool) {
        for s in block {
            let idx = self.stmt_idx;
            self.stmt_idx += 1;
            match s {
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                    unroll,
                } => {
                    // Per-thread trip counts and first-iteration bindings.
                    let mut trips: Vec<Option<u64>> = Vec::with_capacity(self.nt);
                    let mut saved = Vec::with_capacity(self.nt);
                    for w in &mut self.threads {
                        trips.push(w.trip(*start, *end, *step).map(|(_, _, n)| n));
                        let slot = var.0 as usize;
                        saved.push((w.bindings[slot], w.approx[slot]));
                        w.bindings[slot] = w.eval_i64(*start);
                        w.approx[slot] = true;
                    }
                    let max_trip = trips.iter().filter_map(|t| *t).max().unwrap_or(0);

                    if *unroll == Unroll::None && pipeline_eligible(body) && max_trip >= 2 {
                        self.check_recurrence(idx, var, body, max_trip);
                        self.check_strides(idx, s, body, max_trip);
                    }

                    // Track enclosing trips for NP004 (critical entries).
                    let saved_prod = self.trip_prod.clone();
                    if *unroll == Unroll::None {
                        for (prod, trip) in self.trip_prod.iter_mut().zip(&trips) {
                            *prod = prod.zip(*trip).map(|(a, b)| a * b);
                        }
                    }
                    self.walk_block(body, false);
                    self.trip_prod = saved_prod;
                    for (w, (b, a)) in self.threads.iter_mut().zip(saved) {
                        let slot = var.0 as usize;
                        w.bindings[slot] = b;
                        w.approx[slot] = a;
                    }
                }
                Stmt::If { then_b, else_b, .. } => {
                    self.walk_block(then_b, false);
                    self.walk_block(else_b, false);
                }
                Stmt::Critical { body } => {
                    self.check_critical(idx);
                    self.walk_block(body, false);
                }
                Stmt::Barrier if top_level && self.first_top_barrier.is_none() => {
                    self.first_top_barrier = Some(idx);
                }
                Stmt::Preload { mem, len, .. } if !self.mem_read[mem.0 as usize] => {
                    self.check_dead_dma(idx, *mem, *len, true);
                }
                Stmt::WriteBack { mem, len, .. } if !self.mem_written[mem.0 as usize] => {
                    self.check_dead_dma(idx, *mem, *len, false);
                }
                _ => {}
            }
        }
    }

    /// NP001: a pipelined loop whose recurrence chain exceeds one cycle
    /// cannot start an iteration per cycle — II is at least the chain.
    fn check_recurrence(&mut self, idx: usize, var: &VarId, body: &[Stmt], max_trip: u64) {
        let recs = deps::body_recurrences(self.k, body);
        let Some(worst) = recs.first() else { return };
        if worst.latency < 2 {
            return;
        }
        let kind = if worst.through_memory {
            "memory-carried"
        } else {
            "loop-carried"
        };
        self.pending.push(Pending {
            stmt_idx: idx,
            code: Code::NP001,
            message: format!(
                "II >= {} due to recurrence on `{}`: pipelined loop over `{}` \
                 (trip {}) carries a {}-cycle {} dependence chain, so iterations \
                 cannot overlap past it",
                worst.latency,
                worst.name,
                self.k.var(*var).name,
                max_trip,
                worst.latency,
                kind
            ),
            label: "pipelined loop with recurrence",
            metric: PredMetric::TotalCycles,
            direct_value: None,
        });
    }

    /// NP002: a strided stream in a pipelined loop touches a fresh DRAM
    /// line every few elements, multiplying line traffic over the useful
    /// payload.
    fn check_strides(&mut self, idx: usize, stmt: &Stmt, body: &[Stmt], max_trip: u64) {
        let line = self.threads[0].p.dram_line_bytes;
        let (var, start, step) = match stmt {
            Stmt::For {
                var, start, step, ..
            } => (*var, *start, *step),
            _ => return,
        };
        let mut accesses = Vec::new();
        collect_ext_accesses(self.k, body, &mut accesses);
        let mut flagged: Vec<(nymble_ir::ArgId, u64)> = Vec::new();
        for a in accesses {
            // Evaluate the stride on the first thread whose loop resolves.
            let stride_bytes = self.threads.iter_mut().find_map(|w| {
                let loop_start = (w.eval_i64(start)?, w.eval_i64(step)?);
                match w.first_two(var, loop_start, a.index) {
                    (Some(x), Some(y)) => Some((y - x).unsigned_abs() * a.bytes as u64),
                    _ => None,
                }
            });
            let Some(stride_bytes) = stride_bytes else {
                continue;
            };
            // Line traffic per access vs useful payload.
            let line_contrib = if stride_bytes < line {
                stride_bytes.max(a.bytes as u64).min(line)
            } else {
                line
            };
            let mult = line_contrib / (a.bytes as u64).max(1);
            // Small multipliers (2–3×) are usually the thread-decomposition
            // stride itself — threads interleave and jointly cover each
            // line — so only report from 4× up.
            if mult < 4 {
                continue;
            }
            let key = (a.buf, stride_bytes);
            if flagged.contains(&key) {
                continue;
            }
            flagged.push(key);
            let stride_elems = stride_bytes / (a.bytes as u64).max(1);
            self.pending.push(Pending {
                stmt_idx: idx,
                code: Code::NP002,
                message: format!(
                    "stride-{} access to `{}`: ~{}x line traffic ({} bytes of \
                     DRAM line fetched per {}-byte element, trip {})",
                    stride_elems,
                    self.k.arg(a.buf).name,
                    mult,
                    line_contrib,
                    a.bytes,
                    max_trip
                ),
                label: "strided external access",
                metric: PredMetric::DramBytes,
                direct_value: None,
            });
        }
    }

    /// NP004: a critical section entered on every iteration of a parallel
    /// loop serializes the threads on the hardware semaphore.
    fn check_critical(&mut self, idx: usize) {
        if self.nt < 2 {
            return;
        }
        // A critical entered once per thread is the cheapest correct way
        // to merge partials — only repeated entries (inside a loop with
        // trip ≥ 2) indicate a serialization pattern worth flagging.
        if !self.trip_prod.iter().any(|t| t.is_some_and(|v| v >= 2)) {
            return;
        }
        let entries: Option<u64> = self
            .trip_prod
            .iter()
            .try_fold(0u64, |acc, t| t.map(|v| acc + v));
        match entries {
            Some(total) if total >= 2 => {
                self.pending.push(Pending {
                    stmt_idx: idx,
                    code: Code::NP004,
                    message: format!(
                        "critical section executes {} times across {} threads; every \
                         entry serializes on the hardware semaphore (Amdahl bound: \
                         the serial term grows with thread count instead of shrinking)",
                        total, self.nt
                    ),
                    label: "critical section",
                    metric: PredMetric::SerialCycles,
                    direct_value: None,
                });
            }
            _ => {}
        }
    }

    /// NP003: DMA whose payload is provably unused.
    fn check_dead_dma(
        &mut self,
        idx: usize,
        mem: nymble_ir::LocalMemId,
        len: ExprId,
        preload: bool,
    ) {
        let elem = self.k.local_mem(mem).elem.size_bytes() as u64;
        let wasted: Option<u64> = self.threads.iter().try_fold(0u64, |acc, w| {
            w.eval_i64(len).map(|n| acc + n.max(0) as u64 * elem)
        });
        let name = &self.k.local_mem(mem).name;
        let message = if preload {
            format!(
                "preload into `{name}` is dead: no compute reads `{name}`, so the \
                 DMA burst only burns DRAM bandwidth"
            )
        } else {
            format!(
                "write-back from `{name}` is dead: no compute writes `{name}`, so \
                 the DMA copies untouched BRAM contents back to DRAM"
            )
        };
        self.pending.push(Pending {
            stmt_idx: idx,
            code: Code::NP003,
            message,
            label: if preload {
                "dead preload"
            } else {
                "dead write-back"
            },
            metric: PredMetric::WastedDmaBytes,
            direct_value: wasted.map(|w| w as f64),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    #[test]
    fn model_prices_a_simple_pipelined_reduction() {
        let mut kb = KernelBuilder::new("red", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc = kb.var("acc", Type::F32);
        let n = kb.c_i64(100);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
        let k = kb.finish();
        let p = PerfParams {
            launch_interval: 200,
            ..Default::default()
        };
        let m = model(&k, &p).expect("resolvable");
        assert_eq!(m.per_thread.len(), 1);
        // 100 sequential f32 loads: at least 4 bytes of line traffic each.
        assert!(m.dram_bytes >= 400, "dram {}", m.dram_bytes);
        // II ≥ FAdd latency → at least (trip−1)·4 cycles.
        assert!(m.per_thread[0] >= 99 * 4, "busy {}", m.per_thread[0]);
    }

    #[test]
    fn unresolvable_scalar_bound_returns_none() {
        let mut kb = KernelBuilder::new("dyn", 1);
        let n = kb.scalar_arg("N", ScalarType::I64);
        let bound = kb.arg(n);
        kb.for_range("i", bound, |_, _| {});
        let k = kb.finish();
        assert!(model(&k, &PerfParams::default()).is_none());
    }

    #[test]
    fn recurrence_loop_is_flagged_np001() {
        let mut kb = KernelBuilder::new("rec", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::From);
        let acc = kb.var("acc", Type::F32);
        let n = kb.c_i64(64);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
        let tid = kb.thread_id();
        let fin = kb.get(acc);
        kb.store(c, tid, fin);
        let k = kb.finish();
        let ds = run_perf_checks(&k, &PerfParams::default());
        assert!(
            ds.iter().any(|d| d.code == Code::NP001),
            "expected NP001 in {ds:?}"
        );
        let d = ds.iter().find(|d| d.code == Code::NP001).unwrap();
        assert!(d.message.contains("II >= 4"), "{}", d.message);
        assert!(d.prediction.is_some());
    }

    #[test]
    fn region_profits_nest_monotonically() {
        // outer sequential loop { inner pipelined loop; critical }: the
        // outer region's profit must dominate both nested regions'.
        let mut kb = KernelBuilder::new("nest", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
        let acc = kb.var("acc", Type::F32);
        let rows = kb.c_i64(8);
        let cols = kb.c_i64(64);
        kb.for_range("i", rows, |kb, _i| {
            kb.for_range("j", cols, |kb, j| {
                let v = kb.load(a, j, Type::F32);
                let cur = kb.get(acc);
                let s = kb.add(cur, v);
                kb.set(acc, s);
            });
            kb.critical(|kb| {
                let zero = kb.c_i64(0);
                let cur = kb.load(c, zero, Type::F32);
                let mine = kb.get(acc);
                let s = kb.add(cur, mine);
                kb.store(c, zero, s);
            });
        });
        let k = kb.finish();
        let p = PerfParams::default();
        let (_, profits) = model_with_profits(&k, &p).expect("resolvable");
        let outer = &k.body[0];
        let Stmt::For { body, .. } = outer else {
            panic!("outer loop expected");
        };
        let inner = &body[0];
        let crit = &body[1];
        assert!(matches!(inner, Stmt::For { .. }));
        assert!(matches!(crit, Stmt::Critical { .. }));
        let key = |s: &Stmt| s as *const Stmt as usize;
        let po = profits[&key(outer)];
        let pi = profits[&key(inner)];
        let pc = profits[&key(crit)];
        assert!(po.cycles >= pi.cycles + pc.cycles, "{po:?} {pi:?} {pc:?}");
        assert!(po.dram_bytes >= pi.dram_bytes);
        assert_eq!(po.critical_cycles, pc.critical_cycles);
        assert!(pc.critical_cycles > 0, "critical section serializes");
        let bw = p.dram_bytes_per_cycle;
        assert!(po.score(bw) >= pi.score(bw).max(pc.score(bw)));
        // Profits are summed over both threads: the model's single-thread
        // walk of the same loop must not exceed the two-thread total.
        assert!(po.cycles > pi.cycles, "outer adds critical + handshakes");
    }

    #[test]
    fn region_profits_none_when_unresolvable() {
        let mut kb = KernelBuilder::new("dyn", 1);
        let n = kb.scalar_arg("N", ScalarType::I64);
        let bound = kb.arg(n);
        kb.for_range("i", bound, |_, _| {});
        let k = kb.finish();
        assert!(model_with_profits(&k, &PerfParams::default()).is_none());
    }

    #[test]
    fn extrapolated_loop_scales_inner_region_profit() {
        // A long (trip > EXACT_SEQ_TRIP) sequential outer loop is walked
        // once and extrapolated; the critical inside must still be priced
        // per full execution count (trip × per-entry cost).
        let mut kb = KernelBuilder::new("extr", 1);
        let c = kb.buffer("C", ScalarType::F32, MapDir::ToFrom);
        let n = kb.c_i64(100);
        kb.for_range("i", n, |kb, i| {
            kb.critical(|kb| {
                let cur = kb.load(c, i, Type::F32);
                kb.store(c, i, cur);
            });
        });
        let k = kb.finish();
        let p = PerfParams::default();
        let (_, profits) = model_with_profits(&k, &p).expect("resolvable");
        let outer = &k.body[0];
        let Stmt::For { body, .. } = outer else {
            panic!("outer loop expected");
        };
        let crit = &body[0];
        let pc = profits[&(crit as *const Stmt as usize)];
        let per_entry = p.sem_acquire_latency + p.sem_release_latency;
        assert!(
            pc.critical_cycles >= 100 * per_entry,
            "expected ≥ trip × per-entry serialization, got {pc:?}"
        );
    }

    /// `critical { x = x + 1 }`: 12 (acquire) + 2 (one op: 1 + ⌈1/4⌉) +
    /// 4 (release) = 18 cycles, all of them serialized.
    fn bump_in_critical(kb: &mut KernelBuilder, x: VarId) {
        kb.critical(|kb| {
            let cur = kb.get(x);
            let one = kb.c_i32(1);
            let s = kb.add(cur, one);
            kb.set(x, s);
        });
    }

    /// `start + per_thread · tid`, as an i64 loop bound.
    fn tid_bound(kb: &mut KernelBuilder, start: i64, per_thread: i64) -> ExprId {
        let tid = kb.thread_id();
        let t = kb.cast(ScalarType::I64, tid);
        let c = kb.c_i64(per_thread);
        let m = kb.mul(t, c);
        let s = kb.c_i64(start);
        kb.add(s, m)
    }

    #[test]
    fn memo_keys_on_the_thread_id_when_a_trip_reads_it() {
        // for i in 0..4 { for j in 0..tid+1 { critical { x += 1 } } }: the
        // inner loop is the same statement with the same bindings on both
        // threads, so only the thread id tells its two trips apart.
        let mut kb = KernelBuilder::new("tid_trip", 2);
        let x = kb.var("x", Type::I32);
        let four = kb.c_i64(4);
        kb.for_range("i", four, |kb, _| {
            let end = tid_bound(kb, 1, 1);
            kb.for_range("j", end, |kb, _| bump_in_critical(kb, x));
        });
        let k = kb.finish();
        let m = model(&k, &PerfParams::default()).expect("resolvable");
        // Inner, walked exactly: (tid+1)·(18 + 1 handshake) + 1 exit.
        // Outer: 4·(inner + 1) + 1 → 4·21 + 1 and 4·40 + 1.
        assert_eq!(m.per_thread, vec![85, 161]);
        assert_eq!(m.critical_cycles, 18 * 4 + 18 * 8);
    }

    #[test]
    fn memo_keys_on_whether_a_binding_is_exact() {
        // for k in 0..2+18·tid { for r in 0..1 { if k >= 1 { critical } } }.
        // Thread 0 walks k exactly (trip 2): at k = 0 the guard is false.
        // Thread 1 extrapolates (trip 20 > EXACT_SEQ_TRIP) from k = 0, a
        // first-iteration binding, so the guard is unresolved and the
        // dearer branch is priced — double buffering's `kb < nblocks`
        // guard. The inner loop sees k = 0 both times; only the binding's
        // exactness differs.
        let mut kb = KernelBuilder::new("parity", 2);
        let x = kb.var("x", Type::I32);
        let end = tid_bound(&mut kb, 2, 18);
        let zero = kb.c_i64(0);
        let step = kb.c_i64(1);
        kb.for_each("k", zero, end, step, |kb, k| {
            let once = kb.c_i64(1);
            kb.for_range("r", once, |kb, _| {
                let one = kb.c_i64(1);
                let cond = kb.bin(nymble_ir::BinOp::Ge, k, one);
                kb.if_then(cond, |kb| bump_in_critical(kb, x));
            });
        });
        let k = kb.finish();
        let m = model(&k, &PerfParams::default()).expect("resolvable");
        // If: 2 cycles for the guard, plus 18 when the critical is priced.
        // r (one exact iteration): If + 1 handshake + 1 exit → 4 or 22.
        // Thread 0: (4 + 1) + (22 + 1) + 1 = 29.
        // Thread 1: 20·22 + 20 handshakes + 1 exit = 461.
        assert_eq!(m.per_thread, vec![29, 461]);
    }

    #[test]
    fn memo_hit_under_an_extrapolated_loop_scales_its_profits() {
        // for i in 0..20+tid { for j in 0..2 { critical { x += 1 } } }: i
        // is extrapolated (trip > EXACT_SEQ_TRIP) and differs per thread,
        // so thread 1 walks it afresh; j reads neither, so thread 1 reuses
        // thread 0's price for it at scale 21 instead of 20.
        let mut kb = KernelBuilder::new("scaled_hit", 2);
        let x = kb.var("x", Type::I32);
        let end = tid_bound(&mut kb, 20, 1);
        let zero = kb.c_i64(0);
        let step = kb.c_i64(1);
        kb.for_each("i", zero, end, step, |kb, _| {
            let two = kb.c_i64(2);
            kb.for_range("j", two, |kb, _| bump_in_critical(kb, x));
        });
        let k = kb.finish();
        let (m, profits) = model_with_profits(&k, &PerfParams::default()).expect("resolvable");
        // j: 2·(18 + 1) + 1 = 39. i: 39·trip + trip + 1.
        assert_eq!(m.per_thread, vec![39 * 20 + 21, 39 * 21 + 22]);
        let Stmt::For { body, .. } = &k.body[0] else {
            panic!("outer loop expected");
        };
        let Stmt::For { body: inner, .. } = &body[0] else {
            panic!("inner loop expected");
        };
        let profit = |s: &Stmt| profits[&(s as *const Stmt as usize)];
        let entries = 2 * (20 + 21);
        let serial = 18 * entries;
        assert_eq!(
            profit(&inner[0]),
            RegionProfit {
                cycles: serial,
                critical_cycles: serial,
                ..Default::default()
            }
        );
        assert_eq!(
            profit(&body[0]),
            RegionProfit {
                cycles: 39 * (20 + 21),
                critical_cycles: serial,
                ..Default::default()
            }
        );
        assert_eq!(profit(&k.body[0]).cycles, 801 + 841);
    }

    /// A compiled design with a memory image, simplified: every loop that
    /// can pipeline does so at II 1 and depth 4, without restart
    /// contention, and `bufs[i]` is buffer argument `i` at launch.
    struct Imaged(Vec<Vec<i64>>);

    impl CostSource for Imaged {
        fn pipelined(&self, _k: &Kernel, _s: &Stmt, body: &[Stmt]) -> Option<(u64, u64)> {
            pipeline_eligible(body).then_some((1, 4))
        }

        fn load(&self, buf: ArgId, index: usize) -> Option<i64> {
            self.0.get(buf.0 as usize)?.get(index).copied()
        }

        fn has_image(&self) -> bool {
            true
        }
    }

    /// Four rows striped over the threads, each an inner loop over
    /// `bounds(ROW_PTR, r)` with body `body(A, r, k)`. `ROW_PTR` is
    /// argument 0 and `A` argument 1.
    fn row_walk(
        threads: u32,
        bounds: impl FnOnce(&mut KernelBuilder, ArgId, ExprId) -> (ExprId, ExprId),
        body: impl FnOnce(&mut KernelBuilder, ArgId, ExprId, ExprId),
    ) -> Kernel {
        let mut kb = KernelBuilder::new("rows", threads);
        let row_ptr = kb.buffer("ROW_PTR", ScalarType::I64, MapDir::To);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let tid = kb.thread_id();
        let my = kb.cast(ScalarType::I64, tid);
        let nt = kb.num_threads_expr();
        let nt64 = kb.cast(ScalarType::I64, nt);
        let rows = kb.c_i64(4);
        kb.for_each("r", my, rows, nt64, |kb, r| {
            let (lo, hi) = bounds(kb, row_ptr, r);
            let one = kb.c_i64(1);
            kb.for_each("k", lo, hi, one, |kb, k| body(kb, a, r, k));
        });
        kb.finish()
    }

    /// `row_ptr[r]..row_ptr[r + 1]`.
    fn csr_bounds(kb: &mut KernelBuilder, row_ptr: ArgId, r: ExprId) -> (ExprId, ExprId) {
        let lo = kb.load(row_ptr, r, Type::I64);
        let one = kb.c_i64(1);
        let r1 = kb.add(r, one);
        (lo, kb.load(row_ptr, r1, Type::I64))
    }

    /// `x += A[index]`, a pipelinable body.
    fn accumulate(kb: &mut KernelBuilder, a: ArgId, index: ExprId) {
        let x = kb.var("x", Type::F32);
        let v = kb.load(a, index, Type::F32);
        let cur = kb.get(x);
        let s = kb.add(cur, v);
        kb.set(x, s);
    }

    /// The model of `k` under [`Imaged`], and how many loop contexts the
    /// walk priced.
    fn imaged_model(k: &Kernel, row_ptr: &[i64]) -> (PerfModel, usize) {
        let p = PerfParams::default();
        let mut w = CostWalker::new(k, &p, Imaged(vec![row_ptr.to_vec()]));
        let m = w.model().expect("bounds resolve against the image");
        (m, w.memo.len())
    }

    // In the image tests below, a round trip is 1 + 48 = 49 cycles and a
    // read miss stalls 49 − 8 = 41 beyond the scheduled load latency. The
    // inner loop's bounds load one `ROW_PTR` line: 49 cycles per entry. A
    // pipelined entry of trip n costs 4 + (n − 1)·eff_ii + 49, and each
    // row adds 1 handshake, each row walk 1 exit.

    #[test]
    fn rows_of_equal_length_share_one_price() {
        // A[k]: a 4-byte stride, 41·4/64 = 2 stall cycles per iteration,
        // eff_ii 3. Trip 3: 4 + 2·3 + 49 = 59; trip 0: the bound loads.
        let k = row_walk(1, csr_bounds, |kb, a, _, k| accumulate(kb, a, k));
        let (m, contexts) = imaged_model(&k, &[0, 3, 6, 6, 9]);
        assert_eq!(m.per_thread, vec![3 * (59 + 1) + (49 + 1) + 1]);
        assert_eq!(m.dram_bytes, 3 * 3 * 4);
        assert_eq!(contexts, 2, "one price per distinct trip");
    }

    #[test]
    fn a_row_dependent_index_prices_rows_of_equal_length_apart() {
        // Every row has 2 elements. A[r·k] reads the row itself: the
        // stride is 4r bytes, 41·4r/64 = 0, 2, 5, 7 stall cycles.
        let k = row_walk(1, csr_bounds, |kb, a, r, k| {
            let i = kb.mul(r, k);
            accumulate(kb, a, i)
        });
        let (m, _) = imaged_model(&k, &[0, 2, 4, 6, 8]);
        let price = |stall: u64| 4 + (1 + stall) + 49 + 1;
        assert_eq!(
            m.per_thread,
            vec![price(0) + price(2) + price(5) + price(7) + 1]
        );
        assert_eq!(m.dram_bytes, 2 * (4 + 4 + 8 + 12));
        // A[k·k] reads only k, but not affinely: from k = 2j the stride is
        // 4·(4j + 1) = 4, 20, 36, 52 bytes, 2, 12, 23, 33 stall cycles.
        let k = row_walk(1, csr_bounds, |kb, a, _, k| {
            let i = kb.mul(k, k);
            accumulate(kb, a, i)
        });
        let (m, _) = imaged_model(&k, &[0, 2, 4, 6, 8]);
        assert_eq!(
            m.per_thread,
            vec![price(2) + price(12) + price(23) + price(33) + 1]
        );
        assert_eq!(m.dram_bytes, 2 * (4 + 20 + 36 + 52));
        // A sequential body `if r == 0 { critical { n += 1 } }`: per
        // iteration 2 + 18 on row 0 and 2 elsewhere, plus 1 handshake,
        // and 1 exit: 43 + 49 and 7 + 49.
        let k = row_walk(1, csr_bounds, |kb, _, r, _| {
            let n = kb.var("n", Type::I32);
            let zero = kb.c_i64(0);
            let first = kb.bin(nymble_ir::BinOp::Eq, r, zero);
            kb.if_then(first, |kb| bump_in_critical(kb, n));
        });
        let (m, _) = imaged_model(&k, &[0, 2, 4, 6, 8]);
        assert_eq!(m.per_thread, vec![(92 + 1) + 3 * (56 + 1) + 1]);
        assert_eq!(m.critical_cycles, 2 * 18);
        // `if k == 1 { .. }` reads only k, which is 1 on row 0 alone: 3 +
        // 21 + 1 + 49 = 74 there.
        let k = row_walk(1, csr_bounds, |kb, _, _, k| {
            let n = kb.var("n", Type::I32);
            let one = kb.c_i64(1);
            let second = kb.bin(nymble_ir::BinOp::Eq, k, one);
            kb.if_then(second, |kb| bump_in_critical(kb, n));
        });
        let (m, _) = imaged_model(&k, &[0, 2, 4, 6, 8]);
        assert_eq!(m.per_thread, vec![(74 + 1) + 3 * (56 + 1) + 1]);
        assert_eq!(m.critical_cycles, 18);
    }

    #[test]
    fn a_start_that_reads_the_thread_id_keys_on_the_sharing_probe() {
        // k in max(row_ptr[r], tid)..max(row_ptr[r], tid) + 2 over
        // A[16·k]: a line per access (64 line bytes, 41 stall cycles,
        // mem_ii 64·2/64 = 2). The stream is shared with the other thread
        // when its start is the same there: not on row 0 (0 vs 1), but on
        // rows 1–3, where a shared stream queues 1 more cycle behind the
        // other thread. So thread 0's two rows of equal trip price apart.
        let bounds = |kb: &mut KernelBuilder, row_ptr, r| {
            let start = |kb: &mut KernelBuilder| {
                let lo = kb.load(row_ptr, r, Type::I64);
                let tid = kb.thread_id();
                let t = kb.cast(ScalarType::I64, tid);
                kb.bin(nymble_ir::BinOp::Max, lo, t)
            };
            let lo = start(kb);
            let base = start(kb);
            let two = kb.c_i64(2);
            (lo, kb.add(base, two))
        };
        let k = row_walk(2, bounds, |kb, a, _, k| {
            let sixteen = kb.c_i64(16);
            let i = kb.mul(sixteen, k);
            accumulate(kb, a, i)
        });
        let (m, _) = imaged_model(&k, &[0, 2, 4, 6, 8]);
        let (apart, shared) = (4 + 42 + 49 + 1, 4 + 43 + 49 + 1);
        assert_eq!(m.per_thread, vec![apart + shared + 1, 2 * shared + 1]);
        assert_eq!(m.dram_bytes, 4 * 2 * 64);
    }

    #[test]
    fn a_row_body_that_reads_the_thread_id_keys_on_it() {
        // k (2 per row, sequential): `if tid == 0 { critical { x += 1 } }`
        // costs 2 + 18 on thread 0 and 2 on thread 1, plus 1 handshake
        // per iteration and 1 exit: 43 + 49 and 7 + 49. Equal trips, but
        // the thread tells the prices apart.
        let k = row_walk(2, csr_bounds, |kb, _, _, _| {
            let x = kb.var("n", Type::I32);
            let tid = kb.thread_id();
            let zero = kb.c_i32(0);
            let first = kb.bin(nymble_ir::BinOp::Eq, tid, zero);
            kb.if_then(first, |kb| bump_in_critical(kb, x));
        });
        let (m, _) = imaged_model(&k, &[0, 2, 4, 6, 8]);
        assert_eq!(m.per_thread, vec![2 * (92 + 1) + 1, 2 * (56 + 1) + 1]);
        assert_eq!(m.critical_cycles, 4 * 18);
    }

    #[test]
    fn unit_stride_loop_is_clean() {
        let mut kb = KernelBuilder::new("copy", 2);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let c = kb.buffer("C", ScalarType::F32, MapDir::From);
        let n = kb.c_i64(64);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            kb.store(c, i, v);
        });
        let k = kb.finish();
        let ds = run_perf_checks(&k, &PerfParams::default());
        // Same-index store is a memory recurrence of the *store's own*
        // element; a plain copy has none (value doesn't read C).
        assert!(ds.is_empty(), "{ds:?}");
    }
}
