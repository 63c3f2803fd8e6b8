//! Analytical fast mode: a memory-bound roofline-style performance model.
//!
//! Estimates a kernel's total cycles without simulating it, in the spirit of
//! the analytical model for memory-bound HLS kernels of Dávila-Guzmán et al.
//! (see PAPERS.md). The pricing is the static cost walker of
//! [`nymble_lint::perf`]; this module is its source for a compiled design
//! and a launch — scheduled `(II, depth)` per loop, the calibrated
//! restart-contention term, scalar launch arguments and the launch-time
//! memory image — plus the [`Bound`] classification.
//!
//! The model is cross-validated against the cycle-level simulator on the
//! GEMM/π/SpMV suite (`crates/bench/tests/analytic_validation.rs`) and is
//! meant for sweep pre-screening: configurations worth a real simulation
//! are found in microseconds instead of minutes.

use crate::config::SimConfig;
use crate::memimg::MemImage;
use nymble_hls::accel::Accelerator;
use nymble_hls::op::OpClass;
use nymble_ir::kernel::Kernel;
use nymble_ir::loops::LoopMap;
use nymble_ir::stmt::Stmt;
use nymble_ir::{ArgId, Value};
use nymble_lint::perf::{self, CostSource};

/// What the model predicts limits the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// The datapath issue rate (pipeline II / sequential issue width).
    Compute,
    /// The shared DRAM channel bandwidth.
    Memory,
    /// Critical-section serialization on the hardware semaphore.
    Serialization,
    /// The host's software thread-launch interval.
    LaunchRamp,
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Compute => write!(f, "compute"),
            Bound::Memory => write!(f, "memory"),
            Bound::Serialization => write!(f, "serialization"),
            Bound::LaunchRamp => write!(f, "launch-ramp"),
        }
    }
}

/// The analytical model's prediction for one run.
#[derive(Clone, Debug)]
pub struct AnalyticReport {
    /// Predicted total cycles from host start to last thread completion.
    pub total_cycles: u64,
    /// Predicted busy cycles per thread (excluding launch offset).
    pub per_thread: Vec<u64>,
    /// The dominant limiter.
    pub bound: Bound,
    /// Predicted DRAM bytes moved (line traffic, both directions).
    pub dram_bytes: u64,
    /// Total critical-section cycles across threads (serialized resource).
    pub critical_cycles: u64,
}

/// Scalar launch values, indexed like kernel arguments (buffer slots hold a
/// placeholder). The same shape [`nymble_ir::walker::Walker::new`] takes.
pub type ScalarArgs = [Value];

/// Estimate the run analytically. Returns `None` when the kernel's loop
/// bounds cannot be resolved statically (bounds must be constants, scalar
/// launch arguments, or affine in thread id / num_threads / enclosing
/// induction variables).
pub fn estimate(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
) -> Option<AnalyticReport> {
    estimate_impl(kernel, accel, cfg, scalars, None)
}

/// [`estimate`] with a launch-time memory image: loads from device-read-only
/// (`map(to)`) buffers resolve against the pristine image, so kernels whose
/// loop bounds come from memory — CSR SpMV's `row_ptr[r]..row_ptr[r+1]`
/// inner loop — price statically too. Loops with memory-dependent inner
/// bounds are walked iteration by iteration (each row priced with its true
/// non-zero count) instead of body-at-iteration-0 × trip.
pub fn estimate_with_image(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
    mem: &MemImage,
) -> Option<AnalyticReport> {
    estimate_impl(kernel, accel, cfg, scalars, Some(mem))
}

fn estimate_impl(
    kernel: &Kernel,
    accel: &Accelerator,
    cfg: &SimConfig,
    scalars: &ScalarArgs,
    mem: Option<&MemImage>,
) -> Option<AnalyticReport> {
    let src = Compiled {
        accel,
        cfg,
        loops: LoopMap::build(kernel),
        scalars,
        mem,
    };
    let m = perf::model_with(kernel, &cfg.perf_params(), src)?;
    let total = m.total_cycles;
    let memory_floor = m.dram_bytes / cfg.dram_bytes_per_cycle.max(1) as u64;
    let max_busy = m.per_thread.iter().copied().max().unwrap_or(0);
    let bound = if total == m.ramp_span {
        let ramp = (kernel.num_threads as u64).saturating_sub(1) * cfg.launch_interval;
        if ramp > max_busy {
            Bound::LaunchRamp
        } else if memory_floor * 10 >= total * 7 {
            Bound::Memory
        } else {
            Bound::Compute
        }
    } else if total == m.critical_cycles {
        Bound::Serialization
    } else {
        Bound::Memory
    };
    Some(AnalyticReport {
        total_cycles: total,
        per_thread: m.per_thread,
        bound,
        dram_bytes: m.dram_bytes,
        critical_cycles: m.critical_cycles,
    })
}

/// The cost walker's source for a compiled design and one launch.
struct Compiled<'a> {
    accel: &'a Accelerator,
    cfg: &'a SimConfig,
    loops: LoopMap,
    scalars: &'a ScalarArgs,
    /// Pristine launch-time memory image for resolving loads from
    /// device-read-only (`map(to)`) buffers. `None` = loads are opaque.
    mem: Option<&'a MemImage>,
}

impl CostSource for Compiled<'_> {
    /// The compiled schedule, under the executor's `loop_mode` rule: a
    /// loop whose dataflow graph embeds a region (inner loop, critical
    /// section, burst) runs sequentially. The walker asks once per loop
    /// statement, so the `LoopMap` lookup and the graph scans run once per
    /// loop, not once per visit of the image-driven row walk.
    fn pipelined(&self, _k: &Kernel, loop_stmt: &Stmt, _body: &[Stmt]) -> Option<(u64, u64)> {
        let id = self.loops.id_of(loop_stmt).0 as usize;
        let sched = self.accel.loop_schedules[id].as_ref()?;
        let dfg = self.accel.loop_dfgs[id].as_ref()?;
        let has_region = dfg.count(OpClass::InnerLoop) > 0
            || dfg.count(OpClass::CriticalRegion) > 0
            || dfg.count(OpClass::Burst) > 0;
        (!has_region).then_some((sched.ii as u64, sched.depth as u64))
    }

    /// Restart contention: every time a pipelined loop is re-entered (each
    /// outer sequential iteration — e.g. each CSR row), the T threads
    /// re-synchronize on the sequential region and then blast coincident
    /// pipeline-fill bursts of their *independent* miss streams (gathers,
    /// per-thread strided walks) at the DRAM. Once filled, the
    /// steady-state misses are spread over the effective II and rarely
    /// collide, so the cost is per loop entry, not per iteration. Measured
    /// against the cycle simulator on CSR SpMV the penalty has two
    /// regimes, both taking the quadratic κ·(T·m)²·hold as an upper bound
    /// (κ = 4.5; this also vanishes for GEMM/π, whose independent miss
    /// frequency is ≈ 0 — their streams are shared or line-buffered):
    ///
    /// * **Burst regime** (T ≲ banks/m): collision probability and queue
    ///   depth both scale with burst intensity, so the quadratic itself is
    ///   the cost, clamped by 2× full serialization (each fetch exposing
    ///   its round trip plus the queue ahead of it).
    /// * **Saturated regime** (T ≳ banks/m): the banks never drain between
    ///   rows and the per-fetch delay grows linearly with T; the whole
    ///   sweep's total flattens out. Calibrated:
    ///   `m·trip·(κ_sat·T·hold − miss_stall)` with κ_sat = 9.4, within
    ///   ±15% of the simulator from T = 16 to 256.
    ///
    /// Shared lockstep streams are excluded here; the walker prices them
    /// in the per-iteration latency instead.
    fn restart_contention(&self, nt: u64, trip: u64, m: f64) -> u64 {
        if nt > 1 && m > 0.0 {
            let cfg = self.cfg;
            let line = cfg.dram_line_bytes as u64;
            let occupancy = line.div_ceil(cfg.dram_bytes_per_cycle.max(1) as u64);
            let hold_per_bank =
                (occupancy + cfg.dram_bank_busy) as f64 / cfg.dram_banks.max(1) as f64;
            let burst = nt as f64 * m;
            let quad = 4.5 * burst * burst * hold_per_bank;
            let miss_stall =
                (occupancy + cfg.dram_latency).saturating_sub(cfg.assumed_load_latency) as f64;
            let serial = trip as f64 * m * (miss_stall + burst * hold_per_bank);
            let sat = trip as f64 * m * (9.4 * nt as f64 * hold_per_bank - miss_stall);
            quad.min((2.0 * serial).max(sat)).max(0.0).round() as u64
        } else {
            0
        }
    }

    fn scalar(&self, arg: ArgId) -> Option<i64> {
        self.scalars.get(arg.0 as usize).map(Value::as_i64)
    }

    fn load(&self, buf: ArgId, index: usize) -> Option<i64> {
        self.mem?.buffer(buf).get(index).map(Value::as_i64)
    }

    fn has_image(&self) -> bool {
        self.mem.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nymble_hls::accel::{compile, HlsConfig};
    use nymble_ir::{KernelBuilder, MapDir, ScalarType, Type};

    #[test]
    fn simple_pipelined_loop_is_depth_plus_ii() {
        let mut kb = KernelBuilder::new("axpy", 1);
        let a = kb.buffer("A", ScalarType::F32, MapDir::To);
        let acc_v = kb.var("acc", Type::F32);
        let n = kb.c_i64(100);
        kb.for_range("i", n, |kb, i| {
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc_v);
            let s = kb.add(cur, v);
            kb.set(acc_v, s);
        });
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default().with_fast_launch();
        let r = estimate(&k, &acc, &cfg, &[Value::I32(0)]).expect("static bounds");
        assert!(r.total_cycles > 0);
        assert_eq!(r.per_thread.len(), 1);
        // 100 sequential f32 loads: well under one line per iteration.
        assert!(r.dram_bytes >= 400, "dram bytes {}", r.dram_bytes);
    }

    #[test]
    fn unresolvable_bounds_return_none() {
        // Loop bound loaded from memory: not statically resolvable.
        let mut kb = KernelBuilder::new("dyn", 1);
        let a = kb.buffer("A", ScalarType::I64, MapDir::To);
        let z = kb.c_i64(0);
        let bound = kb.load(a, z, Type::I64);
        kb.for_range("i", bound, |_, _| {});
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default();
        assert!(estimate(&k, &acc, &cfg, &[Value::I32(0)]).is_none());
    }

    #[test]
    fn launch_ramp_dominates_tiny_kernels() {
        let mut kb = KernelBuilder::new("tiny", 8);
        let x = kb.var("x", Type::I32);
        let c = kb.c_i32(1);
        kb.set(x, c);
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default(); // full 880k launch interval
        let r = estimate(&k, &acc, &cfg, &[]).expect("static");
        assert_eq!(r.bound, Bound::LaunchRamp);
        assert!(r.total_cycles >= 7 * cfg.launch_interval);
    }

    #[test]
    fn critical_only_kernel_is_serialization_bound() {
        let mut kb = KernelBuilder::new("crit", 4);
        let out = kb.buffer("OUT", ScalarType::I32, MapDir::ToFrom);
        let n = kb.c_i64(200);
        kb.for_range("i", n, |kb, _| {
            kb.critical(|kb| {
                let z = kb.c_i64(0);
                let cur = kb.load(out, z, Type::I32);
                let one = kb.c_i32(1);
                let inc = kb.add(cur, one);
                let z2 = kb.c_i64(0);
                kb.store(out, z2, inc);
            });
        });
        let k = kb.finish();
        let acc = compile(&k, &HlsConfig::default());
        let cfg = SimConfig::default().with_fast_launch();
        let r = estimate(&k, &acc, &cfg, &[Value::I32(0)]).expect("static");
        assert_eq!(r.bound, Bound::Serialization);
        assert!(r.critical_cycles > 0);
    }
}
