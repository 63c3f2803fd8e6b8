//! The workloads: their seeded inputs, the untraced pass a user runs,
//! and the traced pass that calls each layer on its own.

use crate::check::{self, Checker, Expect};
use crate::span::Tracer;
use bench::engine::{BatchEngine, RunSpec, SchedStats};
use bench::sweep::{gemm_sweep, pi_sweep, GemmSweepConfig, PiSweepConfig};
use bench::{f32_buffer, f32_result, spmv_launch, BenchError};
use fpga_sim::memimg::{LaunchArg, MemImage};
use fpga_sim::{Executor, NullSnoop, RunResult, SimConfig};
use hls_profiling::diagnose::{diagnose, DiagnoseConfig};
use hls_profiling::{PipelineConfig, ProfilingConfig, ProfilingUnit};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::reference;
use kernels::spmv::{self, Csr};
use nymble_hls::{AccelCache, Accelerator, CacheStats, HlsConfig, RegionTree};
use nymble_ir::Kernel;
use nymble_lint::PerfParams;
use paraver::{analysis, events, states};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Threads the paper's case studies run with.
const PAPER_THREADS: u32 = 8;
/// GEMM dimension of a paper-trace pass.
const PAPER_DIM: i64 = 64;
/// The paper's π problem sizes (Figs. 11–13).
const PI_STEPS: [u64; 3] = [1_000_000, 4_000_000, 10_000_000];
/// π step counts of a paper-trace pass: the paper's, divided by 25.
const PASS_PI_STEPS: [u64; 3] = [40_000, 160_000, 400_000];
/// The paper's Stratix 10 π throughput at [`PI_STEPS`], in GFLOP/s.
pub const PI_PAPER_GFLOPS: [f64; 3] = [0.146, 0.556, 1.507];
/// Blocked GEMM of a scale-untraced pass: dimension and thread counts.
const SCALE_DIM: i64 = 64;
const SCALE_GEMM_THREADS: [u32; 2] = [32, 64];
/// Seeded SpMV matrix: square, rows × rows, about `SPMV_NNZ` per row.
const SPMV_ROWS: usize = 65_536;
const SPMV_NNZ: usize = 8;
const SPMV_THREADS: [u32; 2] = [64, 256];
/// GEMM dimension and SpMV thread counts of an analytic-sweep pass.
const SWEEP_DIM: i64 = 64;
const SWEEP_SPMV_THREADS: [u32; 3] = [2, 8, 64];

/// Worker threads of the simulating workloads' untraced passes.
const WORKERS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperTrace,
    ScaleUntraced,
    AnalyticSweep,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "paper-trace" => Some(Workload::PaperTrace),
            "scale-untraced" => Some(Workload::ScaleUntraced),
            "analytic-sweep" => Some(Workload::AnalyticSweep),
            _ => None,
        }
    }

    /// Threads an untraced pass keeps busy.
    pub fn workers(self) -> usize {
        match self {
            Workload::AnalyticSweep => 1,
            _ => WORKERS,
        }
    }

    /// Calibration rounds after each pass: about a tenth of the pass's
    /// wall time.
    pub fn calibration_rounds(self) -> u64 {
        match self {
            Workload::AnalyticSweep => 40,
            _ => 15,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Gemm(GemmParams),
    Pi(PiParams),
    Spmv,
}

/// One kernel of a workload with its launch inputs.
pub struct Case {
    /// Stable label; seed-independent kernels are pinned under it.
    pub label: String,
    pub kind: Kind,
    pub kernel: Kernel,
    pub launch: Vec<LaunchArg>,
    pub sim: SimConfig,
}

impl Case {
    /// Launch argument holding the result the checks read.
    fn out_arg(&self) -> usize {
        match self.kind {
            Kind::Gemm(_) | Kind::Pi(_) => 2,
            Kind::Spmv => 4,
        }
    }

    /// GFLOP/s of a π case that takes `cycles`; `None` for other kernels.
    pub fn pi_gflops(&self, cycles: u64) -> Option<f64> {
        let Kind::Pi(p) = self.kind else {
            return None;
        };
        let flops = p.steps * p.flops_per_iter();
        Some(flops as f64 / self.sim.cycles_to_seconds(cycles) / 1e9)
    }

    /// Bundle stem the sweeps write this kernel's trace under.
    fn stem(&self, out: &Path) -> PathBuf {
        match self.kind {
            Kind::Gemm(p) => out.join(format!("gemm_{}_{}", p.dim, self.kernel.name)),
            Kind::Pi(p) => out.join(format!("pi_{}", p.steps)),
            Kind::Spmv => out.join(format!("spmv_t{}", self.kernel.num_threads)),
        }
    }
}

fn slug(v: GemmVersion) -> &'static str {
    match v {
        GemmVersion::Naive => "naive",
        GemmVersion::NoCritical => "nocritical",
        GemmVersion::Vectorized => "vectorized",
        GemmVersion::Blocked => "blocked",
        GemmVersion::DoubleBuffered => "doublebuffered",
    }
}

fn gemm_params(dim: i64, threads: u32) -> GemmParams {
    GemmParams {
        dim,
        threads,
        vec: 4,
        block: 8,
    }
}

/// Set-up time split by what it builds.
#[derive(Default)]
pub struct SetupTimes {
    /// Kernel IR construction.
    pub build_s: f64,
    /// Seeded launch-input generation.
    pub inputs_s: f64,
}

/// Everything a pass runs on, built before the first layer call.
pub struct Inputs {
    pub cases: Vec<Case>,
    pub matrix: Option<Csr>,
}

/// Build the workload's kernels and seeded inputs. GEMM matrices come
/// from `gen_matrix(dim, 2·seed+1)` and `gen_matrix(dim, 2·seed+2)` (seed
/// 0 gives the sweeps' fixed inputs); the SpMV structure is
/// `Csr::random(.., seed)`. paper-trace keeps seed 0 for GEMM because
/// `gemm_sweep` builds its own launch from those matrices, and runs π at
/// [`PASS_PI_STEPS`].
pub fn setup(w: Workload, seed: u64) -> (Inputs, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut cases = Vec::new();
    let gemm_seed = match w {
        Workload::PaperTrace => 0,
        _ => seed,
    };
    let mut gemm = |v: GemmVersion, p: GemmParams, times: &mut SetupTimes| {
        let t = Instant::now();
        let kernel = gemm::build(v, &p);
        times.build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let d = p.dim as usize;
        let launch = vec![
            f32_buffer(&reference::gen_matrix(d, 2 * gemm_seed + 1)),
            f32_buffer(&reference::gen_matrix(d, 2 * gemm_seed + 2)),
            f32_buffer(&vec![0.0; d * d]),
        ];
        times.inputs_s += t.elapsed().as_secs_f64();
        cases.push(Case {
            label: format!("gemm/{}/d{}/t{}", slug(v), p.dim, p.threads),
            kind: Kind::Gemm(p),
            kernel,
            launch,
            sim: bench::gemm_sim_config(),
        });
    };
    if w == Workload::PaperTrace {
        for v in GemmVersion::ALL {
            gemm(v, gemm_params(PAPER_DIM, PAPER_THREADS), &mut times);
        }
        cases.extend(pi_cases(&PASS_PI_STEPS, &mut times));
        return (
            Inputs {
                cases,
                matrix: None,
            },
            times,
        );
    }
    let spmv_threads: &[u32] = if w == Workload::AnalyticSweep {
        for v in GemmVersion::ALL {
            gemm(v, gemm_params(SWEEP_DIM, PAPER_THREADS), &mut times);
        }
        cases.extend(pi_cases(&PI_STEPS, &mut times));
        &SWEEP_SPMV_THREADS
    } else {
        for t in SCALE_GEMM_THREADS {
            gemm(GemmVersion::Blocked, gemm_params(SCALE_DIM, t), &mut times);
        }
        &SPMV_THREADS
    };
    let t = Instant::now();
    let m = Csr::random(SPMV_ROWS, SPMV_ROWS, SPMV_NNZ, seed);
    let launch = spmv_launch(&m);
    times.inputs_s += t.elapsed().as_secs_f64();
    for &t in spmv_threads {
        let t0 = Instant::now();
        let kernel = spmv::build(m.rows as i64, t);
        times.build_s += t0.elapsed().as_secs_f64();
        cases.push(Case {
            label: format!("spmv/t{t}"),
            kind: Kind::Spmv,
            kernel,
            launch: launch.clone(),
            sim: bench::spmv_sim_config(),
        });
    }
    let matrix = Some(m);
    (Inputs { cases, matrix }, times)
}

/// π at each of `steps`, T=8.
fn pi_cases(steps: &[u64], times: &mut SetupTimes) -> Vec<Case> {
    steps
        .iter()
        .map(|&steps| {
            let p = PiParams {
                steps,
                threads: PAPER_THREADS,
                bs: 8,
            };
            let t = Instant::now();
            let kernel = pi::build(&p);
            times.build_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let launch = bench::pi_launch(&p);
            times.inputs_s += t.elapsed().as_secs_f64();
            Case {
                label: format!("pi/{steps}/t{}", p.threads),
                kind: Kind::Pi(p),
                kernel,
                launch,
                sim: bench::pi_sim_config(),
            }
        })
        .collect()
}

/// The paper's π runs at [`PI_STEPS`]. paper-trace simulates them once
/// after its timed passes, for `hw_err_pct`.
pub fn paper_pi() -> Inputs {
    Inputs {
        cases: pi_cases(&PI_STEPS, &mut SetupTimes::default()),
        matrix: None,
    }
}

/// The seed-independent kernels, whose simulated cycles are pinned, each
/// once.
pub fn pinned_cases() -> Vec<Case> {
    let mut seen = std::collections::BTreeSet::new();
    [
        Workload::PaperTrace,
        Workload::ScaleUntraced,
        Workload::AnalyticSweep,
    ]
    .into_iter()
    .flat_map(|w| setup(w, 0).0.cases)
    .chain(paper_pi().cases)
    .filter(|c| !matches!(c.kind, Kind::Spmv) && seen.insert(c.label.clone()))
    .collect()
}

/// The expected output of every case.
pub fn expectations(inputs: &Inputs) -> Vec<Expect> {
    let buf = |arg: &LaunchArg| -> Vec<f32> {
        match arg {
            LaunchArg::Buffer(v) => v.iter().map(|x| x.as_f64() as f32).collect(),
            LaunchArg::Scalar(_) => Vec::new(),
        }
    };
    inputs
        .cases
        .iter()
        .map(|c| match c.kind {
            Kind::Gemm(p) => Expect::Matrix(reference::gemm(
                &buf(&c.launch[0]),
                &buf(&c.launch[1]),
                p.dim as usize,
            )),
            Kind::Pi(p) => Expect::Pi {
                step: pi::launch_scalars(&p).0,
            },
            Kind::Spmv => {
                let m = inputs.matrix.as_ref().expect("SpMV cases carry a matrix");
                Expect::Vector(m.spmv_ref(&bench::spmv_x(m.cols)))
            }
        })
        .collect()
}

/// What one op produced.
pub struct Done {
    /// Simulated cycles; on analytic-sweep, the predicted cycles.
    pub cycles: u64,
    /// The checked output buffer.
    pub output: Vec<f32>,
    pub accel: Arc<Accelerator>,
    /// Bundle written by this op, if any.
    pub bundle: Option<PathBuf>,
}

/// Scheduler counters summed over a pass's graph executions.
#[derive(Default)]
pub struct Sched {
    pub workers: usize,
    pub makespan_s: f64,
    pub busy_s: f64,
    pub steals: u64,
    pub parks: u64,
}

impl Sched {
    fn add(&mut self, s: &SchedStats) {
        self.workers = s.workers;
        self.makespan_s += s.makespan.as_secs_f64();
        self.busy_s += s.busy.iter().map(|d| d.as_secs_f64()).sum::<f64>();
        self.steals += s.steals;
        self.parks += s.parks;
    }

    pub fn utilization(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.busy_s / (self.workers as f64 * self.makespan_s)
        } else {
            0.0
        }
    }

    /// Makespan minus the ideal makespan of the busy time.
    pub fn overhead_s(&self) -> f64 {
        if self.workers == 0 {
            0.0
        } else {
            self.makespan_s - self.busy_s / self.workers as f64
        }
    }
}

/// One untraced pass.
pub struct Pass {
    pub wall_s: f64,
    /// Latency of each verdict (analytic-sweep only).
    pub verdict_s: Vec<f64>,
    pub sched: Sched,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// One outcome per case, in case order.
    pub done: Vec<Result<Done, String>>,
}

/// Run the workload once, as its user would, with nothing traced.
/// scale-untraced compiles through `cache`, which outlives the pass;
/// paper-trace's sweeps compile through caches of their own, and
/// analytic-sweep compiles cold.
pub fn untraced_pass(w: Workload, inputs: &Inputs, cache: &AccelCache, out: &Path) -> Pass {
    let t = Instant::now();
    let mut pass = match w {
        Workload::PaperTrace => paper_pass(inputs, out),
        Workload::ScaleUntraced => simulate_pass(inputs, cache),
        Workload::AnalyticSweep => verdict_pass(inputs),
    };
    pass.wall_s = t.elapsed().as_secs_f64();
    pass
}

fn paper_pass(inputs: &Inputs, out: &Path) -> Pass {
    let mut pass = empty_pass(inputs.cases.len());
    let gemm_out = out.join("gemm");
    let pi_out = out.join("pi");
    for dir in [&gemm_out, &pi_out] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            pass.done = (0..inputs.cases.len())
                .map(|_| Err(format!("{}: {e}", dir.display())))
                .collect();
            return pass;
        }
    }
    let sim = bench::gemm_sim_config();
    let g = gemm_sweep(&GemmSweepConfig {
        params: gemm_params(PAPER_DIM, PAPER_THREADS),
        hls: HlsConfig::default(),
        sim: sim.clone(),
        prof: ProfilingConfig::default(),
        pipeline: PipelineConfig::default(),
        out: Some(gemm_out.clone()),
        jobs: WORKERS,
    });
    // A user reproducing §V-C reads the diagnosis next to the table.
    for (_, r) in &g.runs {
        if let Ok(run) = &r.outcome {
            black_box(diagnose(
                &run.trace,
                &run.result.stats,
                &sim,
                &DiagnoseConfig::default(),
            ));
        }
    }
    let pi_sim = bench::pi_sim_config();
    let p = pi_sweep(&PiSweepConfig {
        steps: PASS_PI_STEPS.to_vec(),
        threads: PAPER_THREADS,
        bs: 8,
        hls: HlsConfig::default(),
        sim: pi_sim.clone(),
        prof: ProfilingConfig::default(),
        pipeline: PipelineConfig::default(),
        out: Some(pi_out.clone()),
        jobs: WORKERS,
    });
    for (_, r) in &p.runs {
        if let Ok(run) = &r.outcome {
            let run = &run.run;
            black_box(diagnose(
                &run.trace,
                &run.result.stats,
                &pi_sim,
                &DiagnoseConfig::default(),
            ));
        }
    }

    pass.sched.add(&g.sched);
    pass.sched.add(&p.sched);
    pass.cache_hits = g.cache.hits + p.cache.hits;
    pass.cache_misses = g.cache.misses + p.cache.misses;
    let runs = g
        .runs
        .into_iter()
        .map(|(_, r)| (r.outcome, &gemm_out))
        .chain(
            p.runs
                .into_iter()
                .map(|(_, r)| (r.outcome.map(|pr| pr.run), &pi_out)),
        );
    for (case, (outcome, dir)) in inputs.cases.iter().zip(runs) {
        pass.done
            .push(outcome.map_err(|e| e.to_string()).map(|run| Done {
                cycles: run.result.total_cycles,
                output: f32_result(&run.result, case.out_arg()),
                accel: run.accel,
                bundle: Some(case.stem(dir)),
            }));
    }
    pass
}

fn empty_pass(n: usize) -> Pass {
    Pass {
        wall_s: 0.0,
        verdict_s: Vec::new(),
        sched: Sched::default(),
        cache_hits: 0,
        cache_misses: 0,
        done: Vec::with_capacity(n),
    }
}

/// An unprofiled run: its result and the accelerator it ran on.
pub type Simulated = Result<(RunResult, Arc<Accelerator>), BenchError>;

/// Simulate each case unprofiled on the 2-worker engine: compile through
/// `cache`, then `Executor` with `NullSnoop`. Returns each job's outcome,
/// the engine's counters and the cache's counters over this call.
pub fn simulate_all(cases: &[Case], cache: &AccelCache) -> (Vec<Simulated>, SchedStats, CacheStats) {
    let before = cache.stats();
    let hls = HlsConfig::default();
    let specs = cases
        .iter()
        .map(|c| {
            let hls = &hls;
            RunSpec::new(c.label.clone(), move |_| {
                let accel = cache.try_get_or_compile(&c.kernel, hls)?;
                let r = Executor::run(&c.kernel, &accel, &c.sim, &c.launch, &mut NullSnoop)?;
                Ok((r, accel))
            })
        })
        .collect();
    let (reports, stats) = BatchEngine::new(WORKERS).run_with_stats(specs);
    let runs = reports.into_iter().map(|r| r.outcome).collect();
    let after = cache.stats();
    let delta = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        ..after
    };
    (runs, stats, delta)
}

/// One pass of [`simulate_all`] over the inputs' cases.
pub fn simulate_pass(inputs: &Inputs, cache: &AccelCache) -> Pass {
    let mut pass = empty_pass(inputs.cases.len());
    let (runs, stats, cache) = simulate_all(&inputs.cases, cache);
    pass.sched.add(&stats);
    pass.cache_hits = cache.hits;
    pass.cache_misses = cache.misses;
    for (case, outcome) in inputs.cases.iter().zip(runs) {
        pass.done.push(
            outcome
                .map_err(|e| e.to_string())
                .map(|(r, accel)| Done {
                    cycles: r.total_cycles,
                    output: f32_result(&r, case.out_arg()),
                    accel,
                    bundle: None,
                }),
        );
    }
    pass
}

/// One fast-mode pass on this thread: a verdict per case.
fn verdict_pass(inputs: &Inputs) -> Pass {
    let mut pass = empty_pass(inputs.cases.len());
    for case in &inputs.cases {
        let t = Instant::now();
        let done = verdict(case);
        pass.verdict_s.push(t.elapsed().as_secs_f64());
        pass.done.push(done);
    }
    pass
}

/// The fast-mode user's verdict on one kernel: lint, perf-lint, a cold
/// compile and the analytic model's cycle prediction.
fn verdict(case: &Case) -> Result<Done, String> {
    let k = &case.kernel;
    clean(&nymble_lint::lint_kernel(k))?;
    black_box(nymble_lint::perf_lint_kernel(k));
    let accel = nymble_hls::try_compile(k, &HlsConfig::default()).map_err(|e| e.to_string())?;
    let cycles = analytic(case, &accel).ok_or("the analytic model could not price the kernel")?;
    Ok(Done {
        cycles,
        output: Vec::new(),
        accel: Arc::new(accel),
        bundle: None,
    })
}

/// The shipped kernels are race-free: any lint finding is a failure.
fn clean(lint: &nymble_lint::LintReport) -> Result<(), String> {
    match lint.diagnostics.len() {
        0 => Ok(()),
        n => Err(format!("{n} lint findings on a shipped kernel")),
    }
}

/// The analytic model's cycle prediction for `case` under `accel`.
pub fn analytic(case: &Case, accel: &Accelerator) -> Option<u64> {
    let (mem, scalars) = MemImage::new(&case.kernel, &case.launch);
    fpga_sim::analytic::estimate_with_image(&case.kernel, accel, &case.sim, &scalars, &mem)
        .map(|r| r.total_cycles)
}

/// Check every op of a pass: its output, its cycles against the pins
/// and earlier passes, and its bundle's digest against earlier passes.
/// A verdict (analytic-sweep) has no output; its prediction must repeat.
pub fn check_pass(
    checker: &mut Checker,
    w: Workload,
    inputs: &Inputs,
    expect: &[Expect],
    done: &[Result<Done, String>],
) {
    for ((case, want), d) in inputs.cases.iter().zip(expect).zip(done) {
        let outcome = d.as_ref().map_err(Clone::clone).and_then(|d| {
            if w == Workload::AnalyticSweep {
                return checker.prediction(&case.label, d.cycles);
            }
            check::output(want, &d.output)?;
            checker.cycles(&case.label, d.cycles)?;
            if let Some(stem) = &d.bundle {
                let (digest, _) = check::bundle_digest(stem)?;
                checker.digest(&case.label, digest)?;
            }
            Ok(())
        });
        checker.op(&case.label, outcome);
    }
}

/// One traced pass: every case in turn on this thread, each layer call
/// wrapped in a span (ids tie a kernel's spans together). The layer
/// chain mirrors the untraced pass of the workload, caching included:
/// scale-untraced compiles through the run's `cache`, paper-trace
/// through a fresh one. The standalone region build and, when
/// profiling, the `NullSnoop` twin of the profiled run are reference
/// spans that split a layer's time.
pub fn traced_pass(
    w: Workload,
    inputs: &Inputs,
    cache: &AccelCache,
    out: &Path,
    tracer: &mut Tracer,
) -> Vec<Result<Done, String>> {
    let fresh = AccelCache::new();
    let cache = match w {
        Workload::ScaleUntraced => cache,
        _ => &fresh,
    };
    let hls = HlsConfig::default();
    if let Err(e) = std::fs::create_dir_all(out) {
        return (0..inputs.cases.len())
            .map(|_| Err(format!("{}: {e}", out.display())))
            .collect();
    }
    let mut done = Vec::with_capacity(inputs.cases.len());
    for (i, case) in inputs.cases.iter().enumerate() {
        tracer.kernel(i);
        done.push(traced_case(w, case, cache, &hls, out, tracer));
    }
    done
}

fn traced_case(
    w: Workload,
    case: &Case,
    cache: &AccelCache,
    hls: &HlsConfig,
    out: &Path,
    tracer: &mut Tracer,
) -> Result<Done, String> {
    let k = &case.kernel;
    let profiles = w == Workload::PaperTrace;
    // The static-analysis entry points: the fast-mode user's work, and
    // reference spans on paper-trace, whose sweeps neither lint nor predict.
    let fast = w == Workload::AnalyticSweep;
    if profiles || fast {
        let lint = tracer.timed("nymble_lint.lint", !fast, || nymble_lint::lint_kernel(k));
        let perf = tracer.timed("nymble_lint.perf_lint", !fast, || {
            nymble_lint::perf_lint_kernel(k)
        });
        tracer.count(
            "nymble_lint.diagnostics",
            (lint.diagnostics.len() + perf.diagnostics.len()) as f64,
        );
        clean(&lint)?;
    }
    let before = cache.stats().misses;
    let accel = tracer
        .span("nymble_hls.compile", || cache.try_get_or_compile(k, hls))
        .map_err(|e| e.to_string())?;
    if cache.stats().misses > before {
        black_box(tracer.reference("nymble_hls.region", || {
            RegionTree::build(k, &PerfParams::default())
        }));
        tracer.count("nymble_hls.compiles", 1.0);
        tracer.count("nymble_hls.regions", accel.regions.len() as f64);
        tracer.count("nymble_hls.stages", accel.total_stages() as f64);
        if accel.probe_plan.is_some() {
            tracer.count("nymble_hls.regions_used", 1.0);
        }
    }
    if profiles || fast {
        let cycles = tracer.timed("fpga_sim.analytic", !fast, || analytic(case, &accel));
        tracer.count("fpga_sim.analytic_calls", 1.0);
        let cycles = cycles.ok_or("the analytic model could not price the kernel")?;
        if fast {
            return Ok(Done {
                cycles,
                output: Vec::new(),
                accel,
                bundle: None,
            });
        }
    }

    let run = |snoop: &mut dyn fpga_sim::Snoop| {
        Executor::run_with_device_stats(k, &accel, &case.sim, &case.launch, snoop)
    };
    let (result, dev) = if profiles {
        tracer.reference("fpga_sim.run", || run(&mut NullSnoop))
    } else {
        tracer.span("fpga_sim.run", || run(&mut NullSnoop))
    }
    .map_err(|e| e.to_string())?;
    tracer.count("fpga_sim.sim_cycles", result.total_cycles as f64);
    tracer.count("fpga_sim.line_fetch_wakes", dev.line_fetch_wakes as f64);
    tracer.count(
        "fpga_sim.channel_grant_wakes",
        dev.channel_grant_wakes as f64,
    );
    tracer.count("fpga_sim.dma_wakes", dev.dma_wakes as f64);
    tracer.count("fpga_sim.blocked_cycles", dev.blocked_cycles as f64);
    let mut done = Done {
        cycles: result.total_cycles,
        output: f32_result(&result, case.out_arg()),
        accel: accel.clone(),
        bundle: None,
    };
    if !profiles {
        return Ok(done);
    }

    let mut unit = ProfilingUnit::new(&k.name, k.num_threads, ProfilingConfig::default());
    let profiled = tracer
        .span("hls_profiling.profiled_run", || {
            Executor::run(k, &accel, &case.sim, &case.launch, &mut unit)
        })
        .map_err(|e| e.to_string())?;
    if profiled.total_cycles != result.total_cycles {
        return Err(format!(
            "profiled run took {} cycles, unprofiled {}",
            profiled.total_cycles, result.total_cycles
        ));
    }
    let trace = tracer.span("hls_profiling.decode", || unit.finish());
    black_box(tracer.span("hls_profiling.diagnose", || {
        diagnose(
            &trace,
            &profiled.stats,
            &case.sim,
            &DiagnoseConfig::default(),
        )
    }));
    let stem = case.stem(out);
    tracer
        .span("paraver.write", || trace.write_bundle(&stem))
        .map_err(|e| format!("{}: {e}", stem.display()))?;
    black_box(tracer.span("paraver.analysis", || {
        let threads = trace.meta.num_threads;
        let duration = trace.meta.duration.max(1);
        let bin = duration.div_ceil(64).max(1);
        let prof = analysis::StateProfile::compute(&trace.records, threads);
        let flops = analysis::event_series(&trace.records, events::FLOPS, bin, duration);
        let reads = analysis::event_series(&trace.records, events::BYTES_READ, bin, duration);
        (prof.fraction(states::SPINNING), flops.peak(), reads.peak())
    }));
    tracer.count("hls_profiling.records", trace.records.len() as f64);
    tracer.count("hls_profiling.flushed_bytes", trace.flushed_bytes as f64);
    tracer.count("hls_profiling.flushes", trace.flush_count as f64);
    let (_, bytes) = check::bundle_digest(&stem)?;
    tracer.count("paraver.bundle_bytes", bytes as f64);
    done.output = f32_result(&profiled, case.out_arg());
    done.bundle = Some(stem);
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small GEMM the tests can simulate in milliseconds.
    fn small_gemm() -> Inputs {
        let p = gemm_params(16, 2);
        let d = p.dim as usize;
        Inputs {
            cases: vec![Case {
                label: "gemm/nocritical/d16/t2".into(),
                kind: Kind::Gemm(p),
                kernel: gemm::build(GemmVersion::NoCritical, &p),
                launch: vec![
                    f32_buffer(&reference::gen_matrix(d, 3)),
                    f32_buffer(&reference::gen_matrix(d, 4)),
                    f32_buffer(&vec![0.0; d * d]),
                ],
                sim: bench::gemm_sim_config(),
            }],
            matrix: None,
        }
    }

    fn simulate(inputs: &Inputs) -> Vec<Result<Done, String>> {
        simulate_pass(inputs, &AccelCache::new()).done
    }

    #[test]
    fn clean_run_passes_every_check() {
        let inputs = small_gemm();
        let expect = expectations(&inputs);
        let mut checker = Checker::new(Default::default());
        for _ in 0..2 {
            check_pass(&mut checker, Workload::ScaleUntraced, &inputs, &expect, &simulate(&inputs));
        }
        assert_eq!((checker.attempted, checker.failed), (2, 0));
    }

    #[test]
    fn corrupted_pinned_cycles_count_as_a_failed_op() {
        let inputs = small_gemm();
        let done = simulate(&inputs);
        let cycles = done[0].as_ref().expect("small GEMM simulates").cycles;
        let pinned = [(inputs.cases[0].label.clone(), cycles + 1)].into();
        let mut checker = Checker::new(pinned);
        let expect = expectations(&inputs);
        check_pass(&mut checker, Workload::ScaleUntraced, &inputs, &expect, &done);
        assert_eq!((checker.attempted, checker.failed), (1, 1));
    }

    #[test]
    fn corrupted_expected_output_counts_as_a_failed_op() {
        let inputs = small_gemm();
        let mut expect = expectations(&inputs);
        let Expect::Matrix(c) = &mut expect[0] else {
            panic!("a GEMM expects a matrix");
        };
        c[5] += 1.0;
        let mut checker = Checker::new(Default::default());
        check_pass(&mut checker, Workload::ScaleUntraced, &inputs, &expect, &simulate(&inputs));
        assert_eq!((checker.attempted, checker.failed), (1, 1));
    }

    #[test]
    fn changed_digest_or_cycles_between_passes_fail() {
        let mut checker = Checker::new(Default::default());
        assert!(checker.digest("k", 1).is_ok());
        assert!(checker.digest("k", 1).is_ok());
        assert!(checker.digest("k", 2).is_err());
        assert!(checker.cycles("k", 10).is_ok());
        assert!(checker.cycles("k", 11).is_err());
    }

    #[test]
    fn shipped_pins_cover_every_seed_independent_kernel() {
        let pinned = check::pinned();
        for case in pinned_cases() {
            assert!(
                pinned.contains_key(&case.label),
                "{} is not pinned",
                case.label
            );
        }
        assert!(check::parse_pinned("gemm/x 12 extra").is_err());
        assert!(check::parse_pinned("gemm/x twelve").is_err());
    }
}
