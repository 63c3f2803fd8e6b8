//! layerbench — the pipeline's layered benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path layerbench/Cargo.toml -- \
//!     --workload paper-trace --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced passes;
//! `--trace 1` alternates untraced and traced passes and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object. See README.md for the workloads and the metric table.

mod calib;
mod check;
mod span;
mod workload;

use check::Checker;
use span::Tracer;
use nymble_hls::AccelCache;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Pass, Workload, PI_PAPER_GFLOPS};

/// Seconds per single-thread calibration round on an idle 2-vCPU VM at
/// 2.1 GHz. `setup_s` is reported at this host speed: the raw median
/// set-up times the reference round over the median of the single-thread
/// rounds run right after each set-up (set-up runs on one thread).
const REFERENCE_ROUND_S: f64 = 0.0022;
/// Rounds of the single-thread calibration after each set-up.
const SETUP_CALIBRATION_ROUNDS: u64 = 10;

/// End-to-end metrics (`--trace 0`), as listed in BENCHMARK.json.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_cal", "cal"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("analytic_err_pct", "%"),
    ("hw_err_pct", "%"),
];

/// Per-layer metrics (`--trace 1`), as listed in BENCHMARK.json.
const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.build_s", "s"),
    ("kernels.inputs_s", "s"),
    ("nymble_lint.lint_s", "s"),
    ("nymble_lint.perf_lint_s", "s"),
    ("nymble_lint.diagnostics", "count"),
    ("nymble_hls.compile_s", "s"),
    ("nymble_hls.region_s", "s"),
    ("nymble_hls.lower_schedule_s", "s"),
    ("nymble_hls.regions", "count"),
    ("nymble_hls.stages", "count"),
    ("nymble_hls.compile_peak_rss_mb", "MB"),
    ("nymble_hls.cache_hit_ratio", "ratio"),
    ("nymble_hls.region_use_ratio", "ratio"),
    ("fpga_sim.run_s", "s"),
    ("fpga_sim.ns_per_cycle", "ns"),
    ("fpga_sim.sim_cycles", "count"),
    ("fpga_sim.line_fetch_wakes", "count"),
    ("fpga_sim.channel_grant_wakes", "count"),
    ("fpga_sim.dma_wakes", "count"),
    ("fpga_sim.blocked_cycles", "count"),
    ("fpga_sim.run_peak_rss_mb", "MB"),
    ("fpga_sim.analytic_s", "s"),
    ("fpga_sim.analytic_calls", "count"),
    ("hls_profiling.record_s", "s"),
    ("hls_profiling.records", "count"),
    ("hls_profiling.flushed_bytes", "bytes"),
    ("hls_profiling.flushes", "count"),
    ("hls_profiling.decode_s", "s"),
    ("hls_profiling.decode_peak_rss_mb", "MB"),
    ("hls_profiling.diagnose_s", "s"),
    ("paraver.write_s", "s"),
    ("paraver.bundle_bytes", "bytes"),
    ("paraver.write_peak_rss_mb", "MB"),
    ("paraver.analysis_s", "s"),
    ("bench.makespan_s", "s"),
    ("bench.worker_utilization", "ratio"),
    ("bench.steals", "count"),
    ("bench.parks", "count"),
    ("bench.sched_overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.calibration_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "layerbench: {msg}\nusage: layerbench --workload paper-trace|scale-untraced|analytic-sweep \
         --seed N --seconds S --trace 0|1\n       layerbench --regen-pinned"
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => usage(&format!("unknown argument {other:?}")),
        };
        let Some(value) = it.next() else {
            usage(&format!("{key} needs a value"))
        };
        kv.insert(key, value.as_str());
    }
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .unwrap_or_else(|| usage(&format!("{k} is required")))
    };
    let workload = Workload::parse(get("--workload"))
        .unwrap_or_else(|| usage(&format!("unknown workload {:?}", get("--workload"))));
    let seed = get("--seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed takes a whole number"));
    let seconds: f64 = get("--seconds")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .unwrap_or_else(|| usage("--seconds takes a positive number"));
    let trace = match get("--trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// Per-run scratch directory under the working directory, removed on
/// drop. The engine's spill directories follow `TMPDIR` into it.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Self {
        let dir = std::env::current_dir()
            .unwrap_or_else(|e| usage(&format!("no working directory: {e}")))
            .join(".layerbench-run")
            .join(std::process::id().to_string());
        if let Err(e) = std::fs::create_dir_all(&dir) {
            usage(&format!("cannot create {}: {e}", dir.display()));
        }
        // Set before any thread exists.
        std::env::set_var("TMPDIR", &dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Mean of the middle half: the sample without its lowest and highest
/// quarters (0 for an empty sample).
fn interquartile_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let middle = &s[s.len() / 4..s.len() - s.len() / 4];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Linear-interpolated quantile (0 for an empty sample).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean |predicted − observed| / observed, in percent.
fn mean_err_pct(pairs: &[(u64, u64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs
        .iter()
        .map(|&(pred, obs)| (pred as f64 - obs as f64).abs() / obs as f64)
        .sum::<f64>()
        / pairs.len() as f64
        * 100.0
}

/// Print the held-out accuracy table: analytic vs simulated cycles.
fn accuracy_table(rows: &[(String, u64, u64)]) {
    eprintln!("\nheld-out accuracy: analytic vs simulated cycles");
    eprintln!(
        "{:<30} {:>14} {:>14} {:>8}",
        "kernel", "analytic", "simulated", "err"
    );
    for (label, pred, obs) in rows {
        let err = (*pred as f64 - *obs as f64) / *obs as f64 * 100.0;
        eprintln!("{label:<30} {pred:>14} {obs:>14} {err:>+7.1}%");
    }
}

struct Run {
    checker: Checker,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run(args: &Args, out: &Path) -> Run {
    let w = args.workload;
    let (inputs, _) = workload::setup(w, args.seed);
    let expect = workload::expectations(&inputs);
    let mut checker = Checker::new(check::pinned());
    let cache = AccelCache::new();

    // A warm-up pass, checked but not timed: it faults the inputs in and,
    // on scale-untraced, compiles the designs every later pass reuses.
    let start = Instant::now();
    let warm = workload::untraced_pass(w, &inputs, &cache, &out.join("untraced"));
    workload::check_pass(&mut checker, w, &inputs, &expect, &warm.done);
    eprintln!(
        "layerbench: warm-up pass: wall {:.3} s, ops_failed {}",
        warm.wall_s, checker.failed
    );

    // Repeat while the next iteration is expected to end within the window.
    // Each iteration sets up afresh (timed, dropped, then followed by a
    // single-thread calibration), so set-up is sampled under the same host
    // load as the passes; a calibration on the pass's threads follows every
    // pass, and one precedes the first. A pass is timed against the mean of
    // the calibrations on either side of it.
    let calibrate = || calib::calibrate(w.workers(), w.calibration_rounds());
    let mut cal_s = vec![calibrate()];
    let mut iterations: Vec<f64> = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_cal_s = Vec::new();
    let mut build_s = Vec::new();
    let mut inputs_s = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut pass_rss = Vec::new();
    let mut wall_cal = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    while iterations.is_empty()
        || start.elapsed().as_secs_f64() + median(&iterations) <= args.seconds
    {
        let iteration = Instant::now();
        let t = Instant::now();
        let (fresh, parts) = workload::setup(w, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(fresh);
        setup_cal_s.push(calib::calibrate(1, SETUP_CALIBRATION_ROUNDS));
        build_s.push(parts.build_s);
        inputs_s.push(parts.inputs_s);

        span::reset_peak_rss();
        let pass = workload::untraced_pass(w, &inputs, &cache, &out.join("untraced"));
        pass_rss.push(span::peak_rss_mb());
        let cal_before = cal_s[cal_s.len() - 1];
        cal_s.push(calibrate());
        wall_cal.push(pass.wall_s / ((cal_before + cal_s[cal_s.len() - 1]) / 2.0));
        workload::check_pass(&mut checker, w, &inputs, &expect, &pass.done);
        eprintln!(
            "layerbench: pass {}: set-up {:.5} s, wall {:.4} s, calibration {:.6} s/round, \
             ops_failed {}",
            passes.len() + 1,
            setup_s[setup_s.len() - 1],
            pass.wall_s,
            cal_s[cal_s.len() - 1],
            checker.failed
        );
        if args.trace {
            let mut tracer = Tracer::new();
            let t = Instant::now();
            let done =
                workload::traced_pass(w, &inputs, &cache, &out.join("traced"), &mut tracer);
            let traced_s = t.elapsed().as_secs_f64();
            workload::check_pass(&mut checker, w, &inputs, &expect, &done);
            tracer.print_spans(passes.len() + 1);
            for (name, v) in layer_metrics(w, &pass, &tracer, traced_s) {
                layers.entry(name).or_default().push(v);
            }
            eprintln!(
                "layerbench: traced pass {}: wall {traced_s:.3} s",
                passes.len() + 1
            );
        }
        passes.push(pass);
        iterations.push(iteration.elapsed().as_secs_f64());
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let wall_cal = interquartile_mean(&wall_cal);
    let setup_ref_s = median(&setup_s) * REFERENCE_ROUND_S / median(&setup_cal_s);
    eprintln!(
        "layerbench: {} timed passes, ops_attempted {}, ops_failed {}\n\
         layerbench: pass wall median {:.4} s, p90 {:.4} s; calibration median {:.6} s/round; \
         wall_cal {wall_cal:.3}; set-up median {:.6} s, {setup_ref_s:.6} s at reference speed",
        passes.len(),
        checker.attempted,
        checker.failed,
        median(&walls),
        quantile(&walls, 0.9),
        median(&cal_s),
        median(&setup_s),
    );
    if w == Workload::AnalyticSweep {
        let ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.verdict_s.iter().map(|s| s * 1e3))
            .collect();
        eprintln!(
            "layerbench: verdict latency median {:.3} ms, p90 {:.3} ms over {} verdicts",
            median(&ms),
            quantile(&ms, 0.9),
            ms.len()
        );
    }

    let metrics = if args.trace {
        layers.insert("kernels.build_s", build_s);
        layers.insert("kernels.inputs_s", inputs_s);
        layers.insert("trace.calibration_s", cal_s);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layers.get(name).map_or(0.0, |v| median(v));
                (name, unit, v)
            })
            .collect()
    } else {
        let last = passes.last().expect("at least one pass");
        let (analytic_err, hw_err) = accuracy(w, &inputs, &mut checker, last);
        let values = [
            wall_cal,
            setup_ref_s,
            median(&pass_rss),
            analytic_err,
            hw_err,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    Run { checker, metrics }
}

/// `(analytic_err_pct, hw_err_pct)`, computed after the timed passes.
/// The simulating workloads price the kernels they just simulated;
/// analytic-sweep's predictions are rated against the pinned simulated
/// cycles (GEMM and π; SpMV's depend on the seed and are not pinned).
/// paper-trace simulates the paper's π runs here, checking them like any
/// op; the other workloads run no π at the paper's sizes and rate the
/// pinned π cycles instead.
fn accuracy(
    w: Workload,
    inputs: &workload::Inputs,
    checker: &mut Checker,
    last: &Pass,
) -> (f64, f64) {
    let mut rows = Vec::new();
    for (case, done) in inputs.cases.iter().zip(&last.done) {
        let Ok(d) = done else { continue };
        let pair = if w == Workload::AnalyticSweep {
            checker.pinned.get(&case.label).map(|&sim| (d.cycles, sim))
        } else {
            workload::analytic(case, &d.accel).map(|predicted| (predicted, d.cycles))
        };
        if let Some((predicted, simulated)) = pair {
            rows.push((case.label.clone(), predicted, simulated));
        }
    }
    let paper = workload::paper_pi();
    let cycles: Vec<Option<u64>> = match w {
        Workload::PaperTrace => {
            let pass = workload::simulate_pass(&paper, &AccelCache::new());
            let expect = workload::expectations(&paper);
            workload::check_pass(checker, w, &paper, &expect, &pass.done);
            pass.done
                .iter()
                .map(|d| d.as_ref().ok().map(|d| d.cycles))
                .collect()
        }
        _ => paper
            .cases
            .iter()
            .map(|c| checker.pinned.get(&c.label).copied())
            .collect(),
    };
    let pi_gflops: Vec<f64> = paper
        .cases
        .iter()
        .zip(cycles)
        .filter_map(|(case, c)| case.pi_gflops(c?))
        .collect();
    accuracy_table(&rows);
    let pairs: Vec<(u64, u64)> = rows.iter().map(|&(_, p, o)| (p, o)).collect();
    eprintln!("π GFLOP/s {pi_gflops:.3?} vs the paper's {PI_PAPER_GFLOPS:?}");
    let hw_err = if pi_gflops.len() == PI_PAPER_GFLOPS.len() {
        let err: f64 = pi_gflops
            .iter()
            .zip(PI_PAPER_GFLOPS)
            .map(|(got, paper)| (got - paper).abs() / paper)
            .sum();
        err / PI_PAPER_GFLOPS.len() as f64 * 100.0
    } else {
        f64::NAN
    };
    (mean_err_pct(&pairs), hw_err)
}

/// Per-layer metrics of one (untraced, traced) pass pair.
fn layer_metrics(
    w: Workload,
    pass: &Pass,
    t: &Tracer,
    traced_s: f64,
) -> Vec<(&'static str, f64)> {
    let compile = t.secs("nymble_hls.compile");
    let region = t.secs("nymble_hls.region");
    let run = t.secs("fpga_sim.run");
    let profiled = t.secs("hls_profiling.profiled_run");
    let cycles = t.counted("fpga_sim.sim_cycles");
    let compiles = t.counted("nymble_hls.compiles");
    let hits = pass.cache_hits as f64;
    let total = (pass.cache_hits + pass.cache_misses) as f64;
    vec![
        ("nymble_lint.lint_s", t.secs("nymble_lint.lint")),
        ("nymble_lint.perf_lint_s", t.secs("nymble_lint.perf_lint")),
        (
            "nymble_lint.diagnostics",
            t.counted("nymble_lint.diagnostics"),
        ),
        ("nymble_hls.compile_s", compile),
        ("nymble_hls.region_s", region),
        ("nymble_hls.lower_schedule_s", compile - region),
        ("nymble_hls.regions", t.counted("nymble_hls.regions")),
        ("nymble_hls.stages", t.counted("nymble_hls.stages")),
        (
            "nymble_hls.compile_peak_rss_mb",
            t.peak_mb("nymble_hls.compile"),
        ),
        (
            "nymble_hls.cache_hit_ratio",
            if total > 0.0 { hits / total } else { 0.0 },
        ),
        (
            "nymble_hls.region_use_ratio",
            if compiles > 0.0 {
                t.counted("nymble_hls.regions_used") / compiles
            } else {
                0.0
            },
        ),
        ("fpga_sim.run_s", run),
        (
            "fpga_sim.ns_per_cycle",
            if cycles > 0.0 {
                run / cycles * 1e9
            } else {
                0.0
            },
        ),
        ("fpga_sim.sim_cycles", cycles),
        (
            "fpga_sim.line_fetch_wakes",
            t.counted("fpga_sim.line_fetch_wakes"),
        ),
        (
            "fpga_sim.channel_grant_wakes",
            t.counted("fpga_sim.channel_grant_wakes"),
        ),
        ("fpga_sim.dma_wakes", t.counted("fpga_sim.dma_wakes")),
        (
            "fpga_sim.blocked_cycles",
            t.counted("fpga_sim.blocked_cycles"),
        ),
        ("fpga_sim.run_peak_rss_mb", t.peak_mb("fpga_sim.run")),
        ("fpga_sim.analytic_s", t.secs("fpga_sim.analytic")),
        (
            "fpga_sim.analytic_calls",
            t.counted("fpga_sim.analytic_calls"),
        ),
        (
            "hls_profiling.record_s",
            if profiled > 0.0 { profiled - run } else { 0.0 },
        ),
        ("hls_profiling.records", t.counted("hls_profiling.records")),
        (
            "hls_profiling.flushed_bytes",
            t.counted("hls_profiling.flushed_bytes"),
        ),
        ("hls_profiling.flushes", t.counted("hls_profiling.flushes")),
        ("hls_profiling.decode_s", t.secs("hls_profiling.decode")),
        (
            "hls_profiling.decode_peak_rss_mb",
            t.peak_mb("hls_profiling.decode"),
        ),
        ("hls_profiling.diagnose_s", t.secs("hls_profiling.diagnose")),
        ("paraver.write_s", t.secs("paraver.write")),
        ("paraver.bundle_bytes", t.counted("paraver.bundle_bytes")),
        ("paraver.write_peak_rss_mb", t.peak_mb("paraver.write")),
        ("paraver.analysis_s", t.secs("paraver.analysis")),
        ("bench.makespan_s", pass.sched.makespan_s),
        ("bench.worker_utilization", pass.sched.utilization()),
        ("bench.steals", pass.sched.steals as f64),
        ("bench.parks", pass.sched.parks as f64),
        ("bench.sched_overhead_s", pass.sched.overhead_s()),
        (
            "trace.unattributed_s",
            pass.wall_s - t.ledger_secs() / w.workers() as f64,
        ),
        ("trace.overhead_s", traced_s - pass.wall_s),
    ]
}

fn json_result(r: &Run) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.checker.failed == 0,
        r.checker.attempted,
        r.checker.failed,
        metrics.join(", ")
    )
}

/// Simulate every pinned kernel and print the pinned-cycles file.
fn regen_pinned() {
    let cases = workload::pinned_cases();
    let (runs, _, _) = workload::simulate_all(&cases, &AccelCache::new());
    println!("# Simulated cycles of the seed-independent kernels (GEMM matrix values");
    println!("# and the π launch do not change the cycle count). Regenerate with:");
    println!("#   cargo run --release --manifest-path layerbench/Cargo.toml -- --regen-pinned");
    for (case, r) in cases.iter().zip(runs) {
        match r {
            Ok((r, _)) => println!("{} {}", case.label, r.total_cycles),
            Err(e) => {
                eprintln!("layerbench: {} failed: {e}", case.label);
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--regen-pinned"] {
        let _scratch = Scratch::create();
        return regen_pinned();
    }
    let args = parse_args(&argv);
    let scratch = Scratch::create();
    let result = run(&args, &scratch.0);
    drop(scratch);
    println!("{}", json_result(&result));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 1.0, 3.0, -50.0]), 2.0);
        assert_eq!(interquartile_mean(&[4.0]), 4.0);
        assert_eq!(mean_err_pct(&[(110, 100), (90, 100)]), 10.0);
    }
}
