//! Predicted-vs-observed validation of the `NP0xx` performance lints.
//!
//! Two promises hold the perf-lint family together:
//!
//! 1. **Static agreement** — every NP prediction is priced by the cost
//!    walker (`nymble_lint::perf`) with the structural source, which has
//!    no compiled design; the simulator's roofline mode
//!    (`fpga_sim::analytic`) prices with the compiled schedules. On each
//!    triggering fixture, the quantitative prediction must land within 25%
//!    of the analytic estimate of the same quantity.
//! 2. **Dynamic confirmation** — the cycle-level simulator must actually
//!    exhibit each predicted symptom: `hls_profiling::confront` returns
//!    `Confirmed` for every NP finding on the fixture's simulated trace.
//!
//! A third test pins the gate's observational freeness: sweeping with
//! `perf_lint: Warn` produces byte-identical trace bundles and tables to
//! `perf_lint: Off` — the analyzer never touches the compiled artifact.

use bench::sweep::{gemm_sweep, gemm_table, GemmSweepConfig};
use bench::{analytic_report, gemm_sim_config, run_profiled_in};
use fpga_sim::memimg::LaunchArg;
use fpga_sim::SimConfig;
use hls_profiling::diagnose::{confront, diagnose, DiagnoseConfig};
use hls_profiling::{PipelineConfig, ProfilingConfig};
use kernels::fixtures::{self, Fixture};
use kernels::gemm::{GemmParams, GemmVersion};
use nymble_hls::{AccelCache, HlsConfig};
use nymble_ir::{ArgKind, Kernel, ScalarType, Type, Value};
use nymble_lint::{Code, LintLevel, PerfParams, PredMetric};

/// Build a launch for a fixture kernel: scalars get 1, buffers get 4096
/// zeroed elements (past every perf fixture's largest index — np001 reads
/// up to `A[4*512 + 511]`).
fn fixture_launch(k: &Kernel) -> Vec<LaunchArg> {
    k.args
        .iter()
        .map(|a| match a.kind {
            ArgKind::Scalar(st) => LaunchArg::Scalar(match st {
                ScalarType::I32 => Value::I32(1),
                ScalarType::I64 => Value::I64(1),
                ScalarType::F32 => Value::F32(1.0),
                ScalarType::F64 => Value::F64(1.0),
            }),
            ArgKind::Buffer { elem, .. } => {
                LaunchArg::Buffer(vec![Value::zero(Type::scalar(elem)); 4096])
            }
        })
        .collect()
}

fn buggy_perf_fixtures() -> Vec<Fixture> {
    let v: Vec<_> = fixtures::buggy().into_iter().filter(|f| f.perf).collect();
    assert_eq!(v.len(), 5, "one triggering fixture per NP code");
    v
}

/// `pred` within `tol` (relative) of `obs`.
fn within(pred: f64, obs: f64, tol: f64) -> bool {
    (pred - obs).abs() <= tol * obs.abs().max(1e-9)
}

/// Every NP prediction lands within 25% of `fpga_sim::analytic`'s estimate
/// of the same quantity on the fixture that triggers it.
#[test]
fn np_predictions_agree_with_the_analytic_model() {
    let cache = AccelCache::new();
    let sim = SimConfig::default();
    let params = PerfParams::default();
    for f in buggy_perf_fixtures() {
        let launch = fixture_launch(&f.kernel);
        let analytic = analytic_report(&cache, &f.kernel, &sim, &launch)
            .unwrap_or_else(|| panic!("`{}`: analytic estimate unresolvable", f.name));
        // The whole-kernel cost model agrees on total cycles…
        let model = nymble_lint::perf::model(&f.kernel, &params)
            .unwrap_or_else(|| panic!("`{}`: static model unresolvable", f.name));
        assert!(
            within(
                model.total_cycles as f64,
                analytic.total_cycles as f64,
                0.25
            ),
            "`{}`: static {} vs analytic {} total cycles",
            f.name,
            model.total_cycles,
            analytic.total_cycles
        );
        // …and each diagnostic's attached prediction agrees on its metric.
        let report = nymble_lint::perf_lint_kernel_with(&f.kernel, &params);
        assert!(!report.is_clean(), "`{}` must trigger", f.name);
        let analytic_ratio = {
            let max = *analytic.per_thread.iter().max().unwrap_or(&1);
            let min = (*analytic.per_thread.iter().min().unwrap_or(&1)).max(1);
            max as f64 / min as f64
        };
        for d in &report.diagnostics {
            let pred = d
                .prediction
                .as_ref()
                .unwrap_or_else(|| panic!("`{}`: {} carries no prediction", f.name, d.code));
            let observed = match pred.metric {
                PredMetric::TotalCycles => analytic.total_cycles as f64,
                PredMetric::DramBytes => analytic.dram_bytes as f64,
                // The np003 fixture's traffic *is* the dead transfer (plus
                // one store per thread), so the analytic total is the
                // reference for the wasted bytes too.
                PredMetric::WastedDmaBytes => analytic.dram_bytes as f64,
                PredMetric::SerialCycles => analytic.critical_cycles as f64,
                PredMetric::ImbalanceRatio => analytic_ratio,
            };
            assert!(
                within(pred.value, observed, 0.25),
                "`{}` {}: predicted {} {} vs analytic {}",
                f.name,
                d.code,
                pred.metric.as_str(),
                pred.value,
                observed
            );
        }
    }
}

/// The cycle-level simulator confirms each prediction: `confront` returns
/// `Confirmed` for every NP finding on the fixture's own simulated trace.
#[test]
fn np_predictions_are_confirmed_by_the_cycle_simulator() {
    let cache = AccelCache::new();
    let sim = SimConfig::default();
    let prof = ProfilingConfig::default();
    for f in buggy_perf_fixtures() {
        let launch = fixture_launch(&f.kernel);
        let run = run_profiled_in(&cache, &f.kernel, &sim, &prof, &launch)
            .unwrap_or_else(|e| panic!("`{}`: simulation failed: {e}", f.name));
        let report = nymble_lint::perf_lint_kernel_with(&f.kernel, &sim.perf_params());
        let d = diagnose(
            &run.trace,
            &run.result.stats,
            &sim,
            &DiagnoseConfig::default(),
        );
        let outcomes = confront(&report, &run.trace, &run.result.stats, &d);
        assert!(!outcomes.is_empty(), "`{}`: nothing to confront", f.name);
        for o in &outcomes {
            assert_eq!(
                o.verdict,
                hls_profiling::Verdict::Confirmed,
                "`{}`: {} not confirmed by the simulated trace",
                f.name,
                o.detail
            );
        }
        // The fixture's own code is among the confirmed outcomes.
        let code = Code::parse(&f.name[..5].to_uppercase()).expect("fixture name starts with code");
        assert!(
            outcomes.iter().any(|o| o.code == Some(code)),
            "`{}`: no outcome for {code}",
            f.name
        );
    }
}

/// The perf gate is observationally free: `perf_lint: Warn` and `Off`
/// sweeps produce byte-identical bundles and tables (same contract the
/// correctness gate pins in `lint_gate.rs`).
#[test]
fn perf_lint_warn_and_off_produce_identical_bundles_and_tables() {
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "hls-paraver-perflint-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).expect("create test dir");
        d
    }

    fn bundle_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        let mut files = BTreeMap::new();
        for entry in std::fs::read_dir(dir).expect("read bundle dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            files.insert(name, std::fs::read(&path).expect("read bundle file"));
        }
        files
    }

    let mut baseline: Option<(String, BTreeMap<String, Vec<u8>>)> = None;
    for perf_lint in [LintLevel::Off, LintLevel::Warn] {
        let out = test_dir(perf_lint.as_str());
        let sweep = gemm_sweep(&GemmSweepConfig {
            params: GemmParams {
                dim: 16,
                threads: 2,
                vec: 4,
                block: 8,
            },
            hls: HlsConfig {
                perf_lint,
                ..HlsConfig::default()
            },
            sim: gemm_sim_config(),
            prof: ProfilingConfig::default(),
            pipeline: PipelineConfig::default(),
            out: Some(out.clone()),
            jobs: 2,
        });
        for (v, r) in &sweep.runs {
            assert!(
                r.outcome.is_ok(),
                "perf_lint={perf_lint}: {} failed",
                v.name()
            );
        }
        let table = gemm_table(&sweep);
        let bundles = bundle_bytes(&out);
        assert_eq!(bundles.len(), GemmVersion::ALL.len() * 3);
        match &baseline {
            None => baseline = Some((table, bundles)),
            Some((base_table, base_bundles)) => {
                assert_eq!(base_table, &table, "perf-lint level changed the table");
                assert_eq!(
                    base_bundles, &bundles,
                    "perf-lint level changed a trace bundle byte"
                );
            }
        }
        std::fs::remove_dir_all(&out).ok();
    }
}
