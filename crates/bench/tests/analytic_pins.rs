//! Exact-value pins of the static cost model on the shipped kernels.
//! `analytic_validation` bounds the analytic model within ±15% of the
//! simulator; these pins catch any refactor of the cost walker or its
//! parameter tables that moves a single cycle or byte. On a mismatch the
//! test prints the actual table, ready to paste.
//!
//! Three views of the one walker are pinned: the compiled-schedule
//! estimate (GEMM, π, SpMV with its memory image), the structural model
//! perf-lint prices against (every lint fixture plus the extra kernels:
//! `If` guards, thread-dependent bounds, critical sections, bursts) and
//! the region-tree profits of the two blocked GEMMs. Two image-driven row
//! walks beyond the seeded SpMV are pinned as well: a skewed CSR (empty,
//! short and very long rows) and a row walk whose inner stream's stride
//! depends on the row, so rows of equal length price differently.

use bench::{analytic_report, gemm_launch, gemm_sim_config, pi_launch, pi_sim_config};
use bench::{spmv_launch, spmv_sim_config};
use fpga_sim::memimg::LaunchArg;
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::spmv::{self, Csr};
use nymble_hls::{AccelCache, RegionTree};
use nymble_ir::{Kernel, KernelBuilder, MapDir, ScalarType, Type, Value};
use nymble_lint::{perf, PerfParams};

/// `(label, [total_cycles, dram_bytes, critical_cycles])`.
#[rustfmt::skip]
const ESTIMATES: &[(&str, [u64; 3])] = &[
    ("gemm/Naive/d64", [4485249, 26214400, 2228224]),
    ("gemm/No Critical Sections/d64", [1691529, 17956864, 0]),
    ("gemm/Partial Vectorization/d64", [825737, 33685504, 0]),
    ("gemm/Blocked/d64", [174547, 1064960, 0]),
    ("gemm/Double Buffering/d64", [144891, 278528, 0]),
    ("gemm/Naive/d128", [23838977, 205520896, 8912896]),
    ("gemm/No Critical Sections/d128", [13578273, 143130624, 0]),
    ("gemm/Partial Vectorization/d128", [6739353, 268959744, 0]),
    ("gemm/Blocked/d128", [1382877, 8454144, 0]),
    ("gemm/Double Buffering/d128", [1216573, 2293760, 0]),
    ("pi/1000000", [6222614, 256, 544]),
    ("pi/4000000", [6410114, 256, 544]),
    ("pi/10000000", [6785114, 256, 544]),
    ("spmv/t2", [13729433, 41941292, 0]),
    ("spmv/t8", [6750209, 41941292, 0]),
    ("spmv/t64", [6443009, 41941292, 0]),
];

/// `(label, [total_cycles, dram_bytes, critical_cycles])` of the
/// image-driven row walks: [`skewed_csr`] and [`row_strided`].
#[rustfmt::skip]
const ROW_WALKS: &[(&str, [u64; 3])] = &[
    ("skewed/t2", [1965979, 4907444, 0]),
    ("skewed/t8", [1296755, 4907444, 0]),
    ("skewed/t64", [3226753, 4907444, 0]),
    ("row_strided/t1", [64562, 80480, 0]),
    ("row_strided/t4", [18322, 80480, 0]),
];

/// `(label, [cycles, dram_bytes, critical_cycles, dma_cycles, score])`.
#[rustfmt::skip]
const BLOCKED_REGIONS: &[(&str, [u64; 5])] = &[
    ("gemm_blocked", [1910424, 1064960, 0, 0, 1927064]),
    ("gemm_blocked/ib", [1910424, 1064960, 0, 6656, 1933720]),
    ("gemm_blocked/ib/jb", [1910408, 1064960, 0, 6656, 1933704]),
    ("gemm_blocked/ib/jb/z", [4544, 0, 0, 0, 4544]),
    ("gemm_blocked/ib/jb/kb", [1902656, 1048576, 0, 0, 1919040]),
    ("gemm_blocked/ib/jb/kb/r", [320512, 1048576, 0, 0, 336896]),
    ("gemm_blocked/ib/jb/kb/x", [1581568, 0, 0, 0, 1581568]),
    ("gemm_blocked/ib/jb/kb/x/y", [1576960, 0, 0, 0, 1576960]),
    ("gemm_blocked/ib/jb/kb/x/y/v", [1376256, 0, 0, 0, 1376256]),
    ("gemm_blocked/ib/jb/wr", [3136, 16384, 0, 6656, 10048]),
    ("gemm_blocked/ib/jb/wr/writeback:C_local", [2560, 16384, 0, 6656, 9472]),
];

#[rustfmt::skip]
const DOUBLE_BUFFERED_REGIONS: &[(&str, [u64; 5])] = &[
    ("gemm_dbuf", [1639896, 278528, 0, 0, 1644248]),
    ("gemm_dbuf/ib", [1639896, 278528, 0, 113152, 1757400]),
    ("gemm_dbuf/ib/jb", [1639880, 278528, 0, 113152, 1757384]),
    ("gemm_dbuf/ib/jb/z", [4544, 0, 0, 0, 4544]),
    ("gemm_dbuf/ib/jb/kbi", [1632128, 262144, 0, 106496, 1742720]),
    ("gemm_dbuf/ib/jb/kbi/r", [22784, 131072, 0, 53248, 78080]),
    ("gemm_dbuf/ib/jb/kbi/r/preload:A_local0", [10240, 65536, 0, 26624, 37888]),
    ("gemm_dbuf/ib/jb/kbi/r/preload:B_local0", [10240, 65536, 0, 26624, 37888]),
    ("gemm_dbuf/ib/jb/kbi/r", [22784, 131072, 0, 53248, 78080]),
    ("gemm_dbuf/ib/jb/kbi/r/preload:A_local1", [10240, 65536, 0, 26624, 37888]),
    ("gemm_dbuf/ib/jb/kbi/r/preload:B_local1", [10240, 65536, 0, 26624, 37888]),
    ("gemm_dbuf/ib/jb/kbi/x", [790784, 0, 0, 0, 790784]),
    ("gemm_dbuf/ib/jb/kbi/x/y", [788480, 0, 0, 0, 788480]),
    ("gemm_dbuf/ib/jb/kbi/x/y/v", [688128, 0, 0, 0, 688128]),
    ("gemm_dbuf/ib/jb/kbi/x", [790784, 0, 0, 0, 790784]),
    ("gemm_dbuf/ib/jb/kbi/x/y", [788480, 0, 0, 0, 788480]),
    ("gemm_dbuf/ib/jb/kbi/x/y/v", [688128, 0, 0, 0, 688128]),
    ("gemm_dbuf/ib/jb/wr", [3136, 16384, 0, 6656, 10048]),
    ("gemm_dbuf/ib/jb/wr/writeback:C_local", [2560, 16384, 0, 6656, 9472]),
];

/// `[dram_bytes, critical_cycles, total_cycles]` and `per_thread` of the
/// structural `perf::model`; `None` where the model cannot price the
/// kernel statically.
type ModelPin = Option<([u64; 3], &'static [u64])>;

#[rustfmt::skip]
const MODELS: &[(&str, ModelPin)] = &[
    ("fixture/nl001_race", Some(([64, 0, 880015], &[15, 15]))),
    ("fixture/nl001_disjoint", Some(([64, 0, 880011], &[11, 11]))),
    ("fixture/nl002_divergent", Some(([64, 0, 880013], &[21, 13]))),
    ("fixture/nl002_uniform", Some(([64, 0, 880021], &[21, 21]))),
    ("fixture/nl002_tid_divergent", Some(([64, 0, 880013], &[21, 13]))),
    ("fixture/nl002_tid_uniform", Some(([64, 0, 880021], &[21, 21]))),
    ("fixture/nl003_lost_update", Some(([64, 0, 880052], &[52, 52]))),
    ("fixture/nl003_critical", Some(([256, 536, 880273], &[273, 273]))),
    ("fixture/nl004_oob", Some(([64, 0, 880018], &[18, 18]))),
    ("fixture/nl004_inbounds", Some(([64, 0, 880017], &[17, 17]))),
    ("fixture/nl005_dead_to", Some(([64, 0, 880001], &[1, 1]))),
    ("fixture/nl005_used_to", Some(([64, 0, 880050], &[50, 50]))),
    ("fixture/nl006_dead_from", Some(([64, 0, 880050], &[50, 50]))),
    ("fixture/nl006_written_from", Some(([64, 0, 880050], &[50, 50]))),
    ("fixture/np001_recurrence", Some(([8320, 0, 2645132], &[5132, 5132, 5132, 5132]))),
    ("fixture/np001_stream", Some(([512, 0, 880110], &[110, 110]))),
    ("fixture/np002_strided", Some(([8704, 0, 882662], &[2662, 2662]))),
    ("fixture/np002_unit", Some(([512, 0, 880106], &[106, 106]))),
    ("fixture/np003_dead_preload", Some(([2112, 0, 880028], &[28, 28]))),
    ("fixture/np003_live_preload", Some(([512, 0, 880044], &[44, 44]))),
    ("fixture/np004_critical_loop", Some(([8192, 17152, 2644353], &[4353, 4353, 4353, 4353]))),
    ("fixture/np004_critical_once", Some(([128, 268, 2640107], &[107, 107, 107, 107]))),
    ("fixture/np005_imbalanced", Some(([64, 0, 880530], &[274, 530]))),
    ("fixture/np005_balanced", Some(([64, 0, 880274], &[274, 274]))),
    ("extra/vecadd", Some(([3072, 0, 2640178], &[178, 178, 178, 178]))),
    ("extra/dot", Some(([2176, 268, 2640294], &[294, 294, 294, 294]))),
    ("extra/jacobi", Some(([3920, 0, 2640199], &[265, 265, 199, 199]))),
    ("extra/histogram", Some(([2048, 10688, 2642689], &[2689, 2689, 2689, 2689]))),
];

#[rustfmt::skip]
const BLOCKED_REGIONS_D128: &[(&str, [u64; 5])] = &[
    ("gemm_blocked", [15252008, 8454144, 0, 0, 15384104]),
    ("gemm_blocked/ib", [15252008, 8454144, 0, 26624, 15410728]),
    ("gemm_blocked/ib/jb", [15251984, 8454144, 0, 26624, 15410704]),
    ("gemm_blocked/ib/jb/z", [18176, 0, 0, 0, 18176]),
    ("gemm_blocked/ib/jb/kb", [15220992, 8388608, 0, 0, 15352064]),
    ("gemm_blocked/ib/jb/kb/r", [2564096, 8388608, 0, 0, 2695168]),
    ("gemm_blocked/ib/jb/kb/x", [12652544, 0, 0, 0, 12652544]),
    ("gemm_blocked/ib/jb/kb/x/y", [12615680, 0, 0, 0, 12615680]),
    ("gemm_blocked/ib/jb/kb/x/y/v", [11010048, 0, 0, 0, 11010048]),
    ("gemm_blocked/ib/jb/wr", [12544, 65536, 0, 26624, 40192]),
    ("gemm_blocked/ib/jb/wr/writeback:C_local", [10240, 65536, 0, 26624, 37888]),
];

#[rustfmt::skip]
const DOUBLE_BUFFERED_REGIONS_D128: &[(&str, [u64; 5])] = &[
    ("gemm_dbuf", [13901096, 2293760, 0, 0, 13936936]),
    ("gemm_dbuf/ib", [13901096, 2293760, 0, 931840, 14868776]),
    ("gemm_dbuf/ib/jb", [13901072, 2293760, 0, 931840, 14868752]),
    ("gemm_dbuf/ib/jb/z", [18176, 0, 0, 0, 18176]),
    ("gemm_dbuf/ib/jb/kbi", [13870080, 2228224, 0, 905216, 14810112]),
    ("gemm_dbuf/ib/jb/kbi/r", [387328, 2228224, 0, 905216, 1327360]),
    ("gemm_dbuf/ib/jb/kbi/r/preload:A_local0", [174080, 1114112, 0, 452608, 644096]),
    ("gemm_dbuf/ib/jb/kbi/r/preload:B_local0", [174080, 1114112, 0, 452608, 644096]),
    ("gemm_dbuf/ib/jb/kbi/r", [387328, 2228224, 0, 905216, 1327360]),
    ("gemm_dbuf/ib/jb/kbi/r/preload:A_local1", [174080, 1114112, 0, 452608, 644096]),
    ("gemm_dbuf/ib/jb/kbi/r/preload:B_local1", [174080, 1114112, 0, 452608, 644096]),
    ("gemm_dbuf/ib/jb/kbi/x", [13443328, 0, 0, 0, 13443328]),
    ("gemm_dbuf/ib/jb/kbi/x/y", [13404160, 0, 0, 0, 13404160]),
    ("gemm_dbuf/ib/jb/kbi/x/y/v", [11698176, 0, 0, 0, 11698176]),
    ("gemm_dbuf/ib/jb/kbi/x", [13443328, 0, 0, 0, 13443328]),
    ("gemm_dbuf/ib/jb/kbi/x/y", [13404160, 0, 0, 0, 13404160]),
    ("gemm_dbuf/ib/jb/kbi/x/y/v", [11698176, 0, 0, 0, 11698176]),
    ("gemm_dbuf/ib/jb/wr", [12544, 65536, 0, 26624, 40192]),
    ("gemm_dbuf/ib/jb/wr/writeback:C_local", [10240, 65536, 0, 26624, 37888]),
];

/// T=8, 4-lane vectors, 8×8 blocks.
fn gemm_params(dim: i64) -> GemmParams {
    GemmParams {
        dim,
        ..GemmParams::default()
    }
}

fn actual_estimates() -> Vec<(String, [u64; 3])> {
    let cache = AccelCache::new();
    let mut out = Vec::new();
    let mut push = |label: String, r: fpga_sim::AnalyticReport| {
        out.push((label, [r.total_cycles, r.dram_bytes, r.critical_cycles]));
    };
    for dim in [64, 128] {
        let p = gemm_params(dim);
        for v in GemmVersion::ALL {
            let k = gemm::build(v, &p);
            let r = analytic_report(&cache, &k, &gemm_sim_config(), &gemm_launch(&p))
                .expect("GEMM bounds resolve statically");
            push(format!("gemm/{}/d{dim}", v.name()), r);
        }
    }
    for steps in [1_000_000, 4_000_000, 10_000_000] {
        let p = PiParams {
            steps,
            threads: 8,
            bs: 8,
        };
        let k = pi::build(&p);
        let r = analytic_report(&cache, &k, &pi_sim_config(), &pi_launch(&p))
            .expect("pi bounds resolve statically");
        push(format!("pi/{steps}"), r);
    }
    let m = Csr::random(65_536, 65_536, 8, 1);
    let launch = spmv_launch(&m);
    for t in [2, 8, 64] {
        let k = spmv::build(m.rows as i64, t);
        let r = analytic_report(&cache, &k, &spmv_sim_config(), &launch)
            .expect("SpMV bounds resolve against the memory image");
        push(format!("spmv/t{t}"), r);
    }
    out
}

/// A 4,096-row CSR with many distinct row lengths: every 64th row is
/// empty, the row after it holds 300 non-zeros, and the rest cycle
/// through 0–22 non-zeros.
fn skewed_csr() -> Csr {
    let (rows, cols) = (4096usize, 4096usize);
    let mut row_ptr = vec![0i64];
    let mut col_idx = Vec::new();
    for r in 0..rows {
        let len = match r % 64 {
            0 => 0,
            1 => 300,
            _ => (r * r + 3 * r) % 23,
        };
        col_idx.extend((0..len).map(|j| ((r * 131 + j * 977) % cols) as i64));
        row_ptr.push(col_idx.len() as i64);
    }
    let values = (0..col_idx.len()).map(|i| (i % 7) as f32 - 3.0).collect();
    Csr {
        rows,
        cols,
        row_ptr,
        col_idx,
        values,
    }
}

/// Rows of 0–12 elements bounded by `ROW_PTR` (256 rows, striped over
/// `threads`), whose inner pipelined loop reads `A[(r % 32)·k]`: the
/// stream's stride is `r % 32` elements, so it stays in a line on some
/// rows and fetches a line per access on others.
fn row_strided(threads: u32) -> (Kernel, Vec<LaunchArg>) {
    const ROWS: i64 = 256;
    let mut kb = KernelBuilder::new("row_strided", threads);
    let row_ptr = kb.buffer("ROW_PTR", ScalarType::I64, MapDir::To);
    let a = kb.buffer("A", ScalarType::F32, MapDir::To);
    let y = kb.buffer("Y", ScalarType::F32, MapDir::From);
    let acc = kb.var("acc", Type::F32);
    let tid = kb.thread_id();
    let my = kb.cast(ScalarType::I64, tid);
    let nt = kb.num_threads_expr();
    let nt64 = kb.cast(ScalarType::I64, nt);
    let end = kb.c_i64(ROWS);
    kb.for_each("r", my, end, nt64, |kb, r| {
        let z = kb.c_f32(0.0);
        kb.set(acc, z);
        let lo = kb.load(row_ptr, r, Type::I64);
        let one = kb.c_i64(1);
        let r1 = kb.add(r, one);
        let hi = kb.load(row_ptr, r1, Type::I64);
        let step = kb.c_i64(1);
        kb.for_each("k", lo, hi, step, |kb, k| {
            let w = kb.c_i64(32);
            let pitch = kb.bin(nymble_ir::BinOp::Rem, r, w);
            let i = kb.mul(pitch, k);
            let v = kb.load(a, i, Type::F32);
            let cur = kb.get(acc);
            let s = kb.add(cur, v);
            kb.set(acc, s);
        });
        let s = kb.get(acc);
        kb.store(y, r, s);
    });
    let mut row_ptr = vec![0i64];
    for r in 0..ROWS {
        row_ptr.push(row_ptr[r as usize] + (r * 5) % 13);
    }
    let nnz = *row_ptr.last().unwrap();
    let launch = vec![
        LaunchArg::Buffer(row_ptr.into_iter().map(Value::I64).collect()),
        LaunchArg::Buffer(vec![Value::F32(1.0); (31 * nnz + 1) as usize]),
        LaunchArg::Buffer(vec![Value::F32(0.0); ROWS as usize]),
    ];
    (kb.finish(), launch)
}

fn actual_row_walks() -> Vec<(String, [u64; 3])> {
    let cache = AccelCache::new();
    let mut out = Vec::new();
    let m = skewed_csr();
    let launch = spmv_launch(&m);
    for t in [2, 8, 64] {
        let k = spmv::build(m.rows as i64, t);
        let r = analytic_report(&cache, &k, &spmv_sim_config(), &launch)
            .expect("skewed CSR bounds resolve against the memory image");
        out.push((
            format!("skewed/t{t}"),
            [r.total_cycles, r.dram_bytes, r.critical_cycles],
        ));
    }
    for t in [1, 4] {
        let (k, launch) = row_strided(t);
        let r = analytic_report(&cache, &k, &spmv_sim_config(), &launch)
            .expect("row bounds resolve against the memory image");
        out.push((
            format!("row_strided/t{t}"),
            [r.total_cycles, r.dram_bytes, r.critical_cycles],
        ));
    }
    out
}

type ModelRow = (String, Option<([u64; 3], Vec<u64>)>);

fn actual_models() -> Vec<ModelRow> {
    let extra: [(&str, Kernel); 4] = [
        ("vecadd", kernels::extra::vecadd(64, 4)),
        ("dot", kernels::extra::dot(64, 4)),
        ("jacobi", kernels::extra::jacobi(16, 4)),
        ("histogram", kernels::extra::histogram(64, 8, 4)),
    ];
    let fixtures = kernels::fixtures::all()
        .into_iter()
        .map(|f| (format!("fixture/{}", f.name), f.kernel));
    let extra = extra
        .into_iter()
        .map(|(name, k)| (format!("extra/{name}"), k));
    fixtures
        .chain(extra)
        .map(|(label, k)| {
            let m = perf::model(&k, &PerfParams::default());
            let values = m.map(|m| {
                let totals = [m.dram_bytes, m.critical_cycles, m.total_cycles];
                (totals, m.per_thread)
            });
            (label, values)
        })
        .collect()
}

fn actual_regions(v: GemmVersion, dim: i64) -> Vec<(String, [u64; 5])> {
    let k = gemm::build(v, &gemm_params(dim));
    let tree = RegionTree::build(&k, &PerfParams::default());
    assert!(
        tree.analytic,
        "{}: profits must come from the model",
        v.name()
    );
    tree.regions
        .iter()
        .map(|r| {
            let p = r.profit;
            let values = [
                p.cycles,
                p.dram_bytes,
                p.critical_cycles,
                p.dma_cycles,
                r.score,
            ];
            (r.label.clone(), values)
        })
        .collect()
}

/// Compare `actual` against `pinned`, printing the whole actual table (as
/// Rust tuples, ready to paste) when they differ.
fn assert_pinned<const N: usize>(
    name: &str,
    actual: &[(String, [u64; N])],
    pinned: &[(&str, [u64; N])],
) {
    let same = actual.len() == pinned.len()
        && actual
            .iter()
            .zip(pinned)
            .all(|(a, p)| a.0 == p.0 && a.1 == p.1);
    if !same {
        let rows: Vec<String> = actual.iter().map(|r| format!("    {r:?},")).collect();
        panic!("{name} moved; actual values:\n{}", rows.join("\n"));
    }
}

#[test]
fn structural_models_are_pinned() {
    let actual = actual_models();
    let same = actual.len() == MODELS.len()
        && actual.iter().zip(MODELS).all(|(a, p)| {
            a.0 == p.0
                && match (&a.1, &p.1) {
                    (None, None) => true,
                    (Some((at, ap)), Some((pt, pp))) => at == pt && ap.as_slice() == *pp,
                    _ => false,
                }
        });
    if !same {
        let rows: Vec<String> = actual
            .iter()
            .map(|(label, m)| match m {
                None => format!("    ({label:?}, None),"),
                Some((t, per)) => format!("    ({label:?}, Some(({t:?}, &{per:?}))),"),
            })
            .collect();
        panic!("perf::model moved; actual values:\n{}", rows.join("\n"));
    }
}

#[test]
fn analytic_estimates_are_pinned() {
    assert_pinned("estimate_with_image", &actual_estimates(), ESTIMATES);
}

#[test]
fn image_row_walks_are_pinned() {
    assert_pinned("image row walks", &actual_row_walks(), ROW_WALKS);
}

#[test]
fn region_profits_are_pinned() {
    assert_pinned(
        "Blocked",
        &actual_regions(GemmVersion::Blocked, 64),
        BLOCKED_REGIONS,
    );
    assert_pinned(
        "DoubleBuffered",
        &actual_regions(GemmVersion::DoubleBuffered, 64),
        DOUBLE_BUFFERED_REGIONS,
    );
}

#[test]
fn region_profits_at_dim_128_are_pinned() {
    assert_pinned(
        "Blocked/d128",
        &actual_regions(GemmVersion::Blocked, 128),
        BLOCKED_REGIONS_D128,
    );
    assert_pinned(
        "DoubleBuffered/d128",
        &actual_regions(GemmVersion::DoubleBuffered, 128),
        DOUBLE_BUFFERED_REGIONS_D128,
    );
}
