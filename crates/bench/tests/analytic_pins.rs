//! Exact-value pins of the static cost model on the shipped kernels.
//! `analytic_validation` bounds the analytic model within ±15% of the
//! simulator; these pins catch any refactor of the cost walker or its
//! parameter tables that moves a single cycle or byte. On a mismatch the
//! test prints the actual table, ready to paste.

use bench::{analytic_report, gemm_launch, gemm_sim_config, pi_launch, pi_sim_config};
use bench::{spmv_launch, spmv_sim_config};
use kernels::gemm::{self, GemmParams, GemmVersion};
use kernels::pi::{self, PiParams};
use kernels::spmv::{self, Csr};
use nymble_hls::{AccelCache, RegionTree};
use nymble_lint::PerfParams;

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

fn actual_regions(v: GemmVersion) -> Vec<(String, [u64; 5])> {
    let k = gemm::build(v, &gemm_params(64));
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
fn analytic_estimates_are_pinned() {
    assert_pinned("estimate_with_image", &actual_estimates(), ESTIMATES);
}

#[test]
fn region_profits_are_pinned() {
    assert_pinned(
        "Blocked",
        &actual_regions(GemmVersion::Blocked),
        BLOCKED_REGIONS,
    );
    assert_pinned(
        "DoubleBuffered",
        &actual_regions(GemmVersion::DoubleBuffered),
        DOUBLE_BUFFERED_REGIONS,
    );
}
