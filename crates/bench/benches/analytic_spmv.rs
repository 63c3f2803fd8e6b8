//! Bench of the analytic fast mode on the seeded 65,536-row SpMV (the
//! kernel of the `analytic-sweep` benchmark workload): building the
//! launch-time memory image, and `estimate_with_image` itself, at T =
//! 2/8/64. Prints milliseconds per call; there is no threshold.

use bench::harness::Group;
use bench::{spmv_launch, spmv_sim_config};
use fpga_sim::analytic::estimate_with_image;
use fpga_sim::memimg::MemImage;
use kernels::spmv::{self, Csr};
use nymble_hls::accel::{compile, HlsConfig};

fn main() {
    let m = Csr::random(65_536, 65_536, 8, 1);
    let launch = spmv_launch(&m);
    let sim = spmv_sim_config();
    let g = Group::new("analytic_spmv", 10);
    for t in [2, 8, 64] {
        let k = spmv::build(m.rows as i64, t);
        let accel = compile(&k, &HlsConfig::default());
        g.bench(&format!("image/t{t}"), || MemImage::new(&k, &launch));
        let (mem, scalars) = MemImage::new(&k, &launch);
        g.bench(&format!("estimate/t{t}"), || {
            estimate_with_image(&k, &accel, &sim, &scalars, &mem).map(|r| r.total_cycles)
        });
    }
}
