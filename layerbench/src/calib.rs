//! Host-speed calibration: a fixed piece of work owned by the benchmark,
//! timed between the passes.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants'
//! load changes how fast those cores run, by a third and more, in phases
//! that last minutes; every host-time statistic of a run (median, fastest
//! decile, minimum) moves with it. The calibration slows down with the
//! same phases, so the run's median pass wall time divided by its median
//! calibration round measures the program, not the host. The work never
//! calls into the pipeline crates: a change to them cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys per round: 512 KiB of `u64`, as the simulator's per-kernel state.
const KEYS: usize = 1 << 16;

/// One round of the mix the pipeline spends its time on: sorting,
/// hash-map updates and dependent loads. The buffers are reused from
/// round to round, so that page faults stay out of the timing.
fn round(seed: u64, keys: &mut Vec<u64>, counts: &mut HashMap<u64, u64>) -> u64 {
    let mut x = seed | 1;
    keys.clear();
    keys.extend((0..KEYS).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }));
    keys.sort_unstable();
    counts.clear();
    for (i, k) in keys.iter().enumerate() {
        *counts.entry(k % (KEYS as u64 / 4)).or_insert(0u64) += i as u64;
    }
    let mut acc = 0u64;
    let mut at = 0usize;
    for _ in 0..4 * KEYS {
        at = (keys[at] as usize ^ at) % KEYS;
        acc = acc.wrapping_add(keys[at]);
    }
    acc ^ counts.values().sum::<u64>()
}

/// Wall seconds per round of one calibration: `rounds` rounds on each of
/// `threads` threads at once, one thread per worker of the pass it
/// follows (a round takes 2–3 ms on an idle 2.1 GHz core).
pub fn calibrate(threads: usize, rounds: u64) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for thread in 0..threads as u64 {
            s.spawn(move || {
                let mut keys = Vec::with_capacity(KEYS);
                let mut counts = HashMap::with_capacity(KEYS / 4);
                for r in 0..rounds {
                    let seed = black_box(thread * rounds + r + 1);
                    black_box(round(seed, &mut keys, &mut counts));
                }
            });
        }
    });
    t.elapsed().as_secs_f64() / rounds as f64
}
