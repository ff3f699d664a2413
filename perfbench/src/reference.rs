//! The reference loop: fixed work that belongs to the benchmark, timed
//! once per round, so every end-to-end timing can be scaled to one
//! machine speed.
//!
//! On a shared host the whole machine changes speed for minutes at a
//! time: loops of fixed work, the program's own and this one alike, run
//! about 1.4× slower for a while and then fast again. A run that falls
//! into a slow stretch sees no fast observation at all, so no estimator
//! over its own samples can remove the shift. This loop shares no code
//! with the workspace, so a program change cannot move it; its fastest
//! pass measures the machine, and [`scale`] maps each run onto the speed
//! at which the loop takes [`NOMINAL_S`].

use std::hint::black_box;
use std::time::Instant;

/// Entries in the loop's table: 64 KiB of `u64`, so it stays in cache.
const TABLE: usize = 8192;

/// Steps of one pass.
const STEPS: u64 = 1_500_000;

/// About the fastest pass on the 2-vCPU host the bounds were measured on
/// (README.md), in seconds, so that scaled values stay near raw ones there.
pub const NOMINAL_S: f64 = 0.004;

/// One pass: xorshift-driven integer arithmetic and dependent reads and
/// writes in a cache-resident table. Returns its wall-clock seconds.
#[must_use]
pub fn pass() -> f64 {
    let mut table = vec![0_u64; TABLE];
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0_u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) % TABLE;
        table[slot] = table[slot].wrapping_mul(31).wrapping_add(x ^ i);
        acc = acc.wrapping_add(table[(acc as usize) % TABLE] >> 3);
    }
    black_box((acc, &table));
    started.elapsed().as_secs_f64()
}

/// The factor that maps a run's timings onto the nominal machine speed:
/// times are multiplied by it, rates divided. `passes` are the run's
/// reference passes; the fastest one measures the machine.
#[must_use]
pub fn scale(passes: &[f64]) -> f64 {
    NOMINAL_S / passes.iter().copied().fold(f64::INFINITY, f64::min)
}
