//! A fixed calibration kernel that measures how fast the host runs right
//! now, independent of the repository's code.
//!
//! A shared host drifts through slow and fast phases lasting seconds to
//! minutes; on a 2-vCPU VM the simulator's host time moved by 40% within
//! one process while its work stayed fixed. Timing the same fixed work
//! next to each repetition lets `run.py` rescale the repetition's host
//! seconds to a reference speed, so most of the drift cancels while any
//! change in the repository's code still shows in full.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's two tables (8-byte entries) and the dependent steps it
/// walks over each. Most steps stay in a 256 KiB table, within the core's
/// private cache, and track core speed. The rest walk a 2 MiB table, the
/// size of the private L2, and track how much of it other tenants leave.
/// The simulator is sensitive to both; with this split the kernel's time
/// moved with its advance time through the host's phases.
const WALKS: [(usize, u64); 2] = [(1 << 15, 4_000_000), (1 << 18, 600_000)];

/// Runs the kernel `n` times; returns the host seconds of each run.
pub fn samples(n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            for (entries, steps) in WALKS {
                black_box(walk(entries, black_box(steps)));
            }
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// A dependent read-modify-write walk over a fresh table of `entries`
/// (a power of two) with data-dependent branches.
fn walk(entries: usize, steps: u64) -> u64 {
    let mut table: Vec<u64> = (0..entries as u64).map(mix).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..steps {
        let slot = (x as usize) & (entries - 1);
        let v = table[slot];
        x = mix(v ^ i);
        if x & 3 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= x.rotate_left(7);
        }
        table[slot] = v.wrapping_add(acc);
    }
    acc ^ table[(acc as usize) & (entries - 1)]
}

/// SplitMix64's finaliser.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_deterministic() {
        assert_eq!(walk(1 << 10, 1_000), walk(1 << 10, 1_000));
        assert_ne!(walk(1 << 10, 1_000), walk(1 << 10, 1_001));
    }

    #[test]
    fn every_run_is_timed() {
        let s = samples(2);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|&t| t > 0.0));
    }
}
