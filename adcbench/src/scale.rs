//! Reference-speed scaling of measured durations.
//!
//! Other tenants of a shared machine slow allocation- and branch-heavy code
//! by up to 2× for stretches of seconds to a minute (see `README.md`,
//! *Noise*), so raw durations of identical work drift between runs. A fixed
//! reference kernel of the same character, timed right after each
//! measurement, slows down with it. Every duration the benchmark reports is
//! multiplied by `NOMINAL_MS / reference time`: it is expressed at the speed
//! at which the reference kernel takes [`NOMINAL_MS`]. The kernel is the
//! benchmark's own code, so a change to the library moves the scaled
//! durations exactly as much as the raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time at which scaled durations are expressed, in ms
/// (a round figure near the kernel's time on the 2-core Xeon VM the
/// baseline in `README.md` was recorded on).
pub const NOMINAL_MS: f64 = 4.0;

/// Time the reference kernel once and return the factor that scales a
/// duration measured just before it to the nominal speed.
pub fn factor() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(0x5EED)));
    NOMINAL_MS / (start.elapsed().as_secs_f64() * 1e3)
}

/// Like [`factor`], from the median of 5 kernel runs: for a single
/// measurement that no other sample of the run averages out (a set-up).
pub fn steady_factor() -> f64 {
    let factors: Vec<f64> = (0..5).map(|_| factor()).collect();
    crate::stats::median(&factors)
}

/// The reference kernel: two halves of about equal time, one for each kind
/// of work the library does. Ordered-map inserts of short vectors
/// (allocation, pointer chasing) track the predicate and evidence layers; a
/// bitmask depth-first search for small hitting sets (a vector per node,
/// data-dependent branches) tracks the enumeration.
fn kernel(seed: u64) -> u64 {
    map_inserts(seed) + hitting_search(seed)
}

/// The next xorshift value of `x`.
fn step(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn map_inserts(seed: u64) -> u64 {
    let mut map = BTreeMap::new();
    let mut x = seed;
    for i in 0..10_000u64 {
        let k = step(&mut x);
        map.insert(k % 25_000, vec![i; (k % 7) as usize + 1]);
    }
    map.values().map(|v| v.len() as u64).sum()
}

fn hitting_search(seed: u64) -> u64 {
    let mut x = seed;
    let family: Vec<u64> = (0..48)
        .map(|_| (0..6).fold(0u64, |m, _| m | 1 << (step(&mut x) % 64)))
        .collect();
    let mut stack: Vec<(u64, Vec<u16>)> = vec![(0, (0..family.len() as u16).collect())];
    let mut nodes = 0u64;
    while let Some((chosen, uncovered)) = stack.pop() {
        nodes += 1;
        if nodes == 24_000 {
            break;
        }
        let Some(&first) = uncovered.first() else {
            continue;
        };
        let mut candidates = family[usize::from(first)] & !chosen;
        while candidates != 0 {
            let next = chosen | 1 << candidates.trailing_zeros();
            candidates &= candidates - 1;
            if next.count_ones() <= 5 {
                let rest = uncovered
                    .iter()
                    .copied()
                    .filter(|&s| family[usize::from(s)] & next == 0)
                    .collect();
                stack.push((next, rest));
            }
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_the_factor_positive() {
        assert_eq!(kernel(0x5EED), kernel(0x5EED));
        let f = factor();
        assert!(f.is_finite() && f > 0.0);
    }
}
