//! `adc_sync` — the schedule shim behind the parallel sweep kernel.
//!
//! This module is the workspace's only blessed home for concurrency
//! primitives outside the sweep kernel itself (the
//! `concurrency/confinement` rule of `tools/adc-conformance` enforces
//! that). It exists so the kernel's *work distribution* is an injectable
//! seam instead of a hard-wired atomic counter:
//!
//! - in production, [`AtomicChunkSource`] hands out chunk indexes from a
//!   shared atomic counter — dynamic load balancing, schedule decided by
//!   the OS scheduler;
//! - under audit, [`ScriptedChunkSource`] *replays a prescribed schedule*:
//!   pull `k` hands chunk `k` to worker `pulls[k]`, and every other worker
//!   blocks on a condvar until its scripted turn. Together with a seeded
//!   shard-arrival shuffle before the deterministic ascending merge, this
//!   turns "output is bit-for-bit identical at any thread count" from an
//!   observation about one machine's scheduler into a property checked
//!   over an exhaustive grid of small schedules plus hundreds of seeded
//!   random ones (`crates/evidence/tests/schedule_audit.rs`).
//!
//! The formal shape of the claim is *history independence* (Attiya et al.,
//! "History-Independent Concurrent Objects"): the merged evidence state
//! must not leak which schedule produced it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// A source of work-unit indexes for a pool of workers.
///
/// `next_chunk` may block (the scripted source does); returning `None`
/// permanently retires the calling worker. Indexes at or beyond the
/// kernel's chunk count are *skipped, not terminal* — sources are allowed
/// to over-approximate the index range (a scripted schedule can be longer
/// than the realised chunk count), and the kernel keeps pulling.
pub trait ChunkSource: Sync {
    /// Next chunk index for `worker`, or `None` when this worker is done.
    fn next_chunk(&self, worker: usize) -> Option<usize>;
}

/// Production source: a shared atomic counter, first come first served.
#[derive(Debug)]
pub struct AtomicChunkSource {
    next: AtomicUsize,
    chunks: usize,
}

impl AtomicChunkSource {
    /// Source handing out `0..chunks` across all workers.
    pub fn new(chunks: usize) -> Self {
        AtomicChunkSource {
            next: AtomicUsize::new(0),
            chunks,
        }
    }
}

impl ChunkSource for AtomicChunkSource {
    fn next_chunk(&self, _worker: usize) -> Option<usize> {
        let chunk = self.next.fetch_add(1, Ordering::Relaxed);
        (chunk < self.chunks).then_some(chunk)
    }
}

/// Audit source: replays a prescribed pull schedule.
///
/// `pulls[k]` names the worker that receives chunk `k`; a worker whose
/// scripted turn has not come yet blocks on a condvar, so the realised
/// chunk→worker assignment *and* each worker's processing order are exactly
/// the scripted ones, independent of OS scheduling. A worker with no
/// remaining scripted pulls retires immediately (no deadlock: the worker
/// owed the current pull can never have retired, since its pull is still
/// in the script).
#[derive(Debug)]
pub struct ScriptedChunkSource {
    pulls: Vec<usize>,
    cursor: Mutex<usize>,
    turn: Condvar,
}

impl ScriptedChunkSource {
    /// Build the source; every element of `pulls` must name a worker
    /// `< workers`.
    pub fn new(pulls: Vec<usize>, workers: usize) -> Self {
        assert!(
            pulls.iter().all(|&w| w < workers),
            "schedule names worker {} but only {workers} workers exist",
            pulls.iter().copied().max().unwrap_or(0),
        );
        ScriptedChunkSource {
            pulls,
            cursor: Mutex::new(0),
            turn: Condvar::new(),
        }
    }
}

impl ChunkSource for ScriptedChunkSource {
    fn next_chunk(&self, worker: usize) -> Option<usize> {
        // Lock poisoning cannot happen (no panics while holding the lock),
        // but recovering the guard is cheaper to prove than annotating.
        let mut cursor = self.cursor.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !self.pulls[*cursor..].contains(&worker) {
                // No scripted pulls left for this worker; wake the rest so
                // nobody waits on a retired peer.
                self.turn.notify_all();
                return None;
            }
            if self.pulls[*cursor] == worker {
                let chunk = *cursor;
                *cursor += 1;
                self.turn.notify_all();
                return Some(chunk);
            }
            cursor = self
                .turn
                .wait(cursor)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A complete adversarial schedule for one parallel build: worker count,
/// pull script, and a seed for shuffling shard arrival order ahead of the
/// deterministic merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of workers to spawn (the audited build spawns exactly this
    /// many, even when fewer would be chosen in production).
    pub workers: usize,
    /// `pulls[k]` = worker that receives chunk `k`. May be longer than the
    /// realised chunk count (extra pulls hand out indexes the kernel
    /// skips); it must not be shorter.
    pub pulls: Vec<usize>,
    /// Seed for the pre-merge shard-arrival shuffle. The merge sorts shards
    /// into ascending chunk order, so *any* arrival order must yield the
    /// same output — shuffling first is what makes the test able to notice
    /// if that sort ever disappears.
    pub arrival_seed: u64,
}

impl Schedule {
    /// Every schedule of `chunks` pulls over `workers` workers
    /// (`workers^chunks` of them), arrival seeds varied alongside. The
    /// intended use is small exhaustive grids (≤3 workers, ≤4 chunks).
    pub fn exhaustive(workers: usize, chunks: usize) -> Vec<Schedule> {
        let total = workers.pow(chunks as u32);
        let mut out = Vec::with_capacity(total);
        for code in 0..total {
            let mut pulls = Vec::with_capacity(chunks);
            let mut rest = code;
            for _ in 0..chunks {
                pulls.push(rest % workers);
                rest /= workers;
            }
            out.push(Schedule {
                workers,
                pulls,
                arrival_seed: code as u64,
            });
        }
        out
    }

    /// One seeded random schedule: `pulls.len() == chunks`, workers and
    /// arrival order derived from the same seed.
    pub fn random(workers: usize, chunks: usize, seed: u64) -> Schedule {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E_D01E);
        let pulls = (0..chunks).map(|_| rng.gen_range(0..workers)).collect();
        Schedule {
            workers,
            pulls,
            arrival_seed: rng.gen(),
        }
    }
}

/// Shuffle `shards` (already or not yet in chunk order) into the arrival
/// order dictated by `seed`. Called by the audited build paths right before
/// the production merge, which must undo any such permutation by sorting.
pub fn shuffle_arrival<T>(shards: &mut [T], seed: u64) {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(seed);
    shards.shuffle(&mut rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn atomic_source_hands_out_each_chunk_once() {
        let src = AtomicChunkSource::new(5);
        let mut seen = Vec::new();
        while let Some(c) = src.next_chunk(0) {
            seen.push(c);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(src.next_chunk(1), None);
    }

    #[test]
    fn scripted_source_replays_the_script_across_threads() {
        // Worker 1 gets chunks 0 and 2, worker 0 gets chunk 1 — regardless
        // of which thread reaches the source first.
        let src = ScriptedChunkSource::new(vec![1, 0, 1], 2);
        let per_worker: Vec<Vec<usize>> = thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|w| {
                    let src = &src;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(c) = src.next_chunk(w) {
                            got.push(c);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scripted worker"))
                .collect()
        });
        assert_eq!(per_worker[0], vec![1]);
        assert_eq!(per_worker[1], vec![0, 2]);
    }

    #[test]
    fn scripted_source_retires_workers_with_no_pulls() {
        let src = ScriptedChunkSource::new(vec![0, 0], 3);
        // Worker 2 never appears in the script: must return None without
        // blocking even before worker 0 has pulled anything.
        assert_eq!(src.next_chunk(2), None);
        assert_eq!(src.next_chunk(0), Some(0));
        assert_eq!(src.next_chunk(0), Some(1));
        assert_eq!(src.next_chunk(0), None);
    }

    #[test]
    #[should_panic(expected = "schedule names worker 7")]
    fn scripted_source_rejects_out_of_range_workers() {
        ScriptedChunkSource::new(vec![0, 7], 2);
    }

    #[test]
    fn exhaustive_enumerates_workers_pow_chunks() {
        let all = Schedule::exhaustive(3, 4);
        assert_eq!(all.len(), 81);
        // All distinct, all in range.
        for s in &all {
            assert_eq!(s.pulls.len(), 4);
            assert!(s.pulls.iter().all(|&w| w < 3));
        }
        let mut pulls: Vec<_> = all.iter().map(|s| s.pulls.clone()).collect();
        pulls.sort();
        pulls.dedup();
        assert_eq!(pulls.len(), 81);
    }

    #[test]
    fn random_schedules_are_deterministic_per_seed() {
        let a = Schedule::random(4, 10, 42);
        let b = Schedule::random(4, 10, 42);
        let c = Schedule::random(4, 10, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.pulls.len(), 10);
        assert!(a.pulls.iter().all(|&w| w < 4));
    }

    #[test]
    fn shuffle_arrival_permutes_deterministically() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b: Vec<u32> = (0..16).collect();
        shuffle_arrival(&mut a, 7);
        shuffle_arrival(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
    }
}
