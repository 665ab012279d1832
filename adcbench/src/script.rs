//! Seeded op scripts. A script is fixed by the workload's sizes and the
//! seed alone; every run executes the whole script.

/// SplitMix64: a tiny, well-mixed generator, enough to derive sub-seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Sizes of a mining workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MineSizes {
    /// Distinct relations in the rotation.
    pub relations: usize,
    /// Rows per relation.
    pub rows: usize,
    /// Mining ops per script.
    pub ops: usize,
}

/// One mining op: which relation of the rotation to mine, and the seed of
/// the sample drawn from it (unused when mining the full relation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MineOp {
    /// Index into [`MineScript::relation_seeds`].
    pub relation: usize,
    /// Sampler seed.
    pub sample_seed: u64,
}

/// The op script of a mining workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MineScript {
    /// Generator seed of each relation in the rotation.
    pub relation_seeds: Vec<u64>,
    /// Ops, in execution order; op `i` mines relation `i mod relations`.
    pub ops: Vec<MineOp>,
}

impl MineScript {
    /// The script `seed` selects.
    pub fn new(sizes: MineSizes, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let relation_seeds = (0..sizes.relations).map(|_| rng.next_u64()).collect();
        let ops = (0..sizes.ops)
            .map(|i| MineOp {
                relation: i % sizes.relations,
                sample_seed: rng.next_u64(),
            })
            .collect();
        MineScript {
            relation_seeds,
            ops,
        }
    }
}

/// Sizes of the sliding-window monitor workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSizes {
    /// Rows in the window.
    pub window: usize,
    /// Rows deleted (the oldest) and inserted (from the pool) per refresh.
    pub churn: usize,
    /// Refreshes per script.
    pub refreshes: usize,
    /// A from-scratch re-mine checks the answer after every this many
    /// refreshes (and after the last).
    pub check_every: usize,
}

/// The op script of the monitor workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorScript {
    /// Generator seed of the initial window.
    pub window_seed: u64,
    /// Generator seeds of the insert pool, one window-sized chunk each; the
    /// pool is their rows in order, and refresh `i` inserts rows
    /// `i·churn .. (i+1)·churn` of it.
    pub pool_seeds: Vec<u64>,
}

impl MonitorScript {
    /// The script `seed` selects.
    pub fn new(sizes: MonitorSizes, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let window_seed = rng.next_u64();
        let chunks = (sizes.refreshes * sizes.churn).div_ceil(sizes.window);
        let pool_seeds = (0..chunks).map(|_| rng.next_u64()).collect();
        MonitorScript {
            window_seed,
            pool_seeds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINE: MineSizes = MineSizes {
        relations: 3,
        rows: 10,
        ops: 7,
    };
    const MONITOR: MonitorSizes = MonitorSizes {
        window: 40,
        churn: 2,
        refreshes: 50,
        check_every: 10,
    };

    #[test]
    fn one_seed_gives_one_script() {
        assert_eq!(MineScript::new(MINE, 7), MineScript::new(MINE, 7));
        assert_eq!(
            MonitorScript::new(MONITOR, 7),
            MonitorScript::new(MONITOR, 7)
        );
    }

    #[test]
    fn another_seed_gives_another_script() {
        assert_ne!(MineScript::new(MINE, 7), MineScript::new(MINE, 8));
        assert_ne!(
            MonitorScript::new(MONITOR, 7),
            MonitorScript::new(MONITOR, 8)
        );
    }

    #[test]
    fn scripts_rotate_and_cover_the_churn() {
        let s = MineScript::new(MINE, 1);
        assert_eq!(s.relation_seeds.len(), 3);
        let rotation: Vec<usize> = s.ops.iter().map(|op| op.relation).collect();
        assert_eq!(rotation, [0, 1, 2, 0, 1, 2, 0]);
        // 50 refreshes × 2 rows = 100 pool rows = 3 chunks of 40.
        assert_eq!(MonitorScript::new(MONITOR, 1).pool_seeds.len(), 3);
    }
}
