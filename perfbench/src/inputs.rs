//! Workload inputs as a pure function of the seed.
//!
//! The program under test receives only what this module generates: a
//! source seed, read-size schedules and, on `reseed-mixed`, the op mix
//! of the thread that also streams the conditioned session.

/// Bytes per raw-tier read on `raw-bulk`: one merge round of its two
/// 64 KiB-chunk shards. With one-chunk reads about half the reads find
/// the other shard's chunk already queued and the rest wait a whole
/// generation, so the median latency flips between those two modes from
/// run to run.
pub const RAW_READ_BYTES: usize = 128 * 1024;
/// Simultaneously open drbg sessions on `wire-drbg`.
pub const WIRE_SESSIONS: usize = 256;
/// Drbg sessions on `reseed-mixed`, split evenly over its two threads.
pub const MIXED_DRBG_SESSIONS: usize = 32;
/// Bytes per conditioned-tier read on `reseed-mixed`.
pub const CONDITIONED_READ_BYTES: usize = 4096;
/// The largest key-sized read.
pub const MAX_READ_BYTES: usize = 4096;
/// Entries in a schedule; longer windows cycle through it.
const SCHEDULE_LEN: usize = 16384;

/// The SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: a small, well-mixed generator for input schedules.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `low..=high`.
    pub fn range(&mut self, low: u64, high: u64) -> u64 {
        low + self.next_u64() % (high - low + 1)
    }
}

/// Everything one run feeds the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// Master seed of the entropy source's shard seed schedule.
    pub source_seed: u64,
    /// Key-sized drbg read sizes on `wire-drbg`: mostly 32–64 B, one in
    /// 32 of 1–4 KiB (so p99 falls well inside the bulk reads instead of
    /// on the edge between the two populations).
    pub read_sizes: Vec<u32>,
    /// Drbg read sizes on `reseed-mixed`: 32–64 B only, so its tail
    /// latency is set by lock and harvest waits, not by bulk reads.
    pub key_sizes: Vec<u32>,
    /// Thread 0's ops on `reseed-mixed`: `true` is a conditioned read,
    /// `false` the next drbg read (one in eight is conditioned).
    pub mixed_ops: Vec<bool>,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let source_seed = rng.next_u64();
        let read_sizes = (0..SCHEDULE_LEN)
            .map(|_| {
                let size = if rng.range(0, 31) == 0 {
                    rng.range(1024, MAX_READ_BYTES as u64)
                } else {
                    rng.range(32, 64)
                };
                u32::try_from(size).expect("read sizes fit in u32")
            })
            .collect();
        let key_sizes = (0..SCHEDULE_LEN)
            .map(|_| rng.range(32, 64) as u32)
            .collect();
        let mixed_ops = (0..SCHEDULE_LEN).map(|_| rng.range(0, 7) == 0).collect();
        Self {
            source_seed,
            read_sizes,
            key_sizes,
            mixed_ops,
        }
    }

    /// The size of `wire-drbg` read `seq` (the schedule cycles).
    pub fn read_size(&self, seq: u64) -> usize {
        cycle(&self.read_sizes, seq) as usize
    }

    /// The size of `reseed-mixed` drbg read `seq`.
    pub fn key_size(&self, seq: u64) -> usize {
        cycle(&self.key_sizes, seq) as usize
    }

    /// Whether thread 0's op `seq` on `reseed-mixed` is a conditioned
    /// read.
    pub fn conditioned_op(&self, seq: u64) -> bool {
        cycle(&self.mixed_ops, seq)
    }
}

fn cycle<T: Copy>(schedule: &[T], seq: u64) -> T {
    schedule[(seq % schedule.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed_only() {
        assert_eq!(Inputs::from_seed(7), Inputs::from_seed(7));
        let (a, b) = (Inputs::from_seed(7), Inputs::from_seed(8));
        assert_ne!(a.source_seed, b.source_seed);
        assert_ne!(a.read_sizes, b.read_sizes);
        assert_ne!(a.key_sizes, b.key_sizes);
        assert_ne!(a.mixed_ops, b.mixed_ops);
    }

    #[test]
    fn read_sizes_are_key_sized_with_rare_bulk_reads() {
        let inputs = Inputs::from_seed(1);
        let bulk = inputs.read_sizes.iter().filter(|&&n| n >= 1024).count();
        assert!(inputs
            .read_sizes
            .iter()
            .all(|&n| (32..=64).contains(&n) || (1024..=4096).contains(&n)));
        assert!(
            bulk > SCHEDULE_LEN / 40 && bulk < SCHEDULE_LEN / 25,
            "bulk reads: {bulk}"
        );
    }
}
