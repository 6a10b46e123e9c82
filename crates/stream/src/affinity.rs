//! Opt-in shard→core affinity.
//!
//! The scaling story in the DH-TRNG paper is "more units, linearly more
//! bits"; on a real multi-core host that only materialises if the shard
//! workers do not migrate between cores and trample each other's
//! caches. [`AffinityPolicy`] is the builder knob: **disabled by
//! default** (the scheduler usually does fine), and best-effort when
//! enabled — a failed pin is recorded, never fatal.
//!
//! The pinning itself is a raw `sched_setaffinity(2)` call on Linux,
//! declared inline (`std` already links libc, so this adds no
//! dependency) behind a scoped `unsafe` shim mirroring the AVX2
//! dispatch precedent in `dhtrng-core`. On every other platform the
//! shim is a no-op that reports "not pinned".

use std::num::NonZeroUsize;

/// How shard worker threads are placed onto CPU cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum AffinityPolicy {
    /// Let the OS scheduler place worker threads (the default).
    #[default]
    Disabled,
    /// Pin worker `i` to core `i % host_cpus`. Best-effort: on
    /// non-Linux hosts, on single-CPU hosts, or when the kernel
    /// refuses, the thread simply runs unpinned.
    PerShard,
}

impl AffinityPolicy {
    /// The core worker `index` should pin to, or `None` when this
    /// policy (or the host shape) says not to pin at all. Pinning on a
    /// single-CPU host is pure downside — it forbids nothing and
    /// forfeits nothing — so it is skipped.
    pub fn core_for_worker(self, index: usize, host_cpus: usize) -> Option<usize> {
        match self {
            AffinityPolicy::Disabled => None,
            AffinityPolicy::PerShard if host_cpus <= 1 => None,
            AffinityPolicy::PerShard => Some(index % host_cpus),
        }
    }
}

/// CPUs visible to this process, with the std fallback of 1 when the
/// host will not say. Cached: `available_parallelism` is a syscall,
/// and the backoff ladder consults this on the hand-off hot path.
pub(crate) fn host_cpus() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    match CACHED.load(Ordering::Relaxed) {
        0 => {
            let cpus = std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1);
            CACHED.store(cpus, Ordering::Relaxed);
            cpus
        }
        cpus => cpus,
    }
}

/// Pins the calling thread to `cpu`. Returns whether the pin took
/// effect. Never panics and never fails the caller: affinity is an
/// optimisation, not a correctness requirement.
#[cfg(target_os = "linux")]
pub(crate) fn pin_current_thread(cpu: usize) -> bool {
    // Matches the kernel's default CPU_SETSIZE of 1024 bits.
    const SETSIZE_BYTES: usize = 128;
    const BITS_PER_WORD: usize = u64::BITS as usize;

    #[allow(unsafe_code)]
    extern "C" {
        // std links libc on Linux, so declaring the symbol inline costs
        // no new dependency. pid 0 means "the calling thread".
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    if cpu >= SETSIZE_BYTES * 8 {
        return false;
    }
    let mut mask = [0u64; SETSIZE_BYTES / 8];
    mask[cpu / BITS_PER_WORD] |= 1u64 << (cpu % BITS_PER_WORD);
    // SAFETY: `mask` is a valid, initialised buffer of exactly
    // `SETSIZE_BYTES` bytes that outlives the call; pid 0 targets only
    // the calling thread, so no other thread's state is touched. The
    // call has no memory effects beyond reading `mask`.
    #[allow(unsafe_code)]
    let rc = unsafe { sched_setaffinity(0, SETSIZE_BYTES, mask.as_ptr()) };
    rc == 0
}

/// Non-Linux fallback: affinity is not supported, report "not pinned".
#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_current_thread(_cpu: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_never_pins() {
        for index in 0..8 {
            assert_eq!(AffinityPolicy::Disabled.core_for_worker(index, 16), None);
        }
    }

    #[test]
    fn per_shard_wraps_over_host_cpus() {
        let policy = AffinityPolicy::PerShard;
        assert_eq!(policy.core_for_worker(0, 4), Some(0));
        assert_eq!(policy.core_for_worker(3, 4), Some(3));
        assert_eq!(policy.core_for_worker(4, 4), Some(0));
        assert_eq!(policy.core_for_worker(9, 4), Some(1));
    }

    #[test]
    fn per_shard_skips_single_cpu_hosts() {
        assert_eq!(AffinityPolicy::PerShard.core_for_worker(0, 1), None);
        assert_eq!(AffinityPolicy::PerShard.core_for_worker(5, 0), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_to_core_zero_succeeds_on_linux() {
        // Core 0 always exists; the call must succeed (or at worst be
        // refused by a restrictive sandbox — accept both, but exercise
        // the path).
        let _ = pin_current_thread(0);
        // Out-of-range CPUs are rejected without calling the kernel.
        assert!(!pin_current_thread(1 << 20));
    }
}
