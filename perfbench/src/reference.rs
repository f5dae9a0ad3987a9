//! The host-speed reference: a fixed kernel timed between passes, by
//! which the run scales every time it measures.
//!
//! On the shared 2-core VM where the benchmark was defined, the same
//! pass runs up to 2× slower for seconds to minutes at a time while
//! other tenants contend for the physical core and its caches. Nothing
//! in the guest shows it: steal and system time stay at zero, and the
//! on-CPU time grows with the wall time. Unscaled run medians spread
//! 22–50% between quartiles across 10 seeds for that reason alone.
//!
//! So the run times this kernel around every set-up and pass and
//! multiplies the times measured in it by `REFERENCE_NS / k`, where `k`
//! is the mean of the two timings either side. Of six kernels tried
//! (see `README.md`), this one tracked the slowdowns of fabric-wide and
//! tree-zipf best.
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! repository's crates, so a change to the program cannot move it. It
//! does use the process allocator and std's SipHash.

use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

/// The kernel time that scaled figures are expressed at, ns. The
/// defining host ran the kernel in 3.1–4.5 ms.
pub const REFERENCE_NS: f64 = 4.0e6;

/// Iterations of each half of the kernel.
const ROUNDS: u64 = 100_000;
/// Buffers the churn half keeps alive.
const LIVE: usize = 512;

/// Run the kernel once; its wall time in ns.
pub fn time_kernel() -> u64 {
    let started = Instant::now();
    let mut digest = 0u64;
    for i in 0..ROUNDS {
        let mut hasher = DefaultHasher::new();
        hasher.write_u64(std::hint::black_box(i));
        digest ^= hasher.finish();
    }
    // Small-buffer churn: allocate, fill and free buffers of 8–64 bytes,
    // LIVE at a time.
    let mut live: VecDeque<Vec<u8>> = VecDeque::with_capacity(LIVE + 1);
    let mut bytes = 0usize;
    for i in 0..ROUNDS {
        let len = 8 + (splitmix(digest ^ i) % 57) as usize;
        live.push_back(vec![i as u8; len]);
        if live.len() > LIVE {
            bytes += live.pop_front().map_or(0, |b| b.len());
        }
    }
    std::hint::black_box(bytes);
    started.elapsed().as_nanos().max(1) as u64
}

/// The factor that takes times measured between two kernel timings to
/// the reference speed.
pub fn scale(before_ns: u64, after_ns: u64) -> f64 {
    REFERENCE_NS / ((before_ns + after_ns) as f64 / 2.0)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_kernel_scales_times_down() {
        let at = REFERENCE_NS as u64;
        assert_eq!(scale(at, at), 1.0);
        // The host ran at half speed: times read half as long.
        assert_eq!(scale(2 * at, 2 * at), 0.5);
        assert_eq!(scale(at, 3 * at), 0.5);
        assert!(time_kernel() > 0);
    }
}
