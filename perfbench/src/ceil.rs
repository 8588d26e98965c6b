//! Machine ceilings: the benchmark's own streaming-copy and random
//! 16-byte-write kernels, run on the same pool over a buffer at least four
//! times the last-level cache, so a phase's achieved rate can be set
//! against what this machine's memory system allows.

use std::time::Instant;

use rayon::prelude::*;

use crate::report::quartiles;

/// Kernel repetitions; each ceiling is the median.
const REPS: usize = 3;
/// Fallback when the cache size cannot be read.
const DEFAULT_LLC_BYTES: usize = 32 << 20;

/// The largest cache of cpu0, in bytes.
pub fn llc_bytes() -> usize {
    let mut best = 0;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let size = size.trim();
        let (digits, mult) = match size.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size, 1),
            },
        };
        if let Ok(v) = digits.parse::<usize>() {
            best = best.max(v * mult);
        }
    }
    if best == 0 {
        DEFAULT_LLC_BYTES
    } else {
        best
    }
}

pub struct Ceilings {
    pub llc_bytes: usize,
    pub buffer_bytes: usize,
    /// Streaming copy, bytes read plus bytes written per second, in GB/s.
    pub copy_gbps: f64,
    /// Random 16-byte writes per second, in millions.
    pub rand16_mops: f64,
}

/// Measure both ceilings with the calling pool's workers. Run inside the
/// pool whose rate they bound.
pub fn measure(threads: usize) -> Ceilings {
    let llc = llc_bytes();
    let records = (4 * llc).div_ceil(16).next_multiple_of(2 * threads.max(1));
    let mut buf = vec![(0u64, 0u64); records];
    // Touch every page first, so no kernel pays for first-touch faults.
    buf.par_chunks_mut(1 << 16).for_each(|c| c.fill((1, 1)));

    // Copy the first half onto the second: 2 × half bytes move per pass.
    let (src, dst) = buf.split_at_mut(records / 2);
    let chunk = src.len().div_ceil(threads.max(1) * 4);
    let mut copy = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let src: &[(u64, u64)] = src;
        dst.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(k, d)| d.copy_from_slice(&src[k * chunk..k * chunk + d.len()]));
        copy.push((2 * src.len() * 16) as f64 / t.elapsed().as_secs_f64() / 1e9);
        std::hint::black_box(&dst[dst.len() / 2]);
    }

    // Each worker writes random slots of its own region of the buffer.
    let region = records / threads.max(1);
    let writes = records;
    let per_region = writes / threads.max(1);
    let mut rand = Vec::new();
    for rep in 0..REPS {
        let t = Instant::now();
        buf.par_chunks_mut(region)
            .enumerate()
            .for_each(|(w, part)| {
                let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ ((w as u64 + 1) << 32) ^ rep as u64;
                let len = part.len() as u64;
                for i in 0..per_region as u64 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Multiply-shift maps x onto [0, len) without a division.
                    let slot = ((u128::from(x) * u128::from(len)) >> 64) as usize;
                    part[slot] = (x, i);
                }
            });
        rand.push(writes as f64 / t.elapsed().as_secs_f64() / 1e6);
        std::hint::black_box(&buf[records / 3]);
    }
    Ceilings {
        llc_bytes: llc,
        buffer_bytes: records * 16,
        copy_gbps: quartiles(&copy).1,
        rand16_mops: quartiles(&rand).1,
    }
}
