//! Phase 3 (arena-free variant): a stable counting scatter straight into
//! the output buffer.
//!
//! The CAS and blocked scatters trade memory for simplicity: both write
//! through a slot array of `α · n` slots (~70 MB at n = 10⁶ for
//! `(u64, u64)` records), which the pack phase then compacts. This module
//! instead computes **exact** bucket boundaries and writes every record
//! once, directly from the input to its final slot — the paper's §2
//! blocked stable counting sort over bucket ids, the same counting-based
//! distribution the 2023 semisort uses (PAPERS.md, arXiv 2304.10078).
//! Scratch is one `num_chunks × num_buckets` count matrix plus the region
//! bounds: O(buckets · workers), no slot array, no probing.
//!
//! # The algorithm
//!
//! 1. **Count.** The input is cut into `num_chunks` contiguous chunks
//!    (about two per worker). Chunk `ci` counts its records per bucket
//!    into its own row `counts[ci]` of the pooled matrix, in parallel,
//!    with no shared writes.
//! 2. **Offsets.** One serial pass, bucket-outer and chunk-inner, turns
//!    the counts into an exclusive prefix sum: cell `counts[ci][b]`
//!    becomes the first output index chunk `ci` writes in bucket `b`, and
//!    `starts[b]` the first index of bucket `b`'s region. Regions follow
//!    bucket order (heavy, then light) and partition `[0, n)` exactly.
//! 3. **Replay.** Each chunk re-reads its records in input order and
//!    writes each one to `counts[ci][b]`, bumping the cell. The cells of
//!    different chunks cover disjoint index ranges, so the parallel writes
//!    never alias, and one `set_len(n)` publishes the filled buffer.
//!
//! Within a region, chunk `ci`'s records precede chunk `ci + 1`'s and keep
//! their input order inside the chunk, so the scatter is **stable**: the
//! output is a deterministic function of the input, independent of the
//! thread count and the schedule. No atomics are involved — the fork/join
//! edges of the two parallel passes order everything.
//!
//! Unlike the arena scatters this phase cannot overflow — the counting
//! pass is exact — so the Las Vegas retry machinery only ever triggers
//! here under fault injection.

use rayon::prelude::*;

use crate::buckets::BucketPlan;
use crate::config::LocalSortAlgo;
use crate::fault::FaultClass;
use crate::local_sort::sort_records;
use crate::obs::{ObsSink, OverflowCapture, WorkerCell};
use crate::pool::InPlaceScratch;

/// Below this many records the counting pass runs as a single chunk.
const MIN_CHUNK: usize = 8192;

/// One chunk's work item: its private matrix row (counts, then write
/// offsets) plus its records.
type CountRow<'a, V> = (&'a mut [usize], &'a [(u64, V)]);

/// What [`inplace_scatter`] reports back to the driver.
#[derive(Debug, Default)]
pub struct InPlaceOutcome {
    /// Records that landed in heavy buckets (bucket id < `num_heavy`).
    pub heavy_records: usize,
    /// True only under fault injection: the counting pass is exact, so a
    /// genuine overflow is impossible.
    pub overflowed: bool,
    /// `(bucket, allocated, observed)` for the injected overflow.
    pub overflow: Option<(u32, usize, usize)>,
    /// True when `InPlaceScratch::prepare` had to allocate (cold pool or
    /// a larger run); false when the pooled buffers were big enough — the
    /// driver folds this into the scratch reuse/grow counters.
    pub grew: bool,
}

/// A raw view of the output buffer's spare capacity that the replay pass
/// writes through.
///
/// Plain `Copy` wrapper so the parallel closure can capture it by value;
/// every dereference goes through the unsafe [`SharedOut::write`], whose
/// safety rests on the offsets partitioning `[0, n)` across chunks.
struct SharedOut<V> {
    ptr: *mut (u64, V),
    /// Records the allocation behind `ptr` has room for.
    len: usize,
}

impl<V> Clone for SharedOut<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for SharedOut<V> {}
// SAFETY: the wrapper is a pointer plus its bound; cross-thread use is
// governed by the disjoint-offsets contract documented on `write`.
unsafe impl<V: Send> Send for SharedOut<V> {}
// SAFETY: as above — &SharedOut only exposes the unsafe accessor.
unsafe impl<V: Send> Sync for SharedOut<V> {}

impl<V: Copy> SharedOut<V> {
    /// Write the record at `i` (panics if `i` is out of bounds).
    ///
    /// # Safety
    ///
    /// No other thread accesses index `i` during the replay pass.
    #[inline]
    unsafe fn write(self, i: usize, r: (u64, V)) {
        assert!(i < self.len, "replay offset {i} outside the output");
        // SAFETY: i is in bounds (checked above) and, by the caller
        // contract, exclusively ours.
        unsafe { self.ptr.add(i).write(r) };
    }
}

/// Scratch-free estimate of the bytes the in-place scatter will hold for
/// this plan — the budget analogue of
/// [`arena_bytes`](crate::scatter::arena_bytes) for the arena strategies:
/// the count matrix (at most two rows per worker) plus the region bounds.
pub fn inplace_bytes(plan: &BucketPlan, workers: usize) -> usize {
    count_matrix_bytes(plan.num_buckets(), workers)
}

/// [`inplace_bytes`] for a plan with `buckets` buckets.
pub(crate) fn count_matrix_bytes(buckets: usize, workers: usize) -> usize {
    buckets
        .saturating_mul(2 * workers + 1)
        .saturating_add(1)
        .saturating_mul(std::mem::size_of::<usize>())
}

/// Scatter `records` into `out` so every record sits inside its bucket's
/// region (exact boundaries from the counting pass; region order is bucket
/// order, heavy then light), keeping input order within each region. The
/// output is the same at any thread count; [`sort_light_regions`] then
/// groups each light region by key.
///
/// `forced_overflow` injects the Las Vegas failure that this strategy
/// cannot produce organically, keeping the chaos-test ladder uniform
/// across strategies; `out` is left empty when it fires.
pub fn inplace_scatter<V: Copy + Send + Sync>(
    records: &[(u64, V)],
    plan: &BucketPlan,
    out: &mut Vec<(u64, V)>,
    sink: &ObsSink,
    forced_overflow: Option<FaultClass>,
    scratch: &mut InPlaceScratch,
) -> InPlaceOutcome {
    let n = records.len();
    let num_buckets = plan.num_buckets();
    out.clear();
    if n == 0 || num_buckets == 0 {
        out.extend_from_slice(records);
        return InPlaceOutcome::default();
    }

    let workers = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(workers * 2).max(MIN_CHUNK);
    let num_chunks = n.div_ceil(chunk);
    let grew = scratch.prepare(num_buckets, num_chunks);

    // Counting pass: one private row of the matrix per chunk, no sharing.
    let mut rows: Vec<CountRow<'_, V>> = scratch
        .counts
        .chunks_mut(num_buckets)
        .zip(records.chunks(chunk))
        .collect();
    rows.par_iter_mut().for_each(|(row, chunk_recs)| {
        for &(key, _) in chunk_recs.iter() {
            row[plan.bucket_of(key) as usize] += 1;
        }
    });

    // Exclusive prefix sum, bucket-outer and chunk-inner: each cell becomes
    // its chunk's first write offset in that bucket, and `starts` the exact
    // region bounds. Never overflows: the regions partition [0, n) exactly.
    let mut heavy_records = 0usize;
    let mut acc = 0usize;
    scratch.starts.push(0);
    for b in 0..num_buckets {
        let region_start = acc;
        for (row, _) in rows.iter_mut() {
            let count = row[b];
            row[b] = acc;
            acc += count;
        }
        let total = acc - region_start;
        if b < plan.num_heavy {
            heavy_records += total;
        } else {
            sink.record_occupancy(total as u64);
        }
        scratch.starts.push(acc);
    }
    debug_assert_eq!(acc, n, "regions must partition the input");

    // Fault injection: the first nonempty bucket of the matching class
    // "overflows", exercising the driver's retry machinery exactly as the
    // arena strategies do.
    if let Some(class) = forced_overflow {
        let capture = OverflowCapture::new();
        for b in 0..num_buckets {
            let size = scratch.starts[b + 1] - scratch.starts[b];
            if size == 0 || !class.matches(b < plan.num_heavy) {
                continue;
            }
            capture.report(b as u32, size, size + 1);
            return InPlaceOutcome {
                heavy_records,
                overflowed: true,
                overflow: capture.take(),
                grew,
            };
        }
    }

    // Replay pass: every chunk writes its records, in input order, at its
    // own offsets. `out` was cleared above, so after `reserve` its spare
    // capacity spans at least n records.
    out.reserve(n);
    let shared = SharedOut {
        ptr: out.spare_capacity_mut().as_mut_ptr().cast::<(u64, V)>(),
        len: n,
    };
    rows.par_iter_mut().for_each(|(row, chunk_recs)| {
        for &r in chunk_recs.iter() {
            let cell = &mut row[plan.bucket_of(r.0) as usize];
            // SAFETY: the offsets handed out by the prefix pass are
            // disjoint across chunks and buckets, so no other chunk writes
            // this index.
            unsafe { shared.write(*cell, r) };
            *cell += 1;
        }
    });
    // SAFETY: the replay pass initialized every index of [0, n) exactly
    // once — the per-chunk, per-bucket ranges partition [0, n) — and the
    // join of the parallel loop orders those writes before this point.
    unsafe { out.set_len(n) };

    // Every record was written exactly once, so the strategy-uniform
    // placement counter is simply n.
    if sink.level().counters() {
        sink.merge_cell(&WorkerCell {
            records_placed: n as u64,
            ..WorkerCell::default()
        });
    }

    InPlaceOutcome {
        heavy_records,
        overflowed: false,
        overflow: None,
        grew,
    }
}

/// Sort every light-bucket region of `out` by key (heavy regions hold a
/// single key and need no sort). This is the in-place path's Phase 4; the
/// scatter before it is stable, so with a deterministic `algo` the whole
/// output — payloads included — is a function of the seed and the input
/// alone, at any thread count.
pub fn sort_light_regions<V: Copy + Send + Sync>(
    out: &mut [(u64, V)],
    plan: &BucketPlan,
    starts: &[usize],
    algo: LocalSortAlgo,
) {
    let num_buckets = plan.num_buckets();
    debug_assert_eq!(starts.len(), num_buckets + 1);
    let light_base = starts[plan.num_heavy];
    let (_, mut rest) = out.split_at_mut(light_base);
    let mut offset = light_base;
    let mut regions: Vec<&mut [(u64, V)]> = Vec::with_capacity(num_buckets - plan.num_heavy);
    for b in plan.num_heavy..num_buckets {
        let len = starts[b + 1] - starts[b];
        let (region, tail) = rest.split_at_mut(len);
        regions.push(region);
        rest = tail;
        offset += len;
    }
    debug_assert_eq!(offset, starts[num_buckets]);
    regions
        .into_par_iter()
        .for_each(|region| sort_records(region, algo));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buckets::build_plan;
    use crate::config::SemisortConfig;
    use crate::sample::strided_sample;
    use crate::verify::{is_permutation_of, is_semisorted_by};
    use parlay::hash64;
    use parlay::random::Rng;

    fn run(
        records: &[(u64, u64)],
        forced: Option<FaultClass>,
    ) -> (BucketPlan, Vec<(u64, u64)>, InPlaceOutcome, InPlaceScratch) {
        let cfg = SemisortConfig::default();
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample = strided_sample(&keys, cfg.sample_shift, Rng::new(1));
        sample.sort_unstable();
        let plan = build_plan(&sample, records.len(), &cfg);
        let sink = ObsSink::disabled();
        let mut scratch = InPlaceScratch::new();
        let mut out = Vec::new();
        let outcome = inplace_scatter(records, &plan, &mut out, &sink, forced, &mut scratch);
        (plan, out, outcome, scratch)
    }

    /// Every region holds only its own bucket's records, in input order
    /// (payloads are input indices, so input order means increasing).
    fn assert_regioned_stably(plan: &BucketPlan, starts: &[usize], out: &[(u64, u64)]) {
        for b in 0..plan.num_buckets() {
            let region = &out[starts[b]..starts[b + 1]];
            for &(key, _) in region {
                assert_eq!(
                    plan.bucket_of(key) as usize,
                    b,
                    "record in wrong region (bucket {b})"
                );
            }
            assert!(
                region.windows(2).all(|w| w[0].1 < w[1].1),
                "bucket {b} lost input order"
            );
        }
    }

    #[test]
    fn permutes_into_exact_regions() {
        let records: Vec<(u64, u64)> = (0..40_000u64).map(|i| (hash64(i % 3000), i)).collect();
        let (plan, out, outcome, scratch) = run(&records, None);
        assert!(!outcome.overflowed);
        assert!(is_permutation_of(&out, &records));
        assert_regioned_stably(&plan, &scratch.starts, &out);
    }

    #[test]
    fn all_equal_keys_need_no_movement() {
        let records: Vec<(u64, u64)> = (0..20_000u64).map(|i| (hash64(7), i)).collect();
        let (plan, out, outcome, _) = run(&records, None);
        assert_eq!(outcome.heavy_records, records.len());
        assert_eq!(plan.num_heavy, 1);
        assert_eq!(
            out, records,
            "a stable scatter of one bucket is the identity"
        );
    }

    #[test]
    fn more_chunks_than_nonempty_buckets() {
        // 8 workers cut 160k records into 16 chunks, but only 3 buckets are
        // non-empty: most matrix cells stay zero and every region is
        // stitched together from all 16 chunks' slices.
        let records: Vec<(u64, u64)> = (0..160_000u64).map(|i| (hash64(i % 3), i)).collect();
        let (plan, out, outcome, scratch) = parlay::with_threads(8, || run(&records, None));
        assert!(!outcome.overflowed);
        let chunks = scratch.counts.len() / plan.num_buckets();
        let starts = &scratch.starts;
        let nonempty = (0..plan.num_buckets())
            .filter(|&b| starts[b + 1] > starts[b])
            .count();
        assert_eq!((chunks, nonempty), (16, 3));
        assert!(is_permutation_of(&out, &records));
        assert_regioned_stably(&plan, &scratch.starts, &out);
    }

    #[test]
    fn sorted_regions_semisort() {
        let records: Vec<(u64, u64)> = (0..50_000u64)
            .map(|i| {
                let k = if i % 2 == 0 { i % 10 } else { 1_000_000 + i };
                (hash64(k), i)
            })
            .collect();
        let (plan, mut out, outcome, scratch) = run(&records, None);
        assert!(outcome.heavy_records > 0);
        sort_light_regions(&mut out, &plan, &scratch.starts, LocalSortAlgo::StdUnstable);
        assert!(is_semisorted_by(&out, |r| r.0));
        assert!(is_permutation_of(&out, &records));
    }

    #[test]
    fn forced_overflow_reports_and_bails() {
        let records: Vec<(u64, u64)> = (0..20_000u64).map(|i| (hash64(i), i)).collect();
        let (_, out, outcome, _) = run(&records, Some(FaultClass::Any));
        assert!(outcome.overflowed);
        assert!(out.is_empty(), "a bailed scatter writes nothing");
        let (b, allocated, observed) = outcome.overflow.expect("capture set");
        assert!(observed > allocated, "bucket {b} must over-report");
    }

    #[test]
    fn forced_heavy_overflow_inert_without_heavy_keys() {
        // All-distinct keys produce no heavy buckets; a Heavy-class fault
        // must be inert, exactly like the arena strategies.
        let records: Vec<(u64, u64)> = (0..20_000u64).map(|i| (hash64(i), i)).collect();
        let (_, out, outcome, _) = run(&records, Some(FaultClass::Heavy));
        assert!(!outcome.overflowed);
        assert!(is_permutation_of(&out, &records));
    }

    #[test]
    fn scratch_is_reused_across_runs() {
        let records: Vec<(u64, u64)> = (0..30_000u64).map(|i| (hash64(i % 500), i)).collect();
        let cfg = SemisortConfig::default();
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample = strided_sample(&keys, cfg.sample_shift, Rng::new(1));
        sample.sort_unstable();
        let plan = build_plan(&sample, records.len(), &cfg);
        let sink = ObsSink::disabled();
        let mut scratch = InPlaceScratch::new();
        let mut out = Vec::new();
        inplace_scatter(&records, &plan, &mut out, &sink, None, &mut scratch);
        let held = scratch.bytes();
        assert!(held > 0);
        let out1 = out.clone();
        inplace_scatter(&records, &plan, &mut out, &sink, None, &mut scratch);
        assert_eq!(scratch.bytes(), held, "steady state: no regrowth");
        assert!(is_permutation_of(&out, &out1));
    }

    #[test]
    fn inplace_bytes_is_far_below_arena() {
        let records: Vec<(u64, u64)> = (0..200_000u64).map(|i| (hash64(i), i)).collect();
        let cfg = SemisortConfig::default();
        let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
        let mut sample = strided_sample(&keys, cfg.sample_shift, Rng::new(1));
        sample.sort_unstable();
        let plan = build_plan(&sample, records.len(), &cfg);
        let arena = crate::scatter::arena_bytes::<u64>(&plan);
        let inplace = inplace_bytes(&plan, 8);
        assert!(
            inplace * 4 <= arena,
            "in-place estimate {inplace} not ≥4× below arena {arena}"
        );
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let cfg = SemisortConfig::default();
        let plan = build_plan(&[], 0, &cfg);
        let sink = ObsSink::disabled();
        let mut scratch = InPlaceScratch::new();
        let mut out: Vec<(u64, u64)> = vec![(1, 1)];
        let outcome = inplace_scatter(&[], &plan, &mut out, &sink, None, &mut scratch);
        assert!(out.is_empty());
        assert!(!outcome.overflowed);
    }
}
