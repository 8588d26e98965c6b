//! Differential tests of the three scatter strategies.
//!
//! For every workload shape (uniform, power-law, all-equal, all-distinct)
//! and sizes 10³ / 10⁵ / 10⁶, each of `ScatterStrategy::RandomCas`,
//! `::Blocked`, and `::InPlace` must produce a valid semisort whose
//! canonical bytes (records sorted by key then payload — the unique
//! representative of the output's multiset) are identical to the trivially
//! correct sequential baseline ([`baselines::seq_hash_semisort`]), with
//! identical per-key group sizes.
//!
//! A thread matrix (1 / 2 / 8 workers) then pins two stronger properties:
//! the canonical bytes stay baseline-identical at every thread count, and
//! each strategy's output *key sequence* is thread-count invariant (bucket
//! regions are deterministic; light regions are sorted by key).
//!
//! The in-place scatter is held to more: its output bytes, payloads
//! included, are schedule-independent across thread counts and warm engine
//! calls; it is stable; and its pooled scratch stays put on warm calls.

use std::collections::HashMap;

use parlay::random::Rng;
use semisort::buckets::build_plan;
use semisort::inplace_scatter::inplace_scatter;
use semisort::obs::ObsSink;
use semisort::pool::InPlaceScratch;
use semisort::sample::strided_sample;
use semisort::verify::{is_semisorted_by, runs_by};
use semisort::{
    try_semisort_pairs, try_semisort_with_stats, LocalSortAlgo, ScatterConfig, ScatterStrategy,
    SemisortConfig, Semisorter,
};
use workloads::{generate, Distribution};

const SIZES: [usize; 3] = [1_000, 100_000, 1_000_000];
const DISTS: [&str; 4] = ["uniform", "power-law", "all-equal", "all-distinct"];
const STRATEGIES: [ScatterStrategy; 3] = [
    ScatterStrategy::RandomCas,
    ScatterStrategy::Blocked,
    ScatterStrategy::InPlace,
];

fn workload(name: &str, n: usize) -> Vec<(u64, u64)> {
    match name {
        "uniform" => generate(Distribution::Uniform { n: n as u64 }, n, 7),
        "power-law" => generate(Distribution::Zipfian { m: 1_000_000 }, n, 7),
        "all-equal" => generate(Distribution::Uniform { n: 1 }, n, 7),
        // hash64 is a bijection, so these keys are pairwise distinct.
        "all-distinct" => (0..n as u64).map(|i| (parlay::hash64(i), i)).collect(),
        _ => unreachable!(),
    }
}

fn cfg_for(strategy: ScatterStrategy) -> SemisortConfig {
    SemisortConfig {
        scatter: ScatterConfig {
            strategy,
            ..ScatterConfig::default()
        },
        ..Default::default()
    }
}

/// The unique canonical representative of a record multiset: sorted by key
/// then payload. Two outputs are multiset-equal iff their canonical forms
/// are byte-identical — `assert_eq!` on these IS the byte comparison.
fn canonical(out: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut c = out.to_vec();
    c.sort_unstable();
    c
}

/// Group sizes per key, independent of group order and intra-group order.
fn group_sizes(out: &[(u64, u64)]) -> HashMap<u64, usize> {
    runs_by(out, |r| r.0)
        .into_iter()
        .map(|(k, _start, len)| (k, len))
        .collect()
}

fn check_against_baseline(out: &[(u64, u64)], baseline: &[(u64, u64)], ctx: &str) {
    assert!(is_semisorted_by(out, |r| r.0), "{ctx}: not semisorted");
    assert_eq!(
        canonical(out),
        canonical(baseline),
        "{ctx}: canonical bytes differ from seq_hash"
    );
    assert_eq!(
        group_sizes(out),
        group_sizes(baseline),
        "{ctx}: group structure differs from seq_hash"
    );
}

fn check_strategy(dist: &str, strategy: ScatterStrategy) {
    let cfg = cfg_for(strategy);
    for n in SIZES {
        let records = workload(dist, n);
        let out = try_semisort_pairs(&records, &cfg).unwrap();
        let baseline = baselines::seq_hash_semisort(&records);
        check_against_baseline(&out, &baseline, &format!("{dist}/{strategy:?}/n={n}"));
    }
}

#[test]
fn uniform_random_cas() {
    check_strategy("uniform", ScatterStrategy::RandomCas);
}

#[test]
fn uniform_blocked() {
    check_strategy("uniform", ScatterStrategy::Blocked);
}

#[test]
fn uniform_inplace() {
    check_strategy("uniform", ScatterStrategy::InPlace);
}

#[test]
fn power_law_random_cas() {
    check_strategy("power-law", ScatterStrategy::RandomCas);
}

#[test]
fn power_law_blocked() {
    check_strategy("power-law", ScatterStrategy::Blocked);
}

#[test]
fn power_law_inplace() {
    check_strategy("power-law", ScatterStrategy::InPlace);
}

#[test]
fn all_equal_random_cas() {
    check_strategy("all-equal", ScatterStrategy::RandomCas);
}

#[test]
fn all_equal_blocked() {
    check_strategy("all-equal", ScatterStrategy::Blocked);
}

#[test]
fn all_equal_inplace() {
    check_strategy("all-equal", ScatterStrategy::InPlace);
}

#[test]
fn all_distinct_random_cas() {
    check_strategy("all-distinct", ScatterStrategy::RandomCas);
}

#[test]
fn all_distinct_blocked() {
    check_strategy("all-distinct", ScatterStrategy::Blocked);
}

#[test]
fn all_distinct_inplace() {
    check_strategy("all-distinct", ScatterStrategy::InPlace);
}

/// The full strategy × distribution × thread-count matrix: canonical bytes
/// match the sequential baseline at 1, 2, and 8 workers, and each
/// strategy's key sequence is identical at every thread count (the output
/// *layout* is deterministic even though payload order within a group is
/// scheduling-dependent).
#[test]
fn thread_matrix_matches_baseline() {
    const N: usize = 60_000;
    for dist in DISTS {
        let records = workload(dist, N);
        let baseline = baselines::seq_hash_semisort(&records);
        for strategy in STRATEGIES {
            let cfg = cfg_for(strategy);
            let mut key_seq: Option<Vec<u64>> = None;
            for threads in [1usize, 2, 8] {
                let out =
                    parlay::with_threads(threads, || try_semisort_pairs(&records, &cfg).unwrap());
                check_against_baseline(
                    &out,
                    &baseline,
                    &format!("{dist}/{strategy:?}/threads={threads}"),
                );
                let keys: Vec<u64> = out.iter().map(|r| r.0).collect();
                match &key_seq {
                    None => key_seq = Some(keys),
                    Some(want) => assert_eq!(
                        want, &keys,
                        "{dist}/{strategy:?}: key sequence varies with thread count"
                    ),
                }
            }
        }
    }
}

/// One named edge-case input and the config it runs under.
type EdgeCase = (&'static str, SemisortConfig, Vec<(u64, u64)>);

/// The in-place kernel's edge shapes: more counting chunks than non-empty
/// buckets, an input just above `seq_threshold` (its last counting chunk
/// holds one record), one key for the whole input, and one record per
/// (unmerged) light bucket. Canonical bytes must match the baseline, and
/// the output bytes must not depend on the thread count.
#[test]
fn inplace_kernel_edge_cases_match_baseline() {
    let inplace = cfg_for(ScatterStrategy::InPlace);
    let one_per_bucket = SemisortConfig {
        seq_threshold: 32,
        merge_light_buckets: false,
        ..inplace
    };
    let bits = semisort::buckets::effective_prefix_bits(64, one_per_bucket.light_bucket_log2);
    let cases: [EdgeCase; 4] = [
        (
            "three-keys",
            inplace,
            (0..160_000u64)
                .map(|i| (parlay::hash64(i % 3), i))
                .collect(),
        ),
        (
            "just-above-seq-threshold",
            inplace,
            workload("power-law", inplace.seq_threshold + 1),
        ),
        ("all-one-key", inplace, workload("all-equal", 40_000)),
        (
            "one-per-bucket",
            one_per_bucket,
            (0..1u64 << bits)
                .rev()
                .map(|p| ((p << (64 - bits)) | 1, p))
                .collect(),
        ),
    ];
    for (name, cfg, records) in cases {
        let baseline = baselines::seq_hash_semisort(&records);
        let mut first: Option<Vec<(u64, u64)>> = None;
        for threads in [1usize, 2, 8] {
            let out = parlay::with_threads(threads, || try_semisort_pairs(&records, &cfg).unwrap());
            check_against_baseline(&out, &baseline, &format!("{name}/threads={threads}"));
            match &first {
                None => first = Some(out),
                Some(want) => assert!(*want == out, "{name}: bytes vary with threads={threads}"),
            }
        }
    }
}

/// Schedule independence, payloads included: the in-place output is a
/// pure function of the input. One-shot calls at 1/2/4/8 threads and
/// repeated warm calls of one pooled engine per thread count must all
/// produce the same bytes.
#[test]
fn inplace_output_bytes_identical_across_threads_and_warm_calls() {
    const N: usize = 60_000;
    let cfg = cfg_for(ScatterStrategy::InPlace);
    for dist in DISTS {
        let records = workload(dist, N);
        let want = parlay::with_threads(1, || try_semisort_pairs(&records, &cfg).unwrap());
        for threads in [1usize, 2, 4, 8] {
            parlay::with_threads(threads, || {
                let out = try_semisort_pairs(&records, &cfg).unwrap();
                assert!(
                    out == want,
                    "{dist}/threads={threads}: one-shot bytes differ"
                );
                let mut engine = Semisorter::new(cfg).unwrap();
                for call in 0..3 {
                    let out = engine.sort_pairs(&records).unwrap();
                    assert!(
                        out == want,
                        "{dist}/threads={threads}: warm call {call} bytes differ"
                    );
                }
            });
        }
    }
}

/// The in-place scatter is stable: heavy regions (never locally sorted)
/// keep input order, and with a stable local sort every group does.
#[test]
fn inplace_heavy_regions_keep_input_order() {
    const N: u64 = 80_000;
    // Keys 0..4 take 15% of the input each and go heavy; the rest are
    // distinct light keys. The payload is the input index.
    let records: Vec<(u64, u64)> = (0..N)
        .map(|i| {
            let k = if i % 20 < 12 { i % 4 } else { 1_000 + i };
            (parlay::hash64(k), i)
        })
        .collect();
    let heavy: Vec<u64> = (0..4).map(parlay::hash64).collect();
    let in_input_order = |group: &[(u64, u64)]| group.windows(2).all(|w| w[0].1 < w[1].1);
    for local_sort_algo in [LocalSortAlgo::StdUnstable, LocalSortAlgo::StdStable] {
        let cfg = SemisortConfig {
            local_sort_algo,
            ..cfg_for(ScatterStrategy::InPlace)
        };
        for threads in [1usize, 2, 4] {
            let (out, stats) =
                parlay::with_threads(threads, || try_semisort_with_stats(&records, &cfg).unwrap());
            let ctx = format!("{local_sort_algo:?}/threads={threads}");
            assert_eq!(stats.heavy_keys, 4, "{ctx}");
            assert_eq!(stats.heavy_records as u64, N * 12 / 20, "{ctx}");
            for (key, start, len) in runs_by(&out, |r| r.0) {
                let group = &out[start..start + len];
                if heavy.contains(&key) || local_sort_algo == LocalSortAlgo::StdStable {
                    assert!(in_input_order(group), "{ctx}: group {key:#x} reordered");
                }
            }
        }
    }
}

/// Warm in-place calls hold their scratch steady at 2 and 4 threads: the
/// engine reports no growth, and the kernel's own pooled scratch keeps
/// exactly the bytes it held after the first call.
#[test]
fn inplace_warm_calls_hold_scratch_steady() {
    let cfg = cfg_for(ScatterStrategy::InPlace);
    let records = workload("power-law", 200_000);
    let keys: Vec<u64> = records.iter().map(|r| r.0).collect();
    let mut sample = strided_sample(&keys, cfg.sample_shift, Rng::new(1));
    sample.sort_unstable();
    let plan = build_plan(&sample, records.len(), &cfg);
    for threads in [2usize, 4] {
        parlay::with_threads(threads, || {
            let mut engine = Semisorter::new(cfg).unwrap();
            engine.sort_pairs(&records).unwrap();
            let held = engine.scratch_bytes_held();
            let sink = ObsSink::disabled();
            let mut scratch = InPlaceScratch::new();
            let mut out = Vec::new();
            inplace_scatter(&records, &plan, &mut out, &sink, None, &mut scratch);
            let kernel_held = scratch.bytes();
            for call in 0..5 {
                engine.sort_pairs(&records).unwrap();
                let ctx = format!("threads={threads} warm call {call}");
                assert_eq!(engine.last_stats().scratch_grows, 0, "{ctx}");
                assert_eq!(engine.scratch_bytes_held(), held, "{ctx}");
                inplace_scatter(&records, &plan, &mut out, &sink, None, &mut scratch);
                assert_eq!(scratch.bytes(), kernel_held, "{ctx}");
            }
        });
    }
}

/// Beyond all matching the baseline: the three strategies' outputs are
/// pairwise multiset-equal with identical group structure under a
/// non-default seed.
#[test]
fn strategies_agree_with_each_other() {
    for dist in DISTS {
        for n in [1_000usize, 100_000] {
            let records = workload(dist, n);
            let outs: Vec<Vec<(u64, u64)>> = STRATEGIES
                .iter()
                .map(|&strategy| {
                    let cfg = SemisortConfig {
                        scatter: ScatterConfig {
                            strategy,
                            ..ScatterConfig::default()
                        },
                        ..SemisortConfig::default().with_seed(0xd1ff)
                    };
                    try_semisort_pairs(&records, &cfg).unwrap()
                })
                .collect();
            for pair in outs.windows(2) {
                assert_eq!(canonical(&pair[0]), canonical(&pair[1]), "{dist}/n={n}");
                assert_eq!(group_sizes(&pair[0]), group_sizes(&pair[1]), "{dist}/n={n}");
            }
        }
    }
}
