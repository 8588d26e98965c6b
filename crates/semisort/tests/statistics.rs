//! Statistical validation of §3.1: the estimator `f(s)` is simulated
//! against its two promises — per-bucket it is a w.h.p. *upper bound*
//! (Lemma 3.2), and summed over buckets it stays *linear* (Lemma 3.5) —
//! across the sampling regimes the algorithm actually encounters.

use parlay::random::Rng;
use semisort::estimate::{bucket_capacity, f_estimate};
use semisort::{try_semisort_with_stats, ScatterConfig, ScatterStrategy, SemisortConfig};
use workloads::{generate, Distribution};

const P: f64 = 1.0 / 16.0;
const C: f64 = 1.25;

/// The paper's constants with its CAS scatter: the end-to-end checks below
/// measure the slot arena and its overflow retries, which only the arena
/// backends have.
fn paper_cfg() -> SemisortConfig {
    SemisortConfig {
        scatter: ScatterConfig {
            strategy: ScatterStrategy::RandomCas,
            ..ScatterConfig::default()
        },
        ..SemisortConfig::default()
    }
}

/// Binomially sample `nu` records at rate `P` with stream `rng`.
fn sample_count(nu: usize, rng: Rng) -> usize {
    (0..nu).filter(|&i| rng.at_f64(i as u64) < P).count()
}

#[test]
fn lemma_3_2_upper_bound_across_multiplicities() {
    // For true multiplicities spanning light to very heavy, the observed
    // sample count s must satisfy f(s) ≥ ν in essentially all trials.
    let n = 10_000_000usize;
    let ln_n = (n as f64).ln();
    let rng = Rng::new(0xbead);
    let mut total_trials = 0u32;
    let mut failures = 0u32;
    for (case, &nu) in [300usize, 1_000, 5_000, 50_000, 500_000].iter().enumerate() {
        for t in 0..120u64 {
            let s = sample_count(nu, rng.fork(case as u64 * 1000 + t));
            if f_estimate(s, P, C, ln_n) < nu as f64 {
                failures += 1;
            }
            total_trials += 1;
        }
    }
    // Lemma 3.2 bounds each failure by n^-c ≈ 2e-9; a couple of failures
    // would already be a 10^7-sigma event — allow 1 for luck.
    assert!(
        failures <= 1,
        "estimator failed {failures}/{total_trials} trials"
    );
}

#[test]
fn estimator_is_not_vacuously_loose() {
    // The bound must also be *tight enough* to keep space linear: for a
    // heavy key with ν = 100k in a 10M input, f(s) should be within ~2× ν.
    let n = 10_000_000usize;
    let ln_n = (n as f64).ln();
    let rng = Rng::new(0xfeed);
    for t in 0..50u64 {
        let nu = 100_000usize;
        let s = sample_count(nu, rng.fork(t));
        let f = f_estimate(s, P, C, ln_n);
        assert!(f >= nu as f64);
        assert!(f < 2.0 * nu as f64, "estimate {f} too loose for ν={nu}");
    }
}

#[test]
fn lemma_3_5_linear_space_under_generated_workloads() {
    // End-to-end: measured slot blowup stays bounded on a spread of real
    // workload shapes and sizes.
    let cfg = paper_cfg();
    for &n in &[50_000usize, 150_000, 400_000] {
        for dist in [
            Distribution::Uniform { n: n as u64 },
            Distribution::Uniform { n: 100 },
            Distribution::Exponential {
                lambda: n as f64 / 1000.0,
            },
            Distribution::Zipfian { m: n as u64 },
        ] {
            let records = generate(dist, n, 0xa11);
            let (_, stats) = try_semisort_with_stats(&records, &cfg).unwrap();
            assert!(
                stats.space_blowup() < 10.0,
                "{} at n={n}: blowup {:.2}",
                dist.label(),
                stats.space_blowup()
            );
        }
    }
}

#[test]
fn capacity_overflow_probability_is_tiny_in_practice() {
    // Run the full pipeline many times with different seeds; Corollary 3.4
    // says overflow (a retry) should essentially never happen with the
    // default constants.
    let records = generate(Distribution::Zipfian { m: 50_000 }, 100_000, 3);
    let mut total_retries = 0;
    for seed in 0..20u64 {
        let cfg = paper_cfg().with_seed(seed);
        let (_, stats) = try_semisort_with_stats(&records, &cfg).unwrap();
        total_retries += stats.retries;
    }
    assert_eq!(total_retries, 0, "default constants should never overflow");
}

#[test]
fn light_bucket_sizes_are_polylog() {
    // §3: w.h.p. each light bucket receives O(log²n)·(1/p scaling) records;
    // check the realized maximum against a generous multiple.
    let n = 400_000usize;
    let records = generate(Distribution::Uniform { n: n as u64 }, n, 9);
    let cfg = SemisortConfig::default();
    let (_, stats) = try_semisort_with_stats(&records, &cfg).unwrap();
    assert_eq!(stats.heavy_records, 0);
    // Records per light bucket on average = n / light_buckets; the bound
    // says the max is within a log factor of that.
    let avg = n as f64 / stats.light_buckets as f64;
    let ln_n = (n as f64).ln();
    assert!(
        avg < 20.0 * ln_n * ln_n,
        "avg light bucket {avg} not polylog (ln²n = {})",
        ln_n * ln_n
    );
}

#[test]
fn power_of_two_rounding_costs_at_most_2x() {
    let ln_n = (1_000_000f64).ln();
    for s in 0..2_000usize {
        let raw = 1.1 * f_estimate(s, P, C, ln_n);
        let cap = bucket_capacity(s, P, C, ln_n, 1.1);
        assert!(
            (cap as f64) < 2.0 * raw + 2.0,
            "s={s}: cap {cap} vs raw {raw}"
        );
        assert!((cap as f64) >= raw.ceil() - 1.0);
    }
}
