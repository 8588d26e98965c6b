//! The arrangement axis: same key multiset, different memory orders.
//! Correctness and classification must be order-insensitive; §5.1 only
//! fixes the distribution, so this matrix covers what it leaves open.

use semisort::verify::{is_permutation_of, is_semisorted_by};
use semisort::{
    try_semisort_pairs, try_semisort_with_stats, ScatterConfig, ScatterStrategy, SemisortConfig,
};
use workloads::{generate, Arrangement, Distribution};

const N: usize = 80_000;

#[test]
fn every_arrangement_of_every_distribution_semisorts() {
    let cfg = SemisortConfig::default();
    for dist in [
        Distribution::Uniform { n: N as u64 },
        Distribution::Uniform { n: 100 },
        Distribution::Exponential {
            lambda: N as f64 / 1000.0,
        },
        Distribution::Zipfian { m: 10_000 },
    ] {
        let base = generate(dist, N, 11);
        for arr in Arrangement::all() {
            let mut input = base.clone();
            arr.apply(&mut input, 23);
            let out = try_semisort_pairs(&input, &cfg).unwrap();
            assert!(
                is_semisorted_by(&out, |r| r.0),
                "{} / {arr:?}: not semisorted",
                dist.label()
            );
            assert!(
                is_permutation_of(&out, &input),
                "{} / {arr:?}: not a permutation",
                dist.label()
            );
        }
    }
}

#[test]
fn heavy_classification_is_arrangement_insensitive_for_clear_cases() {
    // Keys far from the δ boundary must classify identically no matter how
    // the input is arranged (boundary keys may flap — that's expected).
    let cfg = SemisortConfig::default();
    let dist = Distribution::Uniform { n: 20 }; // multiplicity 4000 ≫ 256
    let base = generate(dist, N, 5);
    for arr in Arrangement::all() {
        let mut input = base.clone();
        arr.apply(&mut input, 31);
        let (_, stats) = try_semisort_with_stats(&input, &cfg).unwrap();
        assert!(
            stats.heavy_fraction_pct() > 99.9,
            "{arr:?}: {}% heavy",
            stats.heavy_fraction_pct()
        );
        assert_eq!(stats.heavy_keys, 20, "{arr:?}");
    }
}

#[test]
fn presorted_input_is_not_a_pathology() {
    // Sorted input aligns key runs with sampling strides; time and space
    // must stay in family with the random arrangement (no quadratic cliff).
    // RandomCas: the backend whose slot arena and retries are checked.
    let cfg = SemisortConfig {
        scatter: ScatterConfig {
            strategy: ScatterStrategy::RandomCas,
            ..ScatterConfig::default()
        },
        ..SemisortConfig::default()
    };
    let dist = Distribution::Zipfian { m: 5_000 };
    let mut random_in = generate(dist, N, 2);
    let mut sorted_in = random_in.clone();
    Arrangement::Sorted.apply(&mut sorted_in, 0);
    Arrangement::Random.apply(&mut random_in, 0);

    let (_, s_random) = try_semisort_with_stats(&random_in, &cfg).unwrap();
    let (_, s_sorted) = try_semisort_with_stats(&sorted_in, &cfg).unwrap();
    assert_eq!(s_random.retries, 0);
    assert_eq!(s_sorted.retries, 0);
    let blow_ratio = s_sorted.space_blowup() / s_random.space_blowup();
    assert!(
        (0.3..3.0).contains(&blow_ratio),
        "space blowup diverged between arrangements: {blow_ratio}"
    );
}
