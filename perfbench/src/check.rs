//! Output checks. Every output the benchmark times is checked here, after
//! its timer has stopped; a wrong output counts as a failed operation.

use std::collections::HashMap;

use parlay::radix_sort::radix_sort_u64;
use rayon::prelude::*;
use semisortd::Response;

/// An input whose payloads are the record indices, with its number of
/// distinct keys (counted once, outside every timer).
pub struct Input<'a> {
    pub records: &'a [(u64, u64)],
    pub distinct_keys: usize,
}

impl<'a> Input<'a> {
    pub fn new(records: &'a [(u64, u64)]) -> Self {
        let mut keys: Vec<u64> = records.par_iter().with_min_len(4096).map(|r| r.0).collect();
        radix_sort_u64(&mut keys);
        let distinct_keys = runs(&keys, |&k| k);
        Input {
            records,
            distinct_keys,
        }
    }
}

/// Number of maximal runs of equal keys in `v`.
fn runs<T: Sync>(v: &[T], key: impl Fn(&T) -> u64 + Sync) -> usize {
    (0..v.len())
        .into_par_iter()
        .with_min_len(4096)
        .filter(|&i| i == 0 || key(&v[i - 1]) != key(&v[i]))
        .count()
}

/// Whether `out` is a semisort of `input`: the same records (every payload
/// exactly once, still paired with its key) with each key in one
/// contiguous run.
///
/// Contiguity is the property `semisort::verify::is_semisorted_by` checks,
/// tested here by counting: a permutation of the input has at least one
/// run per distinct key, and exactly one iff no key is split. That is a
/// streaming pass instead of the library checker's hash map, which takes
/// ~1.7 s per 10⁷-record output; a run checks dozens of outputs.
/// `tests::agrees_with_the_library_checker` pins the equivalence.
pub fn is_semisort_of(input: &Input, out: &[(u64, u64)]) -> Result<(), String> {
    is_permutation_of(input.records, out)?;
    if runs(out, |r| r.0) != input.distinct_keys {
        return Err("equal keys are not contiguous".into());
    }
    Ok(())
}

/// Whether `out` holds exactly the records of `input` (whose payloads are
/// their indices), in any order.
pub fn is_permutation_of(input: &[(u64, u64)], out: &[(u64, u64)]) -> Result<(), String> {
    let n = input.len();
    if out.len() != n {
        return Err(format!("output has {} records, input {n}", out.len()));
    }
    let paired = out.par_iter().with_min_len(4096).all(|&(k, v)| {
        usize::try_from(v)
            .ok()
            .and_then(|i| input.get(i))
            .is_some_and(|r| r.0 == k)
    });
    if !paired {
        return Err("a record's payload does not point at an input record with its key".into());
    }
    // Every payload is now a valid index; n of them are all distinct iff
    // they are a permutation of 0..n.
    let mut seen = vec![0u64; n.div_ceil(64)];
    for &(_, v) in out {
        let i = v as usize;
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if seen[word] & bit != 0 {
            return Err(format!("payload {v} appears twice"));
        }
        seen[word] |= bit;
    }
    Ok(())
}

/// What a correct reply to one service request must contain.
pub struct Expected {
    /// `(key, count)` per distinct key, sorted by key.
    pub counts: Vec<(u64, u64)>,
}

impl Expected {
    pub fn of(records: &[(u64, u64)]) -> Expected {
        let mut map: HashMap<u64, u64> = HashMap::new();
        for &(k, _) in records {
            *map.entry(k).or_default() += 1;
        }
        let mut counts: Vec<(u64, u64)> = map.into_iter().collect();
        counts.sort_unstable();
        Expected { counts }
    }
}

/// Check a service reply against its request, as `semisortd-load` does
/// (grouped keys, group starts, count sums) and beyond: records must be a
/// permutation of the request's and counts must match exactly.
pub fn reply_is_sound(
    records: &[(u64, u64)],
    expected: &Expected,
    reply: &Response,
) -> Result<(), String> {
    let input = Input {
        records,
        distinct_keys: expected.counts.len(),
    };
    match reply {
        Response::Records(out) => is_semisort_of(&input, out),
        Response::Groups {
            records: out,
            starts,
        } => {
            is_semisort_of(&input, out)?;
            let bounds_ok = starts.first() == Some(&0)
                && starts.last().and_then(|&s| usize::try_from(s).ok()) == Some(out.len())
                && starts.windows(2).all(|w| w[0] < w[1]);
            if !bounds_ok {
                return Err("group starts are not increasing from 0 to len".into());
            }
            // Each group is one key and neighbouring groups differ, so with
            // grouped keys the groups are exactly the key runs.
            let groups_ok = starts.windows(2).all(|w| {
                let g = &out[w[0] as usize..w[1] as usize];
                g.iter().all(|r| r.0 == g[0].0)
                    && out.get(w[1] as usize).is_none_or(|next| next.0 != g[0].0)
            });
            if !groups_ok {
                return Err("a group does not match one key run".into());
            }
            Ok(())
        }
        Response::Counts(counts) => {
            let mut got = counts.clone();
            got.sort_unstable();
            if got != expected.counts {
                return Err("per-key counts differ from the request's".into());
            }
            Ok(())
        }
        Response::Error { kind, message, .. } => Err(format!("error reply {kind}: {message}")),
        _ => Err("reply of the wrong kind".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(keys: &[u64]) -> Vec<(u64, u64)> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect()
    }

    #[test]
    fn agrees_with_the_library_checker() {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for len in [0usize, 1, 2, 3, 10, 1000, 20_000] {
            for distinct in [1u64, 3, 50, 1 << 40] {
                let keys: Vec<u64> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % distinct
                    })
                    .collect();
                let input = records(&keys);
                let mut sorted = input.clone();
                sorted.sort_by_key(|r| r.0);
                let reference = Input::new(&input);
                let mut rotated = sorted.clone();
                rotated.rotate_left(len / 3);
                for out in [&input, &sorted, &rotated] {
                    assert_eq!(
                        is_semisort_of(&reference, out).is_ok(),
                        semisort::verify::is_semisorted_by(out, |r| r.0),
                        "len {len} distinct {distinct}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_wrong_outputs() {
        let records = records(&[5, 7, 5, 9]);
        let input = Input::new(&records);
        let good = vec![(5, 0), (5, 2), (9, 3), (7, 1)];
        assert!(is_semisort_of(&input, &good).is_ok());
        let split = vec![(5, 0), (9, 3), (5, 2), (7, 1)];
        assert!(is_semisort_of(&input, &split).is_err());
        let dup = vec![(5, 0), (5, 0), (9, 3), (7, 1)];
        assert!(is_semisort_of(&input, &dup).is_err());
        let wrong_key = vec![(5, 0), (5, 2), (9, 3), (8, 1)];
        assert!(is_semisort_of(&input, &wrong_key).is_err());
        assert!(is_semisort_of(&input, &good[..3]).is_err());
    }

    #[test]
    fn checks_service_replies() {
        let input = records(&[5, 7, 5, 9]);
        let exp = Expected::of(&input);
        let sorted = vec![(5, 0), (5, 2), (9, 3), (7, 1)];
        let groups = Response::Groups {
            records: sorted.clone(),
            starts: vec![0, 2, 3, 4],
        };
        assert!(reply_is_sound(&input, &exp, &groups).is_ok());
        let merged = Response::Groups {
            records: sorted.clone(),
            starts: vec![0, 3, 4],
        };
        assert!(reply_is_sound(&input, &exp, &merged).is_err());
        let counts = Response::Counts(vec![(9, 1), (5, 2), (7, 1)]);
        assert!(reply_is_sound(&input, &exp, &counts).is_ok());
        let short = Response::Counts(vec![(9, 1), (5, 1), (7, 1)]);
        assert!(reply_is_sound(&input, &exp, &short).is_err());
        assert!(reply_is_sound(&input, &exp, &Response::Records(sorted)).is_ok());
    }
}
