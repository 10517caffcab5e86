//! Exactness oracle for the lane-major MLP training loop.
//!
//! `MlpClassifier::fit` trains its 16 hidden units as independent lanes;
//! `MlpClassifier::fit_reference` keeps the unit-by-unit loop it replaced.
//! Every fitted weight must be equal to the bit, because the ensemble's
//! labels — and through them every two-level selection, stream checkpoint
//! and golden table — depend on them. The property test draws random
//! shapes (one class included) over data with duplicate rows, a constant
//! column, signed zeros, extreme magnitudes and non-finite values; the
//! digests pin the fitted weights of fixed datasets as recorded from the
//! unit-by-unit loop before the lane-major rewrite, so a change to both
//! loops at once still fails.

use pka_ml::classify::{Classifier, MlpClassifier};
use pka_ml::Matrix;
use pka_stats::hash::UnitStream;
use proptest::prelude::*;

/// Values the exactness rules are about: signed zeros, magnitudes whose
/// products overflow or underflow, a subnormal.
const HOSTILE: [f64; 10] = [
    0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, 5e-324, 1e154, -3.5,
];

/// How [`dataset`] draws feature values.
#[derive(Debug, Clone, Copy)]
enum Values {
    /// Uniform in `[-1e3, 1e3)`.
    Uniform,
    /// Launch-shape-like integers `floor(2^(20u))`, as the lightweight
    /// profiler's block and thread counts look.
    LogScale,
    /// Three in ten draws from [`HOSTILE`], the rest uniform.
    Hostile,
    /// As `Hostile`, but one draw in twenty is an infinity or NaN. Such a
    /// column standardises to NaN, which switches every hidden lane off:
    /// the gated `w1` update must then leave the weights untouched.
    NonFinite,
}

fn draw(rng: &mut UnitStream, values: Values) -> f64 {
    match values {
        Values::Uniform => rng.next_range(-1e3, 1e3),
        Values::LogScale => (rng.next_f64() * 20.0).exp2().floor(),
        Values::Hostile => {
            if rng.next_f64() < 0.3 {
                HOSTILE[rng.next_index(HOSTILE.len())]
            } else {
                rng.next_range(-1e3, 1e3)
            }
        }
        Values::NonFinite => {
            if rng.next_f64() < 0.05 {
                [f64::INFINITY, f64::NAN][rng.next_index(2)]
            } else {
                draw(rng, Values::Hostile)
            }
        }
    }
}

/// `n` rows of `d` features, labelled over up to `k` classes. Rows repeat
/// `shapes` distinct rows (so duplicates are the norm, as in a kernel
/// stream), column 0 is constant, and labels are non-contiguous ids.
fn dataset(
    n: usize,
    d: usize,
    k: usize,
    shapes: usize,
    values: Values,
    seed: u64,
) -> (Matrix, Vec<usize>) {
    let mut rng = UnitStream::new(seed);
    let distinct: Vec<Vec<f64>> = (0..shapes)
        .map(|_| {
            (0..d)
                .map(|j| if j == 0 { 7.0 } else { draw(&mut rng, values) })
                .collect()
        })
        .collect();
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let s = rng.next_index(shapes);
        rows.push(distinct[s].clone());
        y.push((s % k) * 3 + 1);
    }
    (Matrix::from_rows(&rows).expect("rectangular"), y)
}

/// FNV-1a over a sequence of `f64` bit patterns.
fn digest(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fixed datasets whose fitted-weight digests are pinned:
/// `(name, n, d, k, shapes, values)`. Dataset `i` is drawn from seed
/// `0x0dd5 + i`.
const FIXED: [(&str, usize, usize, usize, usize, Values); 5] = [
    ("tail_like", 600, 12, 6, 40, Values::LogScale),
    ("uniform", 300, 5, 4, 300, Values::Uniform),
    ("hostile", 200, 5, 3, 60, Values::Hostile),
    ("one_class", 50, 3, 1, 10, Values::Uniform),
    ("constant", 20, 1, 2, 4, Values::Uniform),
];

/// Fit seeds of the pinned digests.
const FIXED_SEEDS: [u64; 3] = [0, 1, 0xff];

/// `(dataset, fit seed, digest of weight_bits)`, recorded from the
/// unit-by-unit training loop.
const DIGESTS: [(&str, u64, u64); 15] = [
    ("tail_like", 0x0, 0x8583fa0b63a83a59),
    ("tail_like", 0x1, 0xe2e8ab66c735c56e),
    ("tail_like", 0xff, 0x583c319bcd3eccb6),
    ("uniform", 0x0, 0xd0b60aa700ba0a19),
    ("uniform", 0x1, 0x2163cf1103a049b7),
    ("uniform", 0xff, 0xcb1cf9f908d84785),
    ("hostile", 0x0, 0x5a289b520df8887a),
    ("hostile", 0x1, 0x5b7e019e63d5c75a),
    ("hostile", 0xff, 0x1352ed2b93fb6d93),
    ("one_class", 0x0, 0xb3f4d0ac2e833440),
    ("one_class", 0x1, 0xce91c602c4ff7ea5),
    ("one_class", 0xff, 0x26e73c40df94d5a8),
    ("constant", 0x0, 0x25aaee4c6434de21),
    ("constant", 0x1, 0xdfdfee63cd264a84),
    ("constant", 0xff, 0x58f24dd38bfbaf5b),
];

#[test]
fn fixed_dataset_weights_match_recorded_digests() {
    let mut got = Vec::new();
    for (i, &(name, n, d, k, shapes, values)) in FIXED.iter().enumerate() {
        let (x, y) = dataset(n, d, k, shapes, values, 0x0dd5 + i as u64);
        for seed in FIXED_SEEDS {
            let fit = MlpClassifier::fit(&x, &y, seed).unwrap();
            got.push((name, seed, digest(fit.weight_bits())));
        }
    }
    assert_eq!(got, DIGESTS);
}

#[test]
fn reference_matches_recorded_digests() {
    // The oracle itself must still be the loop the digests came from.
    let (i, &(name, n, d, k, shapes, values)) = FIXED.iter().enumerate().nth(2).unwrap();
    let (x, y) = dataset(n, d, k, shapes, values, 0x0dd5 + i as u64);
    for seed in FIXED_SEEDS {
        let fit = MlpClassifier::fit_reference(&x, &y, seed).unwrap();
        let want = DIGESTS
            .iter()
            .find(|e| e.0 == name && e.1 == seed)
            .unwrap()
            .2;
        assert_eq!(digest(fit.weight_bits()), want, "{name} seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fit_equals_reference_to_the_bit(
        n in 1usize..40,
        d in 1usize..7,
        k in 1usize..6,
        shapes in 1usize..12,
        values in 0usize..4,
        data_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let values = [
            Values::Uniform,
            Values::LogScale,
            Values::Hostile,
            Values::NonFinite,
        ][values];
        let (x, y) = dataset(n, d, k, shapes, values, data_seed);
        let fast = MlpClassifier::fit(&x, &y, seed).unwrap();
        let reference = MlpClassifier::fit_reference(&x, &y, seed).unwrap();
        prop_assert_eq!(fast.weight_bits(), reference.weight_bits());
        prop_assert_eq!(fast.classes(), reference.classes());
        // Equal weights give equal labels through either predict path.
        let mut batch = Vec::new();
        fast.predict_into(x.as_slice(), d, &mut batch).unwrap();
        let single: Vec<usize> = x.iter_rows().map(|r| reference.predict(r).unwrap()).collect();
        prop_assert_eq!(batch, single);
    }
}
