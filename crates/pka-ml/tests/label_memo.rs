//! Differential proof that `LabelMemo` labels every row exactly as per-row
//! `Ensemble::predict` does: random fitted ensembles (1, 2 and 3 members,
//! down to a single class), heavily duplicated batches salted with signed
//! zeros, NaNs and infinities, a memo kept warm across batches, more
//! distinct rows than the memo has slots, and malformed batch shapes.

use pka_ml::classify::{Classifier, Ensemble, GaussianNb, LabelMemo, MlpClassifier, SgdClassifier};
use pka_ml::{Matrix, MlError};
use pka_stats::hash::UnitStream;
use proptest::prelude::*;

/// An ensemble of `members` (1..=3) classifiers fitted on `k` blobs in
/// `d` dimensions. Two members take `Ensemble::predict_into`'s row-by-row
/// path; three take the majority short-circuit.
fn fitted(members: usize, k: usize, d: usize, seed: u64) -> Ensemble {
    let mut rng = UnitStream::new(seed);
    let n = 12 * k.max(2);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = i % k;
            (0..d)
                .map(|j| ((c * 5 + j * 3) % 7) as f64 + rng.next_range(-1.0, 1.0))
                .collect()
        })
        .collect();
    let y: Vec<usize> = (0..n).map(|i| i % k).collect();
    let x = Matrix::from_rows(&rows).unwrap();
    let all: Vec<Box<dyn Classifier + Send + Sync>> = vec![
        Box::new(SgdClassifier::fit(&x, &y, seed).unwrap()),
        Box::new(GaussianNb::fit(&x, &y).unwrap()),
        Box::new(MlpClassifier::fit(&x, &y, seed ^ 0xff).unwrap()),
    ];
    let mut all = all.into_iter();
    let chosen = match members {
        1 => vec![all.nth(2).unwrap()],
        2 => all.take(2).collect(),
        _ => all.collect(),
    };
    Ensemble::new(chosen)
}

/// A value that is often one the bit-exact key must keep apart.
fn feature(rng: &mut UnitStream) -> f64 {
    match (rng.next_f64() * 10.0) as u32 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        _ => rng.next_range(-2.0, 9.0),
    }
}

/// Labels `batch` through `memo` and checks every row against `predict`.
fn check(memo: &mut LabelMemo, ensemble: &Ensemble, batch: &[f64]) -> Result<(), TestCaseError> {
    let d = memo.dims();
    let mut labels = Vec::new();
    memo.label_into(ensemble, batch, &mut labels)
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(labels.len(), batch.len() / d);
    for (row, &label) in batch.chunks_exact(d).zip(&labels) {
        prop_assert!(
            label == ensemble.predict(row).unwrap(),
            "row {:?} labelled {}",
            row,
            label
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memo_labels_equal_per_row_predict(
        members in 1usize..4,
        k in 1usize..5,
        d in 1usize..6,
        distinct in 1usize..12,
        batches in 1usize..4,
        rows in 1usize..300,
        seed in any::<u64>(),
    ) {
        let ensemble = fitted(members, k, d, seed);
        let mut rng = UnitStream::new(seed ^ 0x5eed);
        // A small pool drawn over and over: heavy duplication inside each
        // batch and across the batches that reuse the warm memo.
        let mut pool: Vec<Vec<f64>> = (0..distinct)
            .map(|_| (0..d).map(|_| feature(&mut rng)).collect())
            .collect();
        // Every pool row also appears with each zero sign-flipped.
        let flipped: Vec<Vec<f64>> = pool
            .iter()
            .map(|r| r.iter().map(|&x| if x == 0.0 { -x } else { x }).collect())
            .collect();
        pool.extend(flipped);
        let mut memo = LabelMemo::new(d);
        let mut total = 0u64;
        for _ in 0..batches {
            let batch: Vec<f64> = (0..rows)
                .flat_map(|_| pool[rng.next_index(pool.len())].clone())
                .collect();
            check(&mut memo, &ensemble, &batch)?;
            total += rows as u64;
        }
        prop_assert_eq!(memo.hits() + memo.misses(), total);
        // Each batch asks the ensemble about a distinct row at most once.
        prop_assert!(memo.misses() <= (pool.len() * batches) as u64);
    }
}

#[test]
fn more_distinct_rows_than_slots_force_evictions_without_mislabels() {
    for members in [2, 3] {
        let d = 3;
        let ensemble = fitted(members, 4, d, 7 + members as u64);
        let mut rng = UnitStream::new(99);
        let batch: Vec<f64> = (0..3_000 * d).map(|_| rng.next_range(-2.0, 9.0)).collect();
        let mut memo = LabelMemo::new(d);
        check(&mut memo, &ensemble, &batch).unwrap();
        assert_eq!(memo.misses(), 3_000);
        // Only 1024 slots: a second pass must re-ask about evicted rows,
        // and still label every row exactly.
        check(&mut memo, &ensemble, &batch).unwrap();
        assert!(
            memo.misses() >= 3_000 + 3_000 - 1_024,
            "misses {}",
            memo.misses()
        );
        assert_eq!(memo.hits() + memo.misses(), 6_000);
    }
}

#[test]
fn wrong_width_batches_are_dimension_mismatches() {
    for members in [1, 2, 3] {
        let d = 4;
        let ensemble = fitted(members, 3, d, 5);
        let mut labels = Vec::new();
        // Rows one feature wider than the fitted model.
        let wide = vec![1.0; 5 * (d + 1)];
        assert!(matches!(
            LabelMemo::new(d + 1).label_into(&ensemble, &wide, &mut labels),
            Err(MlError::DimensionMismatch { .. })
        ));
        // A ragged batch: not a whole number of rows.
        let mut memo = LabelMemo::new(d);
        assert!(matches!(
            memo.label_into(&ensemble, &vec![1.0; 2 * d + 1], &mut labels),
            Err(MlError::DimensionMismatch { .. })
        ));
        // The failed calls left the memo usable and exact.
        let good = vec![1.0; 3 * d];
        memo.label_into(&ensemble, &good, &mut labels).unwrap();
        assert_eq!(labels, vec![ensemble.predict(&good[..d]).unwrap(); 3]);
    }
}
