use pka_stats::hash::UnitStream;

use super::{argmax, Classifier};
use crate::{Matrix, MlError, StandardScaler};

/// A single-hidden-layer multilayer perceptron classifier.
///
/// The third of PKA's two-level-profiling classifiers. Architecture:
/// `features → hidden (ReLU) → classes (softmax)`, trained with plain
/// mini-batch SGD and cross-entropy loss. Inputs are standardised
/// internally; weight initialisation and shuffling are deterministic given
/// the seed.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::{Classifier, MlpClassifier};
/// use pka_ml::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.5], vec![10.0], vec![10.5]])?;
/// let model = MlpClassifier::fit(&x, &[0, 0, 1, 1], 42)?;
/// assert_eq!(model.predict(&[10.1])?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    scaler: StandardScaler,
    classes: Vec<usize>,
    /// `w1[h]` is the input→hidden weight row for hidden unit `h` (bias last).
    w1: Vec<Vec<f64>>,
    /// `w2[c]` is the hidden→output weight row for class `c` (bias last).
    w2: Vec<Vec<f64>>,
}

const HIDDEN: usize = 16;
const EPOCHS: usize = 120;
const LEARNING_RATE: f64 = 0.02;

impl MlpClassifier {
    /// Trains on rows of `x` with class labels `y`.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] if `x` has no rows.
    /// * [`MlError::DimensionMismatch`] if `y.len() != x.rows()`.
    pub fn fit(x: &Matrix, y: &[usize], seed: u64) -> Result<Self, MlError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::EmptyInput);
        }
        if y.len() != x.rows() {
            return Err(MlError::DimensionMismatch {
                expected: x.rows(),
                actual: y.len(),
            });
        }
        let (scaler, xs) = StandardScaler::fit_transform(x)?;

        let mut classes: Vec<usize> = y.to_vec();
        classes.sort_unstable();
        classes.dedup();
        let k = classes.len();
        let d = x.cols();

        let mut rng = UnitStream::new(seed ^ 0xa076_1d64_78bd_642f);
        // He-style initialisation scaled for ReLU.
        let scale1 = (2.0 / d as f64).sqrt();
        let mut w1: Vec<Vec<f64>> = (0..HIDDEN)
            .map(|_| {
                (0..=d)
                    .map(|j| {
                        if j == d {
                            0.0
                        } else {
                            (rng.next_f64() - 0.5) * 2.0 * scale1
                        }
                    })
                    .collect()
            })
            .collect();
        let scale2 = (2.0 / HIDDEN as f64).sqrt();
        let mut w2: Vec<Vec<f64>> = (0..k)
            .map(|_| {
                (0..=HIDDEN)
                    .map(|j| {
                        if j == HIDDEN {
                            0.0
                        } else {
                            (rng.next_f64() - 0.5) * 2.0 * scale2
                        }
                    })
                    .collect()
            })
            .collect();

        let class_index = |label: usize| classes.binary_search(&label).expect("label seen");
        let mut order: Vec<usize> = (0..xs.rows()).collect();
        // Per-sample forward/backward scratch, hoisted out of the training
        // loop. Each buffer is filled with the same expressions, in the same
        // order, as the allocating formulation it replaces, so the fitted
        // weights are bit-identical.
        let mut hidden = vec![0.0; HIDDEN];
        let mut probs = vec![0.0; k];
        let mut dlogits = vec![0.0; k];

        for epoch in 0..EPOCHS {
            for i in (1..order.len()).rev() {
                let j = (rng.next_f64() * (i + 1) as f64) as usize;
                order.swap(i, j);
            }
            let lr = LEARNING_RATE / (1.0 + epoch as f64 * 0.01);
            for &i in &order {
                let row = xs.row(i);
                // Forward.
                for (hz, w) in hidden.iter_mut().zip(&w1) {
                    let z: f64 = w[..d].iter().zip(row).map(|(a, b)| a * b).sum::<f64>() + w[d];
                    *hz = z.max(0.0);
                }
                for (p, w) in probs.iter_mut().zip(&w2) {
                    *p = w[..HIDDEN]
                        .iter()
                        .zip(&hidden)
                        .map(|(a, b)| a * b)
                        .sum::<f64>()
                        + w[HIDDEN];
                }
                let max = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for p in probs.iter_mut() {
                    *p = (*p - max).exp();
                }
                let sum: f64 = probs.iter().sum();
                for p in probs.iter_mut() {
                    *p /= sum;
                }

                // Backward.
                let target = class_index(y[i]);
                for (c, (dl, &p)) in dlogits.iter_mut().zip(&probs).enumerate() {
                    *dl = p - if c == target { 1.0 } else { 0.0 };
                }
                let mut dhidden = [0.0; HIDDEN];
                for (c, dl) in dlogits.iter().enumerate() {
                    for (h, dh) in dhidden.iter_mut().enumerate() {
                        *dh += dl * w2[c][h];
                    }
                }
                for (c, dl) in dlogits.iter().enumerate() {
                    for h in 0..HIDDEN {
                        w2[c][h] -= lr * dl * hidden[h];
                    }
                    w2[c][HIDDEN] -= lr * dl;
                }
                for (h, dh) in dhidden.iter().enumerate() {
                    if hidden[h] > 0.0 {
                        for (j, &xj) in row.iter().enumerate() {
                            w1[h][j] -= lr * dh * xj;
                        }
                        w1[h][d] -= lr * dh;
                    }
                }
            }
        }

        Ok(Self {
            scaler,
            classes,
            w1,
            w2,
        })
    }

    /// The distinct class labels seen at fit time, ascending.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }
}

impl Classifier for MlpClassifier {
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        let row = self.scaler.transform_row(sample)?;
        let d = row.len();
        let hidden: Vec<f64> = self
            .w1
            .iter()
            .map(|w| {
                let z: f64 = w[..d].iter().zip(&row).map(|(a, b)| a * b).sum::<f64>() + w[d];
                z.max(0.0)
            })
            .collect();
        let logits = self.w2.iter().map(|w| {
            w[..HIDDEN]
                .iter()
                .zip(&hidden)
                .map(|(a, b)| a * b)
                .sum::<f64>()
                + w[HIDDEN]
        });
        Ok(self.classes[argmax(logits)])
    }

    fn predict_into(
        &self,
        samples: &[f64],
        d: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), MlError> {
        crate::classify::check_batch(samples, d)?;
        let mut scaled = vec![0.0; self.w1.first().map_or(0, |w| w.len() - 1)];
        let mut hidden = vec![0.0; self.w1.len()];
        out.clear();
        out.reserve(samples.len() / d);
        for row in samples.chunks_exact(d) {
            self.scaler.transform_row_into(row, &mut scaled)?;
            let dd = scaled.len();
            for (hz, w) in hidden.iter_mut().zip(&self.w1) {
                let z: f64 =
                    w[..dd].iter().zip(&scaled).map(|(a, b)| a * b).sum::<f64>() + w[dd];
                *hz = z.max(0.0);
            }
            let logits = self.w2.iter().map(|w| {
                w[..HIDDEN]
                    .iter()
                    .zip(&hidden)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
                    + w[HIDDEN]
            });
            out.push(self.classes[argmax(logits)]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::accuracy;

    #[test]
    fn separable_three_class() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            let j = i as f64 * 0.1;
            rows.push(vec![0.0 + j, 0.0]);
            y.push(0);
            rows.push(vec![10.0, 10.0 + j]);
            y.push(1);
            rows.push(vec![-10.0, 10.0 - j]);
            y.push(2);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let model = MlpClassifier::fit(&x, &y, 3).unwrap();
        let pred = model.predict_all(&x).unwrap();
        assert!(accuracy(&pred, &y) > 0.95);
    }

    #[test]
    fn learns_xor_unlike_a_linear_model() {
        // XOR needs the hidden layer; replicate points so SGD has data.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..12 {
            let eps = i as f64 * 0.01;
            rows.push(vec![0.0 + eps, 0.0]);
            y.push(0);
            rows.push(vec![1.0, 1.0 - eps]);
            y.push(0);
            rows.push(vec![0.0 + eps, 1.0]);
            y.push(1);
            rows.push(vec![1.0, 0.0 + eps]);
            y.push(1);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let model = MlpClassifier::fit(&x, &y, 11).unwrap();
        let pred = model.predict_all(&x).unwrap();
        assert!(accuracy(&pred, &y) > 0.9, "acc = {}", accuracy(&pred, &y));
    }

    #[test]
    fn deterministic_given_seed() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![5.0], vec![6.0]]).unwrap();
        let y = [0, 0, 1, 1];
        let a = MlpClassifier::fit(&x, &y, 9).unwrap();
        let b = MlpClassifier::fit(&x, &y, 9).unwrap();
        for probe in [[0.5], [3.0], [5.5]] {
            assert_eq!(a.predict(&probe).unwrap(), b.predict(&probe).unwrap());
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let x = Matrix::from_rows(&[vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            MlpClassifier::fit(&x, &[0, 1], 0),
            Err(MlError::DimensionMismatch { .. })
        ));
        let model = MlpClassifier::fit(&x, &[0], 0).unwrap();
        assert!(matches!(
            model.predict(&[1.0, 2.0, 3.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
