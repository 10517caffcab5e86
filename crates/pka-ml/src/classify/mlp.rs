use pka_stats::hash::UnitStream;

use super::{argmax, Classifier};
use crate::{Matrix, MlError, StandardScaler};

/// A single-hidden-layer multilayer perceptron classifier.
///
/// The third of PKA's two-level-profiling classifiers. Architecture:
/// `features → hidden (ReLU) → classes (softmax)`, trained with plain
/// per-sample SGD and cross-entropy loss. Inputs are standardised
/// internally; weight initialisation and shuffling are deterministic given
/// the seed.
///
/// The 16 hidden units are stored and trained as independent lanes (see
/// [`fit`](Self::fit) for the rules that keep this bit-identical to the
/// unit-by-unit formulation).
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
    /// `w1[j][h]` weighs standardised input `j` into hidden lane `h`; the
    /// last row (`j = d`) is the hidden bias.
    w1: Vec<Lanes>,
    /// `w2[c][h]` weighs hidden lane `h` into class `c`'s logit.
    w2: Vec<Lanes>,
    /// `b2[c]` is class `c`'s logit bias.
    b2: Vec<f64>,
}

const HIDDEN: usize = 16;
const EPOCHS: usize = 120;
const LEARNING_RATE: f64 = 0.02;

/// One value per hidden unit.
type Lanes = [f64; HIDDEN];

/// The start value of `Iterator::sum::<f64>()` on this toolchain. The
/// lane accumulators replace per-unit `sum()` calls, so they must start
/// where `sum` starts: `-0.0 + x` is `x` for every `x`, while `0.0 + -0.0`
/// is `+0.0`. A unit test pins this against the toolchain.
const SUM_START: f64 = -0.0;

/// The forward pass for one standardised input row `x`: writes the ReLU
/// activations into `hidden` and returns the class logits, lazily and in
/// class order. `fit`, `predict` and `predict_into` all go through here.
///
/// Each lane accumulates `w1[j][h] * x[j]` over `j` in ascending order from
/// [`SUM_START`] and then adds its bias, which is the exact operation
/// sequence of a per-unit `sum()` over the same products; each logit is a
/// per-class `sum()` over the lanes plus the class bias.
fn forward<'a>(
    w1: &[Lanes],
    w2: &'a [Lanes],
    b2: &'a [f64],
    x: impl IntoIterator<Item = f64>,
    hidden: &'a mut Lanes,
) -> impl Iterator<Item = f64> + 'a {
    let (bias, weights) = w1.split_last().expect("bias row");
    let mut acc = [SUM_START; HIDDEN];
    for (w, xj) in weights.iter().zip(x) {
        for (a, &wh) in acc.iter_mut().zip(w) {
            *a += wh * xj;
        }
    }
    for ((z, a), &b) in hidden.iter_mut().zip(acc).zip(bias) {
        *z = (a + b).max(0.0);
    }
    let hidden: &'a Lanes = hidden;
    w2.iter()
        .zip(b2)
        .map(move |(w, &b)| w.iter().zip(hidden).map(|(a, h)| a * h).sum::<f64>() + b)
}

/// Validates a training set and returns its scaler, standardised rows and
/// sorted distinct labels.
fn prepare(x: &Matrix, y: &[usize]) -> Result<(StandardScaler, Matrix, Vec<usize>), MlError> {
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
    Ok((scaler, xs, classes))
}

impl MlpClassifier {
    /// Trains on rows of `x` with class labels `y`.
    ///
    /// The result is bit-identical to the unit-by-unit loop kept as
    /// [`fit_reference`](Self::fit_reference); the lane-major loop keeps
    /// that by these rules:
    ///
    /// * Accumulators start from `-0.0`, the value
    ///   `Iterator::sum::<f64>()` starts from, and add their terms in the
    ///   same order with the same operand order.
    /// * `lr * dl * h` is `(lr * dl) * h`, so hoisting `g = lr * dl` out of
    ///   the lane loop changes nothing (likewise `lr * dh` for `w1`).
    /// * The ReLU gate on the `w1` update is a select, not a multiply by a
    ///   0/1 mask: an inactive lane subtracts exactly `+0.0`, which leaves
    ///   every `w` unchanged, whereas `w - 0.0 * x` differs from `w` when
    ///   `w` is `-0.0` (and `x < 0`) or `x` is not finite.
    /// * The fused backward pass reads `w2[c][h]` into `dh` before updating
    ///   that element, and classes are visited in order, so `dh` sees the
    ///   pre-step weights exactly as a separate pass would.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] if `x` has no rows.
    /// * [`MlError::DimensionMismatch`] if `y.len() != x.rows()`.
    pub fn fit(x: &Matrix, y: &[usize], seed: u64) -> Result<Self, MlError> {
        let (scaler, xs, classes) = prepare(x, y)?;
        let k = classes.len();
        let d = x.cols();
        // Class index of every row, resolved once rather than per step.
        let targets: Vec<usize> = y
            .iter()
            .map(|label| classes.binary_search(label).expect("label seen"))
            .collect();

        // He-style initialisation scaled for ReLU, drawn unit by unit (the
        // reference's draw order); the biases start at zero.
        let mut rng = UnitStream::new(seed ^ 0xa076_1d64_78bd_642f);
        let scale1 = (2.0 / d as f64).sqrt();
        let mut w1 = vec![[0.0; HIDDEN]; d + 1];
        for h in 0..HIDDEN {
            for row in &mut w1[..d] {
                row[h] = (rng.next_f64() - 0.5) * 2.0 * scale1;
            }
        }
        let scale2 = (2.0 / HIDDEN as f64).sqrt();
        let mut w2 = vec![[0.0; HIDDEN]; k];
        for row in &mut w2 {
            for w in row.iter_mut() {
                *w = (rng.next_f64() - 0.5) * 2.0 * scale2;
            }
        }
        let mut b2 = vec![0.0; k];

        let mut order: Vec<usize> = (0..xs.rows()).collect();
        let mut hidden = [0.0; HIDDEN];
        let mut probs = vec![0.0; k];

        for epoch in 0..EPOCHS {
            for i in (1..order.len()).rev() {
                let j = (rng.next_f64() * (i + 1) as f64) as usize;
                order.swap(i, j);
            }
            let lr = LEARNING_RATE / (1.0 + epoch as f64 * 0.01);
            for &i in &order {
                let row = xs.row(i);
                // Forward, then softmax.
                let logits = forward(&w1, &w2, &b2, row.iter().copied(), &mut hidden);
                for (p, z) in probs.iter_mut().zip(logits) {
                    *p = z;
                }
                let max = probs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                for p in probs.iter_mut() {
                    *p = (*p - max).exp();
                }
                let sum: f64 = probs.iter().sum();
                for p in probs.iter_mut() {
                    *p /= sum;
                }

                // Backward: output layer, fused with the hidden gradient.
                let target = targets[i];
                let mut dh = [0.0; HIDDEN];
                for (c, ((w, b), &p)) in w2.iter_mut().zip(&mut b2).zip(&probs).enumerate() {
                    let dl = p - if c == target { 1.0 } else { 0.0 };
                    let g = lr * dl;
                    for ((dhh, wh), &hh) in dh.iter_mut().zip(w.iter_mut()).zip(&hidden) {
                        *dhh += dl * *wh;
                        *wh -= g * hh;
                    }
                    *b -= g;
                }
                // Hidden layer: an inactive lane's step is selected to
                // `+0.0`, and `w - +0.0` is `w` for every `w`.
                let mut gh = [0.0; HIDDEN];
                for (g, &dhh) in gh.iter_mut().zip(&dh) {
                    *g = lr * dhh;
                }
                let (bias, weights) = w1.split_last_mut().expect("bias row");
                for (w, &xj) in weights.iter_mut().zip(row) {
                    for ((wh, &g), &hh) in w.iter_mut().zip(&gh).zip(&hidden) {
                        *wh -= if hh > 0.0 { g * xj } else { 0.0 };
                    }
                }
                for ((wh, &g), &hh) in bias.iter_mut().zip(&gh).zip(&hidden) {
                    *wh -= if hh > 0.0 { g } else { 0.0 };
                }
            }
        }

        Ok(Self {
            scaler,
            classes,
            w1,
            w2,
            b2,
        })
    }

    /// The unit-by-unit training loop that [`fit`](Self::fit) replaced,
    /// kept verbatim as its exactness oracle: `fit` must return the same
    /// weights to the bit (`tests/mlp_oracle.rs` checks it over random and
    /// adversarial data). Not part of the supported API.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](Self::fit).
    #[doc(hidden)]
    pub fn fit_reference(x: &Matrix, y: &[usize], seed: u64) -> Result<Self, MlError> {
        let (scaler, xs, classes) = prepare(x, y)?;
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

        // Transpose into the lane-major layout.
        Ok(Self {
            scaler,
            classes,
            w1: (0..=d).map(|j| std::array::from_fn(|h| w1[h][j])).collect(),
            b2: w2.iter().map(|w| w[HIDDEN]).collect(),
            w2: w2.iter().map(|w| std::array::from_fn(|h| w[h])).collect(),
        })
    }

    /// The bit patterns of every fitted weight: `w1` input by input (hidden
    /// bias last, 16 lanes each), then `w2` class by class, then the class
    /// biases. Lets the exactness oracle compare fits to the bit. Not part
    /// of the supported API.
    #[doc(hidden)]
    pub fn weight_bits(&self) -> Vec<u64> {
        self.w1
            .iter()
            .chain(&self.w2)
            .flatten()
            .chain(&self.b2)
            .map(|w| w.to_bits())
            .collect()
    }

    /// The distinct class labels seen at fit time, ascending.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }
}

impl Classifier for MlpClassifier {
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        let x = self.scaler.standardised(sample)?;
        let mut hidden = [0.0; HIDDEN];
        let logits = forward(&self.w1, &self.w2, &self.b2, x, &mut hidden);
        Ok(self.classes[argmax(logits)])
    }

    fn predict_into(&self, samples: &[f64], d: usize, out: &mut Vec<usize>) -> Result<(), MlError> {
        crate::classify::check_batch(samples, d)?;
        let mut hidden = [0.0; HIDDEN];
        out.clear();
        out.reserve(samples.len() / d);
        for row in samples.chunks_exact(d) {
            let x = self.scaler.standardised(row)?;
            let logits = forward(&self.w1, &self.w2, &self.b2, x, &mut hidden);
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
    fn lane_accumulators_start_where_sum_starts() {
        let start: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(start.to_bits(), SUM_START.to_bits());
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
