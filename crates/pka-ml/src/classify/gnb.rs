use super::{argmax, Classifier};
use crate::{Matrix, MlError};

/// Gaussian naive Bayes classifier.
///
/// The second of PKA's two-level-profiling classifiers. Each class is
/// modelled as an axis-aligned Gaussian with per-feature mean and variance;
/// prediction maximises the log-posterior with class priors estimated from
/// label frequencies. Variances are floored at a small epsilon scaled by the
/// overall feature variance (scikit-learn's `var_smoothing` trick) so
/// constant features do not produce infinities.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::{Classifier, GaussianNb};
/// use pka_ml::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.4], vec![8.0], vec![8.4]])?;
/// let model = GaussianNb::fit(&x, &[0, 0, 1, 1])?;
/// assert_eq!(model.predict(&[0.1])?, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GaussianNb {
    classes: Vec<usize>,
    priors: Vec<f64>,
    means: Vec<Vec<f64>>,
    variances: Vec<Vec<f64>>,
    n_features: usize,
    /// `priors[c].ln()`, precomputed at fit time for the batch path.
    log_priors: Vec<f64>,
    /// `(2π · variances[c][j]).ln()`, precomputed at fit time. Logarithms
    /// are pure functions, so these bits equal the values `predict`
    /// computes inline and the batch path stays bit-identical to it.
    log_norms: Vec<Vec<f64>>,
}

const VAR_SMOOTHING: f64 = 1e-9;

impl GaussianNb {
    /// Trains on rows of `x` with class labels `y`.
    ///
    /// # Errors
    ///
    /// * [`MlError::EmptyInput`] if `x` has no rows.
    /// * [`MlError::DimensionMismatch`] if `y.len() != x.rows()`.
    pub fn fit(x: &Matrix, y: &[usize]) -> Result<Self, MlError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::EmptyInput);
        }
        if y.len() != x.rows() {
            return Err(MlError::DimensionMismatch {
                expected: x.rows(),
                actual: y.len(),
            });
        }
        let mut classes: Vec<usize> = y.to_vec();
        classes.sort_unstable();
        classes.dedup();

        let d = x.cols();
        let k = classes.len();
        let mut counts = vec![0usize; k];
        let mut means = vec![vec![0.0; d]; k];
        for (row, &label) in x.iter_rows().zip(y) {
            let c = classes.binary_search(&label).expect("label seen");
            counts[c] += 1;
            for (m, &v) in means[c].iter_mut().zip(row) {
                *m += v;
            }
        }
        for (c, count) in counts.iter().enumerate() {
            for m in &mut means[c] {
                *m /= *count as f64;
            }
        }
        let mut variances = vec![vec![0.0; d]; k];
        for (row, &label) in x.iter_rows().zip(y) {
            let c = classes.binary_search(&label).expect("label seen");
            for ((v, &m), &xv) in variances[c].iter_mut().zip(&means[c]).zip(row) {
                let dlt = xv - m;
                *v += dlt * dlt;
            }
        }
        // Smoothing floor proportional to the largest overall feature
        // variance, as in scikit-learn.
        let overall_means = x.column_means();
        let mut max_var = 0.0f64;
        for j in 0..d {
            let var: f64 = x
                .iter_rows()
                .map(|r| (r[j] - overall_means[j]).powi(2))
                .sum::<f64>()
                / x.rows() as f64;
            max_var = max_var.max(var);
        }
        let floor = VAR_SMOOTHING * max_var.max(1.0);
        for (c, count) in counts.iter().enumerate() {
            for v in &mut variances[c] {
                *v = (*v / *count as f64).max(floor);
            }
        }

        let n = x.rows() as f64;
        let priors: Vec<f64> = counts.iter().map(|&c| c as f64 / n).collect();
        let log_priors = priors.iter().map(|p| p.ln()).collect();
        let log_norms = variances
            .iter()
            .map(|vs| {
                vs.iter()
                    .map(|&v| (2.0 * std::f64::consts::PI * v).ln())
                    .collect()
            })
            .collect();
        Ok(Self {
            classes,
            priors,
            means,
            variances,
            n_features: d,
            log_priors,
            log_norms,
        })
    }

    /// The distinct class labels seen at fit time, ascending.
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }

    /// Log-posterior (up to a constant) of each class for `sample`.
    fn log_posteriors(&self, sample: &[f64]) -> Vec<f64> {
        self.classes
            .iter()
            .enumerate()
            .map(|(c, _)| {
                let mut lp = self.priors[c].ln();
                for ((&x, &m), &v) in sample.iter().zip(&self.means[c]).zip(&self.variances[c]) {
                    lp += -0.5 * ((2.0 * std::f64::consts::PI * v).ln() + (x - m) * (x - m) / v);
                }
                lp
            })
            .collect()
    }
}

impl Classifier for GaussianNb {
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        if sample.len() != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                actual: sample.len(),
            });
        }
        Ok(self.classes[argmax(self.log_posteriors(sample))])
    }

    fn predict_into(
        &self,
        samples: &[f64],
        d: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), MlError> {
        crate::classify::check_batch(samples, d)?;
        if d != self.n_features {
            return Err(MlError::DimensionMismatch {
                expected: self.n_features,
                actual: d,
            });
        }
        let mut lp = vec![0.0; self.classes.len()];
        out.clear();
        out.reserve(samples.len() / d);
        for row in samples.chunks_exact(d) {
            // Same accumulation as `log_posteriors`, with the fit-time log
            // constants substituted for the inline `ln` calls (identical
            // bits, see the field docs) and the per-row allocation removed.
            for (c, p) in lp.iter_mut().enumerate() {
                let mut acc = self.log_priors[c];
                for (((&x, &m), &v), &lnv) in row
                    .iter()
                    .zip(&self.means[c])
                    .zip(&self.variances[c])
                    .zip(&self.log_norms[c])
                {
                    acc += -0.5 * (lnv + (x - m) * (x - m) / v);
                }
                *p = acc;
            }
            out.push(self.classes[argmax(lp.iter().copied())]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::accuracy;

    #[test]
    fn separable_two_class() {
        let x = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![0.5, 1.2],
            vec![0.2, 0.8],
            vec![9.0, -1.0],
            vec![9.5, -1.2],
            vec![9.2, -0.8],
        ])
        .unwrap();
        let y = [0, 0, 0, 1, 1, 1];
        let model = GaussianNb::fit(&x, &y).unwrap();
        let pred = model.predict_all(&x).unwrap();
        assert_eq!(accuracy(&pred, &y), 1.0);
    }

    #[test]
    fn priors_affect_prediction() {
        // Class 1 is 5x more common; an ambiguous midpoint should go to it.
        let mut rows = vec![vec![0.0]];
        let mut y = vec![0];
        for _ in 0..5 {
            rows.push(vec![2.0]);
            y.push(1);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let model = GaussianNb::fit(&x, &y).unwrap();
        // Both classes have (floored) equal variance; midpoint is 1.0.
        assert_eq!(model.predict(&[1.0]).unwrap(), 1);
    }

    #[test]
    fn constant_features_do_not_explode() {
        let x = Matrix::from_rows(&[vec![1.0, 5.0], vec![1.0, 5.0], vec![2.0, 5.0]]).unwrap();
        let model = GaussianNb::fit(&x, &[0, 0, 1]).unwrap();
        let p = model.predict(&[1.0, 5.0]).unwrap();
        assert_eq!(p, 0);
    }

    #[test]
    fn label_mismatch_rejected() {
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(matches!(
            GaussianNb::fit(&x, &[0, 1]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn wrong_feature_count_rejected() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let model = GaussianNb::fit(&x, &[0, 1]).unwrap();
        assert!(matches!(
            model.predict(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn classes_sorted_and_deduped() {
        let x = Matrix::from_rows(&[vec![0.0], vec![5.0], vec![0.1], vec![5.1]]).unwrap();
        let model = GaussianNb::fit(&x, &[9, 2, 9, 2]).unwrap();
        assert_eq!(model.classes(), &[2, 9]);
    }
}
