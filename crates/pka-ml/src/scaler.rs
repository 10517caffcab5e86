use crate::{Matrix, MlError};

/// Per-feature standardisation: `(x - mean) / std_dev`.
///
/// Features with zero variance are left centred but unscaled (divide by 1),
/// matching scikit-learn's behaviour. The PKA pipeline fits the scaler on the
/// detailed-profiling features before PCA so that count-like metrics
/// (billions of instructions) do not drown ratio-like metrics (divergence
/// efficiency).
///
/// # Examples
///
/// ```
/// use pka_ml::{Matrix, StandardScaler};
///
/// let data = Matrix::from_rows(&[vec![1.0, 100.0], vec![3.0, 300.0]])?;
/// let scaler = StandardScaler::fit(&data)?;
/// let scaled = scaler.transform(&data)?;
/// // Both columns become zero-mean, unit-ish variance.
/// assert!((scaled.get(0, 0) + 1.0).abs() < 1e-12);
/// assert!((scaled.get(1, 0) - 1.0).abs() < 1e-12);
/// # Ok::<(), pka_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    means: Vec<f64>,
    std_devs: Vec<f64>,
}

impl StandardScaler {
    /// Learns per-column mean and standard deviation from `data`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyInput`] if `data` has no rows or columns.
    pub fn fit(data: &Matrix) -> Result<Self, MlError> {
        if data.rows() == 0 || data.cols() == 0 {
            return Err(MlError::EmptyInput);
        }
        let means = data.column_means();
        let mut vars = vec![0.0; data.cols()];
        for row in data.iter_rows() {
            for (v, (&x, &m)) in vars.iter_mut().zip(row.iter().zip(&means)) {
                let d = x - m;
                *v += d * d;
            }
        }
        let n = data.rows() as f64;
        let std_devs = vars
            .into_iter()
            .map(|v| {
                let sd = (v / n).sqrt();
                if sd > 0.0 {
                    sd
                } else {
                    1.0
                }
            })
            .collect();
        Ok(Self { means, std_devs })
    }

    /// Applies the learned standardisation to `data`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `data` has a different
    /// number of columns than the fitting data.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix, MlError> {
        if data.cols() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.means.len(),
                actual: data.cols(),
            });
        }
        let mut out = Matrix::zeros(data.rows(), data.cols());
        for i in 0..data.rows() {
            for j in 0..data.cols() {
                out.set(i, j, (data.get(i, j) - self.means[j]) / self.std_devs[j]);
            }
        }
        Ok(out)
    }

    /// Applies the learned standardisation to a single sample.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on column-count mismatch.
    pub fn transform_row(&self, row: &[f64]) -> Result<Vec<f64>, MlError> {
        Ok(self.standardised(row)?.collect())
    }

    /// The standardised values of one sample, computed lazily in column
    /// order with the same expression as [`transform_row`](Self::transform_row),
    /// so a consumer that reads each value once needs no buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] on column-count mismatch.
    pub(crate) fn standardised<'a>(
        &'a self,
        row: &'a [f64],
    ) -> Result<impl Iterator<Item = f64> + 'a, MlError> {
        if row.len() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.means.len(),
                actual: row.len(),
            });
        }
        Ok(row
            .iter()
            .zip(self.means.iter().zip(&self.std_devs))
            .map(|(&x, (&m, &s))| (x - m) / s))
    }

    /// Applies the learned standardisation to a single sample, writing into
    /// a caller-provided buffer (the allocation-free twin of
    /// [`transform_row`](Self::transform_row), bit-identical to it).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `row` and `out` do not both
    /// match the fitted column count.
    pub fn transform_row_into(&self, row: &[f64], out: &mut [f64]) -> Result<(), MlError> {
        if row.len() != self.means.len() || out.len() != self.means.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.means.len(),
                actual: row.len(),
            });
        }
        for (o, v) in out.iter_mut().zip(self.standardised(row)?) {
            *o = v;
        }
        Ok(())
    }

    /// Convenience: fit on `data`, then transform it.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`StandardScaler::fit`].
    pub fn fit_transform(data: &Matrix) -> Result<(Self, Matrix), MlError> {
        let scaler = Self::fit(data)?;
        let scaled = scaler.transform(data)?;
        Ok((scaler, scaled))
    }

    /// The learned per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// The learned per-column standard deviations (1.0 for constant columns).
    pub fn std_devs(&self) -> &[f64] {
        &self.std_devs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rejected() {
        assert_eq!(
            StandardScaler::fit(&Matrix::zeros(0, 0)),
            Err(MlError::EmptyInput)
        );
    }

    #[test]
    fn transformed_data_is_standardised() {
        let data = Matrix::from_rows(&[
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ])
        .unwrap();
        let (_, scaled) = StandardScaler::fit_transform(&data).unwrap();
        for j in 0..2 {
            let mean: f64 = (0..4).map(|i| scaled.get(i, j)).sum::<f64>() / 4.0;
            let var: f64 = (0..4).map(|i| scaled.get(i, j).powi(2)).sum::<f64>() / 4.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_survives() {
        let data = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0]]).unwrap();
        let (_, scaled) = StandardScaler::fit_transform(&data).unwrap();
        assert_eq!(scaled.get(0, 0), 0.0);
        assert_eq!(scaled.get(1, 0), 0.0);
        assert!(scaled.get(0, 1).is_finite());
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let data = Matrix::from_rows(&[vec![1.0, -4.0], vec![9.0, 2.0], vec![5.0, 0.0]]).unwrap();
        let scaler = StandardScaler::fit(&data).unwrap();
        let m = scaler.transform(&data).unwrap();
        for i in 0..3 {
            let r = scaler.transform_row(data.row(i)).unwrap();
            assert_eq!(r, m.row(i));
        }
    }

    #[test]
    fn mismatched_columns_rejected() {
        let data = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let scaler = StandardScaler::fit(&data).unwrap();
        assert!(matches!(
            scaler.transform_row(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
        let wrong = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(matches!(
            scaler.transform(&wrong),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
