//! Classifiers for PKA's two-level profiling mapping.
//!
//! When detailed profiling is intractable, PKA profiles the first *j* kernels
//! in detail, clusters them, and then labels the remaining lightly-profiled
//! kernels with one of three classifiers — stochastic gradient descent,
//! Gaussian naive Bayes, or a multilayer perceptron (Section 3.1 of the
//! paper). The [`Ensemble`] combines them by majority vote, which is how the
//! reference tooling resolves disagreements, and [`LabelMemo`] puts an exact
//! memo in front of it so millions of tail kernels that share a few dozen
//! launch shapes cost a few dozen ensemble calls.

mod gnb;
mod memo;
mod mlp;
mod sgd;

pub use gnb::GaussianNb;
pub use memo::LabelMemo;
pub use mlp::MlpClassifier;
pub use sgd::SgdClassifier;

use crate::{Matrix, MlError};

/// A fitted multi-class classifier over dense feature vectors.
///
/// Implementations are produced by each model's `fit` constructor; labels are
/// arbitrary `usize` class ids (PKA uses the PKS group index).
pub trait Classifier {
    /// Predicts the class of one sample.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the sample has the wrong
    /// number of features.
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError>;

    /// Predicts a class per row.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the matrix has the wrong
    /// number of columns.
    fn predict_all(&self, samples: &Matrix) -> Result<Vec<usize>, MlError> {
        samples.iter_rows().map(|r| self.predict(r)).collect()
    }

    /// Predicts a class per row of a flat row-major batch, appending to
    /// `out` — the high-throughput twin of [`predict`](Self::predict).
    ///
    /// `samples` holds `samples.len() / d` rows of `d` features each.
    /// Implementations must label each row exactly as `predict` would
    /// (bit-identical score arithmetic); the default implementation simply
    /// delegates row by row. Optimised overrides reuse scratch buffers so
    /// the per-row cost is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `d` is zero, if
    /// `samples.len()` is not a multiple of `d`, or if `d` does not match
    /// the fitted feature count.
    fn predict_into(
        &self,
        samples: &[f64],
        d: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), MlError> {
        check_batch(samples, d)?;
        out.clear();
        out.reserve(samples.len() / d);
        for row in samples.chunks_exact(d) {
            out.push(self.predict(row)?);
        }
        Ok(())
    }
}

/// Validates the shape of a flat row-major batch.
pub(crate) fn check_batch(samples: &[f64], d: usize) -> Result<(), MlError> {
    if d == 0 || samples.len() % d != 0 {
        return Err(MlError::DimensionMismatch {
            expected: d.max(1),
            actual: samples.len(),
        });
    }
    Ok(())
}

/// Index of the maximal score, as `Iterator::max_by` over `partial_cmp`
/// picks it (ties resolve to the last maximal index). NaN ranks below every
/// number, so a row whose scores go non-finite still gets a deterministic
/// label instead of aborting the process.
pub(crate) fn argmax(scores: impl IntoIterator<Item = f64>) -> usize {
    scores
        .into_iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or_else(|| b.1.is_nan().cmp(&a.1.is_nan()))
        })
        .map(|(i, _)| i)
        .expect("at least one class")
}

/// Fraction of samples whose prediction matches the reference label.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::accuracy;
///
/// assert_eq!(accuracy(&[0, 1, 1], &[0, 1, 0]), 2.0 / 3.0);
/// ```
pub fn accuracy(predicted: &[usize], reference: &[usize]) -> f64 {
    assert_eq!(
        predicted.len(),
        reference.len(),
        "accuracy requires equal-length slices"
    );
    if predicted.is_empty() {
        return 0.0;
    }
    let hits = predicted
        .iter()
        .zip(reference)
        .filter(|(p, r)| p == r)
        .count();
    hits as f64 / predicted.len() as f64
}

/// Majority-vote ensemble over boxed classifiers.
///
/// Ties are broken toward the first classifier's vote, which makes the
/// ensemble deterministic and gives the (cheap, robust) SGD model priority in
/// the default PKA configuration.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::{Classifier, Ensemble, GaussianNb, SgdClassifier};
/// use pka_ml::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0], vec![5.1]])?;
/// let y = [0, 0, 1, 1];
/// let ensemble = Ensemble::new(vec![
///     Box::new(SgdClassifier::fit(&x, &y, 0)?),
///     Box::new(GaussianNb::fit(&x, &y)?),
/// ]);
/// assert_eq!(ensemble.predict(&[4.9])?, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Ensemble {
    members: Vec<Box<dyn Classifier + Send + Sync>>,
}

impl std::fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ensemble")
            .field("members", &self.members.len())
            .finish()
    }
}

impl Ensemble {
    /// Builds an ensemble from fitted classifiers.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<Box<dyn Classifier + Send + Sync>>) -> Self {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        Self { members }
    }

    /// Fits PKA's tail ensemble on a detailed prefix: SGD (seeded with
    /// `seed`), Gaussian naive Bayes, and the MLP (seeded with
    /// `seed ^ 0xff`), in that vote order.
    ///
    /// Batch two-level selection, stream bootstrap and stream resume all
    /// build their ensemble here, so the three can never train different
    /// models from the same prefix. Each member's fit runs under its own
    /// span (`classify.fit.sgd`, `classify.fit.gnb`, `classify.fit.mlp`),
    /// nested in the caller's.
    ///
    /// # Errors
    ///
    /// Propagates the first member's fit error (see each model's `fit`).
    ///
    /// # Examples
    ///
    /// ```
    /// use pka_ml::classify::{Classifier, Ensemble};
    /// use pka_ml::Matrix;
    ///
    /// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0], vec![5.1]])?;
    /// let ensemble = Ensemble::fit_tail(&x, &[0, 0, 1, 1], 7)?;
    /// assert_eq!(ensemble.len(), 3);
    /// assert_eq!(ensemble.predict(&[4.9])?, 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn fit_tail(x: &Matrix, y: &[usize], seed: u64) -> Result<Self, MlError> {
        let sgd = {
            let _span = pka_obs::span("classify.fit.sgd");
            SgdClassifier::fit(x, y, seed)?
        };
        let gnb = {
            let _span = pka_obs::span("classify.fit.gnb");
            GaussianNb::fit(x, y)?
        };
        let mlp = {
            let _span = pka_obs::span("classify.fit.mlp");
            MlpClassifier::fit(x, y, seed ^ 0xff)?
        };
        Ok(Self::new(vec![Box::new(sgd), Box::new(gnb), Box::new(mlp)]))
    }

    /// Number of member classifiers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the ensemble has no members (never, by
    /// construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member classifiers, in vote order.
    pub fn members(&self) -> &[Box<dyn Classifier + Send + Sync>] {
        &self.members
    }
}

impl Classifier for Ensemble {
    fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
        let votes: Vec<usize> = self
            .members
            .iter()
            .map(|m| m.predict(sample))
            .collect::<Result<_, _>>()?;
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for &v in &votes {
            match counts.iter_mut().find(|(label, _)| *label == v) {
                Some((_, c)) => *c += 1,
                None => counts.push((v, 1)),
            }
        }
        let max = counts.iter().map(|&(_, c)| c).max().expect("non-empty");
        // Tie-break toward the earliest vote that achieved the max count.
        Ok(votes
            .iter()
            .copied()
            .find(|v| counts.iter().any(|&(l, c)| l == *v && c == max))
            .expect("non-empty"))
    }

    /// Batched majority vote with a lazy middle member.
    ///
    /// For the canonical three-member ensemble the majority is decided by
    /// the first and third members whenever they agree: the middle vote can
    /// neither overturn a 2-of-3 majority nor win the all-distinct
    /// tie-break (which goes to the first member). The middle member is
    /// therefore only consulted on rows where the outer two disagree, where
    /// the vote algebra reduces to: side with the middle member iff it
    /// matches the third. Labels are identical to [`predict`](Self::predict)
    /// on every row; members skipped by the short-circuit are not asked to
    /// validate the row (all members share the fitted dimensionality, so
    /// shape errors are still caught by the members that do run).
    fn predict_into(
        &self,
        samples: &[f64],
        d: usize,
        out: &mut Vec<usize>,
    ) -> Result<(), MlError> {
        check_batch(samples, d)?;
        if self.members.len() != 3 {
            out.clear();
            out.reserve(samples.len() / d);
            for row in samples.chunks_exact(d) {
                out.push(self.predict(row)?);
            }
            return Ok(());
        }
        let mut first = Vec::new();
        let mut third = Vec::new();
        self.members[0].predict_into(samples, d, &mut first)?;
        self.members[2].predict_into(samples, d, &mut third)?;
        out.clear();
        out.reserve(first.len());
        for (i, (&a, &c)) in first.iter().zip(&third).enumerate() {
            if a == c {
                out.push(a);
            } else {
                let b = self.members[1].predict(&samples[i * d..(i + 1) * d])?;
                out.push(if b == c { b } else { a });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A classifier that always answers the same class.
    #[derive(Debug)]
    struct Constant(usize);

    impl Classifier for Constant {
        fn predict(&self, _sample: &[f64]) -> Result<usize, MlError> {
            Ok(self.0)
        }
    }

    #[test]
    fn accuracy_empty_is_zero() {
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn accuracy_length_mismatch_panics() {
        let _ = accuracy(&[0], &[0, 1]);
    }

    #[test]
    fn majority_vote_wins() {
        let e = Ensemble::new(vec![
            Box::new(Constant(1)),
            Box::new(Constant(2)),
            Box::new(Constant(2)),
        ]);
        assert_eq!(e.predict(&[0.0]).unwrap(), 2);
    }

    #[test]
    fn tie_breaks_to_first_vote() {
        let e = Ensemble::new(vec![Box::new(Constant(7)), Box::new(Constant(3))]);
        assert_eq!(e.predict(&[0.0]).unwrap(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let _ = Ensemble::new(Vec::new());
    }

    #[test]
    fn predict_all_maps_rows() {
        let e = Ensemble::new(vec![Box::new(Constant(4))]);
        let m = Matrix::from_rows(&[vec![0.0], vec![1.0]]).unwrap();
        assert_eq!(e.predict_all(&m).unwrap(), vec![4, 4]);
    }
}
