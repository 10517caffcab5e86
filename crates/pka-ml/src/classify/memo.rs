//! The exact memoised batch labeller shared by every two-level tail path.

use pka_stats::hash::mix64;

use super::{check_batch, Classifier};
use crate::MlError;

/// Sets in the table. Kernel streams are template-heavy (a few dozen
/// distinct launch shapes across millions of launches), so a small table
/// absorbs almost every classifier call.
const SETS: usize = 256;

/// Slots per set. Associativity keeps two shapes that hash to the same set
/// and alternate in the stream from evicting each other on every launch.
const WAYS: usize = 4;

/// Slots in the table.
const SLOTS: usize = SETS * WAYS;

/// What a table slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Empty,
    /// A finished label for the slot's row.
    Label(usize),
    /// The row is a miss of the batch in flight: its label will be entry
    /// `n` of that batch's classifier output.
    Pending(usize),
}

/// An exact memo in front of a fitted [`Classifier`]'s batch path.
///
/// [`label_into`](Self::label_into) labels a flat row-major batch exactly
/// as per-row [`Classifier::predict`] would, but asks the classifier only
/// about rows it has not seen: a 4-way set-associative table keyed on an
/// FNV-1a hash of the rows' raw `f64` bit patterns answers repeats, and all
/// misses of one batch — each distinct row once — go through a single
/// [`Classifier::predict_into`] call.
///
/// Exactness: a classifier's label is a deterministic function of the
/// row's bits, and a hit requires the stored row to equal the probe *bit
/// for bit* (so `-0.0` never answers for `+0.0`, and a NaN row answers
/// only for the identical NaN payload). A hash collision can therefore
/// only cost a miss, never a wrong label, and the memo's contents — how
/// warm it is, what was evicted — cannot change any output. That is what
/// lets callers keep it as unpersisted scratch.
///
/// A memo serves one fitted classifier for its whole life: labels cached
/// for one model are not valid for another.
///
/// # Examples
///
/// ```
/// use pka_ml::classify::{GaussianNb, LabelMemo};
/// use pka_ml::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0], vec![5.1]])?;
/// let model = GaussianNb::fit(&x, &[0, 0, 1, 1])?;
/// let mut memo = LabelMemo::new(1);
/// let mut labels = Vec::new();
/// memo.label_into(&model, &[4.9, 0.2, 4.9, 4.9], &mut labels)?;
/// assert_eq!(labels, [1, 0, 1, 1]);
/// // Two distinct rows: two classifier calls, two answered from the memo.
/// assert_eq!((memo.misses(), memo.hits()), (2, 2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LabelMemo {
    dims: usize,
    keys: Vec<u64>,
    slots: Vec<Slot>,
    /// Raw bits of each slot's row, `SLOTS × dims`.
    rows: Vec<u64>,
    /// Per set, the way the next insertion replaces when none is empty.
    victims: Vec<u8>,
    // Per-batch scratch, reused across calls.
    miss_rows: Vec<f64>,
    miss_slots: Vec<usize>,
    miss_labels: Vec<usize>,
    pending: Vec<usize>,
    hits: u64,
    misses: u64,
}

impl LabelMemo {
    /// An empty memo for rows of `dims` features.
    pub fn new(dims: usize) -> Self {
        Self {
            dims,
            keys: vec![0; SLOTS],
            slots: vec![Slot::Empty; SLOTS],
            rows: vec![0; SLOTS * dims],
            victims: vec![0; SETS],
            miss_rows: Vec::new(),
            miss_slots: Vec::new(),
            miss_labels: Vec::new(),
            pending: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Features per row.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Rows answered without a classifier call, over the memo's life.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Rows sent to the classifier, over the memo's life.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Labels every row of the flat row-major batch `samples` into `out`
    /// (cleared first), identically to `classifier.predict` on each row.
    ///
    /// When observability is enabled, the batch's hit and miss counts are
    /// added to the `classify.memo_hits` / `classify.memo_misses` counters
    /// (one flush per call).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the memo has zero `dims`,
    /// if `samples.len()` is not a multiple of `dims`, or if `dims` does
    /// not match the classifier's fitted feature count. On error `out` is
    /// unspecified and the memo keeps only labels it already had.
    pub fn label_into<C: Classifier + ?Sized>(
        &mut self,
        classifier: &C,
        samples: &[f64],
        out: &mut Vec<usize>,
    ) -> Result<(), MlError> {
        let d = self.dims;
        check_batch(samples, d)?;
        out.clear();
        self.miss_rows.clear();
        self.miss_slots.clear();
        self.pending.clear();
        for (i, row) in samples.chunks_exact(d).enumerate() {
            let (key, set) = row_key(row);
            let found = (set * WAYS..(set + 1) * WAYS).find(|&slot| {
                self.keys[slot] == key
                    && self.slots[slot] != Slot::Empty
                    && self.rows[slot * d..(slot + 1) * d]
                        .iter()
                        .zip(row)
                        .all(|(&s, x)| s == x.to_bits())
            });
            match found.map(|slot| self.slots[slot]) {
                Some(Slot::Label(label)) => {
                    out.push(label);
                    continue;
                }
                Some(Slot::Pending(n)) => {
                    out.push(n);
                    self.pending.push(i);
                    continue;
                }
                _ => {}
            }
            // Claim a slot for this batch: an empty way, else the set's
            // round-robin victim. Evicting a row (even one pending in this
            // batch) only costs its later repeats a miss.
            let slot = match (set * WAYS..(set + 1) * WAYS).find(|&s| self.slots[s] == Slot::Empty)
            {
                Some(slot) => slot,
                None => {
                    let way = usize::from(self.victims[set]);
                    self.victims[set] = ((way + 1) % WAYS) as u8;
                    set * WAYS + way
                }
            };
            let n = self.miss_slots.len();
            self.keys[slot] = key;
            self.slots[slot] = Slot::Pending(n);
            for (s, x) in self.rows[slot * d..(slot + 1) * d].iter_mut().zip(row) {
                *s = x.to_bits();
            }
            self.miss_rows.extend_from_slice(row);
            self.miss_slots.push(slot);
            out.push(n);
            self.pending.push(i);
        }

        let misses = self.miss_slots.len();
        if misses > 0 {
            if let Err(e) = classifier.predict_into(&self.miss_rows, d, &mut self.miss_labels) {
                for &slot in &self.miss_slots {
                    if matches!(self.slots[slot], Slot::Pending(_)) {
                        self.slots[slot] = Slot::Empty;
                    }
                }
                return Err(e);
            }
            for &i in &self.pending {
                out[i] = self.miss_labels[out[i]];
            }
            for (n, &slot) in self.miss_slots.iter().enumerate() {
                if self.slots[slot] == Slot::Pending(n) {
                    self.slots[slot] = Slot::Label(self.miss_labels[n]);
                }
            }
        }
        let hits = (out.len() - misses) as u64;
        self.hits += hits;
        self.misses += misses as u64;
        if pka_obs::enabled() {
            pka_obs::counter("classify.memo_hits").add(hits);
            pka_obs::counter("classify.memo_misses").add(misses as u64);
        }
        Ok(())
    }
}

/// FNV-1a over a row's raw bit patterns, and the set it maps to. A word's
/// high bits never reach the low bits of an FNV product, so the set comes
/// from a finalised mix of the hash: otherwise rows that differ only in
/// sign or exponent bits (`0.0` vs `-0.0`, or small integer features such
/// as the hashed name buckets) would all share one set.
fn row_key(row: &[f64]) -> (u64, usize) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in row {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h, (mix64(h) % SETS as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Labels a row by the sign bit of its first feature and counts calls.
    #[derive(Debug, Default)]
    struct SignBit(std::cell::Cell<usize>);

    impl Classifier for SignBit {
        fn predict(&self, sample: &[f64]) -> Result<usize, MlError> {
            if sample.len() != 2 {
                return Err(MlError::DimensionMismatch {
                    expected: 2,
                    actual: sample.len(),
                });
            }
            self.0.set(self.0.get() + 1);
            Ok(usize::from(sample[0].is_sign_negative()))
        }
    }

    #[test]
    fn duplicates_in_one_batch_cost_one_call() {
        let clf = SignBit::default();
        let mut memo = LabelMemo::new(2);
        let mut out = Vec::new();
        let batch: Vec<f64> = [1.0, 2.0].repeat(500);
        memo.label_into(&clf, &batch, &mut out).unwrap();
        assert_eq!(out, vec![0; 500]);
        assert_eq!(clf.0.get(), 1);
        assert_eq!((memo.hits(), memo.misses()), (499, 1));
        memo.label_into(&clf, &batch, &mut out).unwrap();
        assert_eq!(clf.0.get(), 1);
    }

    #[test]
    fn signed_zeros_are_distinct_rows() {
        let clf = SignBit::default();
        let mut memo = LabelMemo::new(2);
        let mut out = Vec::new();
        memo.label_into(&clf, &[0.0, 1.0, -0.0, 1.0, 0.0, 1.0], &mut out)
            .unwrap();
        assert_eq!(out, [0, 1, 0]);
        assert_eq!(memo.misses(), 2);
    }

    #[test]
    fn shape_errors_are_typed_and_leave_no_pending_slots() {
        let clf = SignBit::default();
        let mut out = Vec::new();
        let mut memo = LabelMemo::new(2);
        assert!(matches!(
            memo.label_into(&clf, &[1.0, 2.0, 3.0], &mut out),
            Err(MlError::DimensionMismatch { .. })
        ));
        let mut wide = LabelMemo::new(3);
        assert!(matches!(
            wide.label_into(&clf, &[1.0, 2.0, 3.0], &mut out),
            Err(MlError::DimensionMismatch { .. })
        ));
        assert!(wide.slots.iter().all(|s| *s == Slot::Empty));
        assert!(matches!(
            LabelMemo::new(0).label_into(&clf, &[], &mut out),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
