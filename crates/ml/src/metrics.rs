//! Evaluation metrics used across the paper's tables: multi-label F1-score
//! (Table 6), accuracy-at-k (Table 7), and the precision/recall/F1 triple
//! of the phase-detection evaluation (Table 4).

/// Precision, recall, F1 from raw counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prf {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl Prf {
    pub fn from_counts(tp: usize, fp: usize, fn_: usize) -> Prf {
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Prf {
            precision,
            recall,
            f1,
        }
    }
}

/// Micro-averaged multi-label F1: `predictions` and `targets` are parallel
/// bitmaps (one `Vec<bool>` per sample).
pub fn multilabel_f1(predictions: &[Vec<bool>], targets: &[Vec<bool>]) -> Prf {
    assert_eq!(predictions.len(), targets.len());
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for (p, t) in predictions.iter().zip(targets.iter()) {
        assert_eq!(p.len(), t.len());
        for (&pi, &ti) in p.iter().zip(t.iter()) {
            match (pi, ti) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => {}
            }
        }
    }
    Prf::from_counts(tp, fp, fn_)
}

/// Accuracy-at-k as defined by Hashemi et al. and used in Table 7: a
/// prediction is correct if the predicted item occurs anywhere in the next
/// `k` ground-truth items. `predicted[i]` is checked against
/// `future_windows[i]` (the next-k items after sample i).
pub fn accuracy_at_k(predicted: &[u64], future_windows: &[Vec<u64>]) -> f64 {
    assert_eq!(predicted.len(), future_windows.len());
    if predicted.is_empty() {
        return 0.0;
    }
    let hits = predicted
        .iter()
        .zip(future_windows.iter())
        .filter(|(p, w)| w.contains(p))
        .count();
    hits as f64 / predicted.len() as f64
}

/// Indices of the `k` largest values in `scores`, descending; equal
/// scores (including `0.0` and `-0.0`) keep index order, and NaN ranks
/// after every number. Selects the top `k` first and sorts only those,
/// since callers rank a whole label set to keep a handful.
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    // (NaN last, score descending, index ascending) is a strict total
    // order, so the unstable selection and sort give exactly the prefix of
    // a stable sort by score.
    let order = |&a: &usize, &b: &usize| {
        let (x, y) = (scores[a], scores[b]);
        x.is_nan()
            .cmp(&y.is_nan())
            .then(y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.cmp(&b))
    };
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    if k < idx.len() {
        if k > 0 {
            idx.select_nth_unstable_by(k - 1, order);
        }
        idx.truncate(k);
    }
    idx.sort_unstable_by(order);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prf_from_counts() {
        let p = Prf::from_counts(8, 2, 2);
        assert!((p.precision - 0.8).abs() < 1e-12);
        assert!((p.recall - 0.8).abs() < 1e-12);
        assert!((p.f1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn prf_handles_degenerate_cases() {
        assert_eq!(Prf::from_counts(0, 0, 0), Prf::default());
        let p = Prf::from_counts(0, 5, 0);
        assert_eq!(p.precision, 0.0);
        assert_eq!(p.f1, 0.0);
    }

    #[test]
    fn multilabel_f1_perfect_and_empty() {
        let t = vec![vec![true, false, true], vec![false, true, false]];
        let perfect = multilabel_f1(&t, &t);
        assert!((perfect.f1 - 1.0).abs() < 1e-12);
        let none = vec![vec![false; 3]; 2];
        let zero = multilabel_f1(&none, &t);
        assert_eq!(zero.f1, 0.0);
    }

    #[test]
    fn multilabel_f1_partial() {
        let pred = vec![vec![true, true, false]];
        let targ = vec![vec![true, false, true]];
        // tp=1, fp=1, fn=1 → P=R=0.5 → F1=0.5.
        let p = multilabel_f1(&pred, &targ);
        assert!((p.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_at_k_counts_window_hits() {
        let pred = vec![5, 9, 3];
        let windows = vec![vec![1, 2, 5], vec![4, 4, 4], vec![3]];
        let acc = accuracy_at_k(&pred, &windows);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_descending() {
        let scores = vec![0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&scores, 10).len(), 4);
    }

    /// The stable full sort by score that `top_k_indices` must reproduce,
    /// with NaN moved behind every number.
    fn top_k_by_sort(scores: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&a, &b| {
            let (x, y) = (scores[a], scores[b]);
            x.is_nan()
                .cmp(&y.is_nan())
                .then(y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal))
        });
        idx.truncate(k);
        idx
    }

    /// Few distinct values, so ties are common; ±0.0 and ±inf included.
    const VALUES: [f32; 9] = [
        -1.0,
        -0.0,
        0.0,
        0.25,
        0.5,
        0.5000001,
        1.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn top_k_matches_stable_sort(
            picks in prop::collection::vec(0usize..VALUES.len(), 0..140),
            k in 0usize..150,
            nan_at in 0usize..400,
        ) {
            let mut scores: Vec<f32> = picks.iter().map(|&i| VALUES[i]).collect();
            prop_assert_eq!(top_k_indices(&scores, k), top_k_by_sort(&scores, k));
            // A NaN (in about a third of the cases) ranks last.
            if let Some(v) = scores.get_mut(nan_at) {
                *v = f32::NAN;
                prop_assert_eq!(top_k_indices(&scores, k), top_k_by_sort(&scores, k));
            }
        }
    }
}
