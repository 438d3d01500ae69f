//! Acquisition strategies (§3.3 — "Quantifying Usefulness").
//!
//! At every iteration the learner scores the candidate set and profiles the
//! candidate predicted to be most informative. Two principled criteria are
//! available through the surrogate model, plus a random baseline:
//!
//! * **ALC** (Cohn) — expected reduction of the *average* predictive variance
//!   over a reference set drawn from the space. The paper selects this one
//!   because it copes better with heteroskedastic noise, at `O(|C|²)`-ish
//!   cost.
//! * **ALM** (MacKay) — the candidate with the largest predictive variance,
//!   at `O(|C|)` cost.
//! * **Random** — uniform selection, the "iterative compilation without
//!   active learning" ablation.

use std::cmp::Ordering;

use rand::Rng as _;

use alic_model::ActiveSurrogate;
use alic_stats::rng::Rng as StatsRng;
use alic_stats::sampling::sample_indices;
use alic_stats::FeatureMatrix;

use crate::Result;

/// Strategy for scoring candidate configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Acquisition {
    /// Cohn's expected average-variance reduction over a random reference
    /// set of the given size (the paper's choice).
    Alc {
        /// Number of reference points drawn from the pool per iteration.
        reference_size: usize,
    },
    /// MacKay's maximum-predictive-variance criterion.
    Alm,
    /// Uniform random selection.
    Random,
}

impl Acquisition {
    /// The paper's configuration: ALC with a moderate reference set.
    pub fn default_alc() -> Self {
        Acquisition::Alc { reference_size: 50 }
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Acquisition::Alc { .. } => "ALC",
            Acquisition::Alm => "ALM",
            Acquisition::Random => "random",
        }
    }

    /// Selects the index of the best candidate from `candidates` (zero-copy
    /// row views, typically gathered from the pool) according to this
    /// strategy.
    ///
    /// `pool` is the flat matrix of (normalized) feature vectors representing
    /// the whole decision space; ALC draws its reference set from it as row
    /// views, without copying any features.
    ///
    /// # Errors
    ///
    /// Propagates surrogate-model errors. Returns `Ok(None)` when
    /// `candidates` is empty.
    pub fn select<M: ActiveSurrogate + ?Sized>(
        &self,
        model: &M,
        candidates: &[&[f64]],
        pool: &FeatureMatrix,
        rng: &mut StatsRng,
    ) -> Result<Option<usize>> {
        if candidates.is_empty() {
            return Ok(None);
        }
        let scores: Vec<f64> = match self {
            Acquisition::Alc { reference_size } => {
                let reference: Vec<&[f64]> = if pool.is_empty() {
                    Vec::new()
                } else {
                    pool.gather(sample_indices(rng, pool.len(), *reference_size))
                };
                model.alc_scores(candidates, &reference)?
            }
            Acquisition::Alm => model.alm_scores(candidates)?,
            Acquisition::Random => (0..candidates.len()).map(|_| rng.gen::<f64>()).collect(),
        };
        // Ties favour the earliest candidate: the learner lists fresh
        // (unseen) candidates before revisit candidates, which makes ties
        // resolve towards exploration.
        Ok((0..scores.len()).min_by(|&a, &b| score_order(&scores, a, b)))
    }
}

/// The one ordering over acquisition scores, as a comparator on candidate
/// indices into `scores`: higher score first, every NaN last, and ties —
/// `-0.0` against `+0.0` included — broken by the lower index. It is total
/// for any input, so sorts cannot panic on it and a NaN is never chosen
/// over a real score.
///
/// # Panics
///
/// Panics if `a` or `b` is out of bounds for `scores`.
pub fn score_order(scores: &[f64], a: usize, b: usize) -> Ordering {
    let (x, y) = (scores[a], scores[b]);
    let by_score = match (x.is_nan(), y.is_nan()) {
        (false, false) if x > y => Ordering::Less,
        (false, false) if x < y => Ordering::Greater,
        (x_nan, y_nan) => x_nan.cmp(&y_nan),
    };
    by_score.then(a.cmp(&b))
}

impl Default for Acquisition {
    fn default() -> Self {
        Acquisition::default_alc()
    }
}

impl std::fmt::Display for Acquisition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alic_model::dynatree::{DynaTree, DynaTreeConfig};
    use alic_model::traits::Prediction;
    use alic_model::SurrogateModel;
    use alic_stats::rng::seeded_rng;

    /// A model trained densely on the left half of [0, 1] and sparsely on the
    /// noisy right half.
    fn lopsided_model() -> DynaTree {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..60 {
            let x = 0.5 * i as f64 / 59.0;
            xs.push(vec![x]);
            ys.push(1.0);
        }
        for i in 0..5 {
            let x = 0.6 + 0.4 * i as f64 / 4.0;
            xs.push(vec![x]);
            ys.push(2.0 + if i % 2 == 0 { 0.7 } else { -0.7 });
        }
        let mut model = DynaTree::new(DynaTreeConfig {
            particles: 60,
            seed: 3,
            ..Default::default()
        });
        model.fit(&alic_model::row_views(&xs), &ys).unwrap();
        model
    }

    fn grid(n: usize) -> FeatureMatrix {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        FeatureMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn empty_candidate_set_selects_nothing() {
        let model = lopsided_model();
        let mut rng = seeded_rng(1);
        let choice = Acquisition::Alm
            .select(&model, &[], &grid(10), &mut rng)
            .unwrap();
        assert_eq!(choice, None);
    }

    #[test]
    fn alm_and_alc_prefer_the_uncertain_region() {
        let model = lopsided_model();
        let mut rng = seeded_rng(2);
        // Candidate 0 is in the dense quiet region, candidate 1 in the sparse
        // noisy region.
        let candidates: Vec<&[f64]> = vec![&[0.25], &[0.85]];
        for acquisition in [Acquisition::Alm, Acquisition::default_alc()] {
            let choice = acquisition
                .select(&model, &candidates, &grid(40), &mut rng)
                .unwrap();
            assert_eq!(choice, Some(1), "{acquisition} picked the wrong candidate");
        }
    }

    #[test]
    fn random_selection_eventually_picks_everything() {
        let model = lopsided_model();
        let mut rng = seeded_rng(3);
        let pool = grid(5);
        let candidates = pool.row_views();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            if let Some(i) = Acquisition::Random
                .select(&model, &candidates, &FeatureMatrix::new(1), &mut rng)
                .unwrap()
            {
                seen.insert(i);
            }
        }
        assert_eq!(seen.len(), candidates.len());
    }

    #[test]
    fn ties_favour_the_earliest_candidate() {
        // A constant-mean model scores every candidate identically, so both
        // criteria tie everywhere; the argmax must resolve to the earliest
        // (fresh) candidate. ALC over an empty pool exercises its ALM
        // fallback through the same argmax.
        let mut model = alic_model::baseline::ConstantMean::new();
        model
            .fit(&[&[0.0], &[0.5], &[1.0]], &[1.0, 2.0, 3.0])
            .unwrap();
        let candidates: Vec<&[f64]> = vec![&[0.9], &[0.1], &[0.4]];
        let mut rng = seeded_rng(4);
        for acquisition in [Acquisition::Alm, Acquisition::default_alc()] {
            let choice = acquisition
                .select(&model, &candidates, &FeatureMatrix::new(1), &mut rng)
                .unwrap();
            assert_eq!(choice, Some(0), "{acquisition} must break ties earliest");
        }
    }

    /// Scores candidate `i` as `self.0[i]` under every criterion.
    #[derive(Debug)]
    struct FixedScores(Vec<f64>);

    impl SurrogateModel for FixedScores {
        fn fit(&mut self, _xs: &[&[f64]], _ys: &[f64]) -> alic_model::Result<()> {
            Ok(())
        }
        fn update(&mut self, _x: &[f64], _y: f64) -> alic_model::Result<()> {
            Ok(())
        }
        fn predict(&self, _x: &[f64]) -> alic_model::Result<Prediction> {
            Ok(Prediction::new(0.0, 0.0))
        }
        fn observation_count(&self) -> usize {
            0
        }
        fn dimension(&self) -> Option<usize> {
            Some(1)
        }
    }

    impl ActiveSurrogate for FixedScores {
        fn alm_scores(&self, candidates: &[&[f64]]) -> alic_model::Result<Vec<f64>> {
            Ok(self.0[..candidates.len()].to_vec())
        }
        fn alc_scores(
            &self,
            candidates: &[&[f64]],
            _reference: &[&[f64]],
        ) -> alic_model::Result<Vec<f64>> {
            self.alm_scores(candidates)
        }
    }

    #[test]
    fn a_nan_score_is_never_selected() {
        let model = FixedScores(vec![f64::NAN, 1.0, 0.5]);
        let candidates: Vec<&[f64]> = vec![&[0.0], &[0.5], &[1.0]];
        let mut rng = seeded_rng(5);
        for acquisition in [Acquisition::Alm, Acquisition::default_alc()] {
            let choice = acquisition
                .select(&model, &candidates, &FeatureMatrix::new(1), &mut rng)
                .unwrap();
            assert_eq!(choice, Some(1), "{acquisition} selected a NaN score");
        }
    }

    #[test]
    fn score_order_is_total_with_nans_last_and_signed_zeros_tied() {
        let scores = [
            0.5,
            f64::NAN,
            1.0,
            -0.0,
            -f64::NAN,
            0.0,
            f64::INFINITY,
            1.0,
            f64::NEG_INFINITY,
        ];
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| score_order(&scores, a, b));
        assert_eq!(order, [6, 2, 7, 0, 3, 5, 8, 1, 4]);
        // Antisymmetric and transitive over every pair and triple.
        let n = scores.len();
        for a in 0..n {
            for b in 0..n {
                let ab = score_order(&scores, a, b);
                assert_eq!(ab, score_order(&scores, b, a).reverse());
                assert_eq!(ab == Ordering::Equal, a == b);
                for c in 0..n {
                    if ab.is_lt() && score_order(&scores, b, c).is_lt() {
                        assert!(score_order(&scores, a, c).is_lt(), "{a} {b} {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Acquisition::default_alc().label(), "ALC");
        assert_eq!(Acquisition::Alm.to_string(), "ALM");
        assert_eq!(Acquisition::Random.label(), "random");
    }
}
