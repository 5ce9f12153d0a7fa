//! One-vs-one multiclass SVM (libSVM's scheme, used by the paper).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::dataset::Dataset;
use crate::kernel::Kernel;
use crate::svm::binary::BinarySvm;
use crate::svm::compiled::{CompiledCell, CompiledSvm};
use crate::svm::coupling::couple;
use crate::svm::platt::Platt;
use crate::svm::smo::SmoParams;

/// One binary machine for an ordered class pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairMachine {
    /// Class mapped to the machine's `+1` label.
    pub pos: usize,
    /// Class mapped to the machine's `−1` label.
    pub neg: usize,
    /// The trained binary machine for this pair.
    pub svm: BinarySvm,
    /// Platt calibration mapping decision values to probabilities.
    pub platt: Platt,
}

/// Aggregate statistics from one-vs-one training, summed over all pair
/// solves (peak storage is the maximum across pairs, since pair problems
/// are solved with independent caches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SvmTrainStats {
    /// Kernel evaluations across all pair solves.
    pub kernel_evals: u64,
    /// Kernel-column cache hits across all pair solves.
    pub cache_hits: u64,
    /// Kernel-column cache misses across all pair solves.
    pub cache_misses: u64,
    /// Largest kernel storage held by any single pair solve.
    pub peak_cache_bytes: usize,
    /// Training rows in the full dataset.
    pub train_rows: usize,
    /// Pair machines trained.
    pub n_machines: usize,
    /// Unique support vectors after compilation (deduplicated).
    pub unique_svs: usize,
    /// Total support-vector references across machines.
    pub total_sv_refs: usize,
}

impl SvmTrainStats {
    /// Cache hit rate in `[0, 1]`; `1.0` when no lookups were made.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fold a later fit's statistics into a running total over several
    /// fits: solver work (kernel evaluations, cache hits and misses) adds
    /// up, peak storage is the maximum, and the model-shape fields
    /// (rows, machines, support vectors) are the later fit's.
    pub fn absorb(&mut self, later: &SvmTrainStats) {
        *self = SvmTrainStats {
            kernel_evals: self.kernel_evals + later.kernel_evals,
            cache_hits: self.cache_hits + later.cache_hits,
            cache_misses: self.cache_misses + later.cache_misses,
            peak_cache_bytes: self.peak_cache_bytes.max(later.peak_cache_bytes),
            ..*later
        };
    }
}

/// A trained one-vs-one multiclass SVM with probability outputs.
///
/// `k(k−1)/2` binary machines are trained, one per class pair present in
/// the training data. Prediction uses majority voting (ties broken by the
/// coupled posterior); [`SvmModel::probabilities`] runs Platt-calibrated
/// pairwise outputs through Wu–Lin–Weng coupling — these posteriors drive
/// Nitro's Best-vs-Second-Best active learning.
///
/// The serialized fields are the source of truth; a compiled prediction
/// engine ([`CompiledSvm`]) is built lazily (and excluded from serde) for
/// the dispatch hot path. Methods here are the *reference* implementation
/// the compiled engine is tested against bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvmModel {
    n_classes: usize,
    machines: Vec<PairMachine>,
    /// Classes that actually appeared in training data.
    present: Vec<bool>,
    /// Majority training class: the fallback when no machine exists.
    fallback: usize,
    /// Lazily-compiled prediction engine (pure cache, not serialized).
    #[serde(skip)]
    compiled: CompiledCell,
}

impl SvmModel {
    /// Train on a (pre-scaled) dataset.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset, kernel: Kernel, params: &SmoParams) -> Self {
        Self::train_inner(data, kernel, params).0
    }

    /// Train and report solver statistics; also compiles the prediction
    /// engine eagerly so the model is dispatch-ready on return.
    ///
    /// # Panics
    /// Panics if the dataset is empty.
    pub fn train_with_stats(
        data: &Dataset,
        kernel: Kernel,
        params: &SmoParams,
    ) -> (Self, SvmTrainStats) {
        let (model, mut stats) = Self::train_inner(data, kernel, params);
        let compiled = model.compiled();
        stats.unique_svs = compiled.n_unique_svs();
        stats.total_sv_refs = compiled.total_sv_refs();
        (model, stats)
    }

    fn train_inner(data: &Dataset, kernel: Kernel, params: &SmoParams) -> (Self, SvmTrainStats) {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let k = data.n_classes;
        let counts = data.class_counts();
        let present: Vec<bool> = counts.iter().map(|&c| c > 0).collect();
        let fallback = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);

        let mut pairs = Vec::new();
        for a in 0..k {
            for b in (a + 1)..k {
                if counts[a] > 0 && counts[b] > 0 {
                    pairs.push((a, b));
                }
            }
        }

        // Pair problems are independent: train them in parallel. The
        // result vector preserves the deterministic (a, b) iteration
        // order, so assembled artifacts are bit-identical run-to-run.
        let trained: Vec<(PairMachine, u64, u64, u64, usize)> = pairs
            .par_iter()
            .map(|&(a, b)| {
                let mut x = Vec::with_capacity(counts[a] + counts[b]);
                let mut y = Vec::with_capacity(counts[a] + counts[b]);
                for (row, &label) in data.x.iter().zip(&data.y) {
                    if label == a {
                        x.push(row.clone());
                        y.push(1.0);
                    } else if label == b {
                        x.push(row.clone());
                        y.push(-1.0);
                    }
                }
                let (svm, result) = BinarySvm::train_result(&x, &y, kernel, params);
                // Calibrate on in-sample decision values recovered from
                // the solver's final gradient — no kernel recomputation.
                // (libSVM uses 5-fold CV decisions; in-sample is a
                // documented simplification that matters little at
                // Nitro's training sizes and keeps retraining cheap.)
                let labels: Vec<bool> = y.iter().map(|&v| v > 0.0).collect();
                let platt = Platt::fit(&result.decision_values, &labels);
                (
                    PairMachine {
                        pos: a,
                        neg: b,
                        svm,
                        platt,
                    },
                    result.kernel_evals,
                    result.cache_hits,
                    result.cache_misses,
                    result.peak_cache_bytes,
                )
            })
            .collect();

        let mut stats = SvmTrainStats {
            train_rows: data.x.len(),
            n_machines: trained.len(),
            ..Default::default()
        };
        let mut machines = Vec::with_capacity(trained.len());
        for (machine, evals, hits, misses, peak) in trained {
            stats.kernel_evals += evals;
            stats.cache_hits += hits;
            stats.cache_misses += misses;
            stats.peak_cache_bytes = stats.peak_cache_bytes.max(peak);
            machines.push(machine);
        }

        (
            Self {
                n_classes: k,
                machines,
                present,
                fallback,
                compiled: CompiledCell::default(),
            },
            stats,
        )
    }

    /// Number of classes this model separates.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of trained pair machines.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// The trained pair machines (for auditing numeric invariants).
    pub fn machines(&self) -> &[PairMachine] {
        &self.machines
    }

    /// Which classes appeared in training data.
    pub fn present(&self) -> &[bool] {
        &self.present
    }

    /// Majority training class, predicted when no machine exists.
    pub fn fallback(&self) -> usize {
        self.fallback
    }

    /// The compiled prediction engine, built on first use (e.g. after
    /// deserialization) and cached for the model's lifetime.
    pub fn compiled(&self) -> &CompiledSvm {
        self.compiled.get_or_compile(self)
    }

    /// Every machine's decision value for a point, in machine order.
    fn decision_values(&self, point: &[f64]) -> Vec<f64> {
        self.machines
            .iter()
            .map(|m| m.svm.decision(point))
            .collect()
    }

    /// Predict the class of a (pre-scaled) point by pairwise voting.
    /// Decision values are computed once and shared between voting and
    /// the posterior tie-break.
    pub fn predict(&self, point: &[f64]) -> usize {
        if self.machines.is_empty() {
            return self.fallback;
        }
        let decisions = self.decision_values(point);
        let mut votes = vec![0usize; self.n_classes];
        for (m, &d) in self.machines.iter().zip(&decisions) {
            if d >= 0.0 {
                votes[m.pos] += 1;
            } else {
                votes[m.neg] += 1;
            }
        }
        let max_votes = *votes.iter().max().unwrap();
        let tied: Vec<usize> = (0..self.n_classes)
            .filter(|&c| votes[c] == max_votes)
            .collect();
        if tied.len() == 1 {
            return tied[0];
        }
        // Break ties with the coupled posterior (reusing the decisions).
        let probs = self.probabilities_from_decisions(&decisions);
        tied.into_iter()
            .max_by(|&a, &b| probs[a].partial_cmp(&probs[b]).unwrap())
            .unwrap_or(self.fallback)
    }

    /// Class posterior for a (pre-scaled) point, length `n_classes`.
    /// Classes absent from training receive probability 0.
    pub fn probabilities(&self, point: &[f64]) -> Vec<f64> {
        let decisions = self.decision_values(point);
        self.probabilities_from_decisions(&decisions)
    }

    /// Posterior from per-machine decision values already in hand.
    fn probabilities_from_decisions(&self, decisions: &[f64]) -> Vec<f64> {
        let active: Vec<usize> = (0..self.n_classes).filter(|&c| self.present[c]).collect();
        if active.is_empty() {
            return vec![0.0; self.n_classes];
        }
        if active.len() == 1 {
            let mut p = vec![0.0; self.n_classes];
            p[active[0]] = 1.0;
            return p;
        }
        let idx_of: Vec<usize> = {
            let mut map = vec![usize::MAX; self.n_classes];
            for (i, &c) in active.iter().enumerate() {
                map[c] = i;
            }
            map
        };
        let ka = active.len();
        let mut r = vec![vec![0.5; ka]; ka];
        for row in r.iter_mut().enumerate() {
            row.1[row.0] = 0.0;
        }
        for (m, &d) in self.machines.iter().zip(decisions) {
            // Clamp away from 0/1 as libSVM does, to keep coupling stable.
            let p = m.platt.prob(d).clamp(1e-7, 1.0 - 1e-7);
            let (i, j) = (idx_of[m.pos], idx_of[m.neg]);
            r[i][j] = p;
            r[j][i] = 1.0 - p;
        }
        let coupled = couple(&r);
        let mut full = vec![0.0; self.n_classes];
        for (i, &c) in active.iter().enumerate() {
            full[c] = coupled[i];
        }
        full
    }

    /// The Best-vs-Second-Best margin: `p(best) − p(second)`. Small
    /// margins mark points the model is least sure about — the paper's
    /// active-learning query criterion (§III-B).
    pub fn bvsb_margin(&self, point: &[f64]) -> f64 {
        let mut p = self.probabilities(point);
        p.sort_by(|a, b| b.partial_cmp(a).unwrap());
        match (p.first(), p.get(1)) {
            (Some(best), Some(second)) => best - second,
            (Some(_), None) => 1.0,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_solver_work_and_keeps_the_later_shape() {
        let mut total = SvmTrainStats {
            kernel_evals: 10,
            cache_hits: 4,
            cache_misses: 6,
            peak_cache_bytes: 800,
            train_rows: 5,
            n_machines: 1,
            unique_svs: 3,
            total_sv_refs: 3,
        };
        total.absorb(&SvmTrainStats {
            kernel_evals: 20,
            cache_hits: 15,
            cache_misses: 5,
            peak_cache_bytes: 400,
            train_rows: 6,
            n_machines: 3,
            unique_svs: 4,
            total_sv_refs: 7,
        });
        assert_eq!(
            total,
            SvmTrainStats {
                kernel_evals: 30,
                cache_hits: 19,
                cache_misses: 11,
                peak_cache_bytes: 800,
                train_rows: 6,
                n_machines: 3,
                unique_svs: 4,
                total_sv_refs: 7,
            }
        );
    }

    fn three_blob_dataset() -> Dataset {
        // Three well-separated clusters in 2D.
        let mut d = Dataset::new(3);
        for i in 0..8 {
            let t = i as f64 / 10.0;
            d.push(vec![-1.0 + t * 0.1, -1.0 - t * 0.1], 0);
            d.push(vec![1.0 + t * 0.1, -1.0 + t * 0.1], 1);
            d.push(vec![0.0 + t * 0.1, 1.0 + t * 0.1], 2);
        }
        d
    }

    fn model() -> SvmModel {
        SvmModel::train(
            &three_blob_dataset(),
            Kernel::Rbf { gamma: 1.0 },
            &SmoParams::default(),
        )
    }

    #[test]
    fn trains_all_pairs() {
        assert_eq!(model().n_machines(), 3);
    }

    #[test]
    fn classifies_cluster_centers() {
        let m = model();
        assert_eq!(m.predict(&[-1.0, -1.0]), 0);
        assert_eq!(m.predict(&[1.0, -1.0]), 1);
        assert_eq!(m.predict(&[0.0, 1.0]), 2);
    }

    #[test]
    fn probabilities_form_a_distribution() {
        let m = model();
        let p = m.probabilities(&[0.2, 0.3]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn confident_point_has_large_bvsb_margin() {
        let m = model();
        let at_center = m.bvsb_margin(&[-1.0, -1.0]);
        // Equidistant from all three clusters: maximal confusion.
        let at_centroid = m.bvsb_margin(&[0.0, -0.2]);
        assert!(
            at_center > at_centroid,
            "center margin {at_center} vs centroid margin {at_centroid}"
        );
    }

    #[test]
    fn missing_class_gets_zero_probability() {
        // n_classes = 3 but class 2 never appears.
        let mut d = Dataset::new(3);
        for i in 0..6 {
            d.push(vec![i as f64], if i < 3 { 0 } else { 1 });
        }
        let m = SvmModel::train(&d, Kernel::Linear, &SmoParams::default());
        let p = m.probabilities(&[0.0]);
        assert_eq!(p[2], 0.0);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_class_dataset_predicts_it() {
        let mut d = Dataset::new(4);
        d.push(vec![1.0], 2);
        d.push(vec![2.0], 2);
        let m = SvmModel::train(&d, Kernel::Linear, &SmoParams::default());
        assert_eq!(m.predict(&[5.0]), 2);
        assert_eq!(m.probabilities(&[5.0])[2], 1.0);
        assert_eq!(m.bvsb_margin(&[5.0]), 1.0);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let m = model();
        let j = serde_json::to_string(&m).unwrap();
        let back: SvmModel = serde_json::from_str(&j).unwrap();
        for p in [[0.0, 1.0], [1.0, -1.0], [-1.0, -1.0]] {
            assert_eq!(m.predict(&p), back.predict(&p));
        }
    }

    #[test]
    fn train_with_stats_reports_solver_work() {
        let (m, stats) = SvmModel::train_with_stats(
            &three_blob_dataset(),
            Kernel::Rbf { gamma: 1.0 },
            &SmoParams::default(),
        );
        assert_eq!(stats.n_machines, 3);
        assert_eq!(stats.train_rows, 24);
        assert!(stats.kernel_evals > 0);
        assert!(stats.unique_svs > 0);
        assert!(stats.unique_svs <= stats.total_sv_refs);
        assert!((0.0..=1.0).contains(&stats.cache_hit_rate()));
        // The eager compile must agree with the lazily-built engine.
        assert_eq!(m.compiled().n_unique_svs(), stats.unique_svs);
    }

    #[test]
    fn parallel_training_is_deterministic() {
        let d = three_blob_dataset();
        let kernel = Kernel::Rbf { gamma: 1.0 };
        let a = SvmModel::train(&d, kernel, &SmoParams::default());
        let b = SvmModel::train(&d, kernel, &SmoParams::default());
        assert_eq!(a, b, "repeat training must be bit-identical");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn deserialized_model_recompiles_lazily() {
        let m = model();
        let j = serde_json::to_string(&m).unwrap();
        let back: SvmModel = serde_json::from_str(&j).unwrap();
        let compiled = back.compiled();
        assert_eq!(compiled.n_unique_svs(), m.compiled().n_unique_svs());
        for p in [[0.0, 1.0], [1.0, -1.0], [-1.0, -1.0]] {
            assert_eq!(compiled.predict(&p), m.predict(&p));
        }
    }
}
