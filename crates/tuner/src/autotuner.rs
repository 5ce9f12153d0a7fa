//! The Nitro autotuner: offline training of variant-selection models.
//!
//! Plays the role of the paper's Python autotuner (§II-C / Table II): it
//! takes a configured [`CodeVariant`] plus training inputs, performs
//! exhaustive search to label them, fits the configured classifier and
//! installs the model. When the policy requests incremental tuning
//! (`itune`), only a fraction of the training inputs is exhaustively
//! profiled, chosen by Best-vs-Second-Best active learning (§III-B).

use nitro_audit::{audit_artifact_against, audit_fastpath, lint_cache_budget, lint_registration};
use nitro_core::diag::registry::codes;
use nitro_core::{
    diag::{has_errors, Diagnostic},
    CodeVariant, NitroError, Result, StoppingCriterion, TrainedModel,
};
use nitro_ml::{ActiveLearner, Dataset, SvmTrainStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::profile::{ProfileRow, ProfileTable};
use crate::report::evaluate_model;

/// Where the tuner gets per-input profile rows from. The plain paths use
/// [`DirectCells`] (profile every request); `tune_durable` (in
/// [`crate::durable`]) substitutes a journal-backed source that replays
/// already-recorded cells and appends fresh ones to the write-ahead log.
pub(crate) trait CellSource<I: ?Sized> {
    /// Produce the profile row for `inputs[idx]`.
    fn profile(&mut self, cv: &CodeVariant<I>, idx: usize, input: &I) -> Result<ProfileRow>;
    /// Cells satisfied from a journal instead of re-profiling.
    fn replayed_cells(&self) -> usize {
        0
    }
}

/// The non-durable source: always profiles.
pub(crate) struct DirectCells;

impl<I: ?Sized + Send + Sync> CellSource<I> for DirectCells {
    fn profile(&mut self, cv: &CodeVariant<I>, _idx: usize, input: &I) -> Result<ProfileRow> {
        Ok(ProfileTable::profile_one(cv, input))
    }
}

/// Wall-clock time one tuning phase took (serialized in [`TuneReport`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name: `profiling`, `labeling`, `training` or `evaluation`.
    pub phase: String,
    /// Accumulated wall-clock nanoseconds spent in the phase.
    pub wall_ns: f64,
}

/// Phase accounting for one tuning run: emits a `phase:<name>` span per
/// section when a tracer is installed, and always accumulates wall-clock
/// per phase so [`TuneReport::phase_timings`] is populated either way.
pub(crate) struct Phases {
    tracer: Option<nitro_trace::Tracer>,
    pulse: Option<nitro_pulse::PulseRegistry>,
    function: String,
    timings: Vec<PhaseTiming>,
}

impl Phases {
    pub(crate) fn new<I: ?Sized>(
        cv: &CodeVariant<I>,
        pulse: Option<nitro_pulse::PulseRegistry>,
    ) -> Self {
        Self {
            tracer: cv.context().tracer(),
            pulse,
            function: cv.name().to_string(),
            timings: Vec::new(),
        }
    }

    /// Run `f` attributed to `phase`. Repeated sections under the same
    /// name (e.g. each incremental re-fit) accumulate into one timing.
    pub(crate) fn run<T>(&mut self, phase: &str, f: impl FnOnce() -> T) -> T {
        let span = self
            .tracer
            .as_ref()
            .map(|t| t.span(&format!("phase:{phase}"), "tuning", vec![]));
        let start = std::time::Instant::now();
        let out = f();
        let wall_ns = start.elapsed().as_nanos() as f64;
        drop(span);
        match self.timings.iter_mut().find(|p| p.phase == phase) {
            Some(p) => p.wall_ns += wall_ns,
            None => self.timings.push(PhaseTiming {
                phase: phase.to_string(),
                wall_ns,
            }),
        }
        out
    }

    /// Export the accumulated timings (also published as
    /// `tune.<fn>.<phase>_ns` gauges when a tracer is installed).
    fn finish(self) -> Vec<PhaseTiming> {
        if let Some(t) = &self.tracer {
            for p in &self.timings {
                t.metrics()
                    .set_gauge(&format!("tune.{}.{}_ns", self.function, p.phase), p.wall_ns);
            }
        }
        if let Some(r) = &self.pulse {
            // Gauges mirror the tracer's; the sketch accumulates phase
            // durations across repeated tuning runs, so re-tune storms
            // show up as a fattening tail in `tune.<fn>.phase_ns`.
            let sketch = r.sketch(&format!("tune.{}.phase_ns", self.function));
            for p in &self.timings {
                r.gauge(&format!("tune.{}.{}_ns", self.function, p.phase))
                    .set(p.wall_ns);
                sketch.record(p.wall_ns);
            }
        }
        self.timings
    }
}

/// Global autotuner options (the per-function options live in the
/// `CodeVariant`'s [`nitro_core::TuningPolicy`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Autotuner {
    /// Deterministic seed for the incremental tuner's initial sample.
    pub seed: u64,
    /// Upper bound on inputs profiled while searching for an initial
    /// example of each variant label.
    pub max_seed_probes: usize,
    /// Hard cap on active-learning iterations under an accuracy criterion.
    pub max_incremental_iterations: usize,
    /// Persist the model through the context after tuning.
    pub save_model: bool,
    /// Pulse registry receiving `tune.<fn>.<phase>_ns` gauges and the
    /// `tune.<fn>.phase_ns` duration sketch. Not serialized; attach
    /// with [`Autotuner::with_pulse`].
    #[serde(skip)]
    pub pulse: Option<nitro_pulse::PulseRegistry>,
}

impl Default for Autotuner {
    fn default() -> Self {
        Self {
            seed: 0x417,
            max_seed_probes: 16,
            max_incremental_iterations: 200,
            save_model: false,
            pulse: None,
        }
    }
}

/// What a tuning run did.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct TuneReport {
    /// Total training inputs supplied.
    pub training_inputs: usize,
    /// Inputs actually exhaustively profiled (== `training_inputs` for
    /// full tuning; usually far fewer for incremental tuning).
    pub profiled_inputs: usize,
    /// Inputs dropped because no variant produced a valid result.
    pub dropped_inputs: usize,
    /// Labeled examples per class in the final training set.
    pub class_counts: Vec<usize>,
    /// Cross-validation accuracy from grid search, when it ran.
    pub cv_accuracy: Option<f64>,
    /// Active-learning iterations performed (0 for full tuning).
    pub incremental_iterations: usize,
    /// Model accuracy on the test table after each incremental iteration
    /// (empty without a test table). Entry 0 is the seed-only model.
    pub accuracy_history: Vec<f64>,
    /// Snapshot of the model after each incremental iteration (entry 0 is
    /// the seed-only model; empty for full tuning). Lets experiment
    /// harnesses plot performance-vs-iterations (paper Figure 7) from a
    /// single tuning run.
    #[serde(skip)]
    pub model_history: Vec<TrainedModel>,
    /// Non-fatal findings from the pre-tuning registration lint and the
    /// post-tuning artifact audit. Error-severity findings never land
    /// here — they abort tuning as [`NitroError::Audit`] instead.
    #[serde(default)]
    pub audit_warnings: Vec<Diagnostic>,
    /// Per-phase wall-clock breakdown of the tuning run (profiling /
    /// labeling / training / evaluation), in execution order.
    #[serde(default)]
    pub phase_timings: Vec<PhaseTiming>,
    /// SVM solver statistics: kernel evaluations, cache hit rate and
    /// support-vector compression. Full tuning reports its one fit;
    /// incremental tuning sums the solver work over the seed fit and
    /// every refit (see [`SvmTrainStats::absorb`]). `None` for non-SVM
    /// classifiers.
    #[serde(default)]
    pub svm_train_stats: Option<SvmTrainStats>,
    /// Profile cells satisfied by replaying a tuning journal instead of
    /// re-profiling (always 0 outside `tune_durable`).
    #[serde(default)]
    pub replayed_cells: usize,
}

impl Autotuner {
    /// Create an autotuner with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish phase timings into a pulse registry as well: per-phase
    /// `tune.<fn>.<phase>_ns` gauges plus the accumulating
    /// `tune.<fn>.phase_ns` sketch.
    pub fn with_pulse(mut self, registry: &nitro_pulse::PulseRegistry) -> Self {
        self.pulse = Some(registry.clone());
        self
    }

    /// Tune a code variant on `inputs`, honouring the policy's
    /// incremental-tuning setting. Installs the trained model and returns
    /// a report.
    pub fn tune<I>(&self, cv: &mut CodeVariant<I>, inputs: &[I]) -> Result<TuneReport>
    where
        I: Send + Sync,
    {
        self.tune_impl(cv, inputs, None)
    }

    /// Like [`Autotuner::tune`], but with a pre-profiled test table: the
    /// incremental tuner can then use an accuracy stopping criterion and
    /// the report carries an accuracy history (paper Figure 7).
    pub fn tune_with_test<I>(
        &self,
        cv: &mut CodeVariant<I>,
        inputs: &[I],
        test: &ProfileTable,
    ) -> Result<TuneReport>
    where
        I: Send + Sync,
    {
        self.tune_impl(cv, inputs, Some(test))
    }

    /// Full (non-incremental) tuning from an existing profile table.
    /// Useful when the caller already paid for exhaustive profiling.
    pub fn tune_from_table<I>(
        &self,
        cv: &mut CodeVariant<I>,
        table: &ProfileTable,
    ) -> Result<TuneReport>
    where
        I: Send + Sync,
    {
        let audit_warnings = preflight(cv, table.len())?;
        let phases = Phases::new(cv, self.pulse.clone());
        self.finish_from_table(cv, table, audit_warnings, phases)
    }

    /// The table-training tail shared by [`Autotuner::tune_from_table`],
    /// the non-incremental [`Autotuner::tune`] path and `tune_durable`
    /// (all of which have already run the registration lint).
    pub(crate) fn finish_from_table<I>(
        &self,
        cv: &mut CodeVariant<I>,
        table: &ProfileTable,
        mut audit_warnings: Vec<Diagnostic>,
        mut phases: Phases,
    ) -> Result<TuneReport>
    where
        I: Send + Sync,
    {
        let data = phases.run("labeling", || table.dataset());
        if data.is_empty() {
            return Err(NitroError::ModelMismatch {
                detail: "no training input produced a valid label".into(),
            });
        }
        let (model, svm_train_stats) = phases.run("training", || {
            TrainedModel::train_with_stats(&cv.policy().classifier, &data)
        });
        if let (Some(t), Some(stats)) = (cv.context().tracer(), &svm_train_stats) {
            t.metrics()
                .set_gauge("ml.train.cache_hit_rate", stats.cache_hit_rate());
        }
        let cv_accuracy = grid_cv_accuracy(&model);
        cv.install_model(model);
        let findings = phases.run("evaluation", || postflight(cv, &data));
        audit_warnings.extend(findings);
        if self.save_model {
            cv.save_model()?;
        }
        Ok(TuneReport {
            training_inputs: table.len(),
            profiled_inputs: table.len(),
            dropped_inputs: table.len() - data.len(),
            class_counts: data.class_counts(),
            cv_accuracy,
            incremental_iterations: 0,
            accuracy_history: Vec::new(),
            model_history: Vec::new(),
            audit_warnings,
            phase_timings: phases.finish(),
            svm_train_stats,
            replayed_cells: 0,
        })
    }

    fn tune_impl<I>(
        &self,
        cv: &mut CodeVariant<I>,
        inputs: &[I],
        test: Option<&ProfileTable>,
    ) -> Result<TuneReport>
    where
        I: Send + Sync,
    {
        // Pre-flight: refuse to spend profiling time on a registration
        // the linter can already prove broken.
        let audit_warnings = preflight(cv, inputs.len())?;
        let mut phases = Phases::new(cv, self.pulse.clone());
        match cv.policy().incremental {
            None => {
                let table = phases.run("profiling", || ProfileTable::build(cv, inputs));
                self.finish_from_table(cv, &table, audit_warnings, phases)
            }
            Some(criterion) => self.itune(
                cv,
                inputs,
                criterion,
                test,
                audit_warnings,
                phases,
                &mut DirectCells,
            ),
        }
    }

    /// Incremental tuning: profile only a seed plus actively-queried
    /// inputs. Profiling goes through `source`, so the durable path can
    /// replay journaled cells — the query sequence is deterministic
    /// (seeded shuffle + deterministic fits), so a resumed run re-walks
    /// the same cells and finds them cached.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn itune<I>(
        &self,
        cv: &mut CodeVariant<I>,
        inputs: &[I],
        criterion: StoppingCriterion,
        test: Option<&ProfileTable>,
        mut audit_warnings: Vec<Diagnostic>,
        mut phases: Phases,
        source: &mut dyn CellSource<I>,
    ) -> Result<TuneReport>
    where
        I: Send + Sync,
    {
        // Feature vectors for the whole pool are cheap (§III-B: "the
        // execution time required to derive feature vectors is typically
        // far lower than the cost of actually executing variants").
        let features: Vec<Vec<f64>> = phases.run("profiling", || {
            inputs
                .par_iter()
                .map(|i| cv.evaluate_features(i).0)
                .collect()
        });

        // Deterministically shuffled probe order for the seed.
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        order.shuffle(&mut rng);

        let mut seed = Dataset::new(cv.n_variants());
        let mut profiled = 0usize;
        let mut dropped = 0usize;
        let mut seen_labels = vec![false; cv.n_variants()];
        let mut in_seed = vec![false; inputs.len()];
        for &idx in &order {
            if profiled >= self.max_seed_probes || seen_labels.iter().all(|&s| s) {
                break;
            }
            let (_, _, costs, _) =
                phases.run("profiling", || source.profile(cv, idx, &inputs[idx]))?;
            profiled += 1;
            in_seed[idx] = true;
            let label = phases.run("labeling", || best_of(&costs, cv));
            match label {
                Some(l) => {
                    seen_labels[l] = true;
                    seed.push(features[idx].clone(), l);
                }
                None => dropped += 1,
            }
        }
        if seed.is_empty() {
            return Err(NitroError::ModelMismatch {
                detail: "incremental tuning found no labelable seed input".into(),
            });
        }

        let pool: Vec<(usize, Vec<f64>)> = (0..inputs.len())
            .filter(|&i| !in_seed[i])
            .map(|i| (i, features[i].clone()))
            .collect();
        let mut learner = ActiveLearner::new(seed, pool);
        let config = cv.policy().classifier.clone();
        // Solver statistics summed over the seed fit and every refit.
        let mut svm_train_stats: Option<SvmTrainStats> = None;
        let mut fit = |learner: &ActiveLearner| {
            let (model, stats) = TrainedModel::train_with_stats(&config, learner.labeled());
            if let Some(stats) = stats {
                svm_train_stats
                    .get_or_insert_with(SvmTrainStats::default)
                    .absorb(&stats);
            }
            model
        };
        let mut model = phases.run("training", || fit(&learner));
        let mut model_history = vec![model.clone()];

        let mut accuracy_history = Vec::new();
        let record_accuracy = |model: &TrainedModel, history: &mut Vec<f64>| {
            if let Some(t) = test {
                let preds: Vec<usize> = (0..t.len())
                    .map(|i| model.predict(&t.features[i]))
                    .collect();
                let labeled = t.labels();
                let correct = labeled.iter().filter(|&&(i, l)| preds[i] == l).count();
                history.push(if labeled.is_empty() {
                    0.0
                } else {
                    correct as f64 / labeled.len() as f64
                });
            }
        };
        phases.run("evaluation", || {
            record_accuracy(&model, &mut accuracy_history)
        });

        let max_iters = match criterion {
            StoppingCriterion::Iterations(n) => n,
            StoppingCriterion::Accuracy(_) => self.max_incremental_iterations,
        };
        let mut iterations = 0usize;
        while iterations < max_iters {
            if let (StoppingCriterion::Accuracy(threshold), Some(&acc)) =
                (criterion, accuracy_history.last())
            {
                if acc >= threshold {
                    break;
                }
            }
            let Some((pos, original)) = learner.next_query(&model) else {
                break;
            };
            let (_, _, costs, _) = phases.run("profiling", || {
                source.profile(cv, original, &inputs[original])
            })?;
            profiled += 1;
            match phases.run("labeling", || best_of(&costs, cv)) {
                Some(label) => learner.label(pos, label),
                None => {
                    dropped += 1;
                    learner.discard(pos);
                    continue; // an unlabelable input doesn't count as an iteration
                }
            }
            model = phases.run("training", || fit(&learner));
            model_history.push(model.clone());
            iterations += 1;
            phases.run("evaluation", || {
                record_accuracy(&model, &mut accuracy_history)
            });
        }

        let class_counts = learner.labeled().class_counts();
        let cv_accuracy = grid_cv_accuracy(&model);
        cv.install_model(model);
        audit_warnings.extend(postflight(cv, learner.labeled()));
        if self.save_model {
            cv.save_model()?;
        }
        Ok(TuneReport {
            training_inputs: inputs.len(),
            profiled_inputs: profiled,
            dropped_inputs: dropped,
            class_counts,
            cv_accuracy,
            incremental_iterations: iterations,
            accuracy_history,
            model_history,
            audit_warnings,
            phase_timings: phases.finish(),
            svm_train_stats,
            replayed_cells: source.replayed_cells(),
        })
    }

    /// Convenience wrapper: tune, then immediately evaluate on a profiled
    /// test table (the Figure 6 pipeline).
    pub fn tune_and_evaluate<I>(
        &self,
        cv: &mut CodeVariant<I>,
        train_inputs: &[I],
        test_table: &ProfileTable,
    ) -> Result<(TuneReport, crate::report::EvalSummary)>
    where
        I: Send + Sync,
    {
        let report = self.tune(cv, train_inputs)?;
        let model = cv.export_artifact()?.model;
        let summary = evaluate_model(test_table, &model, cv.default_variant());
        Ok((report, summary))
    }
}

/// Pre-tuning registration lint: error findings abort as
/// [`NitroError::Audit`]; warnings and infos are returned for the report.
///
/// When the registration carries declarative predicate constraints the
/// whole-configuration deep pass runs too: a statically dead variant or
/// broken fallback cascade (`NITRO080`/`NITRO084`) aborts before any
/// profiling budget is spent on a configuration that cannot dispatch as
/// registered. (`NITRO086` cannot fire here — no model is installed yet;
/// it runs in postflight instead.)
pub(crate) fn preflight<I: ?Sized>(
    cv: &CodeVariant<I>,
    training_size: usize,
) -> Result<Vec<Diagnostic>> {
    let mut diagnostics = lint_registration(cv, Some(training_size));
    diagnostics.extend(lint_cache_budget(
        &cv.policy().classifier,
        training_size,
        cv.name(),
    ));
    if cv.has_predicate_constraints() {
        let graph = nitro_audit::TuningGraph::from_code_variant(cv);
        diagnostics.extend(nitro_audit::analyze_graph(&graph));
    }
    if has_errors(&diagnostics) {
        return Err(NitroError::Audit { diagnostics });
    }
    Ok(diagnostics)
}

/// Post-tuning audit: a freshly exported artifact is audited against the
/// registration it came from, and the model's compiled prediction fast
/// path is checked against the training set (`NITRO060`/`NITRO062`). Any
/// findings ride along in the report.
fn postflight<I: ?Sized>(cv: &CodeVariant<I>, data: &Dataset) -> Vec<Diagnostic> {
    match cv.export_artifact() {
        Ok(artifact) => {
            let mut out = audit_artifact_against(&artifact, cv);
            out.extend(audit_fastpath(&artifact.model, data, cv.name()));
            if cv.has_predicate_constraints() {
                // With the freshly trained model installed the deep pass
                // can now check model-label exhaustiveness. Preflight
                // already reported the structural findings, so only the
                // model-dependent NITRO086 rides along here.
                let graph = nitro_audit::TuningGraph::from_code_variant(cv);
                out.extend(
                    nitro_audit::analyze_graph(&graph)
                        .into_iter()
                        .filter(|d| d.code == "NITRO086"),
                );
            }
            out
        }
        Err(e) => vec![Diagnostic::error(
            codes::NITRO001,
            cv.name(),
            format!("freshly tuned model could not be exported for audit: {e}"),
        )],
    }
}

/// Best variant index from a cost row, under the code variant's objective.
fn best_of<I: ?Sized>(costs: &[f64], cv: &CodeVariant<I>) -> Option<usize> {
    let objective = cv.policy().objective;
    let worst = objective.worst();
    let mut best: Option<(usize, f64)> = None;
    for (v, &c) in costs.iter().enumerate() {
        if c == worst || c.is_nan() {
            continue;
        }
        if best.is_none_or(|(_, bc)| objective.better(c, bc)) {
            best = Some((v, c));
        }
    }
    best.map(|(v, _)| v)
}

/// Pull the grid-search CV accuracy out of an SVM model, if present.
fn grid_cv_accuracy(model: &TrainedModel) -> Option<f64> {
    match model {
        TrainedModel::Svm { cv_accuracy, .. } => *cv_accuracy,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{ClassifierConfig, Context, FnFeature, FnVariant};

    /// Variant 0 is best for x < 5, variant 1 for x ≥ 5.
    fn toy(ctx: &Context) -> CodeVariant<f64> {
        let mut cv = CodeVariant::new("toy", ctx);
        cv.add_variant(FnVariant::new("rising", |&x: &f64| 1.0 + x));
        cv.add_variant(FnVariant::new("falling", |&x: &f64| 11.0 - x));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv.policy_mut().classifier = ClassifierConfig::Svm {
            c: Some(10.0),
            gamma: Some(1.0),
            grid_search: false,
            cache_bytes: None,
        };
        cv
    }

    fn training_inputs() -> Vec<f64> {
        (0..40).map(|i| i as f64 * 0.25).collect() // 0..10
    }

    #[test]
    fn full_tuning_installs_accurate_model() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        let report = Autotuner::new().tune(&mut cv, &training_inputs()).unwrap();
        assert!(cv.has_model());
        assert_eq!(report.profiled_inputs, 40);
        assert_eq!(report.incremental_iterations, 0);
        assert_eq!(cv.call(&1.0).unwrap().variant, 0);
        assert_eq!(cv.call(&9.0).unwrap().variant, 1);
    }

    #[test]
    fn incremental_tuning_profiles_fewer_inputs() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.policy_mut().incremental = Some(StoppingCriterion::Iterations(8));
        let inputs = training_inputs();
        let report = Autotuner::new().tune(&mut cv, &inputs).unwrap();
        assert!(
            report.profiled_inputs < inputs.len() / 2,
            "profiled {} of {}",
            report.profiled_inputs,
            inputs.len()
        );
        assert_eq!(cv.call(&0.5).unwrap().variant, 0);
        assert_eq!(cv.call(&9.5).unwrap().variant, 1);
    }

    #[test]
    fn incremental_tuning_sums_svm_stats_over_refits() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.policy_mut().incremental = Some(StoppingCriterion::Iterations(4));
        let report = Autotuner::new().tune(&mut cv, &training_inputs()).unwrap();
        let stats = report
            .svm_train_stats
            .expect("incremental SVM fits report stats");
        assert!(report.model_history.len() > 1, "seed fit plus refits");
        assert!(stats.kernel_evals > 0);
        assert!(stats.cache_hits + stats.cache_misses > 0);
        assert!((0.0..=1.0).contains(&stats.cache_hit_rate()));
    }

    #[test]
    fn accuracy_criterion_stops_early() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.policy_mut().incremental = Some(StoppingCriterion::Accuracy(0.9));
        let inputs = training_inputs();
        let test_table = ProfileTable::build(&toy(&ctx), &inputs);
        let report = Autotuner::new()
            .tune_with_test(&mut cv, &inputs, &test_table)
            .unwrap();
        assert!(report.accuracy_history.last().copied().unwrap_or(0.0) >= 0.9);
        assert!(report.incremental_iterations < inputs.len());
    }

    #[test]
    fn tune_and_evaluate_reports_high_performance() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        let train = training_inputs();
        let test: Vec<f64> = (0..100).map(|i| 0.05 + i as f64 * 0.1).collect();
        let test_table = ProfileTable::build(&toy(&ctx), &test);
        let (_, summary) = Autotuner::new()
            .tune_and_evaluate(&mut cv, &train, &test_table)
            .unwrap();
        assert!(
            summary.mean_relative_perf > 0.95,
            "perf {}",
            summary.mean_relative_perf
        );
    }

    #[test]
    fn empty_variants_is_an_error() {
        let ctx = Context::new();
        let mut cv: CodeVariant<f64> = CodeVariant::new("none", &ctx);
        let err = Autotuner::new().tune(&mut cv, &[1.0]).unwrap_err();
        assert!(
            err.diagnostics().iter().any(|d| d.code == "NITRO010"),
            "{err}"
        );
    }

    #[test]
    fn statically_dead_variant_aborts_preflight() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        // x <= 3 && x >= 4 is unsatisfiable: variant 1 can never run.
        cv.add_predicate_constraint(1, "low", nitro_core::Predicate::le(0, 3.0))
            .unwrap();
        cv.add_predicate_constraint(1, "high", nitro_core::Predicate::ge(0, 4.0))
            .unwrap();
        let err = Autotuner::new()
            .tune(&mut cv, &training_inputs())
            .unwrap_err();
        assert!(
            err.diagnostics().iter().any(|d| d.code == "NITRO080"),
            "{err}"
        );
        assert!(!cv.has_model());
    }

    #[test]
    fn satisfiable_predicates_tune_clean_through_the_deep_pass() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.add_predicate_constraint(1, "nonneg", nitro_core::Predicate::ge(0, 0.0))
            .unwrap();
        let report = Autotuner::new().tune(&mut cv, &training_inputs()).unwrap();
        assert!(cv.has_model());
        assert!(
            !report
                .audit_warnings
                .iter()
                .any(|d| d.code.starts_with("NITRO08")),
            "{:?}",
            report.audit_warnings
        );
    }

    #[test]
    fn invalid_registration_is_refused_with_audit_error() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.set_default(9); // not a registered variant
        let err = Autotuner::new()
            .tune(&mut cv, &training_inputs())
            .unwrap_err();
        assert!(matches!(err, NitroError::Audit { .. }), "{err}");
        assert!(err.diagnostics().iter().any(|d| d.code == "NITRO014"));
        assert!(
            !cv.has_model(),
            "no model may be installed after a refused tune"
        );
    }

    #[test]
    fn registration_warnings_ride_in_the_report() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.policy_mut().classifier = ClassifierConfig::Knn { k: 500 }; // > training size
        let report = Autotuner::new().tune(&mut cv, &training_inputs()).unwrap();
        assert!(
            report.audit_warnings.iter().any(|d| d.code == "NITRO018"),
            "{:?}",
            report.audit_warnings
        );
        assert!(cv.has_model());
    }

    #[test]
    fn fresh_tune_produces_no_error_findings() {
        use nitro_core::Severity;
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        let report = Autotuner::new().tune(&mut cv, &training_inputs()).unwrap();
        assert!(
            !report
                .audit_warnings
                .iter()
                .any(|d| d.severity == Severity::Error),
            "{:?}",
            report.audit_warnings
        );
    }

    #[test]
    fn full_tuning_reports_phase_timings() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        let report = Autotuner::new().tune(&mut cv, &training_inputs()).unwrap();
        let names: Vec<&str> = report
            .phase_timings
            .iter()
            .map(|p| p.phase.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["profiling", "labeling", "training", "evaluation"]
        );
        assert!(report.phase_timings.iter().all(|p| p.wall_ns >= 0.0));
        // phase_timings survive serialization (fig7-style reporting).
        let json = serde_json::to_string(&report).unwrap();
        let back: TuneReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.phase_timings, report.phase_timings);
    }

    #[test]
    fn pulsed_tuning_publishes_phase_gauges_and_duration_sketch() {
        let registry = nitro_pulse::PulseRegistry::with_stripes(2);
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        let report = Autotuner::new()
            .with_pulse(&registry)
            .tune(&mut cv, &training_inputs())
            .unwrap();
        for p in &report.phase_timings {
            assert_eq!(
                registry.gauge_value(&format!("tune.toy.{}_ns", p.phase)),
                Some(p.wall_ns)
            );
        }
        let sketch = registry
            .fused_sketch("tune.toy.phase_ns")
            .expect("duration sketch registered");
        assert_eq!(sketch.count() as usize, report.phase_timings.len());
    }

    #[test]
    fn traced_tuning_emits_phase_spans_profile_instants_and_gauges() {
        let ctx = Context::new();
        let sink = std::sync::Arc::new(nitro_trace::RingSink::new(4096));
        let tracer = nitro_trace::Tracer::new(sink.clone());
        ctx.install_tracer(tracer.clone());
        let mut cv = toy(&ctx);
        let report = Autotuner::new().tune(&mut cv, &training_inputs()).unwrap();

        let events = sink.snapshot();
        let phase_names: std::collections::HashSet<&str> = events
            .iter()
            .filter(|e| e.cat == "tuning")
            .map(|e| e.name.as_str())
            .collect();
        for expected in [
            "phase:profiling",
            "phase:labeling",
            "phase:training",
            "phase:evaluation",
        ] {
            assert!(phase_names.contains(expected), "missing {expected}");
        }
        // One per-input profiling instant per training input, carrying
        // the ground-truth cost vector.
        let profile_events: Vec<_> = events
            .iter()
            .filter(|e| e.cat == "profile" && e.name == "profile:toy")
            .collect();
        assert_eq!(profile_events.len(), training_inputs().len());
        assert!(profile_events[0].args.iter().any(|(k, _)| k == "costs"));
        assert_eq!(
            tracer.metrics().counter("profile.toy.inputs"),
            Some(training_inputs().len() as u64)
        );
        for p in &report.phase_timings {
            let gauge = tracer
                .metrics()
                .gauge(&format!("tune.toy.{}_ns", p.phase))
                .unwrap_or_else(|| panic!("gauge for {}", p.phase));
            assert_eq!(gauge, p.wall_ns);
        }
        // The SVM final fit publishes its kernel-cache hit rate.
        let stats = report.svm_train_stats.expect("svm fit reports stats");
        let hit_rate = tracer
            .metrics()
            .gauge("ml.train.cache_hit_rate")
            .expect("hit-rate gauge");
        assert_eq!(hit_rate, stats.cache_hit_rate());
        assert!((0.0..=1.0).contains(&hit_rate));
        assert!(stats.kernel_evals > 0);
    }

    #[test]
    fn undersized_cache_budget_refuses_to_tune() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.policy_mut().classifier = ClassifierConfig::Svm {
            c: Some(10.0),
            gamma: Some(1.0),
            grid_search: false,
            cache_bytes: Some(8), // one f64: less than one kernel column
        };
        let err = Autotuner::new()
            .tune(&mut cv, &training_inputs())
            .unwrap_err();
        assert!(matches!(err, NitroError::Audit { .. }), "{err}");
        assert!(err.diagnostics().iter().any(|d| d.code == "NITRO061"));
        assert!(!cv.has_model());
    }

    #[test]
    fn incremental_tuning_reports_phase_timings_too() {
        let ctx = Context::new();
        let mut cv = toy(&ctx);
        cv.policy_mut().incremental = Some(StoppingCriterion::Iterations(4));
        let report = Autotuner::new().tune(&mut cv, &training_inputs()).unwrap();
        let names: Vec<&str> = report
            .phase_timings
            .iter()
            .map(|p| p.phase.as_str())
            .collect();
        assert!(names.contains(&"profiling"));
        assert!(names.contains(&"training"));
    }

    #[test]
    fn save_model_persists_through_context() {
        let dir = nitro_core::context::temp_model_dir("tuner-save").unwrap();
        let ctx = Context::with_model_dir(&dir);
        let mut cv = toy(&ctx);
        let tuner = Autotuner {
            save_model: true,
            ..Default::default()
        };
        tuner.tune(&mut cv, &training_inputs()).unwrap();
        assert!(ctx.model_path("toy").unwrap().exists());

        let mut fresh = toy(&ctx);
        fresh.load_model().unwrap();
        assert_eq!(fresh.call(&9.0).unwrap().variant, 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
