//! The five benchmark suites: fixed collections, registration, oracle
//! profiling, and the two tuning paths (exhaustive and incremental).

use std::sync::Arc;
use std::time::Instant;

use nitro_bench::{device, COLLECTION_SEED};
use nitro_core::{CodeVariant, Context, StoppingCriterion};
use nitro_simt::DeviceConfig;
use nitro_tuner::{evaluate_model, Autotuner, ProfileTable, TuneReport};

use crate::trace::{instrument, CellCounts, CellProbe, Fnv, Spans};

/// Collection size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's collection sizes.
    Paper,
    /// Miniature collections, for the smoke test.
    Small,
}

/// How a suite's collections and registration are made.
pub struct Recipe<I> {
    /// Suite name.
    pub name: &'static str,
    /// Paper-scale `(train, test)` collections from a collection seed.
    pub paper: fn(u64) -> (Vec<I>, Vec<I>),
    /// Miniature `(train, test)` collections.
    pub small: fn(u64) -> (Vec<I>, Vec<I>),
    /// The suite's registration.
    pub build: fn(&Context, &DeviceConfig) -> CodeVariant<I>,
}

/// Sparse matrix-vector multiply.
pub const SPMV: Recipe<nitro_sparse::SpmvInput> = Recipe {
    name: "spmv",
    paper: |s| {
        (
            nitro_sparse::collection::spmv_training_set(s),
            nitro_sparse::collection::spmv_test_set(s),
        )
    },
    small: nitro_sparse::collection::spmv_small_sets,
    build: nitro_sparse::build_code_variant,
};

/// Preconditioned Krylov solvers.
pub const SOLVERS: Recipe<nitro_solvers::SolverInput> = Recipe {
    name: "solvers",
    paper: |s| {
        (
            nitro_solvers::collection::solver_training_set(s),
            nitro_solvers::collection::solver_test_set(s),
        )
    },
    small: nitro_solvers::collection::solver_small_sets,
    build: nitro_solvers::variants::build_code_variant,
};

/// Breadth-first search.
pub const BFS: Recipe<nitro_graph::BfsInput> = Recipe {
    name: "bfs",
    paper: |s| {
        (
            nitro_graph::collection::bfs_training_set(s),
            nitro_graph::collection::bfs_test_set(s),
        )
    },
    small: nitro_graph::collection::bfs_small_sets,
    build: nitro_graph::build_code_variant,
};

/// Histogram.
pub const HISTOGRAM: Recipe<nitro_histogram::HistInput> = Recipe {
    name: "histogram",
    paper: |s| {
        (
            nitro_histogram::data::hist_training_set(s),
            nitro_histogram::data::hist_test_set(s),
        )
    },
    small: nitro_histogram::data::hist_small_sets,
    build: nitro_histogram::build_code_variant,
};

/// Sort.
pub const SORT: Recipe<nitro_sort::SortInput> = Recipe {
    name: "sort",
    paper: |s| {
        (
            nitro_sort::keys::sort_training_set(s),
            nitro_sort::keys::sort_test_set(s),
        )
    },
    small: nitro_sort::keys::sort_small_sets,
    build: nitro_sort::build_code_variant,
};

/// The suite names, in the paper's order.
pub const NAMES: [&str; 5] = ["spmv", "solvers", "bfs", "histogram", "sort"];

/// How to tune.
#[derive(Debug, Clone, Copy)]
pub enum TuneMode {
    /// Exhaustive profiling of every training input (Fig. 6).
    Full,
    /// BvSB active learning with a fixed query budget (Fig. 7); `seed`
    /// draws the initial sample.
    Incremental {
        /// Active-learning queries per suite.
        iterations: usize,
        /// Seed of the initial sample.
        seed: u64,
    },
}

/// What tuning one suite produced.
#[derive(Debug, Clone)]
pub struct Tuned {
    /// First profiling call on the training inputs to installed model, s.
    pub tune_s: f64,
    /// Profiling share of `tune_s`, s.
    pub profile_s: f64,
    /// The tuner's report (phase timings, SVM statistics).
    pub report: TuneReport,
    /// Mean relative performance of the model's test-set decisions
    /// against the oracle.
    pub quality: f64,
    /// The same, recomputed here from the tables.
    pub quality_recomputed: f64,
    /// Profiled training cells (inputs × variants).
    pub profiled_cells: u64,
    /// Cell counters of one repetition's training-set profiling (traced
    /// runs).
    pub train_cells: CellCounts,
    /// Hash of the profile tables' features and costs.
    pub tables_hash: u64,
    /// Hash of the model's decision sequence on the test set.
    pub decisions_hash: u64,
}

/// One suite, set up: collections, registration and oracle table.
pub struct Suite<I> {
    /// Suite name.
    pub name: &'static str,
    /// The registration (tuned in place).
    pub cv: CodeVariant<I>,
    /// Training inputs.
    pub train: Vec<I>,
    /// Held-out test inputs.
    pub test: Vec<I>,
    /// Exhaustive-search profile of the test inputs.
    pub test_table: ProfileTable,
    /// Collection generation time, s.
    pub gen_s: f64,
    /// Oracle (test-set) profiling time, s.
    pub oracle_s: f64,
    /// Cell counters, when traced.
    pub probe: Option<Arc<CellProbe>>,
    /// The oracle profiling's share of those counters.
    pub oracle_cells: CellCounts,
    /// Every tuning pass so far, in order.
    pub passes: Vec<Tuned>,
}

impl<I: Send + Sync + 'static> Suite<I> {
    /// Generate the collections from the fixed collection seed, register
    /// the suite and profile the test set. With `traced`, every variant
    /// is wrapped to count and time its executions.
    pub fn setup(recipe: &Recipe<I>, scale: Scale, traced: bool, spans: &mut Spans) -> Self {
        let name = recipe.name;
        let span = spans.open(format!("setup:{name}"), None);
        let gen = match scale {
            Scale::Paper => recipe.paper,
            Scale::Small => recipe.small,
        };
        let ((train, test), gen_s) = spans.time(format!("suites:gen:{name}"), Some(span), || {
            gen(COLLECTION_SEED)
        });
        let mut cv = (recipe.build)(&Context::new(), &device());
        let probe = traced.then(|| Arc::new(CellProbe::default()));
        if let Some(p) = &probe {
            instrument(&mut cv, p);
        }
        let (test_table, oracle_s) = spans.time(format!("tuner:oracle:{name}"), Some(span), || {
            ProfileTable::build(&cv, &test)
        });
        spans.close(span);
        let oracle_cells = probe.as_ref().map(|p| p.snapshot()).unwrap_or_default();
        Self {
            oracle_cells,
            name,
            cv,
            train,
            test,
            test_table,
            gen_s,
            oracle_s,
            probe,
            passes: Vec::new(),
        }
    }

    fn counts(&self) -> CellCounts {
        self.probe
            .as_ref()
            .map(|p| p.snapshot())
            .unwrap_or_default()
    }

    /// Tune the registration once more and evaluate the result on the
    /// test table; the outcome is appended to [`Suite::passes`].
    pub fn tune(&mut self, mode: TuneMode, spans: &mut Spans) -> Result<(), String> {
        let pass = self.tune_once(mode, spans)?;
        self.passes.push(pass);
        Ok(())
    }

    fn tune_once(&mut self, mode: TuneMode, spans: &mut Spans) -> Result<Tuned, String> {
        let name = self.name;
        let fail = |e: nitro_core::NitroError| format!("tuning {name}: {e}");
        let before = self.counts();
        let span = spans.open(format!("tuner:tune:{name}"), None);
        let started = Instant::now();
        let (report, profile_s, train_table) = match mode {
            TuneMode::Full => {
                let (table, profile_s) =
                    spans.time(format!("tuner:profile:{name}"), Some(span), || {
                        ProfileTable::build(&self.cv, &self.train)
                    });
                let (report, _) = spans.time(format!("tuner:fit:{name}"), Some(span), || {
                    Autotuner::new().tune_from_table(&mut self.cv, &table)
                });
                (report.map_err(fail)?, profile_s, Some(table))
            }
            TuneMode::Incremental { iterations, seed } => {
                self.cv.policy_mut().incremental = Some(StoppingCriterion::Iterations(iterations));
                let tuner = Autotuner {
                    seed,
                    ..Autotuner::new()
                };
                let (report, _) = spans.time(format!("tuner:itune:{name}"), Some(span), || {
                    tuner.tune_with_test(&mut self.cv, &self.train, &self.test_table)
                });
                let report = report.map_err(fail)?;
                let profile_s = phase_s(&report, "profiling");
                (report, profile_s, None)
            }
        };
        let tune_s = started.elapsed().as_secs_f64();
        spans.close(span);
        let train_cells = self.counts() - before;

        let model = self
            .cv
            .model()
            .ok_or_else(|| format!("tuning {name} installed no model"))?;
        let default = self.cv.default_variant();
        let quality = evaluate_model(&self.test_table, model, default).mean_relative_perf;
        let table = &self.test_table;
        let decisions: Vec<usize> = (0..table.len())
            .map(|i| {
                let pred = model
                    .predict(&table.features[i])
                    .min(table.n_variants() - 1);
                if table.allowed[i][pred] {
                    pred
                } else {
                    default.unwrap_or(0)
                }
            })
            .collect();

        let mut tables = Fnv::default();
        for t in train_table.iter().chain(std::iter::once(table)) {
            hash_table(&mut tables, t);
        }
        let mut dec = Fnv::default();
        for &d in &decisions {
            dec.u64(d as u64);
        }
        Ok(Tuned {
            tune_s,
            profile_s,
            quality,
            quality_recomputed: recomputed_quality(table, &decisions),
            profiled_cells: (report.profiled_inputs * self.cv.n_variants()) as u64,
            report,
            train_cells,
            tables_hash: tables.finish(),
            decisions_hash: dec.finish(),
        })
    }
}

/// Wall time of one tuner phase, s (0 when the phase did not run).
pub fn phase_s(report: &TuneReport, phase: &str) -> f64 {
    report
        .phase_timings
        .iter()
        .filter(|p| p.phase == phase)
        .map(|p| p.wall_ns / 1e9)
        .sum()
}

fn hash_table(h: &mut Fnv, t: &ProfileTable) {
    h.u64(t.len() as u64);
    for (features, costs) in t.features.iter().zip(&t.costs) {
        features.iter().for_each(|&x| h.f64(x));
        costs.iter().for_each(|&x| h.f64(x));
    }
}

/// Mean relative performance of `decisions`, from the table's costs
/// alone: the check on `evaluate_model`'s reported value.
fn recomputed_quality(t: &ProfileTable, decisions: &[usize]) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for (i, &d) in decisions.iter().enumerate() {
        let Some(best) = t.best_cost(i) else { continue };
        let c = t.costs[i][d];
        sum += if c == t.objective.worst() || c.is_nan() {
            0.0
        } else {
            t.objective.relative(c, best)
        };
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// A suite of any input type, for loops over all five.
pub trait AnySuite {
    /// Suite name.
    fn name(&self) -> &'static str;
    /// See [`Suite::tune`].
    fn tune(&mut self, mode: TuneMode, spans: &mut Spans) -> Result<(), String>;
    /// Every tuning pass so far, in order.
    fn passes(&self) -> &[Tuned];
    /// Collection generation time, s.
    fn gen_s(&self) -> f64;
    /// Oracle profiling time, s.
    fn oracle_s(&self) -> f64;
    /// Cell counters over the whole run so far (traced runs).
    fn cells(&self) -> CellCounts;
    /// Cell counters of the oracle profiling (traced runs).
    fn oracle_cells(&self) -> CellCounts;
}

impl<I: Send + Sync + 'static> AnySuite for Suite<I> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn tune(&mut self, mode: TuneMode, spans: &mut Spans) -> Result<(), String> {
        Suite::tune(self, mode, spans)
    }
    fn passes(&self) -> &[Tuned] {
        &self.passes
    }
    fn gen_s(&self) -> f64 {
        self.gen_s
    }
    fn oracle_s(&self) -> f64 {
        self.oracle_s
    }
    fn cells(&self) -> CellCounts {
        self.counts()
    }
    fn oracle_cells(&self) -> CellCounts {
        self.oracle_cells
    }
}

/// All five suites, set up.
pub struct AllSuites {
    /// SpMV.
    pub spmv: Suite<nitro_sparse::SpmvInput>,
    /// Solvers.
    pub solvers: Suite<nitro_solvers::SolverInput>,
    /// BFS.
    pub bfs: Suite<nitro_graph::BfsInput>,
    /// Histogram (also the served suite).
    pub histogram: Suite<nitro_histogram::HistInput>,
    /// Sort.
    pub sort: Suite<nitro_sort::SortInput>,
}

impl AllSuites {
    /// Set up every suite, in the paper's order.
    pub fn setup(scale: Scale, traced: bool, spans: &mut Spans) -> Self {
        Self {
            spmv: Suite::setup(&SPMV, scale, traced, spans),
            solvers: Suite::setup(&SOLVERS, scale, traced, spans),
            bfs: Suite::setup(&BFS, scale, traced, spans),
            histogram: Suite::setup(&HISTOGRAM, scale, traced, spans),
            sort: Suite::setup(&SORT, scale, traced, spans),
        }
    }

    /// The suites as trait objects, in the paper's order.
    pub fn iter_mut(&mut self) -> [&mut dyn AnySuite; 5] {
        [
            &mut self.spmv,
            &mut self.solvers,
            &mut self.bfs,
            &mut self.histogram,
            &mut self.sort,
        ]
    }
}
