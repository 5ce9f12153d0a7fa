//! Turning a run's observations into named metrics, checking them, and
//! printing the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use nitro_bench::device;
use nitro_core::{Context, ModelArtifact};
use nitro_guard::{GuardPolicy, GuardedVariant};
use nitro_histogram::HistInput;
use nitro_serve::DegradeTier;
use serde_json::Value;

use crate::serve::{ServeRun, LIMIT_NS};
use crate::stats::{median, quantile, share, supports, Summary};
use crate::suites::{phase_s, AnySuite, Suite, Tuned, NAMES};
use crate::trace::{timed_wrapper_cost_ns, Spans};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("selection_quality", "fraction"),
    ("slo_attain", "fraction"),
    ("goodput_rps", "1/s"),
    ("served_quality", "fraction"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m = Vec::new();
    for s in NAMES {
        m.push((format!("suites.gen_s.{s}"), "s"));
    }
    for s in NAMES {
        m.push((format!("simt.exec_s.{s}"), "s"));
    }
    for s in NAMES {
        m.push((format!("simt.sim_ms.{s}"), "ms"));
    }
    let fixed: [(&str, &'static str); 38] = [
        ("simt.host_ns_per_sim_ns", "ns/ns"),
        ("simt.serve_exec_us", "us"),
        ("tuner.tune_s", "s"),
        ("tuner.profile_s", "s"),
        ("tuner.label_s", "s"),
        ("tuner.train_s", "s"),
        ("tuner.eval_s", "s"),
        ("tuner.oracle_s", "s"),
        ("tuner.profiled_cells", "count"),
        ("tuner.failed_share", "fraction"),
        ("tuner.iterations", "count"),
        ("tuner.profile_parallel_eff", "fraction"),
        ("ml.fits", "count"),
        ("ml.kernel_evals", "count"),
        ("ml.kernel_cache_hit_rate", "fraction"),
        ("ml.predict_us", "us"),
        ("core.features_us", "us"),
        ("core.select_us", "us"),
        ("guard.overhead_us", "us"),
        ("guard.fallback_share", "fraction"),
        ("serve.latency_ms.p50", "ms"),
        ("serve.latency_ms.p99", "ms"),
        ("serve.submit_us.p50", "us"),
        ("serve.submit_us.p99", "us"),
        ("serve.queue_wait_ms.p50", "ms"),
        ("serve.queue_wait_ms.p99", "ms"),
        ("serve.dispatch_ms.p50", "ms"),
        ("serve.dispatch_ms.p99", "ms"),
        ("serve.reject_share", "fraction"),
        ("serve.shed_share.expired", "fraction"),
        ("serve.shed_share.hopeless", "fraction"),
        ("serve.tier_share.cached", "fraction"),
        ("serve.tier_share.default", "fraction"),
        ("bench.sent", "count"),
        ("bench.gen_lag_ms.p99", "ms"),
        ("trace.overhead_share", "fraction"),
        ("trace.blocking_coverage.tune", "fraction"),
        ("trace.blocking_coverage.serve", "fraction"),
    ];
    m.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    m
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Closed-loop timings of single calls on served inputs, µs.
#[derive(Debug, Default)]
pub struct Replay {
    features_us: Vec<f64>,
    select_us: Vec<f64>,
    predict_us: Vec<f64>,
    guard_overhead_us: Vec<f64>,
}

/// Inputs replayed closed-loop in a traced run.
const REPLAY_INPUTS: usize = 300;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Replay the first served inputs through the dispatch layers one call
/// at a time: feature evaluation and `select` (core), `predict` (ml),
/// and `GuardedVariant::call` against `CodeVariant::call` (guard).
pub fn replay(
    hist: &Suite<HistInput>,
    artifact: &ModelArtifact,
    served: &ServeRun,
) -> Result<Replay, String> {
    let err = |e: nitro_core::NitroError| format!("replay: {e}");
    let fresh = || {
        let mut cv = nitro_histogram::build_code_variant(&Context::new(), &device());
        cv.install_artifact(artifact.clone()).map(|_| cv)
    };
    let mut plain = fresh().map_err(err)?;
    let guard = GuardedVariant::new(fresh().map_err(err)?, GuardPolicy::default()).map_err(err)?;
    let model = &artifact.model;
    let mut r = Replay::default();
    let inputs = served.served.iter().take(REPLAY_INPUTS).map(|s| s.input);
    // Warm-up: compiles the model's fast path once, outside the timings.
    if let Some(first) = served.served.first() {
        plain.call(&hist.test[first.input]).map_err(err)?;
        guard.call(&hist.test[first.input]).map_err(err)?;
    }
    for (k, idx) in inputs.enumerate() {
        let x = &hist.test[idx];
        let t = Instant::now();
        let (features, _) = std::hint::black_box(plain.evaluate_features(x));
        r.features_us.push(us_since(t));
        let t = Instant::now();
        std::hint::black_box(plain.select(&features));
        r.select_us.push(us_since(t));
        let t = Instant::now();
        std::hint::black_box(model.predict(&features));
        r.predict_us.push(us_since(t));
        // Alternate which call goes first, so warm caches favour neither.
        let mut time_plain = || {
            let t = Instant::now();
            plain.call(x).map(|_| us_since(t))
        };
        let time_guard = || {
            let t = Instant::now();
            guard.call(x).map(|_| us_since(t))
        };
        let (p, g) = if k % 2 == 0 {
            let p = time_plain().map_err(err)?;
            (p, time_guard().map_err(err)?)
        } else {
            let g = time_guard().map_err(err)?;
            (time_plain().map_err(err)?, g)
        };
        r.guard_overhead_us.push(g - p);
    }
    Ok(r)
}

/// The metrics, checks and details of one run.
pub struct Report {
    workload: &'static str,
    seed: u64,
    traced: bool,
    metrics: BTreeMap<String, (f64, &'static str)>,
    details: Vec<(String, String)>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, seed: u64, traced: bool, rate_rps: f64) -> Self {
        let mut r = Self {
            workload,
            seed,
            traced,
            metrics: BTreeMap::new(),
            details: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        r.detail("nproc", nproc().to_string());
        r.detail("offered_rps", rate_rps.to_string());
        r
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    fn detail(&mut self, key: &str, json: String) {
        self.details.push((key.to_string(), json));
    }

    fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
        self.checks.push((name.to_string(), ok));
    }

    /// `setup_s`: process start to the end of oracle profiling.
    pub fn setup(&mut self, setup_s: f64) {
        self.put("setup_s", setup_s, "s");
    }

    /// `tuner.tune_s` (median pass) and `selection_quality`, the
    /// fingerprints, and the tuning checks.
    ///
    /// `record` holds this workload's recorded fingerprints (see
    /// `fingerprints.json`); a difference is reported, not failed: a
    /// change that alters the simulation on purpose changes them.
    pub fn tuning(&mut self, suites: &[&dyn AnySuite], record: Option<&Value>) {
        let passes: Vec<f64> = (0..suites[0].passes().len())
            .map(|k| suites.iter().map(|s| s.passes()[k].tune_s).sum())
            .collect();
        self.put("tuner.tune_s", median(&passes), "s");
        self.detail("tune_s.passes", format!("{passes:?}"));
        let mut qualities = Vec::new();
        for s in suites {
            let all = s.passes();
            let t = all.last().expect("every suite was tuned");
            qualities.push(t.quality);
            self.attempted += all.len() as u64;
            self.check(
                &format!("{}.selection_quality_recomputes", s.name()),
                all.iter().all(|t| t.quality == t.quality_recomputed),
            );
            self.check(
                &format!("{}.passes_bit_identical", s.name()),
                all.iter().all(|p| {
                    (p.tables_hash, p.decisions_hash) == (t.tables_hash, t.decisions_hash)
                }),
            );
            self.detail(
                &format!("fingerprint.{}", s.name()),
                format!(
                    "{{\"tables\":\"{:016x}\",\"decisions\":\"{:016x}\"}}",
                    t.tables_hash, t.decisions_hash
                ),
            );
            self.detail(
                &format!("selection_quality.{}", s.name()),
                t.quality.to_string(),
            );
            eprintln!(
                "fingerprint {:<9} tables {:016x} decisions {:016x} quality {:.6}",
                s.name(),
                t.tables_hash,
                t.decisions_hash,
                t.quality,
            );
        }
        eprintln!("tuning passes (s): {passes:.3?}");
        let verdict = match record {
            None => "no record".to_string(),
            Some(rec) => {
                let differs: Vec<String> = suites
                    .iter()
                    .flat_map(|s| {
                        let t = s.passes().last().expect("tuned");
                        let got = [("tables", t.tables_hash), ("decisions", t.decisions_hash)];
                        got.into_iter().filter_map(move |(kind, hash)| {
                            let want = rec.get(s.name())?.get(kind)?.as_str()?;
                            (want != format!("{hash:016x}")).then(|| format!("{}.{kind}", s.name()))
                        })
                    })
                    .collect();
                if differs.is_empty() {
                    "matches record".to_string()
                } else {
                    format!("DIFFERS from record: {}", differs.join(", "))
                }
            }
        };
        eprintln!("fingerprints: {verdict}");
        self.detail("fingerprint_record", format!("\"{verdict}\""));
        self.put(
            "selection_quality",
            qualities.iter().sum::<f64>() / qualities.len() as f64,
            "fraction",
        );
    }

    /// The serving metrics and checks.
    pub fn serving(&mut self, hist: &Suite<HistInput>, run: &ServeRun) {
        let latency_ms: Vec<f64> = run
            .served
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect();
        let within = run
            .served
            .iter()
            .filter(|s| s.latency_ns <= LIMIT_NS)
            .count() as u64;
        let summary = Summary::of(&latency_ms)
            .map(|s| s.describe())
            .unwrap_or_default();
        let mut sorted = latency_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let windows = windows(run);
        let per_window =
            |q: f64| median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>());
        self.put("serve.latency_ms.p50", per_window(0.5), "ms");
        self.put("serve.latency_ms.p99", per_window(0.99), "ms");
        self.put("slo_attain", share(within, run.sent), "fraction");
        self.put("goodput_rps", within as f64 / run.window_s, "1/s");
        let table = &hist.test_table;
        let quality: f64 = run
            .served
            .iter()
            .map(|s| table.relative_perf(s.input, s.variant))
            .sum::<f64>()
            / run.served.len().max(1) as f64;
        self.put("served_quality", quality, "fraction");
        self.detail(
            "latency_ms",
            format!(
                "{{\"count\":{},\"p99\":{},\"window_p99_supported\":{},\"summary\":\"{}\"}}",
                sorted.len(),
                quantile(&sorted, 0.99),
                windows.iter().all(|w| supports(w.len(), 0.99)),
                summary
            ),
        );
        let window = |q: f64| {
            let v: Vec<String> = windows
                .iter()
                .map(|w| format!("{:.4}", quantile(w, q)))
                .collect();
            format!("[{}]", v.join(", "))
        };
        self.detail("latency_ms.window_p50", window(0.5));
        self.detail("latency_ms.window_p99", window(0.99));
        self.detail(
            "latency_ms.window_counts",
            format!("{:?}", windows.iter().map(Vec::len).collect::<Vec<_>>()),
        );
        let dispatch_ms: Vec<f64> = run
            .served
            .iter()
            .map(|s| s.dispatch_ns as f64 / 1e6)
            .collect();
        self.detail(
            "dispatch_ms",
            format!(
                "\"{}\"",
                Summary::of(&dispatch_ms)
                    .map(|s| s.describe())
                    .unwrap_or_default()
            ),
        );
        let rejected = run.rejected_tenant + run.rejected_queue + run.rejected_expired;
        self.detail(
            "requests",
            format!(
                "{{\"sent\":{},\"served\":{},\"within_limit\":{within},\"rejected_tenant\":{},\"rejected_queue\":{},\"rejected_expired\":{},\"shed_expired\":{},\"shed_hopeless\":{},\"shed_failover\":{},\"failed\":{},\"shards\":{}}}",
                run.sent,
                run.served.len(),
                run.rejected_tenant,
                run.rejected_queue,
                run.rejected_expired,
                run.shed_expired,
                run.shed_hopeless,
                run.shed_failover,
                run.failed,
                run.shards
            ),
        );
        eprintln!(
            "serve: sent {} served {} within {:.1} ms {} rejected {} shed {} failed {} · latency {}",
            run.sent,
            run.served.len(),
            LIMIT_NS as f64 / 1e6,
            within,
            rejected,
            run.shed_expired + run.shed_hopeless + run.shed_failover,
            run.failed,
            summary
        );
        self.attempted += run.sent;
        self.failed += run.failed;

        // Checks.
        self.check("serve.lineage_conserved", run.conservation.is_empty());
        self.check("serve.no_escaped_panics", run.escaped_panics == 0);
        let decisions_agree = run
            .served
            .iter()
            .filter(|s| s.tier == DegradeTier::Full && !s.fell_back)
            .all(|s| hist.cv.select(&table.features[s.input]) == Some(s.variant));
        self.check("serve.full_tier_decisions_match_select", decisions_agree);
        let objectives_agree = run
            .served
            .iter()
            .all(|s| s.objective.to_bits() == table.costs[s.input][s.variant].to_bits());
        self.check("serve.objectives_match_profile", objectives_agree);
        self.check("serve.sent_accounted", {
            let resolved = run.served.len() as u64
                + run.shed_expired
                + run.shed_hopeless
                + run.shed_failover
                + run.failed;
            resolved + rejected == run.sent
        });
    }

    /// The per-layer metrics of a traced run.
    pub fn layers(
        &mut self,
        suites: &[&dyn AnySuite],
        run: &ServeRun,
        replay: &Replay,
        spans: &Spans,
        origin: Instant,
    ) {
        // Simulator work of the set-up's oracle profiling plus one
        // tuning pass (the median pass's host time).
        let by_name = |name: &str| suites.iter().find(|s| s.name() == name);
        let (mut host_ns, mut sim_ps) = (0.0, 0u64);
        for name in NAMES {
            let s = by_name(name);
            let oracle = s.map(|s| s.oracle_cells()).unwrap_or_default();
            let pass_host = s.map_or(0.0, |s| {
                median(
                    &s.passes()
                        .iter()
                        .map(|p| p.train_cells.host_ns as f64)
                        .collect::<Vec<_>>(),
                )
            });
            let pass_sim = s.map_or(0, |s| s.passes().last().map_or(0, |p| p.train_cells.sim_ps));
            let exec_ns = oracle.host_ns as f64 + pass_host;
            host_ns += exec_ns;
            sim_ps += oracle.sim_ps + pass_sim;
            self.put(
                &format!("suites.gen_s.{name}"),
                s.map_or(0.0, |s| s.gen_s()),
                "s",
            );
            self.put(&format!("simt.exec_s.{name}"), exec_ns / 1e9, "s");
            self.put(
                &format!("simt.sim_ms.{name}"),
                sim_ps_to_ms(oracle.sim_ps + pass_sim),
                "ms",
            );
        }
        self.put(
            "simt.host_ns_per_sim_ns",
            host_ns / (sim_ps as f64 / 1e3).max(1.0),
            "ns/ns",
        );
        self.put(
            "simt.serve_exec_us",
            run.exec.host_ns as f64 / 1e3 / run.exec.cells.max(1) as f64,
            "us",
        );

        // Times: the median over passes of the per-pass total. Counts
        // repeat exactly from pass to pass; they come from the last one.
        let n_passes = suites[0].passes().len();
        let sum = |f: &dyn Fn(&Tuned) -> f64| {
            let totals: Vec<f64> = (0..n_passes)
                .map(|k| suites.iter().map(|s| f(&s.passes()[k])).sum())
                .collect();
            median(&totals)
        };
        let last = |f: &dyn Fn(&Tuned) -> f64| {
            suites
                .iter()
                .map(|s| f(s.passes().last().expect("tuned")))
                .sum::<f64>()
        };
        let profile_s = sum(&|t| t.profile_s);
        let tune_s = sum(&|t| t.tune_s);
        let label_s = sum(&|t| phase_s(&t.report, "labeling"));
        let train_s = sum(&|t| phase_s(&t.report, "training"));
        let eval_s = sum(&|t| phase_s(&t.report, "evaluation"));
        self.put("tuner.profile_s", profile_s, "s");
        self.put("tuner.label_s", label_s, "s");
        self.put("tuner.train_s", train_s, "s");
        self.put("tuner.eval_s", eval_s, "s");
        self.put(
            "tuner.oracle_s",
            suites.iter().map(|s| s.oracle_s()).sum(),
            "s",
        );
        self.put(
            "tuner.profiled_cells",
            last(&|t| t.profiled_cells as f64),
            "count",
        );
        self.put(
            "tuner.failed_share",
            share(
                last(&|t| t.train_cells.failures as f64) as u64,
                last(&|t| t.train_cells.cells as f64) as u64,
            ),
            "fraction",
        );
        self.put(
            "tuner.iterations",
            last(&|t| t.report.incremental_iterations as f64),
            "count",
        );
        self.put(
            "tuner.profile_parallel_eff",
            sum(&|t| t.train_cells.host_ns as f64 / 1e9) / (profile_s * nproc() as f64),
            "fraction",
        );

        // A full tune fits once; an incremental one once per query plus
        // the seed fit, each recorded in the model history.
        self.put(
            "ml.fits",
            last(&|t| t.report.model_history.len().max(1) as f64),
            "count",
        );
        let svm = suites
            .iter()
            .filter_map(|s| s.passes().last()?.report.svm_train_stats.as_ref());
        let (evals, hits, lookups) = svm.fold((0, 0, 0), |(e, h, l), s| {
            (
                e + s.kernel_evals,
                h + s.cache_hits,
                l + s.cache_hits + s.cache_misses,
            )
        });
        self.put("ml.kernel_evals", evals as f64, "count");
        self.put("ml.kernel_cache_hit_rate", share(hits, lookups), "fraction");
        self.put("ml.predict_us", median(&replay.predict_us), "us");
        self.put("core.features_us", median(&replay.features_us), "us");
        self.put("core.select_us", median(&replay.select_us), "us");
        self.put("guard.overhead_us", median(&replay.guard_overhead_us), "us");
        let served = run.served.len() as u64;
        let count = |f: &dyn Fn(&crate::serve::Served) -> bool| {
            run.served.iter().filter(|s| f(s)).count() as u64
        };
        self.put(
            "guard.fallback_share",
            share(count(&|s| s.fell_back), served),
            "fraction",
        );

        let tail = |xs: Vec<f64>| {
            let mut xs = xs;
            xs.sort_by(f64::total_cmp);
            (quantile(&xs, 0.5), quantile(&xs, 0.99))
        };
        let (p50, p99) = tail(run.submit_ns.iter().map(|&n| n as f64 / 1e3).collect());
        self.put("serve.submit_us.p50", p50, "us");
        self.put("serve.submit_us.p99", p99, "us");
        let (p50, p99) = tail(
            run.served
                .iter()
                .map(|s| s.queue_wait_ns as f64 / 1e6)
                .collect(),
        );
        self.put("serve.queue_wait_ms.p50", p50, "ms");
        self.put("serve.queue_wait_ms.p99", p99, "ms");
        let (p50, p99) = tail(
            run.served
                .iter()
                .map(|s| s.dispatch_ns as f64 / 1e6)
                .collect(),
        );
        self.put("serve.dispatch_ms.p50", p50, "ms");
        self.put("serve.dispatch_ms.p99", p99, "ms");
        let rejected = run.rejected_tenant + run.rejected_queue + run.rejected_expired;
        self.put("serve.reject_share", share(rejected, run.sent), "fraction");
        self.put(
            "serve.shed_share.expired",
            share(run.shed_expired, run.sent),
            "fraction",
        );
        self.put(
            "serve.shed_share.hopeless",
            share(run.shed_hopeless, run.sent),
            "fraction",
        );
        self.put(
            "serve.tier_share.cached",
            share(count(&|s| s.tier == DegradeTier::CachedRegime), served),
            "fraction",
        );
        self.put(
            "serve.tier_share.default",
            share(count(&|s| s.tier == DegradeTier::DefaultOnly), served),
            "fraction",
        );
        self.put("bench.sent", run.sent as f64, "count");
        let (_, lag_p99) = tail(run.gen_lag_ns.iter().map(|&n| n as f64 / 1e6).collect());
        self.put("bench.gen_lag_ms.p99", lag_p99, "ms");

        // Tracing cost: every timed cell paid one wrapper, measured on a
        // no-op variant; spans are few and coarse.
        let cells: u64 = suites.iter().map(|s| s.cells().cells).sum::<u64>() + run.exec.cells;
        let overhead_ns = cells as f64 * timed_wrapper_cost_ns();
        let wall_ns = origin.elapsed().as_nanos() as f64;
        self.put("trace.overhead_share", overhead_ns / wall_ns, "fraction");
        self.detail("trace.spans", spans.len().to_string());
        // Tuning: the share of tune time inside a measured phase.
        self.put(
            "trace.blocking_coverage.tune",
            (profile_s + label_s + train_s + eval_s) / tune_s,
            "fraction",
        );
        // Serving: the share of due-to-completion time spent late in the
        // generator, queued, or executing a variant; the rest is
        // features, predict, guard and reply bookkeeping.
        let latency: f64 = run.served.iter().map(|s| s.latency_ns as f64).sum();
        let dispatch: f64 = run.served.iter().map(|s| s.dispatch_ns as f64).sum();
        self.put(
            "trace.blocking_coverage.serve",
            (latency - dispatch + run.exec.host_ns as f64) / latency.max(1.0),
            "fraction",
        );
    }

    /// `peak_rss_mb`: the process's high-water resident set.
    pub fn peak_rss(&mut self) {
        let kb = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            })
            .unwrap_or(0.0);
        self.put("peak_rss_mb", kb / 1024.0, "MB");
    }

    /// Check the metric set, write the details, print the result line.
    /// Returns whether every check passed.
    pub fn finish(mut self, spans: &Spans) -> Result<bool, String> {
        let expected: Vec<(String, &str)> = if self.traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let complete = expected
            .iter()
            .all(|(n, u)| self.metrics.get(n).is_some_and(|m| m.1 == *u));
        self.check("metric_set_complete", complete);
        let finite = self.metrics.values().all(|m| m.0.is_finite());
        self.check("metrics_finite", finite);

        let mut line = String::new();
        for (name, _) in &expected {
            let Some((value, unit)) = self.metrics.get(name) else {
                continue;
            };
            if !line.is_empty() {
                line.push_str(", ");
            }
            let _ = write!(
                line,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        let correct = self.checks.iter().all(|c| c.1);
        self.write_details(spans, correct);
        for (name, _) in &expected {
            if let Some((v, u)) = self.metrics.get(name) {
                eprintln!("  {name:<34} {v:>16.6} {u}");
            }
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{line}}}}}",
            self.attempted, self.failed
        );
        Ok(correct)
    }

    fn write_details(&self, spans: &Spans, correct: bool) {
        let dir = std::path::Path::new("target/nitrobench");
        if std::fs::create_dir_all(dir).is_err() {
            eprintln!("note: cannot create {}; details not written", dir.display());
            return;
        }
        let stem = format!(
            "{}-seed{}-trace{}",
            self.workload,
            self.seed,
            u8::from(self.traced)
        );
        let mut json = format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"trace\": {},\n  \"correct\": {correct}",
            self.workload, self.seed, self.traced
        );
        for (k, v) in &self.details {
            let _ = write!(json, ",\n  \"{k}\": {v}");
        }
        json.push_str(",\n  \"checks\": {");
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(n, ok)| format!("\"{n}\": {ok}"))
            .collect();
        json.push_str(&checks.join(", "));
        json.push_str("},\n  \"metrics\": {");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, (v, u))| format!("\"{n}\": [{}, \"{u}\"]", json_num(*v)))
            .collect();
        json.push_str(&metrics.join(", "));
        json.push_str("}\n}\n");
        let write = |name: String, text: &str| {
            if let Err(e) = std::fs::write(dir.join(&name), text) {
                eprintln!("note: writing {name}: {e}");
            }
        };
        write(format!("{stem}.json"), &json);
        if self.traced {
            write(format!("{stem}.spans.jsonl"), &spans.to_jsonl());
        }
    }
}

/// Served requests a latency window should hold, so that its p99 has
/// ten samples beyond it.
const WINDOW_REQUESTS: f64 = 1000.0;

/// Served latencies (ms), sorted, in consecutive windows of due time:
/// whole seconds long, and long enough to hold [`WINDOW_REQUESTS`] at
/// the offered rate. A trailing partial window is dropped; a run shorter
/// than one window is a single window.
fn windows(run: &ServeRun) -> Vec<Vec<f64>> {
    let offered = run.sent as f64 / run.window_s;
    let window_ns = (WINDOW_REQUESTS / offered).ceil().max(1.0) as u64 * 1_000_000_000;
    let full = ((run.window_s * 1e9) as u64 / window_ns).max(1) as usize;
    let mut w: Vec<Vec<f64>> = vec![Vec::new(); full];
    for s in &run.served {
        let k = ((s.due_ns / window_ns) as usize).min(full);
        if k < full || full == 1 {
            w[k.min(full - 1)].push(s.latency_ns as f64 / 1e6);
        }
    }
    w.iter_mut().for_each(|x| x.sort_by(f64::total_cmp));
    w
}

fn sim_ps_to_ms(ps: u64) -> f64 {
    ps as f64 / 1e9
}

/// A finite number as JSON (non-finite values are caught by a check and
/// printed as 0 so the line still parses).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
