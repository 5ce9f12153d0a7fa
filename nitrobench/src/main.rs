//! Nitro tune-and-serve benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path nitrobench/Cargo.toml -- \
//!     --workload serve-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload sets up fixed collections, tunes, then serves the tuned
//! histogram model through a `ServeFront` on an open-loop schedule. With
//! `--trace 0` it prints every end-to-end metric; with `--trace 1` the
//! same work runs with the benchmark's own spans and variant timers and
//! it prints every per-layer metric. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Details
//! (sample counts, tails, fingerprints, spans) go to
//! `target/nitrobench/`. See `nitrobench/README.md`.

mod metrics;
mod serve;
mod stats;
mod suites;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use metrics::Report;
use suites::{AllSuites, AnySuite, Scale, Suite, TuneMode, HISTOGRAM};
use trace::Spans;

/// Open-loop rate of steady serving, requests/s: about a third of the
/// 1873 requests/s one shard sustained closed-loop on a 2-vCPU machine
/// (`--calibrate`).
const STEADY_RPS: f64 = 625.0;
/// Open-loop rate of overload serving: about 1.5× that capacity.
const OVERLOAD_RPS: f64 = 2_800.0;
/// Active-learning queries per suite in incremental tuning (Fig. 7).
const INCREMENTAL_QUERIES: usize = 50;

/// The workloads. Each sets up all five suites, tunes them in whole
/// passes, then serves the tuned histogram model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive tuning (Fig. 6), then steady serving.
    FullSteady,
    /// Incremental tuning (Fig. 7), then overload serving.
    IncrementalOverload,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "full-steady" => Self::FullSteady,
            "incremental-overload" => Self::IncrementalOverload,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::FullSteady => "full-steady",
            Self::IncrementalOverload => "incremental-overload",
        }
    }

    fn rate_rps(self) -> f64 {
        match self {
            Self::FullSteady => STEADY_RPS,
            Self::IncrementalOverload => OVERLOAD_RPS,
        }
    }

    /// Tuning passes per run, each over all five suites. An exhaustive
    /// pass takes about 3 s on a 2-vCPU machine, an incremental one about
    /// 10 s; repeated passes must reproduce each other bit for bit.
    fn passes(self) -> usize {
        match self {
            Self::FullSteady => 2,
            Self::IncrementalOverload => 1,
        }
    }

    fn mode(self, scale: Scale, seed: u64) -> TuneMode {
        match self {
            Self::FullSteady => TuneMode::Full,
            Self::IncrementalOverload => TuneMode::Incremental {
                iterations: match scale {
                    Scale::Paper => INCREMENTAL_QUERIES,
                    Scale::Small => 8,
                },
                seed,
            },
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    calibrate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        scale: Scale::Paper,
        calibrate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "paper" => Scale::Paper,
                    "small" => Scale::Small,
                    _ => return Err(bad("paper or small")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.calibrate {
        return Err("--workload <full-steady|incremental-overload> is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nitrobench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.calibrate {
        calibrate(&args)
    } else {
        run(&args, origin)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("nitrobench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Measure the closed-loop capacity of the serving front on this
/// machine (the basis of `STEADY_RPS` and `OVERLOAD_RPS`).
fn calibrate(args: &Args) -> Result<bool, String> {
    let mut spans = Spans::new(Instant::now());
    let mut hist = Suite::setup(&HISTOGRAM, args.scale, false, &mut spans);
    hist.tune(TuneMode::Full, &mut spans)?;
    let artifact = hist.cv.export_artifact().map_err(|e| e.to_string())?;
    let rate = serve::calibrate(&hist, artifact, args.seconds)?;
    println!(
        "sustained {rate:.0} requests/s closed-loop with {} shard(s), nproc {}",
        serve::shard_count(),
        metrics::nproc()
    );
    Ok(true)
}

/// This workload's recorded paper-scale fingerprints, if the record is
/// present (the run reads it from the checkout it runs in).
fn fingerprint_record(workload: Workload, scale: Scale) -> Option<serde_json::Value> {
    if scale != Scale::Paper {
        return None;
    }
    let text = std::fs::read_to_string("nitrobench/fingerprints.json").ok()?;
    let record: serde_json::Value = serde_json::from_str(&text).ok()?;
    record.get(workload.name()).cloned()
}

/// Run one workload; returns whether every check passed.
fn run(args: &Args, origin: Instant) -> Result<bool, String> {
    let workload = args.workload.expect("checked by parse_args");
    let mut spans = Spans::new(origin);

    // ---- Set-up: collections, registration, oracle profiling. -------
    let mut all = AllSuites::setup(args.scale, args.trace, &mut spans);
    let setup_s = origin.elapsed().as_secs_f64();

    // ---- Tuning: whole passes over every suite. -----------------------
    let mode = workload.mode(args.scale, args.seed);
    for _ in 0..workload.passes() {
        for s in all.iter_mut() {
            s.tune(mode, &mut spans)?;
        }
    }

    // ---- Serving the tuned histogram model for `--seconds`. ----------
    let hist = &all.histogram;
    let artifact = hist.cv.export_artifact().map_err(|e| e.to_string())?;
    let serve_span = spans.open("serve:phase", None);
    let served = serve::run(
        hist,
        artifact.clone(),
        workload.rate_rps(),
        args.seconds,
        args.seed,
        args.trace,
    )?;
    spans.close(serve_span);

    let suites: [&dyn AnySuite; 5] = [&all.spmv, &all.solvers, &all.bfs, hist, &all.sort];
    let mut report = Report::new(workload.name(), args.seed, args.trace, workload.rate_rps());
    report.setup(setup_s);
    report.tuning(&suites, fingerprint_record(workload, args.scale).as_ref());
    report.serving(hist, &served);
    if args.trace {
        let replay = metrics::replay(hist, &artifact, &served)?;
        report.layers(&suites, &served, &replay, &spans, origin);
    }
    report.peak_rss();
    report.finish(&spans)
}
