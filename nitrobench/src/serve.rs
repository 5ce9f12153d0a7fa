//! The serving phase: an open-loop generator drives a [`ServeFront`]
//! serving the tuned histogram model on the histogram test inputs.
//!
//! One generator thread (the caller's) sends on a fixed schedule; a
//! collector thread waits on the tickets. Every request carries a
//! deadline budget equal to the latency limit, and its latency runs from
//! the time it was due to be sent to its completion, so a stalled
//! generator charges its lateness to the requests behind it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nitro_bench::{device, ZipfSampler};
use nitro_core::{Context, ModelArtifact, Priority, RequestMeta, TenantId};
use nitro_guard::GuardPolicy;
use nitro_histogram::HistInput;
use nitro_pulse::PulseRegistry;
use nitro_serve::{DegradeTier, Rejection, ServeClock, ServeConfig, ServeFront, ServeOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::suites::Suite;
use crate::trace::{instrument, CellCounts, CellProbe};

/// Latency limit and per-request deadline budget, ns.
pub const LIMIT_NS: u64 = 10_000_000;

/// Zipf-ranked tenants.
const TENANTS: usize = 16;

/// One served request, as measured from outside the front.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Index into the histogram test inputs.
    pub input: usize,
    /// When it was due to be sent, ns after the schedule began.
    pub due_ns: u64,
    /// Due-to-completion latency, ns.
    pub latency_ns: u64,
    /// Admission to dequeue, ns.
    pub queue_wait_ns: u64,
    /// Dequeue to completion, ns.
    pub dispatch_ns: u64,
    /// Variant that ran.
    pub variant: usize,
    /// Objective it returned.
    pub objective: f64,
    /// Degrade tier it was served at.
    pub tier: DegradeTier,
    /// Whether the guarded cascade fell back past its first choice.
    pub fell_back: bool,
}

/// Everything the serving phase observed.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Requests sent.
    pub sent: u64,
    /// Length of the send schedule, s.
    pub window_s: f64,
    /// Served requests.
    pub served: Vec<Served>,
    /// Rejected at the door: tenant throttled.
    pub rejected_tenant: u64,
    /// Rejected at the door: queues over their watermark or no live shard.
    pub rejected_queue: u64,
    /// Rejected at the door: deadline already passed.
    pub rejected_expired: u64,
    /// Shed at dequeue: deadline passed while queued.
    pub shed_expired: u64,
    /// Shed at dequeue: remaining budget below the service estimate.
    pub shed_hopeless: u64,
    /// Shed while failing over off a dead shard.
    pub shed_failover: u64,
    /// Dispatch failed or quarantined.
    pub failed: u64,
    /// Generator lateness per request (send time − due time), ns.
    pub gen_lag_ns: Vec<u64>,
    /// Duration of each `submit` call, ns.
    pub submit_ns: Vec<u64>,
    /// Shards the front ran.
    pub shards: usize,
    /// Panics that escaped a shard's guarded dispatch.
    pub escaped_panics: u64,
    /// Conservation-ledger violations at shutdown (empty when conserved).
    pub conservation: Vec<String>,
    /// Variant executions inside the front (traced runs).
    pub exec: CellCounts,
}

/// Shards for this machine: one per hardware thread, less the
/// generator's.
pub fn shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .saturating_sub(1)
        .max(1)
}

/// An admitted request's identity and send times.
struct Sent {
    input: usize,
    due_ns: u64,
    sent_ns: u64,
}

/// Serve `artifact` on the histogram test inputs at `rate_rps` for
/// `seconds`. The seed draws inputs, tenants and priorities.
pub fn run(
    hist: &Suite<HistInput>,
    artifact: ModelArtifact,
    rate_rps: f64,
    seconds: f64,
    seed: u64,
    traced: bool,
) -> Result<ServeRun, String> {
    let shards = shard_count();
    let config = ServeConfig {
        shards,
        default_budget_ns: LIMIT_NS,
        ..ServeConfig::default()
    };
    let probe = traced.then(|| Arc::new(CellProbe::default()));
    let factory_probe = probe.clone();
    let registry = PulseRegistry::new();
    let clock = ServeClock::wall();
    let front = ServeFront::start(
        config,
        GuardPolicy::default(),
        clock.clone(),
        Some(&registry),
        move |_| {
            let mut cv = nitro_histogram::build_code_variant(&Context::new(), &device());
            if let Some(p) = &factory_probe {
                instrument(&mut cv, p);
            }
            cv
        },
    )
    .map_err(|e| format!("starting the front: {e}"))?;
    front.publish_artifact(artifact);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut tenants = ZipfSampler::new(TENANTS, 1.1, seed ^ 0x7E4A_4E75);
    let gap_ns = (1e9 / rate_rps) as u64;
    let n = (seconds * rate_rps).round().max(1.0) as u64;
    let mut out = ServeRun {
        sent: n,
        window_s: (n * gap_ns) as f64 / 1e9,
        shards,
        ..ServeRun::default()
    };

    // Tickets resolve through their own one-slot channels, so they can
    // all be waited on after the schedule ends: no collector thread
    // competes with the generator and the shards during the window.
    let mut pending = Vec::with_capacity(n as usize);
    let origin = Instant::now();
    let origin_ns = clock.now_ns();
    for i in 0..n {
        let input = rng.random_range(0..hist.test.len());
        let payload = hist.test[input].clone();
        let tenant = TenantId(tenants.next_rank() as u32);
        let priority = match rng.random_range(0..4u32) {
            0 => Priority::Interactive,
            3 => Priority::Batch,
            _ => Priority::Standard,
        };
        wait_until(origin, Duration::from_nanos(i * gap_ns));
        let due_ns = origin_ns + i * gap_ns;
        let meta = RequestMeta::new(tenant, priority, due_ns, LIMIT_NS);
        let sent_ns = clock.now_ns();
        let result = front.submit(payload, meta);
        out.submit_ns.push(clock.now_ns() - sent_ns);
        out.gen_lag_ns.push(sent_ns.saturating_sub(due_ns));
        match result {
            Ok(ticket) => pending.push((
                ticket,
                Sent {
                    input,
                    due_ns,
                    sent_ns,
                },
            )),
            Err(Rejection::TenantThrottled) => out.rejected_tenant += 1,
            Err(Rejection::DeadlineExpired) => out.rejected_expired += 1,
            Err(Rejection::QueueFull { .. } | Rejection::NoLiveShards) => out.rejected_queue += 1,
        }
    }
    for (ticket, p) in pending {
        match ticket.wait() {
            ServeOutcome::Served {
                variant,
                objective,
                tier,
                queue_wait_ns,
                dispatch_ns,
                fell_back,
                ..
            } => out.served.push(Served {
                input: p.input,
                due_ns: p.due_ns - origin_ns,
                // Admission reads the clock as `submit` starts, so the
                // completion time is the send time plus both waits.
                latency_ns: (p.sent_ns + queue_wait_ns + dispatch_ns).saturating_sub(p.due_ns),
                queue_wait_ns,
                dispatch_ns,
                variant,
                objective,
                tier,
                fell_back,
            }),
            ServeOutcome::ShedExpired { .. } => out.shed_expired += 1,
            ServeOutcome::ShedHopeless { .. } => out.shed_hopeless += 1,
            ServeOutcome::ShedFailover { .. } => out.shed_failover += 1,
            ServeOutcome::Failed { .. } | ServeOutcome::Quarantined { .. } => out.failed += 1,
        }
    }

    let summary = front.shutdown();
    out.escaped_panics = summary.escaped_panics;
    out.conservation = summary.accounting.violations();
    out.exec = probe.map(|p| p.snapshot()).unwrap_or_default();
    Ok(out)
}

/// Sleep until `SPIN` before `due` (measured from `origin`), then
/// spin: a sleeping thread wakes up to milliseconds late on a busy
/// machine, and that lateness would count against every request sent.
fn wait_until(origin: Instant, due: Duration) {
    const SPIN: Duration = Duration::from_micros(500);
    let ahead = due.saturating_sub(origin.elapsed());
    if ahead > SPIN {
        std::thread::sleep(ahead - SPIN);
    }
    while origin.elapsed() < due {
        std::hint::spin_loop();
    }
}

/// Closed-loop capacity probe: keep `IN_FLIGHT` requests outstanding
/// for `seconds` and return the served rate (requests/s). Used once per
/// machine to fix the open-loop rates.
pub fn calibrate(
    hist: &Suite<HistInput>,
    artifact: ModelArtifact,
    seconds: f64,
) -> Result<f64, String> {
    const IN_FLIGHT: usize = 4;
    let clock = ServeClock::wall();
    let front = ServeFront::start(
        ServeConfig {
            shards: shard_count(),
            ..ServeConfig::default()
        },
        GuardPolicy::default(),
        clock.clone(),
        None,
        |_| nitro_histogram::build_code_variant(&Context::new(), &device()),
    )
    .map_err(|e| format!("starting the front: {e}"))?;
    front.publish_artifact(artifact);
    let submit = |i: usize| {
        let meta = RequestMeta::new(
            TenantId((i % TENANTS) as u32),
            Priority::Standard,
            clock.now_ns(),
            1_000_000_000,
        );
        front
            .submit(hist.test[i % hist.test.len()].clone(), meta)
            .map_err(|e| format!("calibration request refused: {e}"))
    };
    let mut queue: std::collections::VecDeque<_> =
        (0..IN_FLIGHT).map(submit).collect::<Result<_, _>>()?;
    let started = Instant::now();
    let mut served = 0u64;
    let mut i = IN_FLIGHT;
    while started.elapsed().as_secs_f64() < seconds {
        let ticket = queue.pop_front().expect("IN_FLIGHT tickets outstanding");
        if matches!(ticket.wait(), ServeOutcome::Served { .. }) {
            served += 1;
        }
        queue.push_back(submit(i)?);
        i += 1;
    }
    let rate = served as f64 / started.elapsed().as_secs_f64();
    queue.into_iter().for_each(|t| drop(t.wait()));
    front.shutdown();
    Ok(rate)
}
