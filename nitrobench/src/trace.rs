//! The benchmark's own tracing: spans around its calls into each layer,
//! and a timing wrapper around registered variants. Everything is kept
//! in memory and written out when the run ends; nothing inside the
//! program under test is changed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nitro_core::{CodeVariant, Variant};

/// Counters filled by [`Timed`] variants: one per profiled or served
/// variant execution ("cell").
#[derive(Debug, Default)]
pub struct CellProbe {
    cells: AtomicU64,
    failures: AtomicU64,
    host_ns: AtomicU64,
    /// Simulated time of successful cells, in whole picoseconds. Each
    /// cell is rounded on its own, so the integer sum is exact and
    /// independent of the order threads add in.
    sim_ps: AtomicU64,
}

/// A snapshot of a [`CellProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellCounts {
    /// Variant executions.
    pub cells: u64,
    /// Executions that panicked or returned a non-finite objective.
    pub failures: u64,
    /// Host time spent inside the executions, ns.
    pub host_ns: u64,
    /// Simulated time of the successful executions, ps.
    pub sim_ps: u64,
}

impl CellProbe {
    /// Read the counters.
    pub fn snapshot(&self) -> CellCounts {
        CellCounts {
            cells: self.cells.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            host_ns: self.host_ns.load(Ordering::Relaxed),
            sim_ps: self.sim_ps.load(Ordering::Relaxed),
        }
    }
}

impl std::ops::Sub for CellCounts {
    type Output = CellCounts;

    fn sub(self, before: CellCounts) -> CellCounts {
        CellCounts {
            cells: self.cells - before.cells,
            failures: self.failures - before.failures,
            host_ns: self.host_ns - before.host_ns,
            sim_ps: self.sim_ps - before.sim_ps,
        }
    }
}

/// Records one cell when dropped, so a variant that panics is still
/// counted (as a failure) while the panic unwinds to the caller's
/// isolation boundary.
struct CellTimer<'a> {
    probe: &'a CellProbe,
    start: Instant,
    objective: f64,
}

impl Drop for CellTimer<'_> {
    fn drop(&mut self) {
        let p = self.probe;
        p.host_ns
            .fetch_add(self.start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        p.cells.fetch_add(1, Ordering::Relaxed);
        if std::thread::panicking() || !self.objective.is_finite() {
            p.failures.fetch_add(1, Ordering::Relaxed);
        } else {
            let ps = (self.objective.max(0.0) * 1000.0).round() as u64;
            p.sim_ps.fetch_add(ps, Ordering::Relaxed);
        }
    }
}

/// A registered variant wrapped to time its executions. It keeps the
/// inner variant's name, so models and tables are unchanged.
pub struct Timed<I: ?Sized> {
    inner: Arc<dyn Variant<I>>,
    probe: Arc<CellProbe>,
}

impl<I: ?Sized> Variant<I> for Timed<I> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn invoke(&self, input: &I) -> f64 {
        let mut timer = CellTimer {
            probe: &self.probe,
            start: Instant::now(),
            objective: f64::NAN,
        };
        timer.objective = self.inner.invoke(input);
        timer.objective
    }
}

/// Wrap every variant of `cv` in a [`Timed`] reporting to `probe`.
pub fn instrument<I: ?Sized + 'static>(cv: &mut CodeVariant<I>, probe: &Arc<CellProbe>) {
    for v in 0..cv.n_variants() {
        let inner = cv.variant(v).expect("index below n_variants");
        cv.replace_variant(
            v,
            Arc::new(Timed {
                inner,
                probe: probe.clone(),
            }),
        )
        .expect("index below n_variants");
    }
}

/// Host cost of one [`Timed`] wrapper around a no-op variant, ns: the
/// per-cell share of tracing overhead.
pub fn timed_wrapper_cost_ns() -> f64 {
    struct Noop;
    impl Variant<u64> for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn invoke(&self, input: &u64) -> f64 {
            *input as f64
        }
    }
    const CALLS: u64 = 200_000;
    let probe = Arc::new(CellProbe::default());
    let bare: Arc<dyn Variant<u64>> = Arc::new(Noop);
    let timed = Timed {
        inner: bare.clone(),
        probe,
    };
    let time = |v: &dyn Variant<u64>| {
        let start = Instant::now();
        for i in 0..CALLS {
            std::hint::black_box(v.invoke(std::hint::black_box(&i)));
        }
        start.elapsed().as_nanos() as f64
    };
    let (bare_ns, timed_ns) = (time(&*bare), time(&timed));
    ((timed_ns - bare_ns) / CALLS as f64).max(0.0)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`layer:operation`).
    pub name: String,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began (0 while open).
    pub end_ns: u64,
}

/// In-memory span log of one run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A log whose clock starts at `origin` (process start).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// Run `f` inside a span; returns its result and duration (s).
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines (`{"id","name","parent","start_ns","end_ns"}`).
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect()
    }
}

/// 64-bit FNV-1a, for fingerprints that must repeat bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in 8 bytes.
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in an `f64` by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{Context, FnVariant};

    #[test]
    fn timed_variants_count_cells_failures_and_simulated_time() {
        let ctx = Context::new();
        let mut cv: CodeVariant<f64> = CodeVariant::new("probe", &ctx);
        cv.add_variant(FnVariant::new("echo", |x: &f64| *x));
        cv.add_variant(FnVariant::new("boom", |_: &f64| -> f64 { panic!("boom") }));
        let probe = Arc::new(CellProbe::default());
        instrument(&mut cv, &probe);
        assert_eq!(cv.variant_names(), vec!["echo", "boom"]);
        assert_eq!(cv.try_run_variant(0, &1.5).unwrap(), 1.5);
        assert_eq!(cv.try_run_variant(0, &2.25).unwrap(), 2.25);
        assert!(cv.try_run_variant(0, &f64::INFINITY).is_err());
        assert!(cv.try_run_variant(1, &1.0).is_err());
        let c = probe.snapshot();
        assert_eq!(c.cells, 4);
        assert_eq!(c.failures, 2);
        assert_eq!(c.sim_ps, 3750);
    }

    #[test]
    fn fnv_distinguishes_order() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
