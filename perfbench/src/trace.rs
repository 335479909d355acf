//! Span recording from outside the library: a [`SamplerBackend`] wrapper
//! and a [`Communicator`] wrapper, both pure delegation plus timestamps.
//!
//! The traced engine is assembled exactly as the library assembles its
//! own sampler, with the two wrappers slotted in:
//! `ReservoirProtocol::new(TracedBackend::new(CommBackend::new(&tracing_comm, &cfg), ..), cfg)`.
//! Neither wrapper touches randomness or message contents, so a traced
//! run draws the same sample as an untraced one (the benchmark checks it).
//!
//! Spans live in memory and are written out when the run ends.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use reservoir_btree::SampleKey;
use reservoir_comm::{CommStats, Communicator};
use reservoir_core::dist::engine::{Charge, InsertOutcome, Placement, SamplerBackend};
use reservoir_core::dist::threaded::CommBackend;
use reservoir_core::dist::SamplingMode;
use reservoir_core::metrics::PhaseTimes;
use reservoir_core::SampleItem;
use reservoir_rng::DefaultRng;
use reservoir_select::{SelectResult, TargetRank};
use reservoir_stream::Item;

use crate::input;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The phase slot the engine billed the call to, where it names one.
    pub charge: Option<Charge>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or [`ROOT`].
    pub parent: u32,
    /// Mini-batch (or window) the span belongs to.
    pub batch: u64,
    /// A span-specific count: selection rounds for `select`, collective
    /// launches for `count`, items for `insert`.
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One PE's span store: an append-only list plus the stack of open spans.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    /// Batch id stamped on new spans.
    pub batch: u64,
    /// Engine steps seen so far (the next step's batch id).
    steps: u64,
}

pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn shared(origin: Instant) -> SharedRecorder {
        Rc::new(RefCell::new(Recorder {
            origin,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            batch: 0,
            steps: 0,
        }))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, charge: Option<Charge>) -> u32 {
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            charge,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(ROOT),
            batch: self.batch,
            work: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Forget every span and restart the step count (after a warm-up).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clearing with spans open");
        self.spans.clear();
        self.steps = 0;
        self.batch = 0;
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: u32, work: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        span.work = work;
    }

    /// Close the open span named `name` (and must be innermost).
    pub fn close_named(&mut self, name: &str) {
        if let Some(&idx) = self.open.last() {
            if self.spans[idx as usize].name == name {
                self.close(idx, 0);
            }
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(rec: &SharedRecorder, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = rec.borrow_mut().open(name, None);
        let out = f();
        rec.borrow_mut().close(idx, 0);
        out
    }
}

/// Delegating [`Communicator`] that counts collective launches and the
/// time spent blocked in `recv_raw` waiting on peers.
pub struct TracingComm<C: Communicator> {
    inner: C,
    launches: Cell<u64>,
    wait: Cell<Duration>,
}

/// A point-in-time reading of a [`TracingComm`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommReading {
    pub launches: u64,
    pub wait_s: f64,
    pub stats: CommStats,
}

impl CommReading {
    pub fn since(self, earlier: CommReading) -> CommReading {
        CommReading {
            launches: self.launches - earlier.launches,
            wait_s: self.wait_s - earlier.wait_s,
            stats: self.stats.since(earlier.stats),
        }
    }
}

impl<C: Communicator> TracingComm<C> {
    pub fn new(inner: C) -> Self {
        TracingComm {
            inner,
            launches: Cell::new(0),
            wait: Cell::new(Duration::ZERO),
        }
    }

    /// The wrapped endpoint, for collectives the benchmark itself issues
    /// (barriers), which must not count against the sampler.
    pub fn raw(&self) -> &C {
        &self.inner
    }

    pub fn reading(&self) -> CommReading {
        CommReading {
            launches: self.launches.get(),
            wait_s: self.wait.get().as_secs_f64(),
            stats: self.inner.stats(),
        }
    }
}

impl<C: Communicator> Communicator for TracingComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_raw(&self, to: usize, tag: u64, msg: Box<dyn std::any::Any + Send>, words: u64) {
        self.inner.send_raw(to, tag, msg, words)
    }

    fn recv_raw(&self, from: usize, tag: u64) -> Box<dyn std::any::Any + Send> {
        let t0 = Instant::now();
        let msg = self.inner.recv_raw(from, tag);
        self.wait.set(self.wait.get() + t0.elapsed());
        msg
    }

    fn record(&self, messages: u64, words: u64) {
        self.inner.record(messages, words)
    }

    fn next_collective_seq(&self) -> u64 {
        self.launches.set(self.launches.get() + 1);
        self.inner.next_collective_seq()
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
}

/// Exact per-batch work counters gathered by [`TracedBackend`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchCounts {
    /// Records offered to the scan.
    pub items: u64,
    pub inserted: u64,
    pub jumps: u64,
    /// Inserts of this batch still held after the batch's prune.
    pub kept: u64,
    pub select_calls: u64,
    pub select_rounds: u64,
    /// Shards that stepped (fleet only).
    pub active: u64,
    pub comm: CommReading,
    /// Seconds inside the scan and inside batch-step selections.
    pub insert_s: f64,
    pub select_s: f64,
    /// Timing-dependent: parallel-scan steals and OS thread spawns.
    pub steals: u64,
    pub spawns: u64,
    /// Program-reported parallel-scan timing (`CommBackend::last_par_scan`).
    pub par_busy_max_s: f64,
    pub par_busy_mean_s: f64,
    pub par_merge_s: f64,
}

/// Delegating [`SamplerBackend`] that records a span around every
/// protocol step the engine drives, tagged with the [`Charge`] it was
/// billed to, and keeps exact per-batch counters.
///
/// The enclosing `engine.step` span opens at `insert` and closes at
/// [`Self::end_step`] (called by the benchmark loop after `step`, or implicitly
/// by the pipeline's next `vote`); `engine.output` brackets an output
/// collection from its `count` to its `place`.
pub struct TracedBackend<'a, C: Communicator> {
    inner: CommBackend<'a, TracingComm<C>>,
    rec: SharedRecorder,
    pub batches: Vec<BatchCounts>,
    step_start: Option<CommReading>,
    /// Batch tag ([`input::batch_tag`]) of the current batch's ids.
    batch_tag: Option<u64>,
    /// Scratch for the kept probe's copy of the reservoir.
    probe_buf: Vec<SampleItem>,
}

impl<'a, C: Communicator> TracedBackend<'a, C> {
    pub fn new(inner: CommBackend<'a, TracingComm<C>>, rec: SharedRecorder) -> Self {
        TracedBackend {
            inner,
            rec,
            batches: Vec::new(),
            step_start: None,
            batch_tag: None,
            probe_buf: Vec::new(),
        }
    }

    fn span<R>(
        &mut self,
        name: &'static str,
        charge: Option<Charge>,
        f: impl FnOnce(&mut Self) -> (R, u64),
    ) -> R {
        let idx = self.rec.borrow_mut().open(name, charge);
        let (out, work) = f(self);
        self.rec.borrow_mut().close(idx, work);
        out
    }

    /// Duration of the most recently recorded span (a leaf just closed).
    fn last_span_s(&self) -> f64 {
        let rec = self.rec.borrow();
        rec.spans.last().map_or(0.0, |s| s.dur_ns() as f64 * 1e-9)
    }

    /// Close the current `engine.step` span, then count how many of the
    /// batch's inserts survived its prune (outside the step span, as a
    /// `trace.probe` span the analysis discounts).
    pub fn end_step(&mut self) {
        let Some(start) = self.step_start.take() else {
            return;
        };
        let reading = self.inner.comm().reading();
        self.rec.borrow_mut().close_named("engine.step");
        let probe = self.rec.borrow_mut().open("trace.probe", None);
        let mut times = PhaseTimes::default();
        self.inner
            .local_items_le(None, &mut self.probe_buf, &mut times);
        let kept = match self.batch_tag {
            Some(tag) => self
                .probe_buf
                .iter()
                .filter(|m| input::batch_tag(m.id) == tag)
                .count() as u64,
            None => 0,
        };
        self.rec.borrow_mut().close(probe, 0);
        let b = self
            .batches
            .last_mut()
            .expect("a step opened a batch record");
        b.kept = kept;
        b.comm = reading.since(start);
    }
}

impl<C: Communicator> SamplerBackend for TracedBackend<'_, C> {
    fn insert(
        &mut self,
        mode: SamplingMode,
        items: &[Item],
        threshold: Option<SampleKey>,
        times: &mut PhaseTimes,
    ) -> InsertOutcome {
        self.end_step();
        {
            let mut rec = self.rec.borrow_mut();
            rec.batch = rec.steps;
            rec.steps += 1;
            rec.open("engine.step", None);
        }
        self.step_start = Some(self.inner.comm().reading());
        self.batch_tag = items.first().map(|it| input::batch_tag(it.id));
        let outcome = self.span("insert", None, |s| {
            let o = s.inner.insert(mode, items, threshold, times);
            (o, items.len() as u64)
        });
        let mut b = BatchCounts {
            items: items.len() as u64,
            insert_s: self.last_span_s(),
            inserted: outcome.stats.inserted,
            jumps: outcome.stats.jumps,
            steals: outcome.stats.steals,
            spawns: outcome.stats.spawns,
            ..BatchCounts::default()
        };
        if let Some(par) = self.inner.last_par_scan() {
            let n = par.worker_scan_s.len().max(1) as f64;
            b.par_busy_max_s = par.max_worker_scan_s();
            b.par_busy_mean_s = par.worker_scan_s.iter().sum::<f64>() / n;
            b.par_merge_s = par.merge_s;
        }
        self.batches.push(b);
        outcome
    }

    fn count(&mut self, times: &mut PhaseTimes, charge: Charge) -> u64 {
        let in_step = self.step_start.is_some();
        if !in_step && charge == Charge::Output {
            self.rec.borrow_mut().open("engine.output", None);
        }
        self.span("count", Some(charge), |s| {
            let l0 = s.inner.comm().reading().launches;
            let u = s.inner.count(times, charge);
            (u, s.inner.comm().reading().launches - l0)
        })
    }

    fn select(
        &mut self,
        target: TargetRank,
        union: u64,
        pivots: usize,
        times: &mut PhaseTimes,
        charge: Charge,
    ) -> SelectResult {
        let res = self.span("select", Some(charge), |s| {
            let r = s.inner.select(target, union, pivots, times, charge);
            (r, r.rounds as u64)
        });
        if charge == Charge::Select {
            let dt = self.last_span_s();
            if let Some(b) = self.batches.last_mut() {
                b.select_calls += 1;
                b.select_rounds += res.rounds as u64;
                b.select_s += dt;
            }
        }
        res
    }

    fn prune(&mut self, t: &SampleKey, times: &mut PhaseTimes, charge: Charge) {
        self.span("prune", Some(charge), |s| {
            (s.inner.prune(t, times, charge), 0)
        })
    }

    fn place(&mut self, local: u64, times: &mut PhaseTimes) -> Placement {
        let p = self.span("place", Some(Charge::Output), |s| {
            (s.inner.place(local, times), 0)
        });
        if self.step_start.is_none() {
            self.rec.borrow_mut().close_named("engine.output");
        }
        p
    }

    fn local_len(&self) -> u64 {
        self.inner.local_len()
    }

    fn local_count_le(&self, t: &SampleKey) -> u64 {
        self.inner.local_count_le(t)
    }

    fn local_items_le(
        &self,
        t: Option<&SampleKey>,
        buf: &mut Vec<SampleItem>,
        times: &mut PhaseTimes,
    ) {
        let idx = self.rec.borrow_mut().open("extract", Some(Charge::Output));
        self.inner.local_items_le(t, buf, times);
        self.rec.borrow_mut().close(idx, buf.len() as u64);
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn select_rng_state(&self) -> Vec<DefaultRng> {
        self.inner.select_rng_state()
    }

    fn restore_select_rng(&mut self, state: Vec<DefaultRng>) {
        self.inner.restore_select_rng(state)
    }

    fn vote(&mut self, active: u64) -> u64 {
        self.end_step();
        let idx = self.rec.borrow_mut().open("vote", None);
        let v = self.inner.vote(active);
        self.rec.borrow_mut().close(idx, 0);
        v
    }
}

/// Delegating [`SamplerBackend`] that only clocks mini-batch steps inside
/// a pipeline drain, where the benchmark loop cannot time `step` itself: a step
/// runs from its `insert` to the drain's next `vote`. No spans, no probes.
pub struct StepClock<B> {
    inner: B,
    start: Option<Instant>,
    pub steps_s: Vec<f64>,
}

impl<B: SamplerBackend> StepClock<B> {
    pub fn new(inner: B) -> Self {
        StepClock {
            inner,
            start: None,
            steps_s: Vec::new(),
        }
    }

    fn end_step(&mut self) {
        if let Some(t0) = self.start.take() {
            self.steps_s.push(t0.elapsed().as_secs_f64());
        }
    }
}

impl<B: SamplerBackend> SamplerBackend for StepClock<B> {
    fn insert(
        &mut self,
        mode: SamplingMode,
        items: &[Item],
        threshold: Option<SampleKey>,
        times: &mut PhaseTimes,
    ) -> InsertOutcome {
        self.end_step();
        self.start = Some(Instant::now());
        self.inner.insert(mode, items, threshold, times)
    }

    fn count(&mut self, times: &mut PhaseTimes, charge: Charge) -> u64 {
        self.inner.count(times, charge)
    }

    fn select(
        &mut self,
        target: TargetRank,
        union: u64,
        pivots: usize,
        times: &mut PhaseTimes,
        charge: Charge,
    ) -> SelectResult {
        self.inner.select(target, union, pivots, times, charge)
    }

    fn prune(&mut self, t: &SampleKey, times: &mut PhaseTimes, charge: Charge) {
        self.inner.prune(t, times, charge)
    }

    fn place(&mut self, local: u64, times: &mut PhaseTimes) -> Placement {
        self.inner.place(local, times)
    }

    fn local_len(&self) -> u64 {
        self.inner.local_len()
    }

    fn local_count_le(&self, t: &SampleKey) -> u64 {
        self.inner.local_count_le(t)
    }

    fn local_items_le(
        &self,
        t: Option<&SampleKey>,
        buf: &mut Vec<SampleItem>,
        times: &mut PhaseTimes,
    ) {
        self.inner.local_items_le(t, buf, times)
    }

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn select_rng_state(&self) -> Vec<DefaultRng> {
        self.inner.select_rng_state()
    }

    fn restore_select_rng(&mut self, state: Vec<DefaultRng>) {
        self.inner.restore_select_rng(state)
    }

    fn vote(&mut self, active: u64) -> u64 {
        self.end_step();
        self.inner.vote(active)
    }
}
