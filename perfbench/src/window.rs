//! `window_k64k`: tumbling windows, each a fresh sampler fed through the
//! ingestion front door (`Batcher` → channel → `run_pipeline`).

use std::time::Instant;

use reservoir_comm::{run_threads, Communicator, ThreadComm};
use reservoir_core::dist::engine::{ReservoirProtocol, SamplerBackend};
use reservoir_core::dist::threaded::CommBackend;
use reservoir_core::dist::{ContinuousMode, DistConfig, EpochPublisher, MergeMode, SampleEpoch};
use reservoir_core::PipelineReport;
use reservoir_stream::ingest::{BatchPolicy, Batcher};

use crate::input::Pool;
use crate::run::{check_slice, collective_probe, peak_rss_mb, time_setup, Lockstep, PeOut, Until};
use crate::trace::{Recorder, SharedRecorder, StepClock, TracedBackend, TracingComm};

/// Constructions per setup trial: one takes well under a microsecond.
const SETUP_REPS: usize = 64;

pub struct Window {
    pub k: usize,
    pub threads: usize,
    pub batch: usize,
    pub batches_per_window: u64,
    /// Untimed windows before every measurement.
    pub warmup: u64,
    /// Timed windows after which `rss_mb` is read: the per-scan thread
    /// spawns leave the allocator's footprint growing with the windows
    /// run, so it is read after a fixed amount of work.
    pub rss_at: u64,
    /// Timed windows between two `setup_s` trials.
    pub setup_every: u64,
    /// Timed windows of the fixed-length episode traced runs compare,
    /// per second of the run.
    pub episode_per_s: f64,
}

pub const WINDOW_K64K: Window = Window {
    k: 1 << 16,
    threads: 2,
    batch: 1 << 17,
    batches_per_window: 8,
    warmup: 2,
    rss_at: 48,
    setup_every: 5,
    episode_per_s: 1.6,
};

impl Window {
    pub fn config(&self, seed: u64) -> DistConfig {
        DistConfig::weighted(self.k, seed)
            .with_threads(self.threads)
            .with_persistent_pool(false)
            .with_merge(MergeMode::Epilogue)
            .with_leaf_affinity(true)
            .with_continuous(ContinuousMode::Disabled)
    }

    pub fn episode(&self, seconds: u64) -> u64 {
        ((self.episode_per_s * seconds as f64) as u64).max(2)
    }

    pub fn pool(&self, seed: u64) -> Pool {
        // Two windows' worth of slots: a window's batches never share one.
        Pool::new(seed, 0, 2 * self.batches_per_window as usize, self.batch, 0)
    }

    /// Untraced run: windows until `until`. Steps are clocked by
    /// [`StepClock`]; the window time covers construction, cutting,
    /// the drain and the output collection, and is what `items_per_s`
    /// divides by.
    pub fn run(&self, seed: u64, until: impl Fn() -> Until + Sync) -> Vec<PeOut> {
        run_threads(1, |comm| {
            let cfg = self.config(seed);
            let mut pool = self.pool(seed);
            let mut out = PeOut::default();
            let mut slot = EpochPublisher::new(0, 1);
            let mut timed_until = Until::Steps(0);
            for w in 0.. {
                let timed = w >= self.warmup;
                if w == self.warmup {
                    timed_until = until();
                }
                if timed && !timed_until.go(w - self.warmup) {
                    break;
                }
                crate::note_attempt(self.batches_per_window);
                let b0 = self.prepare(&mut pool, w);
                let t0 = Instant::now();
                let backend = StepClock::new(CommBackend::new(&comm, &cfg));
                let mut proto = ReservoirProtocol::new(backend, cfg);
                let report = self.feed(&mut proto, &pool, b0, None);
                let window_s = t0.elapsed().as_secs_f64();
                let read_s = self.check(&mut slot, &comm, &pool, b0, report, &mut out, None);
                if !timed {
                    continue;
                }
                out.window_s.push(window_s);
                out.read_s.push(read_s);
                // A step's cost depends on its position in the window (the
                // first batches fill the reservoir), so the run's batch
                // latency samples are per-window means over its steps.
                let steps = &proto.backend().steps_s;
                out.step_s
                    .push(steps.iter().sum::<f64>() / steps.len().max(1) as f64);
                if (w - self.warmup).is_multiple_of(self.setup_every) {
                    out.setup_s.push(time_setup(SETUP_REPS, || {
                        ReservoirProtocol::new(CommBackend::new(&comm, &cfg), cfg)
                    }));
                }
                if w - self.warmup + 1 == self.rss_at {
                    out.rss_mb = Some(peak_rss_mb());
                }
            }
            out
        })
    }

    /// Untraced run of the fixed episode (the identity reference).
    pub fn run_episode(&self, seed: u64, seconds: u64) -> Vec<PeOut> {
        let n = self.episode(seconds);
        let mut out = self.run(seed, || Until::Steps(n));
        out[0].setup_s.clear();
        out
    }

    /// Traced run of the fixed episode.
    pub fn run_traced(&self, seed: u64, seconds: u64) -> Vec<PeOut> {
        run_threads(1, |comm| {
            let cfg = self.config(seed);
            let mut pool = self.pool(seed);
            let mut out = PeOut::default();
            let mut slot = EpochPublisher::new(0, 1);
            let tcomm = TracingComm::new(comm);
            let rec = Recorder::shared(Instant::now());
            let mut held = 0u64;
            for w in 0..self.warmup + self.episode(seconds) {
                let timed = w >= self.warmup;
                let b0 = self.prepare(&mut pool, w);
                let t0 = Instant::now();
                let mut proto = Recorder::time(&rec, "engine.construct", || {
                    ReservoirProtocol::new(
                        TracedBackend::new(CommBackend::new(&tcomm, &cfg), rec.clone()),
                        cfg,
                    )
                });
                let report = self.feed(&mut proto, &pool, b0, Some(&rec));
                let window_s = t0.elapsed().as_secs_f64();
                self.check(
                    &mut slot,
                    tcomm.raw(),
                    &pool,
                    b0,
                    report,
                    &mut out,
                    Some(&rec),
                );
                if !timed {
                    rec.borrow_mut().clear();
                    continue;
                }
                out.window_s.push(window_s);
                held += proto.backend().local_len();
                out.counts.append(&mut proto.backend_mut().batches);
            }
            out.held = held as f64 / self.episode(seconds) as f64;
            out.spans = std::mem::take(&mut rec.borrow_mut().spans);
            collective_probe(tcomm.raw(), &Lockstep::new(1), &mut out);
            out
        })
    }

    /// Rewrite window `w`'s batches (outside the window's time); returns
    /// its first batch index.
    fn prepare(&self, pool: &mut Pool, w: u64) -> u64 {
        let b0 = w * self.batches_per_window;
        for b in b0..b0 + self.batches_per_window {
            pool.prepare(b);
        }
        b0
    }

    /// Push one window's records through a `Batcher` and drain them.
    fn feed<B: SamplerBackend>(
        &self,
        proto: &mut ReservoirProtocol<B>,
        pool: &Pool,
        b0: u64,
        rec: Option<&SharedRecorder>,
    ) -> PipelineReport {
        let (mut batcher, rx) = Batcher::new(
            BatchPolicy::by_size(self.batch),
            self.batches_per_window as usize,
        );
        let cut = || {
            for b in b0..b0 + self.batches_per_window {
                for it in pool.get(b) {
                    batcher.push(*it).expect("the receiver outlives the window");
                }
            }
            batcher.close()
        };
        let counters = match rec {
            Some(rec) => Recorder::time(rec, "stream.cut", cut),
            None => cut(),
        };
        assert_eq!(counters.batches_cut, self.batches_per_window);
        match rec {
            Some(rec) => Recorder::time(rec, "engine.pipeline", || proto.run_pipeline(&rx)),
            None => proto.run_pipeline(&rx),
        }
    }

    /// Check the window's output, publish it, and read it back.
    ///
    /// A tumbling-window sampler publishes no snapshot between windows,
    /// so each window's output goes into a snapshot slot of the library's
    /// own (`EpochPublisher`), as a serving layer would, and the read is a
    /// reader's `SnapshotReader::read` plus `SampleEpoch::verify` of that
    /// epoch; returns the read's time.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &self,
        slot: &mut EpochPublisher,
        comm: &ThreadComm,
        pool: &Pool,
        b0: u64,
        report: PipelineReport,
        out: &mut PeOut,
        rec: Option<&SharedRecorder>,
    ) -> f64 {
        let fed = b0 + self.batches_per_window;
        let n = self.batches_per_window;
        out.batches += n;
        out.records += report.records;
        let want_records = n * self.batch as u64;
        if report.batches != n || report.rounds != n || report.records != want_records {
            out.bad_batches += n;
            out.fail(format!(
                "window at batch {b0}: drained {} batches / {} rounds / {} records",
                report.batches, report.rounds, report.records
            ));
        }
        let k = (self.k as u64).min(want_records);
        let h = &report.handle;
        out.outputs += 1;
        let check =
            if h.total_len() != k || h.local_len() != k || h.offset() != 0 || comm.size() != 1 {
                Err(format!(
                    "output holds {} of {} (want {k})",
                    h.local_len(),
                    h.total_len()
                ))
            } else {
                check_slice(h.local_items(), h.threshold(), pool, fed)
            };
        if let Err(e) = check {
            out.bad_outputs += 1;
            out.fail(format!("window at batch {b0}: {e}"));
        }
        let epoch = slot.next_epoch();
        let items = h.local_items().to_vec();
        slot.publish(SampleEpoch::new(
            epoch,
            items,
            h.offset(),
            h.total_len(),
            h.pe(),
            h.pes(),
            h.threshold(),
            0,
        ));
        let reader = slot.reader();
        let read = || {
            let e = reader.read();
            let verified = e.verify();
            (e, verified)
        };
        let t0 = Instant::now();
        let (e, verified) = match rec {
            Some(rec) => Recorder::time(rec, "snapshot.verify", read),
            None => read(),
        };
        let read_s = t0.elapsed().as_secs_f64();
        out.reads += 1;
        if !verified || e.epoch != epoch || e.total != k || e.items != h.local_items() {
            out.bad_reads += 1;
            out.fail(format!(
                "read of window at batch {b0}: epoch {} differs",
                e.epoch
            ));
        }
        out.keep_sample(h.local_items());
        read_s
    }
}
