//! The single-tenant lock-step workloads, `scan_k8` and `fresh_k1k`:
//! p PEs step one `ReservoirProtocol` each, batch by batch.

use std::time::Instant;

use reservoir_comm::{run_threads, Communicator, ThreadComm};
use reservoir_core::dist::engine::{ReservoirProtocol, SamplerBackend};
use reservoir_core::dist::threaded::CommBackend;
use reservoir_core::dist::{ContinuousMode, DistConfig, DistributedSampler, MergeMode};

use crate::input::Pool;
use crate::run::{
    check_offsets, check_slice, collective_probe, peak_rss_mb, time_setup, Lockstep, PeOut, Until,
};
use crate::trace::{Recorder, SharedRecorder, TracedBackend, TracingComm};

/// Constructions per setup trial: one takes about a microsecond.
const SETUP_REPS: usize = 64;

/// Shape of a single-tenant workload.
#[derive(Clone, Copy)]
pub struct Single {
    pub pes: usize,
    pub k: usize,
    pub batch: usize,
    /// Distinct pre-generated batches per PE.
    pub slots: usize,
    /// `true`: publish a snapshot epoch every step and read it on every
    /// PE after every step. `false`: read the sample through the
    /// Section 5 output collection every `collect_every` steps.
    pub fresh: bool,
    pub collect_every: u64,
    /// Untimed steps before every measurement, past the reservoir's
    /// fill-up: the workloads measure a steady-state stream.
    pub warmup: u64,
    /// Timed steps after which `rss_mb` is read, so that it reflects a
    /// fixed amount of work.
    pub rss_at: u64,
    /// Timed steps between two `setup_s` trials.
    pub setup_every: u64,
    /// Timed steps of the fixed-length episode traced runs compare, per
    /// second of the run.
    pub episode_per_s: f64,
}

pub const SCAN_K8: Single = Single {
    pes: 2,
    k: 8,
    batch: 1 << 20,
    slots: 1,
    fresh: false,
    collect_every: 4,
    warmup: 100,
    rss_at: 1000,
    setup_every: 400,
    episode_per_s: 45.0,
};

pub const FRESH_K1K: Single = Single {
    pes: 2,
    k: 1024,
    batch: 2000,
    slots: 64,
    fresh: true,
    collect_every: 0,
    warmup: 2000,
    rss_at: 10_000,
    setup_every: 15_000,
    episode_per_s: 2000.0,
};

impl Single {
    pub fn config(&self, seed: u64) -> DistConfig {
        DistConfig::weighted(self.k, seed)
            .with_threads(1)
            .with_persistent_pool(false)
            .with_merge(MergeMode::Epilogue)
            .with_leaf_affinity(true)
            .with_continuous(if self.fresh {
                ContinuousMode::EveryBatch
            } else {
                ContinuousMode::Disabled
            })
    }

    pub fn episode(&self, seconds: u64) -> u64 {
        ((self.episode_per_s * seconds as f64) as u64).max(self.collect_every.max(1))
    }

    pub fn pool(&self, seed: u64, pe: usize) -> Pool {
        Pool::new(seed, pe, self.slots, self.batch, 0)
    }

    /// Untraced run: warm-up, then lock-step batches (with `setup_s` trials) until
    /// `until`, then one final output.
    pub fn run(&self, seed: u64, until: impl Fn() -> Until + Sync) -> Vec<PeOut> {
        let gate = Lockstep::new(self.pes);
        run_threads(self.pes, |comm| {
            let cfg = self.config(seed);
            let mut pool = self.pool(seed, comm.rank());
            let mut out = PeOut::default();
            let mut sampler = DistributedSampler::new(&comm, cfg);
            self.drive(
                sampler.engine(),
                &comm,
                &gate,
                &mut pool,
                &until,
                &mut out,
                Some(&cfg),
                None,
                |_, _| {},
            );
            out
        })
    }

    /// Traced run of the fixed episode: the engine is assembled with
    /// both tracing wrappers; spans and exact counters come back in
    /// [`PeOut`].
    pub fn run_traced(&self, seed: u64, seconds: u64) -> Vec<PeOut> {
        let gate = Lockstep::new(self.pes);
        run_threads(self.pes, |comm| {
            let cfg = self.config(seed);
            let mut pool = self.pool(seed, comm.rank());
            let mut out = PeOut::default();
            let tcomm = TracingComm::new(comm);
            let rec = Recorder::shared(Instant::now());
            let mut proto = ReservoirProtocol::new(
                TracedBackend::new(CommBackend::new(&tcomm, &cfg), rec.clone()),
                cfg,
            );
            let mut held = 0u64;
            let steps = self.episode(seconds);
            self.drive(
                &mut proto,
                tcomm.raw(),
                &gate,
                &mut pool,
                || Until::Steps(steps),
                &mut out,
                None,
                Some(&rec),
                |p, timed| {
                    p.backend_mut().end_step();
                    if timed {
                        held += p.backend().local_len();
                    } else {
                        p.backend_mut().batches.clear();
                        rec.borrow_mut().clear();
                    }
                },
            );
            out.held = held as f64 / steps as f64;
            out.counts = std::mem::take(&mut proto.backend_mut().batches);
            out.spans = std::mem::take(&mut rec.borrow_mut().spans);
            collective_probe(tcomm.raw(), &gate, &mut out);
            out
        })
    }

    /// Untraced run of the fixed episode (the identity reference).
    pub fn run_episode(&self, seed: u64, seconds: u64) -> Vec<PeOut> {
        let n = self.episode(seconds);
        self.run(seed, || Until::Steps(n))
            .into_iter()
            .map(|mut o| {
                o.setup_s.clear();
                o
            })
            .collect()
    }

    /// The lock-step loop shared by every run of this workload: the
    /// warm-up steps, then timed steps until `until` (taken when the
    /// warm-up ends). `after_step` runs outside the timing and learns
    /// whether the step was timed. With `setup`, a `setup_s` trial runs
    /// every `setup_every` timed steps.
    #[allow(clippy::too_many_arguments)]
    fn drive<B: SamplerBackend>(
        &self,
        proto: &mut ReservoirProtocol<B>,
        comm: &ThreadComm,
        gate: &Lockstep,
        pool: &mut Pool,
        until: impl FnOnce() -> Until,
        out: &mut PeOut,
        setup: Option<&DistConfig>,
        rec: Option<&SharedRecorder>,
        mut after_step: impl FnMut(&mut ReservoirProtocol<B>, bool),
    ) {
        let p = comm.size() as u64;
        let k = self.k as u64;
        let reader = proto.snapshot_reader();
        let mut until = Some(until);
        let mut timed_until = Until::Steps(0);
        let mut b = 0u64;
        loop {
            let timed = b >= self.warmup;
            if b == self.warmup {
                timed_until = (until.take().expect("taken once"))();
            }
            let items = pool.batch(b);
            if !gate.wait(!timed || timed_until.go(b - self.warmup)) {
                break;
            }
            if comm.rank() == 0 {
                crate::note_attempt(1);
            }
            let t0 = Instant::now();
            let report = proto.step(items);
            let dt = t0.elapsed().as_secs_f64();
            after_step(proto, timed);
            if timed {
                out.step_s.push(dt);
                out.records += items.len() as u64;
                if b - self.warmup + 1 == self.rss_at {
                    out.rss_mb = Some(peak_rss_mb());
                }
            }
            out.batches += 1;
            b += 1;
            let expect = k.min(b * p * self.batch as u64);
            if report.sample_size != expect {
                out.bad_batches += 1;
                out.fail(format!(
                    "batch {b}: sample size {} (want {expect})",
                    report.sample_size
                ));
            }
            if !timed {
                continue;
            }
            if let (Some(cfg), 0) = (setup, (b - 1 - self.warmup) % self.setup_every) {
                gate.wait(true);
                let dt = time_setup(SETUP_REPS, || DistributedSampler::new(comm, *cfg));
                out.setup_s.push(dt);
            }
            if self.fresh {
                let read = || {
                    let epoch = reader.read();
                    let verified = epoch.verify();
                    (epoch, verified)
                };
                let t0 = Instant::now();
                let (epoch, verified) = match rec {
                    Some(rec) => Recorder::time(rec, "snapshot.verify", read),
                    None => read(),
                };
                out.read_s.push(t0.elapsed().as_secs_f64());
                out.reads += 1;
                let check = if !verified {
                    Err("epoch failed verify()".to_string())
                } else if epoch.total != expect || epoch.epoch != b {
                    Err(format!(
                        "epoch {} holds {} members (want epoch {b}, {expect} members)",
                        epoch.epoch, epoch.total
                    ))
                } else {
                    check_slice(&epoch.items, epoch.threshold, pool, b)
                };
                if let Err(e) = check {
                    out.bad_reads += 1;
                    out.fail(format!("read after batch {b}: {e}"));
                }
            } else if b.is_multiple_of(self.collect_every) {
                gate.wait(true);
                let t0 = Instant::now();
                let (handle, _, _) = proto.collect_output();
                out.read_s.push(t0.elapsed().as_secs_f64());
                out.reads += 1;
                let offsets = check_offsets(comm, handle.offset(), handle.local_len(), expect);
                let check = offsets
                    .and_then(|()| check_slice(handle.local_items(), handle.threshold(), pool, b));
                if let Err(e) = check {
                    out.bad_reads += 1;
                    out.fail(format!("collection after batch {b}: {e}"));
                }
            }
        }
        let (handle, _, _) = proto.collect_output();
        out.outputs += 1;
        let expect = k.min(b * p * self.batch as u64);
        // Collectives first, on every PE, whatever the local verdict.
        let offsets = check_offsets(comm, handle.offset(), handle.local_len(), expect);
        let check = offsets
            .and_then(|()| check_slice(handle.local_items(), handle.threshold(), pool, b))
            .and_then(|()| {
                if handle.total_len() == expect {
                    Ok(())
                } else {
                    Err(format!(
                        "final output holds {} members (want {expect})",
                        handle.total_len()
                    ))
                }
            });
        if let Err(e) = check {
            out.bad_outputs += 1;
            out.fail(format!("final output: {e}"));
        }
        out.keep_sample(handle.local_items());
    }
}
