//! `fleet_s4096`: a `ShardedSampler` of many per-tenant reservoirs fed
//! through a `ShardRouter`, lock-step across PEs.

use std::time::Instant;

use reservoir_comm::{run_threads, Collectives, Communicator, ThreadComm};
use reservoir_core::dist::{ContinuousMode, DistConfig, MergeMode, ShardedSampler};
use reservoir_core::SampleHandle;
use reservoir_stream::{Item, ShardRouter};

use crate::input::{self, Pool};
use crate::run::{check_slice, collective_probe, peak_rss_mb, time_setup, Lockstep, PeOut, Until};
use crate::trace::{BatchCounts, Recorder, SharedRecorder, TracingComm};

pub struct Fleet {
    pub pes: usize,
    pub shards: usize,
    pub k: usize,
    pub batch: usize,
    pub slots: usize,
    /// Tenant keys are log-uniform in `1..tenants`.
    pub tenants: u64,
    pub collect_every: u64,
    /// Untimed steps before every measurement, past the shards' fill-up:
    /// the workload measures a steady-state stream.
    pub warmup: u64,
    /// Timed steps after which `rss_mb` is read (a fixed amount of work).
    pub rss_at: u64,
    /// Timed steps between two `setup_s` trials.
    pub setup_every: u64,
    /// Timed steps of the fixed-length episode per second of the run.
    pub episode_per_s: f64,
}

pub const FLEET_S4096: Fleet = Fleet {
    pes: 2,
    shards: 4096,
    k: 32,
    batch: 1 << 16,
    slots: 8,
    tenants: 4096,
    collect_every: 4,
    warmup: 800,
    rss_at: 1000,
    setup_every: 250,
    episode_per_s: 55.0,
};

fn add_vecs(a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
    a.into_iter().zip(b).map(|(x, y)| x + y).collect()
}

impl Fleet {
    pub fn config(&self, seed: u64) -> DistConfig {
        DistConfig::weighted(self.k, seed)
            .with_threads(1)
            .with_persistent_pool(false)
            .with_merge(MergeMode::Epilogue)
            .with_leaf_affinity(true)
            .with_continuous(ContinuousMode::Disabled)
    }

    pub fn episode(&self, seconds: u64) -> u64 {
        ((self.episode_per_s * seconds as f64) as u64).max(self.collect_every)
    }

    pub fn pool(&self, seed: u64, pe: usize) -> Pool {
        Pool::new(seed, pe, self.slots, self.batch, self.tenants)
    }

    pub fn router(&self) -> ShardRouter<impl Fn(&Item) -> u64> {
        ShardRouter::new(self.shards, |it: &Item| input::tenant(it.id))
    }

    /// Untraced run: warm-up, then lock-step batches (with `setup_s` trials) until
    /// `until`, then one final output.
    pub fn run(&self, seed: u64, until: impl Fn() -> Until + Sync) -> Vec<PeOut> {
        let gate = Lockstep::new(self.pes);
        run_threads(self.pes, |comm| {
            let cfg = self.config(seed);
            let mut pool = self.pool(seed, comm.rank());
            let mut out = PeOut::default();
            let mut sampler = ShardedSampler::new(&comm, cfg, self.shards);
            self.drive(
                &mut sampler,
                &comm,
                &gate,
                &mut pool,
                &until,
                &mut out,
                Some(&cfg),
                None,
            );
            out
        })
    }

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

    /// Traced run of the fixed episode: the fleet runs over a
    /// [`TracingComm`]; spans bracket routing, the superstep and output.
    pub fn run_traced(&self, seed: u64, seconds: u64) -> Vec<PeOut> {
        let gate = Lockstep::new(self.pes);
        run_threads(self.pes, |comm| {
            let cfg = self.config(seed);
            let mut pool = self.pool(seed, comm.rank());
            let mut out = PeOut::default();
            let tcomm = TracingComm::new(comm);
            let rec = Recorder::shared(Instant::now());
            let mut sampler = ShardedSampler::new(&tcomm, cfg, self.shards);
            let until = || Until::Steps(self.episode(seconds));
            let traced = Some((&rec, &tcomm));
            self.drive(
                &mut sampler,
                tcomm.raw(),
                &gate,
                &mut pool,
                until,
                &mut out,
                None,
                traced,
            );
            let held: u64 = (0..self.shards).map(|s| sampler.local_len(s)).sum();
            let nonempty = (0..self.shards)
                .filter(|&s| sampler.local_len(s) > 0)
                .count();
            out.held = held as f64 / nonempty.max(1) as f64;
            // One more construction, after the warm-up cleared the spans.
            let fresh = Recorder::time(&rec, "sharded.construct", || {
                ShardedSampler::new(&tcomm, cfg, self.shards)
            });
            drop(fresh);
            out.spans = std::mem::take(&mut rec.borrow_mut().spans);
            collective_probe(tcomm.raw(), &gate, &mut out);
            out
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn drive<C: Communicator>(
        &self,
        sampler: &mut ShardedSampler<'_, C>,
        comm: &ThreadComm,
        gate: &Lockstep,
        pool: &mut Pool,
        until: impl FnOnce() -> Until,
        out: &mut PeOut,
        setup: Option<&DistConfig>,
        traced: Option<(&SharedRecorder, &TracingComm<ThreadComm>)>,
    ) {
        let router = self.router();
        let mut buckets: Vec<Vec<Item>> = vec![Vec::new(); self.shards];
        // Records this PE fed to each shard so far.
        let mut fed = vec![0u64; self.shards];
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
            let before = traced.map(|(_, t)| t.reading());
            let t0 = Instant::now();
            let report = match traced {
                None => {
                    for bucket in &mut buckets {
                        bucket.clear();
                    }
                    router.route_into(items.iter().copied(), &mut buckets);
                    sampler.process_batch(&buckets)
                }
                Some((rec, _)) => {
                    rec.borrow_mut().batch = b.saturating_sub(self.warmup);
                    let step = rec.borrow_mut().open("engine.step", None);
                    Recorder::time(rec, "stream.route", || {
                        for bucket in &mut buckets {
                            bucket.clear();
                        }
                        router.route_into(items.iter().copied(), &mut buckets);
                    });
                    let r = Recorder::time(rec, "sharded.step", || sampler.process_batch(&buckets));
                    rec.borrow_mut().close(step, 0);
                    r
                }
            };
            let dt = t0.elapsed().as_secs_f64();
            if let (false, Some((rec, _))) = (timed, traced) {
                rec.borrow_mut().clear();
            }
            if timed {
                out.step_s.push(dt);
                out.records += items.len() as u64;
                if b - self.warmup + 1 == self.rss_at {
                    out.rss_mb = Some(peak_rss_mb());
                }
            }
            if let (true, Some(before), Some((_, tcomm))) = (timed, before, traced) {
                let shards = &report.per_shard;
                out.counts.push(BatchCounts {
                    items: items.len() as u64,
                    inserted: shards.iter().map(|r| r.inserted).sum(),
                    jumps: shards.iter().map(|r| r.scan.jumps).sum(),
                    steals: shards.iter().map(|r| r.scan.steals).sum(),
                    spawns: shards.iter().map(|r| r.scan.spawns).sum(),
                    select_calls: (report.shards_selected > 0) as u64,
                    select_rounds: report.joint_select_rounds as u64,
                    active: (self.shards - report.shards_skipped) as u64,
                    insert_s: shards.iter().map(|r| r.times.insert).sum(),
                    select_s: shards.iter().map(|r| r.times.select).sum(),
                    comm: tcomm.reading().since(before),
                    ..BatchCounts::default()
                });
            }
            out.batches += 1;
            b += 1;
            for (s, bucket) in buckets.iter().enumerate() {
                fed[s] += bucket.len() as u64;
            }
            if report.per_shard.len() != self.shards
                || report
                    .per_shard
                    .iter()
                    .any(|r| r.sample_size > self.k as u64)
            {
                out.bad_batches += 1;
                out.fail(format!("batch {b}: a shard outgrew k or went missing"));
            }
            if !timed {
                continue;
            }
            if let (Some(cfg), 0) = (setup, (b - 1 - self.warmup) % self.setup_every) {
                gate.wait(true);
                let dt = time_setup(1, || ShardedSampler::new(comm, *cfg, self.shards));
                out.setup_s.push(dt);
            }
            if b.is_multiple_of(self.collect_every) {
                gate.wait(true);
                let t0 = Instant::now();
                let handles = match traced {
                    Some((rec, _)) => {
                        Recorder::time(rec, "engine.output", || sampler.collect_output())
                    }
                    None => sampler.collect_output(),
                };
                out.read_s.push(t0.elapsed().as_secs_f64());
                out.reads += 1;
                if let Err(e) = self.check(&handles, comm, pool, b, &fed, &router) {
                    out.bad_reads += 1;
                    out.fail(format!("collection after batch {b}: {e}"));
                }
            }
        }
        let handles = sampler.collect_output();
        out.outputs += 1;
        if let Err(e) = self.check(&handles, comm, pool, b, &fed, &router) {
            out.bad_outputs += 1;
            out.fail(format!("final output: {e}"));
        }
        for h in &handles {
            out.keep_sample(h.local_items());
        }
    }

    /// Per shard: exactly `min(k, records the shard saw)` members, PE
    /// slices tiling the shard's output, and every member a record this
    /// PE fed that routes to the shard.
    fn check(
        &self,
        handles: &[SampleHandle],
        comm: &ThreadComm,
        pool: &Pool,
        fed_batches: u64,
        fed: &[u64],
        router: &ShardRouter<impl Fn(&Item) -> u64>,
    ) -> Result<(), String> {
        if handles.len() != self.shards {
            return Err(format!(
                "{} handles for {} shards",
                handles.len(),
                self.shards
            ));
        }
        let seen = comm.sum_u64_vec(fed.to_vec());
        let local: Vec<u64> = handles.iter().map(|h| h.local_len()).collect();
        let offsets = comm
            .exscan(local.clone(), add_vecs)
            .unwrap_or_else(|| vec![0; self.shards]);
        let totals = comm.sum_u64_vec(local);
        for (s, h) in handles.iter().enumerate() {
            let want = seen[s].min(self.k as u64);
            if h.total_len() != want || totals[s] != want || h.offset() != offsets[s] {
                return Err(format!(
                    "shard {s}: {} members over slices summing to {} at offset {} (want {want} at {})",
                    h.total_len(),
                    totals[s],
                    h.offset(),
                    offsets[s]
                ));
            }
            check_slice(h.local_items(), h.threshold(), pool, fed_batches)
                .map_err(|e| format!("shard {s}: {e}"))?;
            let item = |m: &reservoir_core::SampleItem| Item::new(m.id, m.weight);
            if let Some(m) = h
                .local_items()
                .iter()
                .find(|m| router.shard_of(&item(m)) != s)
            {
                return Err(format!("shard {s} holds id {:#x} routed elsewhere", m.id));
            }
        }
        Ok(())
    }
}
