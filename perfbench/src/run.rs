//! What every workload shares: per-PE results and their merge, the
//! lock-step loop control, the output checks, and the end-to-end metrics.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::time::Instant;

use reservoir_comm::{Collectives, ThreadComm};
use reservoir_core::SampleItem;

use crate::input::Pool;
use crate::report::{median, Report};
use crate::trace::{BatchCounts, Span};

/// One trial behind `setup_s`: seconds per construction over `reps`
/// back-to-back constructions, the samplers dropped after the clock
/// stops. Trials run every few timed units throughout a run, so that
/// their median sees the same host as the run's other medians.
pub fn time_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> f64 {
    let mut built = Vec::with_capacity(reps);
    let t0 = Instant::now();
    for _ in 0..reps {
        built.push(build());
    }
    let dt = t0.elapsed().as_secs_f64() / reps as f64;
    drop(built);
    dt
}

/// What one PE measured and checked in one run.
#[derive(Default)]
pub struct PeOut {
    pub setup_s: Vec<f64>,
    /// Seconds per mini-batch step.
    pub step_s: Vec<f64>,
    /// Seconds per tumbling window, where the workload has windows.
    pub window_s: Vec<f64>,
    pub read_s: Vec<f64>,
    /// Records this PE fed inside timed steps.
    pub records: u64,
    pub batches: u64,
    pub bad_batches: u64,
    pub reads: u64,
    pub bad_reads: u64,
    pub outputs: u64,
    pub bad_outputs: u64,
    pub failures: Vec<String>,
    /// The final output slice as raw bits (for identity checks).
    pub sample: Vec<[u64; 3]>,
    pub weight_sum: f64,
    /// Traced runs only.
    pub spans: Vec<Span>,
    pub counts: Vec<BatchCounts>,
    /// Mean local reservoir size at step ends (traced runs only).
    pub held: f64,
    /// Traced runs: seconds per collective launch measured in isolation
    /// by [`collective_probe`], and the message size it used.
    pub probe_s: f64,
    pub probe_words: u64,
    /// Peak resident memory after the workload's fixed amount of timed
    /// work (`None` if the run ended first).
    pub rss_mb: Option<f64>,
}

impl PeOut {
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Append an output slice to the run's sample record.
    pub fn keep_sample(&mut self, items: &[SampleItem]) {
        self.sample.extend(
            items
                .iter()
                .map(|m| [m.id, m.weight.to_bits(), m.key.to_bits()]),
        );
        self.weight_sum += items.iter().map(|m| m.weight).sum::<f64>();
    }
}

/// The merged view of one run across PEs.
pub struct Cluster {
    pub pes: Vec<PeOut>,
    /// Per step, the slowest PE's time.
    pub step_s: Vec<f64>,
    /// Per read: the slowest PE's time for a collective read, every PE's
    /// own time for a local one.
    pub read_s: Vec<f64>,
    /// Per construction trial, the slowest PE's time.
    pub setup_s: Vec<f64>,
    /// Per window, the slowest PE's time (windowed workloads only).
    pub window_s: Vec<f64>,
    pub records: u64,
    /// Sampler seconds behind `items_per_s`: the sum of window times
    /// where the workload has windows, else of step times.
    pub busy_s: f64,
}

impl Cluster {
    pub fn merge(pes: Vec<PeOut>, collective_reads: bool) -> Self {
        let max_by = |f: &dyn Fn(&PeOut) -> &Vec<f64>| -> Vec<f64> {
            let n = pes.iter().map(|p| f(p).len()).min().unwrap_or(0);
            (0..n)
                .map(|i| pes.iter().map(|p| f(p)[i]).fold(0.0, f64::max))
                .collect()
        };
        let step_s = max_by(&|p| &p.step_s);
        let setup_s = max_by(&|p| &p.setup_s);
        let read_s = if collective_reads {
            max_by(&|p| &p.read_s)
        } else {
            pes.iter().flat_map(|p| p.read_s.iter().copied()).collect()
        };
        let records = pes.iter().map(|p| p.records).sum();
        let window_s = max_by(&|p| &p.window_s);
        let busy_s = if window_s.is_empty() {
            step_s.iter().sum()
        } else {
            window_s.iter().sum()
        };
        Cluster {
            busy_s,
            window_s,
            step_s,
            read_s,
            setup_s,
            records,
            pes,
        }
    }

    /// Operations attempted and failed: steps and collective outputs
    /// count once for the cluster, local reads once per PE.
    pub fn ops(&self, collective_reads: bool) -> (u64, u64) {
        let pe0 = &self.pes[0];
        let any = |f: &dyn Fn(&PeOut) -> u64| self.pes.iter().map(f).max().unwrap_or(0);
        let sum = |f: &dyn Fn(&PeOut) -> u64| self.pes.iter().map(f).sum::<u64>();
        let (reads, bad_reads) = if collective_reads {
            (pe0.reads, any(&|p| p.bad_reads))
        } else {
            (sum(&|p| p.reads), sum(&|p| p.bad_reads))
        };
        let attempted = pe0.batches + reads + pe0.outputs;
        let failed = any(&|p| p.bad_batches) + bad_reads + any(&|p| p.bad_outputs);
        (attempted, failed.min(attempted))
    }

    pub fn failures(&self) -> Vec<String> {
        self.pes
            .iter()
            .enumerate()
            .flat_map(|(r, p)| p.failures.iter().map(move |f| format!("pe {r}: {f}")))
            .collect()
    }

    /// The cluster's final sample, PE slices in rank order.
    pub fn sample(&self) -> Vec<[u64; 3]> {
        self.pes
            .iter()
            .flat_map(|p| p.sample.iter().copied())
            .collect()
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self, rep: &mut Report) {
        rep.metric("items_per_s", self.throughput(), "1/s");
        rep.distribution("batch", &self.step_s, 1e3, "ms");
        rep.distribution("read", &self.read_s, 1e6, "us");
        rep.metric("setup_s", median(&self.setup_s), "s");
        rep.metric(
            "rss_mb",
            self.pes[0].rss_mb.unwrap_or_else(peak_rss_mb),
            "MB",
        );
        rep.info("rss_mb.at_fixed_work", self.pes[0].rss_mb.is_some());
        rep.info("records", self.records);
        rep.info("sampler_seconds", self.busy_s);
        rep.info("items_per_s.whole_run", self.records as f64 / self.busy_s);
    }

    /// Records per second of sampler time at the median timed unit (a
    /// step, or a window where the workload has windows; every unit
    /// carries the same records). A mean over the run would be set by
    /// the host's stalls, not by the program.
    fn throughput(&self) -> f64 {
        let units = if self.window_s.is_empty() {
            &self.step_s
        } else {
            &self.window_s
        };
        if units.is_empty() {
            return 0.0;
        }
        self.records as f64 / units.len() as f64 / median(units)
    }
}

/// A spinning barrier across the PE threads of one run that also
/// carries the lock-step continue decision. PEs leave it together: a
/// blocking barrier releases them one thread wake-up apart, and that
/// skew would land inside the next timed step.
pub struct Lockstep {
    pes: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    stop: AtomicBool,
    verdict: AtomicBool,
}

impl Lockstep {
    pub fn new(pes: usize) -> Self {
        Lockstep {
            pes,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            verdict: AtomicBool::new(true),
        }
    }

    /// Wait until every PE arrives; true when every PE passed `go`.
    pub fn wait(&self, go: bool) -> bool {
        let generation = self.generation.load(SeqCst);
        if !go {
            self.stop.store(true, SeqCst);
        }
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.pes {
            // Last to arrive: publish the verdict, reset, release.
            self.arrived.store(0, SeqCst);
            self.verdict.store(!self.stop.swap(false, SeqCst), SeqCst);
            self.generation.fetch_add(1, SeqCst);
        } else {
            while self.generation.load(SeqCst) == generation {
                std::hint::spin_loop();
            }
        }
        // Stable until every PE, this one included, arrives again.
        self.verdict.load(SeqCst)
    }
}

/// Loop bound of a run: a wall-clock deadline, or a fixed step count.
#[derive(Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Steps(u64),
}

impl Until {
    pub fn go(self, steps_done: u64) -> bool {
        match self {
            Until::Deadline(t) => Instant::now() < t,
            Until::Steps(n) => steps_done < n,
        }
    }
}

/// Checks one PE's slice of an output: distinct ids, each one fed by
/// this PE with the weight it was fed with, every key within the
/// output's threshold.
pub fn check_slice(
    items: &[SampleItem],
    threshold: Option<f64>,
    pool: &Pool,
    fed: u64,
) -> Result<(), String> {
    let mut ids: Vec<u64> = items.iter().map(|m| m.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate id in output".into());
    }
    if let Some(m) = items.iter().find(|m| !pool.was_fed(m, fed)) {
        return Err(format!("output holds id {:#x} that was never fed", m.id));
    }
    if let Some(t) = threshold {
        if let Some(m) = items.iter().find(|m| m.key > t) {
            return Err(format!("member key {} above threshold {t}", m.key));
        }
    }
    Ok(())
}

/// Checks that PE slices tile `0..total` in rank order (collective).
pub fn check_offsets(comm: &ThreadComm, offset: u64, local: u64, total: u64) -> Result<(), String> {
    let want = comm.exscan_sum_u64(local);
    let sum = comm.sum_u64(local);
    if want != offset || sum != total {
        return Err(format!(
            "slice offset {offset} (want {want}) or total {total} (slices sum to {sum})"
        ));
    }
    Ok(())
}

/// Launches of the all-reduce [`collective_probe`] times.
const PROBE_REPS: usize = 2000;

/// Time one collective launch in isolation, at the traced run's mean
/// message size: `PROBE_REPS` all-reduces of a vector that makes each
/// message `words` words long (every PE calls this; the gate lines them
/// up). An all-reduce is two launches, a reduce and a broadcast.
pub fn collective_probe(comm: &ThreadComm, gate: &Lockstep, out: &mut PeOut) {
    let (words, messages) = out.counts.iter().fold((0, 0), |(w, m), b| {
        (w + b.comm.stats.words, m + b.comm.stats.messages)
    });
    let local = if messages > 0 {
        words.div_ceil(messages)
    } else {
        1
    };
    let words = comm.allreduce(local.max(2), u64::max);
    let payload = vec![1u64; words as usize - 1];
    gate.wait(true);
    let t0 = Instant::now();
    for _ in 0..PROBE_REPS {
        std::hint::black_box(comm.sum_u64_vec(payload.clone()));
    }
    out.probe_s = t0.elapsed().as_secs_f64() / (2 * PROBE_REPS) as f64;
    out.probe_words = words;
}

/// Peak resident memory of this process.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut ru = RUsage { fields: [0; 18] };
    // SAFETY: `RUsage` is at least as large as the C `struct rusage` on
    // 64-bit Linux (2 timevals, then 14 longs) and `getrusage` only writes
    // into it; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    // ru_maxrss follows the two timevals and is in KiB on Linux.
    ru.fields[4] as f64 / 1024.0
}
