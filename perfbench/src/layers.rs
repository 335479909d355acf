//! Per-layer metrics of a traced run, plus the two replays that measure
//! a layer on its own: the sequential sampler over the workload's input
//! and the B+ tree at the workload's reservoir size.
//!
//! Counts (inserts, jumps, selection rounds, collective launches, words,
//! active shards) are exact and repeat for a seed; steals, spawns, wait
//! and every time are timing-dependent. A metric whose layer a workload
//! does not touch reads 0.

use std::time::Instant;

use reservoir_btree::{BPlusTree, SampleKey, DEFAULT_DEGREE};
use reservoir_comm::CostModel;
use reservoir_core::dist::engine::Charge;
use reservoir_core::seq::WeightedJumpSampler;
use reservoir_rng::{default_rng, DefaultRng, Rng64};
use reservoir_stream::Item;

use crate::report::{mean, median, quantile, tail_q, Report};
use crate::run::{Cluster, PeOut};
use crate::trace::{BatchCounts, ROOT};

/// The exact counters two same-seed traced runs must reproduce.
pub const EXACT: [&str; 6] = [
    "insert.inserted_per_batch",
    "insert.jumps_per_batch",
    "select.rounds_per_call",
    "comm.collectives_per_batch",
    "comm.words_per_batch",
    "sharded.active_frac",
];

/// Every per-layer metric, in report order, with its unit.
pub const METRICS: [(&str, &str); 34] = [
    ("engine.step_us.p50", "us"),
    ("engine.step_us.p99", "us"),
    ("engine.unaccounted_frac", "frac"),
    ("engine.output_us", "us"),
    ("insert.us_per_batch", "us"),
    ("insert.items_per_s", "1/s"),
    ("insert.inserted_per_batch", "count"),
    ("insert.jumps_per_batch", "count"),
    ("insert.kept_frac", "frac"),
    ("par.scan_busy_us", "us"),
    ("par.merge_us", "us"),
    ("par.imbalance", "ratio"),
    ("par.steals_per_batch", "count"),
    ("par.spawns_per_batch", "count"),
    ("btree.insert_ns", "ns"),
    ("btree.prune_us", "us"),
    ("select.us_per_call", "us"),
    ("select.rounds_per_call", "count"),
    ("comm.collectives_per_batch", "count"),
    ("comm.messages_per_batch", "count"),
    ("comm.words_per_batch", "count"),
    ("comm.wait_us_per_batch", "us"),
    ("comm.us_per_collective", "us"),
    ("comm.model_us_per_collective", "us"),
    ("snapshot.publish_us", "us"),
    ("snapshot.verify_us", "us"),
    ("stream.cut_us_per_batch", "us"),
    ("stream.vote_us_per_batch", "us"),
    ("stream.route_us_per_batch", "us"),
    ("sharded.step_us", "us"),
    ("sharded.construct_ms", "ms"),
    ("sharded.active_frac", "frac"),
    ("seq.items_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
];

/// Geometry the analysis needs.
pub struct Shape {
    pub pes: usize,
    /// Shards per fleet (1 for a single-tenant sampler).
    pub shards: usize,
}

fn sum_counts(pes: &[PeOut], f: impl Fn(&BatchCounts) -> f64) -> f64 {
    pes.iter().flat_map(|p| p.counts.iter()).map(f).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum of span durations named `name`, in seconds, and their number.
fn spans_s(pes: &[PeOut], name: &str) -> (f64, usize) {
    let mut total = 0.0;
    let mut n = 0;
    for s in pes
        .iter()
        .flat_map(|p| p.spans.iter())
        .filter(|s| s.name == name)
    {
        total += s.dur_ns() as f64 * 1e-9;
        n += 1;
    }
    (total, n)
}

fn mean_span_s(pes: &[PeOut], name: &str) -> f64 {
    let (t, n) = spans_s(pes, name);
    ratio(t, n as f64)
}

/// The per-layer metrics of a traced run (`traced`), set against the
/// untraced run of the same episode (`plain`).
pub fn per_layer(
    rep: &mut Report,
    shape: &Shape,
    traced: &Cluster,
    plain: &Cluster,
    seq_items_per_s: f64,
    btree: (f64, f64),
) -> Vec<(String, f64)> {
    let pes = &traced.pes;
    let p = shape.pes as f64;
    let batches = pes[0].counts.len() as f64;
    let mut m: Vec<(&str, f64)> = Vec::new();

    // engine: per-batch step span, slowest PE; self time of the step.
    let mut per_batch: Vec<f64> = Vec::new();
    let (mut step_total, mut child_total) = (0.0, 0.0);
    for pe in pes {
        let mut child = vec![0u64; pe.spans.len()];
        for s in &pe.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        for (i, s) in pe.spans.iter().enumerate() {
            if s.name != "engine.step" {
                continue;
            }
            let d = s.dur_ns() as f64 * 1e-9;
            step_total += d;
            child_total += (child[i] as f64 * 1e-9).min(d);
            let b = s.batch as usize;
            if per_batch.len() <= b {
                per_batch.resize(b + 1, 0.0);
            }
            per_batch[b] = per_batch[b].max(d);
        }
    }
    let q = tail_q(per_batch.len());
    m.push(("engine.step_us.p50", median(&per_batch) * 1e6));
    m.push(("engine.step_us.p99", quantile(&per_batch, q) * 1e6));
    m.push((
        "engine.unaccounted_frac",
        ratio(step_total - child_total, step_total),
    ));
    m.push(("engine.output_us", mean_span_s(pes, "engine.output") * 1e6));

    // insert: the scan, per PE per batch; exact work per batch cluster-wide.
    let insert_s = sum_counts(pes, |b| b.insert_s);
    let items = sum_counts(pes, |b| b.items as f64);
    let inserted = sum_counts(pes, |b| b.inserted as f64);
    m.push(("insert.us_per_batch", ratio(insert_s, batches * p) * 1e6));
    m.push(("insert.items_per_s", ratio(items * p, insert_s)));
    m.push(("insert.inserted_per_batch", ratio(inserted, batches)));
    m.push((
        "insert.jumps_per_batch",
        ratio(sum_counts(pes, |b| b.jumps as f64), batches),
    ));
    m.push((
        "insert.kept_frac",
        ratio(sum_counts(pes, |b| b.kept as f64), inserted),
    ));

    // par: program-reported breakdown of the parallel scan.
    let busy_max = sum_counts(pes, |b| b.par_busy_max_s);
    let busy_mean = sum_counts(pes, |b| b.par_busy_mean_s);
    m.push(("par.scan_busy_us", ratio(busy_max, batches * p) * 1e6));
    m.push((
        "par.merge_us",
        ratio(sum_counts(pes, |b| b.par_merge_s), batches * p) * 1e6,
    ));
    m.push(("par.imbalance", ratio(busy_max, busy_mean)));
    m.push((
        "par.steals_per_batch",
        ratio(sum_counts(pes, |b| b.steals as f64), batches * p),
    ));
    m.push((
        "par.spawns_per_batch",
        ratio(sum_counts(pes, |b| b.spawns as f64), batches * p),
    ));

    m.push(("btree.insert_ns", btree.0));
    m.push(("btree.prune_us", btree.1));

    let calls = sum_counts(pes, |b| b.select_calls as f64);
    m.push((
        "select.us_per_call",
        ratio(sum_counts(pes, |b| b.select_s), calls) * 1e6,
    ));
    m.push((
        "select.rounds_per_call",
        ratio(sum_counts(pes, |b| b.select_rounds as f64), calls),
    ));

    // comm: launches per PE; messages and words cluster-wide.
    let launches = sum_counts(pes, |b| b.comm.launches as f64);
    let messages = sum_counts(pes, |b| b.comm.stats.messages as f64);
    let words = sum_counts(pes, |b| b.comm.stats.words as f64);
    let wait = sum_counts(pes, |b| b.comm.wait_s);
    m.push(("comm.collectives_per_batch", ratio(launches, batches * p)));
    m.push(("comm.messages_per_batch", ratio(messages, batches)));
    m.push(("comm.words_per_batch", ratio(words, batches)));
    m.push(("comm.wait_us_per_batch", ratio(wait, batches * p) * 1e6));
    // One launch in isolation at the run's mean message size, beside
    // the α–β model's prediction for the same p and words.
    let probe = pes.iter().map(|pe| pe.probe_s).fold(0.0, f64::max);
    m.push(("comm.us_per_collective", probe * 1e6));
    let model = CostModel::default().tree_collective(shape.pes, pes[0].probe_words);
    m.push(("comm.model_us_per_collective", model.seconds() * 1e6));

    // snapshot: output-charged work inside steps, and reader verifies.
    let mut publish = 0.0;
    for pe in pes {
        for s in &pe.spans {
            let in_step = s.parent != ROOT && pe.spans[s.parent as usize].name == "engine.step";
            if in_step && s.charge == Some(Charge::Output) {
                publish += s.dur_ns() as f64 * 1e-9;
            }
        }
    }
    m.push(("snapshot.publish_us", ratio(publish, batches * p) * 1e6));
    m.push((
        "snapshot.verify_us",
        mean_span_s(pes, "snapshot.verify") * 1e6,
    ));

    m.push((
        "stream.cut_us_per_batch",
        ratio(spans_s(pes, "stream.cut").0, batches * p) * 1e6,
    ));
    m.push((
        "stream.vote_us_per_batch",
        ratio(spans_s(pes, "vote").0, batches * p) * 1e6,
    ));
    m.push((
        "stream.route_us_per_batch",
        ratio(spans_s(pes, "stream.route").0, batches * p) * 1e6,
    ));

    m.push(("sharded.step_us", mean_span_s(pes, "sharded.step") * 1e6));
    m.push((
        "sharded.construct_ms",
        mean_span_s(pes, "sharded.construct") * 1e3,
    ));
    let active = if shape.shards > 1 {
        ratio(
            sum_counts(&pes[..1], |b| b.active as f64),
            batches * shape.shards as f64,
        )
    } else {
        0.0
    };
    m.push(("sharded.active_frac", active));

    m.push(("seq.items_per_s", seq_items_per_s));
    let ips = |c: &Cluster| ratio(c.records as f64, c.busy_s);
    m.push(("trace.overhead_frac", 1.0 - ratio(ips(traced), ips(plain))));

    assert_eq!(m.len(), METRICS.len());
    for ((name, v), (want, unit)) in m.iter().zip(METRICS) {
        assert_eq!(*name, want, "per-layer metrics out of order");
        rep.metric(name, *v, unit);
    }
    rep.info("trace.batches", batches);
    rep.info("engine.step_us.p99.percentile", format!("{:.2}", q * 100.0));
    rep.info("engine.step_us.p99.samples", per_batch.len());
    m.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
}

/// The sequential jump sampler fed exactly the records a workload fed,
/// one sampler per reservoir (a shard, or a window's sampler): the
/// same-work single-thread baseline behind `seq.items_per_s`.
pub struct SeqBaseline {
    k: usize,
    seed: u64,
    samplers: Vec<WeightedJumpSampler<DefaultRng>>,
    busy_s: f64,
    records: u64,
}

impl SeqBaseline {
    pub fn new(k: usize, seed: u64, reservoirs: usize) -> Self {
        let mut b = SeqBaseline {
            k,
            seed,
            samplers: Vec::with_capacity(reservoirs),
            busy_s: 0.0,
            records: 0,
        };
        let t0 = Instant::now();
        b.samplers.extend(
            (0..reservoirs as u64).map(|i| WeightedJumpSampler::new(k, default_rng(seed ^ i))),
        );
        b.busy_s += t0.elapsed().as_secs_f64();
        b
    }

    /// Start reservoir `i` afresh (the next window's sampler); timed.
    pub fn restart(&mut self, i: usize, salt: u64) {
        let t0 = Instant::now();
        self.samplers[i] = WeightedJumpSampler::new(self.k, default_rng(self.seed ^ salt));
        self.busy_s += t0.elapsed().as_secs_f64();
    }

    /// Offer `items` to reservoir `i`; timed.
    pub fn feed(&mut self, i: usize, items: &[Item]) {
        let t0 = Instant::now();
        self.samplers[i].process_batch(std::hint::black_box(items));
        self.busy_s += t0.elapsed().as_secs_f64();
        self.records += items.len() as u64;
    }

    pub fn items_per_s(&self) -> f64 {
        ratio(self.records as f64, self.busy_s)
    }
}

/// Replays one batch's tree work on a `BPlusTree<SampleKey, f64>`
/// holding `held` keys: `inserts` inserts below the threshold, then the
/// prune back to `held` (a `split_at_key` at the threshold). Returns
/// (ns per insert, µs per prune).
pub fn btree_replay(held: usize, inserts: usize, seed: u64) -> (f64, f64) {
    let held = held.max(1);
    let inserts = inserts.max(1);
    let rounds = (200_000 / inserts).clamp(50, 5_000);
    let mut rng = default_rng(seed);
    let mut id = 0u64;
    let mut key = |rng: &mut reservoir_rng::DefaultRng| {
        id += 1;
        SampleKey::new(rng.rand_oc(), id)
    };
    let mut tree = BPlusTree::with_degree(DEFAULT_DEGREE);
    for _ in 0..held {
        tree.insert(key(&mut rng), 1.0);
    }
    let (mut ins_s, mut prune_s) = (Vec::new(), Vec::new());
    let mut fresh = Vec::with_capacity(inserts);
    for _ in 0..rounds {
        fresh.clear();
        fresh.extend((0..inserts).map(|_| key(&mut rng)));
        let t0 = Instant::now();
        for &k in &fresh {
            tree.insert(k, 1.0);
        }
        ins_s.push(t0.elapsed().as_secs_f64() / inserts as f64);
        let t0 = Instant::now();
        let t = *tree.select(held - 1).expect("the tree holds `held` keys").0;
        let cut = tree.split_at_key(&t, true);
        prune_s.push(t0.elapsed().as_secs_f64());
        drop(std::hint::black_box(cut));
        assert_eq!(tree.len(), held);
    }
    (mean(&ins_s) * 1e9, median(&prune_s) * 1e6)
}
