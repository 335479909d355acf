//! The repository's benchmark: four named workloads of the distributed
//! weighted reservoir sampler, measured from outside through public API.
//!
//! ```text
//! perfbench --workload <scan_k8|window_k64k|fresh_k1k|fleet_s4096>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds` seconds
//! (closed loop: a PE offers its next mini-batch when the previous step
//! finished; input is generated from the seed outside every timed
//! region). `--trace 1` instead runs a fixed-length episode untraced and
//! twice traced, checks that all three draw byte-identical samples and
//! that the exact counters repeat, and reports the per-layer metrics.
//!
//! Every output is checked. The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the line
//! before it is the full record with units and provenance. A panic or a
//! run past its deadline counts every attempted operation as failed and
//! exits non-zero without waiting for the stuck PEs.

mod fleet;
mod input;
mod layers;
mod report;
mod run;
mod single;
mod trace;
mod window;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use report::Report;
use run::{Cluster, PeOut, Until};

/// Workloads, each with why it is in the benchmark.
const WORKLOADS: [(&str, &str); 4] = [
    ("scan_k8", "p=2, k=8, 2^20 records/PE/batch: the jump scan is the whole step; bypasses tree, select and comm"),
    ("window_k64k", "tumbling windows of 8x2^17 records through Batcher and run_pipeline, k=65536, 2 scan threads: insert-bound"),
    ("fresh_k1k", "p=2, k=1024, 2000 records/PE/batch, a snapshot published and read every step: select, collectives, epochs"),
    ("fleet_s4096", "4096-shard fleet, k=32, log-uniform tenants routed by ShardRouter: sharded supersteps, sparse skip, setup"),
];

/// Operations started so far, for the failure report of a run that
/// hangs or panics.
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static PANICKED: AtomicBool = AtomicBool::new(false);

pub fn note_attempt(n: u64) {
    ATTEMPTED.fetch_add(n, Ordering::Relaxed);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            report: Report::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Fold in a run's operations and failures.
    fn absorb(&mut self, c: &Cluster, collective_reads: bool) {
        let (a, f) = c.ops(collective_reads);
        self.attempted += a;
        self.failed += f;
        self.failures.extend(c.failures());
    }

    /// One benchmark-level check, counted as one operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// fresh_k1k's law check: weight-proportional inclusion on (0, 100]
/// puts the mean sampled weight at 2/3 · 100 (standard error ≈ 0.74 at
/// k = 1024); ±5 is a gross-error bound.
fn check_mean_weight(o: &mut Outcome, c: &Cluster) {
    let n: usize = c.pes.iter().map(|p| p.sample.len()).sum();
    let mean = c.pes.iter().map(|p| p.weight_sum).sum::<f64>() / n.max(1) as f64;
    o.check((mean - 200.0 / 3.0).abs() <= 5.0, || {
        format!("mean sampled weight {mean:.2} outside 66.7 ± 5")
    });
    o.report.info("mean_sampled_weight", format!("{mean:.3}"));
}

fn end_to_end(args: &Args) -> Outcome {
    let secs = args.seconds;
    let until = || Until::Deadline(Instant::now() + Duration::from_secs(secs));
    let (cluster, collective_reads) = match args.workload.as_str() {
        "scan_k8" => (single::SCAN_K8.run(args.seed, until), true),
        "fresh_k1k" => (single::FRESH_K1K.run(args.seed, until), false),
        "window_k64k" => (window::WINDOW_K64K.run(args.seed, until), true),
        "fleet_s4096" => (fleet::FLEET_S4096.run(args.seed, until), true),
        w => unreachable!("workload {w} was validated"),
    };
    let c = Cluster::merge(cluster, collective_reads);
    let mut o = Outcome::new();
    o.absorb(&c, collective_reads);
    if args.workload == "fresh_k1k" {
        check_mean_weight(&mut o, &c);
    }
    c.end_to_end(&mut o.report);
    o
}

/// The traced comparison: one untraced and two traced runs of the same
/// fixed episode.
fn traced(args: &Args) -> Outcome {
    let (seed, secs) = (args.seed, args.seconds);
    let mut o = Outcome::new();
    let (runs, shape, seq): (Vec<Vec<PeOut>>, layers::Shape, f64) = match args.workload.as_str() {
        "scan_k8" | "fresh_k1k" => {
            let w = if args.workload == "scan_k8" {
                single::SCAN_K8
            } else {
                single::FRESH_K1K
            };
            let runs = vec![
                w.run_traced(seed, secs),
                w.run_episode(seed, secs),
                w.run_traced(seed, secs),
            ];
            let mut pools: Vec<_> = (0..w.pes).map(|pe| w.pool(seed, pe)).collect();
            let mut seq = layers::SeqBaseline::new(w.k, seed, 1);
            for b in 0..w.episode(secs) {
                for pool in &mut pools {
                    seq.feed(0, pool.batch(b));
                }
            }
            let shape = layers::Shape {
                pes: w.pes,
                shards: 1,
            };
            (runs, shape, seq.items_per_s())
        }
        "window_k64k" => {
            let w = window::WINDOW_K64K;
            let runs = vec![
                w.run_traced(seed, secs),
                w.run_episode(seed, secs),
                w.run_traced(seed, secs),
            ];
            let mut pool = w.pool(seed);
            let mut seq = layers::SeqBaseline::new(w.k, seed, 1);
            for win in 0..w.episode(secs) {
                seq.restart(0, win);
                let b0 = win * w.batches_per_window;
                for b in b0..b0 + w.batches_per_window {
                    seq.feed(0, pool.batch(b));
                }
            }
            let shape = layers::Shape { pes: 1, shards: 1 };
            (runs, shape, seq.items_per_s())
        }
        "fleet_s4096" => {
            let w = fleet::FLEET_S4096;
            let runs = vec![
                w.run_traced(seed, secs),
                w.run_episode(seed, secs),
                w.run_traced(seed, secs),
            ];
            let seq = fleet_seq(&w, seed, secs);
            let shape = layers::Shape {
                pes: w.pes,
                shards: w.shards,
            };
            (runs, shape, seq)
        }
        w => unreachable!("workload {w} was validated"),
    };
    let collective_reads = args.workload != "fresh_k1k";
    // Traced, untraced, traced: the untraced reference runs warm, and
    // the tracing overhead is taken against both traced runs.
    let mut runs = runs
        .into_iter()
        .map(|r| Cluster::merge(r, collective_reads));
    let t1 = runs.next().expect("first traced episode");
    let plain = runs.next().expect("untraced episode");
    let t2 = runs.next().expect("second traced episode");
    for c in [&plain, &t1, &t2] {
        o.absorb(c, collective_reads);
    }
    if args.workload == "fresh_k1k" {
        check_mean_weight(&mut o, &plain);
    }
    let same = plain.sample() == t1.sample() && t1.sample() == t2.sample();
    o.check(same, || {
        "traced samples differ from the untraced sample".into()
    });

    // The B+ tree replay at this workload's reservoir size and per-batch
    // insert count (per PE, per shard).
    let held = (t2.pes.iter().map(|p| p.held).sum::<f64>() / shape.pes as f64).round() as usize;
    let batches = t2.pes[0].counts.len().max(1) as f64;
    let inserted: f64 = t2
        .pes
        .iter()
        .flat_map(|p| &p.counts)
        .map(|b| b.inserted as f64)
        .sum();
    let active: f64 = if shape.shards > 1 {
        t2.pes[0]
            .counts
            .iter()
            .map(|b| b.active as f64)
            .sum::<f64>()
            / batches
    } else {
        1.0
    };
    let per_tree = (inserted / batches / shape.pes as f64 / active).ceil() as usize;
    let bt = layers::btree_replay(held, per_tree, seed);
    o.report.info("btree.replay_held", held);
    o.report.info("btree.replay_inserts", per_tree);

    let m1 = layers::per_layer(&mut Report::default(), &shape, &t1, &plain, seq, bt);
    let m2 = layers::per_layer(&mut o.report, &shape, &t2, &plain, seq, bt);
    let overhead = |m: &[(String, f64)]| {
        m.iter()
            .find(|(n, _)| n == "trace.overhead_frac")
            .map_or(0.0, |(_, v)| *v)
    };
    o.report
        .set("trace.overhead_frac", (overhead(&m1) + overhead(&m2)) / 2.0);
    // The exact counters behind `layers::EXACT`, batch by batch.
    let exact = |c: &Cluster| -> Vec<_> {
        c.pes
            .iter()
            .flat_map(|p| &p.counts)
            .map(|b| {
                (
                    b.inserted,
                    b.jumps,
                    b.select_calls,
                    b.select_rounds,
                    b.active,
                    b.comm.launches,
                    b.comm.stats,
                )
            })
            .collect()
    };
    o.check(exact(&t1) == exact(&t2), || {
        "per-batch exact counters did not repeat".into()
    });
    o.report.info("exact_counters", layers::EXACT.join(","));
    o.report.info(
        "timing_dependent",
        "par.steals_per_batch,par.spawns_per_batch,comm.wait_us_per_batch and every time",
    );
    write_spans(args, &t2);
    o
}

/// The fleet's same-work baseline: one sequential sampler per shard,
/// fed the shard's routed records (routing outside the timing).
fn fleet_seq(w: &fleet::Fleet, seed: u64, secs: u64) -> f64 {
    let router = w.router();
    let mut seq = layers::SeqBaseline::new(w.k, seed, w.shards);
    let mut pools: Vec<_> = (0..w.pes).map(|pe| w.pool(seed, pe)).collect();
    let mut buckets: Vec<Vec<reservoir_stream::Item>> = vec![Vec::new(); w.shards];
    for b in 0..w.episode(secs) {
        for pool in &mut pools {
            for bucket in &mut buckets {
                bucket.clear();
            }
            router.route_into(pool.batch(b).iter().copied(), &mut buckets);
            for (s, bucket) in buckets.iter().enumerate() {
                if !bucket.is_empty() {
                    seq.feed(s, bucket);
                }
            }
        }
    }
    seq.items_per_s()
}

/// Spans of the second traced run, one JSON object per line, under the
/// build directory.
fn write_spans(args: &Args, c: &Cluster) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-traces");
    let write = || -> std::io::Result<std::path::PathBuf> {
        use std::io::Write;
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (pe, out) in c.pes.iter().enumerate() {
            for (i, s) in out.spans.iter().enumerate() {
                writeln!(
                    f,
                    "{{\"pe\": {pe}, \"id\": {i}, \"name\": \"{}\", \"charge\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"batch\": {}, \"work\": {}}}",
                    s.name,
                    s.charge.map_or(String::new(), |c| format!("{c:?}")),
                    s.start_ns,
                    s.end_ns,
                    if s.parent == trace::ROOT { -1 } else { s.parent as i64 },
                    s.batch,
                    s.work
                )?;
            }
        }
        f.flush()?;
        Ok(path)
    };
    match write() {
        Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}

fn provenance(args: &Args, r: &mut Report) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("", |(_, y)| y);
    let mut head = Report::default();
    head.info("workload", &args.workload);
    head.info("workload_params", why);
    head.info("seed", args.seed);
    head.info("seconds", args.seconds);
    head.info("trace", args.trace as u8);
    head.info("host", env("PERFBENCH_HOST"));
    head.info("nproc", nproc);
    head.info("git_rev", env("PERFBENCH_GIT_REV"));
    head.info(
        "closed_loop",
        "one client per PE; next batch after the previous step",
    );
    head.info.append(&mut r.info);
    r.info = head.info;
}

fn emit(args: &Args, mut o: Outcome) -> ! {
    let correct = o.failed == 0 && o.attempted > 0;
    o.report.info("attempted", o.attempted);
    o.report.info("failed", o.failed);
    o.report.info(
        "failed_frac",
        format!("{}", o.failed as f64 / o.attempted.max(1) as f64),
    );
    provenance(args, &mut o.report);
    for f in &o.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    for (name, v, unit) in o.report.metrics.iter().chain(&o.report.tails) {
        eprintln!("perfbench: {:<30} {v:>16.6} {unit}", name);
    }
    println!("{}", o.report.record_json());
    println!("{}", o.report.result_json(correct, o.attempted, o.failed));
    std::process::exit(if correct { 0 } else { 1 })
}

fn main() {
    // The sampler reads RESERVOIR_* settings from the environment; the
    // benchmark pins every setting in code and keeps observability off.
    for (k, _) in std::env::vars() {
        if k.starts_with("RESERVOIR_") {
            std::env::remove_var(k);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <1..60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICKED.store(true, Ordering::SeqCst);
        default_hook(info);
    }));
    let deadline = Instant::now() + Duration::from_secs((3 * args.seconds + 60).min(150));
    let (tx, rx) = mpsc::channel();
    let worker_args = Args {
        workload: args.workload.clone(),
        ..args
    };
    std::thread::spawn(move || {
        let o = if worker_args.trace {
            traced(&worker_args)
        } else {
            end_to_end(&worker_args)
        };
        let _ = tx.send(o);
    });
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(o) => emit(&args, o),
            Err(mpsc::RecvTimeoutError::Timeout)
                if !PANICKED.load(Ordering::SeqCst) && Instant::now() < deadline => {}
            Err(_) => {
                // A PE panicked (its peers would block forever in
                // `run_threads`) or the run overran: every operation
                // attempted counts as failed, and the process exits
                // without joining the stuck threads.
                let what = if PANICKED.load(Ordering::SeqCst) {
                    "a PE panicked"
                } else {
                    "the run overran its deadline"
                };
                let mut o = Outcome::new();
                o.attempted = ATTEMPTED.load(Ordering::SeqCst).max(1);
                o.failed = o.attempted;
                o.failures.push(what.into());
                emit(&args, o)
            }
        }
    }
}
