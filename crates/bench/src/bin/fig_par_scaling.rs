//! Parallel local-scan scaling through the **engine API**: real (not
//! simulated) throughput of a single-PE `ReservoirProtocol<CommBackend>`
//! batch step over 1..=8 scan threads, on the machine it runs on — the
//! path every production batch takes, not a bare reservoir micro-loop.
//! `speedup_vs_seq` divides by the same engine step at one scan thread
//! (the sequential local scan) over the same items and k, so both sides
//! of the ratio do the same work. Each width is swept twice: with the
//! default per-scope worker pool and with the persistent crew
//! (`DistConfig::with_persistent_pool`), whose per-batch spawn count
//! drops to zero.
//!
//! Each (threads, pool) point is additionally swept over both **merge
//! schedules**: the buffered scan epilogue and the concurrent shared-tree
//! merge (`MergeMode::Concurrent`), where workers insert into the OLC
//! tree as they scan — the single-threaded concurrent point is the
//! merge-overhead baseline the no-regression guard watches.
//!
//! Emits a human-readable table on stdout and a machine-readable
//! `BENCH_par_scan.json` (override the path with `RESERVOIR_BENCH_OUT`) —
//! the recorded perf trajectory CI uploads as a non-gating artifact. The
//! schema keeps every pre-engine field (`items_per_s`, `speedup_vs_seq`,
//! `modeled_speedup`, `steals_per_batch`, `worker_imbalance`) so the
//! trajectory stays comparable, and adds `spawns_per_batch`, the
//! `persistent` flag, and per-entry `merge_mode` + `retries_per_batch`
//! (seqlock conflicts; always 0 under the epilogue). Concurrent-merge
//! points are additionally swept with contention-aware insertion
//! (`leaf_affinity` column: key-ordered micro-batched inserts, the
//! default) on and off — watch `retries_per_batch` drop with it on.
//! Honours `RESERVOIR_BENCH_QUICK=1` for a reduced batch size.

use std::fmt::Write as _;
use std::time::Instant;

use reservoir_bench::calibrate;
use reservoir_core::dist::engine::ReservoirProtocol;
use reservoir_core::dist::sim::LocalCostModel;
use reservoir_core::dist::threaded::CommBackend;
use reservoir_core::dist::{DistConfig, MergeMode};
use reservoir_par::DEFAULT_CHUNK_ITEMS;
use reservoir_rng::{default_rng, Rng64};
use reservoir_stream::Item;

/// A tiny sample size keeps the engine's per-batch collectives (count +
/// occasional selection on one PE) negligible against the jump scan —
/// the paper's long-stream regime, now measured through the real step
/// sequence.
const K: usize = 8;
const MAX_THREADS: usize = 8;

struct Sweep {
    threads: usize,
    persistent: bool,
    merge: MergeMode,
    leaf_affinity: bool,
    items_per_s: f64,
    speedup_vs_seq: f64,
    steals: u64,
    spawns: u64,
    retries: u64,
    worker_imbalance: f64,
}

fn merge_name(merge: MergeMode) -> &'static str {
    match merge {
        MergeMode::Epilogue => "epilogue",
        MergeMode::Concurrent => "concurrent",
    }
}

fn time_reps(mut f: impl FnMut(), reps: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    // Arm observability so the emitted JSON carries the run's full
    // metrics snapshot next to the measured sweep.
    reservoir_obs::set_enabled(true);
    let quick = std::env::var_os("RESERVOIR_BENCH_QUICK").is_some();
    let b: u64 = if quick { 500_000 } else { 4_000_000 };
    let reps: u32 = if quick { 3 } else { 5 };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!("calibrating local cost model (for the modeled-speedup column)...");
    let costs = calibrate(quick);

    let mut rng = default_rng(0xBA5E);
    let items: Vec<Item> = (0..b)
        .map(|i| Item::new(i, rng.rand_oc() * 100.0))
        .collect();

    // Sequential baseline: the same single-PE engine step at one scan
    // thread (the sequential local scan) over the same items and k.
    let items_ref = &items;
    let seq_s = reservoir_comm::run_threads(1, move |comm| {
        let cfg = DistConfig::weighted(K, 1)
            .with_threads(1)
            .with_merge(MergeMode::Epilogue);
        let mut engine = ReservoirProtocol::new(CommBackend::new(&comm, &cfg), cfg);
        let _ = engine.step(items_ref);
        time_reps(
            || {
                let _ = engine.step(items_ref);
            },
            reps,
        )
    })[0];
    let baseline = b as f64 / seq_s;

    let mut sweep = Vec::new();
    for threads in 1..=MAX_THREADS {
        for persistent in [false, true] {
            if threads == 1 && persistent {
                continue; // one worker has no helpers to keep alive
            }
            for merge in [MergeMode::Epilogue, MergeMode::Concurrent] {
                // Leaf affinity only exists on the concurrent path; the
                // epilogue sweeps one (ignored-default) point.
                let affinities: &[bool] = match merge {
                    MergeMode::Concurrent => &[true, false],
                    MergeMode::Epilogue => &[true],
                };
                for &leaf_affinity in affinities {
                    // One PE over the engine: every measured batch runs the
                    // full insert_scan → count → select_prune step.
                    let result = reservoir_comm::run_threads(1, move |comm| {
                        let cfg = DistConfig::weighted(K, 1)
                            .with_threads(threads)
                            .with_persistent_pool(persistent)
                            .with_merge(merge)
                            .with_leaf_affinity(leaf_affinity);
                        let mut engine = ReservoirProtocol::new(CommBackend::new(&comm, &cfg), cfg);
                        // Warm up: establishes the threshold and the crew.
                        let _ = engine.step(items_ref);
                        let mut steals = 0u64;
                        let mut spawns = 0u64;
                        let mut retries = 0u64;
                        let mut max_busy = 0.0f64;
                        let mut sum_busy = 0.0f64;
                        let per = time_reps(
                            || {
                                let report = engine.step(items_ref);
                                steals += report.scan.steals;
                                spawns += report.scan.spawns;
                                retries += report.scan.retries;
                                if let Some(par) = engine.backend().last_par_scan() {
                                    max_busy += par.max_worker_scan_s();
                                    sum_busy += par.worker_scan_s.iter().sum::<f64>();
                                }
                            },
                            reps,
                        );
                        (per, steals, spawns, retries, max_busy, sum_busy)
                    });
                    let (per, steals, spawns, retries, max_busy, sum_busy) = result[0];
                    let items_per_s = b as f64 / per;
                    sweep.push(Sweep {
                        threads,
                        persistent,
                        merge,
                        leaf_affinity,
                        items_per_s,
                        speedup_vs_seq: items_per_s / baseline,
                        steals: steals / reps as u64,
                        spawns: spawns / reps as u64,
                        retries: retries / reps as u64,
                        // max/mean worker busy time: 1.0 = perfectly balanced.
                        // One worker (the sequential path, which reports no
                        // per-worker breakdown) is trivially balanced.
                        worker_imbalance: if threads == 1 || sum_busy <= 0.0 {
                            1.0
                        } else {
                            max_busy / (sum_busy / threads as f64)
                        },
                    });
                }
            }
        }
    }

    // --- stdout table ---------------------------------------------------
    println!("### fig_par_scaling — engine batch step, weighted, b = {b}, k = {K}");
    println!(
        "host cores: {cores}; one-thread engine step baseline: {:.3e} items/s; \
         calibrated serial fraction: {:.3}",
        baseline, costs.par_serial_frac
    );
    println!(
        "\n| threads | pool | merge | affinity | items/s | speedup vs seq | modeled | steals/batch | spawns/batch | retries/batch | imbalance |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for s in &sweep {
        println!(
            "| {} | {} | {} | {} | {:.3e} | {:.2}x | {:.2}x | {} | {} | {} | {:.2} |",
            s.threads,
            if s.persistent { "crew" } else { "scope" },
            merge_name(s.merge),
            if s.leaf_affinity { "on" } else { "off" },
            s.items_per_s,
            s.speedup_vs_seq,
            costs.scan_speedup(s.threads as u64),
            s.steals,
            s.spawns,
            s.retries,
            s.worker_imbalance,
        );
    }

    // --- machine-readable trajectory ------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"par_scan\",");
    let _ = writeln!(json, "  \"driver\": \"engine\",");
    let _ = writeln!(json, "  \"mode\": \"weighted\",");
    let _ = writeln!(json, "  \"batch_items\": {b},");
    let _ = writeln!(json, "  \"sample_k\": {K},");
    let _ = writeln!(json, "  \"chunk_items\": {DEFAULT_CHUNK_ITEMS},");
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"baseline_seq_items_per_s\": {:.6e},", baseline);
    let _ = writeln!(
        json,
        "  \"calibrated_serial_frac\": {:.6},",
        costs.par_serial_frac
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, s) in sweep.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"threads\": {}, \"persistent\": {}, \"merge_mode\": \"{}\", \
             \"leaf_affinity\": {}, \
             \"items_per_s\": {:.6e}, \
             \"speedup_vs_seq\": {:.4}, \"modeled_speedup\": {:.4}, \
             \"steals_per_batch\": {}, \"spawns_per_batch\": {}, \
             \"retries_per_batch\": {}, \
             \"worker_imbalance\": {:.4}}}{}",
            s.threads,
            s.persistent,
            merge_name(s.merge),
            s.leaf_affinity,
            s.items_per_s,
            s.speedup_vs_seq,
            costs.scan_speedup(s.threads as u64),
            s.steals,
            s.spawns,
            s.retries,
            s.worker_imbalance,
            if i + 1 < sweep.len() { "," } else { "" },
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"obs\": {}",
        reservoir_obs::global().reader().json()
    );
    let _ = writeln!(json, "}}");

    let out = std::env::var("RESERVOIR_BENCH_OUT").unwrap_or_else(|_| "BENCH_par_scan.json".into());
    std::fs::write(&out, &json).expect("write BENCH_par_scan.json");
    eprintln!("wrote {out}");
}
