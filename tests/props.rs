//! Property-based integration tests over the public API.

use proptest::prelude::*;
use reservoir::comm::run_threads;
use reservoir::dist::threaded::DistributedSampler;
use reservoir::dist::{DistConfig, SampleEpoch, ShardedSampler};
use reservoir::rng::{default_rng, Rng64};
use reservoir::seq::{UniformJumpSampler, WeightedJumpSampler};
use reservoir::stream::{route_by_id, Item, ShardRouter};
use reservoir::SampleItem;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential weighted sampler: for arbitrary weights and k, the sample
    /// has min(k, n) distinct members, all seen, threshold = max key.
    #[test]
    fn seq_weighted_invariants(
        weights in prop::collection::vec(1e-3f64..1e3, 1..400),
        k in 1usize..50,
        seed in 0u64..1000,
    ) {
        let mut s = WeightedJumpSampler::new(k, default_rng(seed));
        for (i, &w) in weights.iter().enumerate() {
            s.process(i as u64, w);
        }
        let sample = s.sample();
        prop_assert_eq!(sample.len(), k.min(weights.len()));
        let mut ids: Vec<u64> = sample.iter().map(|x| x.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), sample.len());
        prop_assert!(ids.iter().all(|&i| (i as usize) < weights.len()));
        if let Some(t) = s.threshold() {
            prop_assert!(sample.iter().all(|x| x.key <= t));
        }
        // Weights in the sample are the original weights.
        for x in &sample {
            prop_assert_eq!(x.weight, weights[x.id as usize]);
        }
    }

    /// Sequential uniform sampler via runs: same invariants, and the
    /// processed count matches exactly.
    #[test]
    fn seq_uniform_run_invariants(n in 1u64..100_000, k in 1usize..64, seed in 0u64..1000) {
        let mut s = UniformJumpSampler::new(k, default_rng(seed));
        s.process_run(0, n);
        prop_assert_eq!(s.stats().processed, n);
        let sample = s.sample();
        prop_assert_eq!(sample.len(), k.min(n as usize));
        prop_assert!(sample.iter().all(|x| x.id < n && x.key > 0.0 && x.key <= 1.0));
    }

    /// Size-window (Section 4.4) invariants under arbitrary geometry: the
    /// reported sample size stays at or below `hi` and — once the sample
    /// filled — at or above `lo`; the threshold is monotonically
    /// non-increasing; finalization cuts the output back to exactly
    /// min(lo, total); and no item id appears on two PEs afterwards.
    #[test]
    fn size_window_invariants(
        lo in 5u64..40,
        extra in 1u64..40,
        p in 1usize..4,
        batch in 20usize..150,
        seed in 0u64..400,
    ) {
        let hi = lo + extra;
        let results = run_threads(p, move |comm| {
            use reservoir::comm::Communicator;
            let cfg = DistConfig::weighted(lo as usize, seed ^ 0x517E_AB1E).with_size_window(lo, hi);
            let mut s = DistributedSampler::new(&comm, cfg);
            let mut sizes = Vec::new();
            let mut thresholds = Vec::new();
            let mut total = 0u64;
            for b in 0..4u64 {
                let items: Vec<Item> = (0..batch as u64)
                    .map(|i| {
                        let id = ((comm.rank() as u64) << 40) | (b << 20) | i;
                        Item::new(id, 0.25 + (i % 13) as f64)
                    })
                    .collect();
                total += items.len() as u64;
                let rep = s.process_batch(&items);
                sizes.push(rep.sample_size);
                thresholds.push(s.threshold());
            }
            let handle = s.collect_output();
            (sizes, thresholds, handle, total)
        });
        let (sizes, thresholds, _, per_pe_total) = &results[0];
        let total: u64 = per_pe_total * p as u64;
        // The size never exceeds the window top; once the sample has
        // filled (a threshold exists), it never drops below the bottom.
        for (sz, t) in sizes.iter().zip(thresholds) {
            prop_assert!(*sz <= hi, "size {sz} above window top {hi}");
            if t.is_some() {
                prop_assert!(*sz >= lo, "size {sz} under window bottom {lo}");
            }
        }
        // Thresholds are non-increasing once established.
        let established: Vec<f64> = thresholds.iter().flatten().copied().collect();
        prop_assert!(established.windows(2).all(|w| w[1] <= w[0]));
        // Every PE agrees on sizes and thresholds.
        for r in &results[1..] {
            prop_assert_eq!(&r.0, sizes);
            prop_assert_eq!(&r.1, thresholds);
        }
        // Finalized output: exactly min(lo, total) members, disjoint ids
        // across PEs, offsets partitioning the global range in rank order.
        let expect = lo.min(total);
        let grand: u64 = results.iter().map(|(_, _, h, _)| h.local_len()).sum();
        prop_assert_eq!(grand, expect);
        let mut next = 0u64;
        let mut all_ids = Vec::new();
        for (_, _, h, _) in &results {
            prop_assert_eq!(h.total_len(), expect);
            prop_assert_eq!(h.offset(), next);
            next += h.local_len();
            all_ids.extend(h.local_items().iter().map(|m| m.id));
            if let Some(t) = h.threshold() {
                prop_assert!(h.local_items().iter().all(|m| m.key <= t));
            }
        }
        let distinct = all_ids.len();
        all_ids.sort_unstable();
        all_ids.dedup();
        prop_assert_eq!(all_ids.len(), distinct, "duplicate ids across PEs");
    }

    /// Distributed sampler with arbitrary (small) batch plans: the union
    /// sample always has size min(k, total items); ids unique.
    #[test]
    fn distributed_union_size(
        batch_plan in prop::collection::vec(0usize..120, 1..5),
        k in 1usize..80,
        p in 1usize..4,
        seed in 0u64..500,
    ) {
        let plan = batch_plan.clone();
        let results = run_threads(p, move |comm| {
            use reservoir::comm::Communicator;
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(k, seed));
            let mut rng = default_rng(seed ^ comm.rank() as u64);
            let mut next_id = (comm.rank() as u64) << 32;
            let mut total = 0u64;
            for &b in &plan {
                let items: Vec<Item> = (0..b)
                    .map(|_| {
                        next_id += 1;
                        Item::new(next_id, 0.5 + rng.rand_oc() * 10.0)
                    })
                    .collect();
                total += b as u64;
                s.process_batch(&items);
            }
            (s.gather_sample(), total)
        });
        let total: u64 = results.iter().map(|(_, t)| t).sum::<u64>() / p as u64 * p as u64;
        let sample = results[0].0.as_ref().expect("root");
        prop_assert_eq!(sample.len() as u64, (k as u64).min(total));
        let mut ids: Vec<u64> = sample.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), sample.len());
    }

    /// `SampleHandle::shards` edge cases on real collected outputs — an
    /// empty stream (total == 0) yields no assignments, more shards than
    /// members gives every member its own shard (its global position), a
    /// single member lands in shard 0 — and in every case assignments
    /// stay in range, cover all members exactly once, and are monotone in
    /// global position.
    #[test]
    fn sample_handle_shard_routing_edges(
        n in 0u64..6,
        shards in 1u64..96,
        k in 1usize..8,
        p in 1usize..4,
        seed in 0u64..300,
    ) {
        let results = run_threads(p, move |comm| {
            use reservoir::comm::Communicator;
            let mut s = DistributedSampler::new(&comm, DistConfig::weighted(k, seed ^ 0xD1CE));
            // All records arrive at PE 0: the edge geometry where most
            // PEs own no slice of the output.
            let items: Vec<Item> = if comm.rank() == 0 {
                (0..n).map(|i| Item::new(i, 1.0 + i as f64)).collect()
            } else {
                Vec::new()
            };
            s.process_batch(&items);
            s.collect_output()
        });
        let total = n.min(k as u64);
        let mut assigned: Vec<(u64, u64)> = Vec::new();
        for h in &results {
            prop_assert_eq!(h.total_len(), total);
            prop_assert_eq!(h.is_empty(), total == 0);
            for ((pos, _), (shard, _)) in h.enumerate().zip(h.shards(shards)) {
                prop_assert!(shard < shards);
                assigned.push((pos, shard));
            }
        }
        prop_assert_eq!(assigned.len() as u64, total, "every member assigned once");
        assigned.sort_unstable();
        prop_assert!(
            assigned.windows(2).all(|w| w[0].1 <= w[1].1),
            "shard indices monotone in global position"
        );
        if shards >= total {
            // More shards than members: one member per shard, at the
            // shard matching its global position.
            for &(pos, shard) in &assigned {
                prop_assert_eq!(shard, pos);
            }
        }
        if total == 1 {
            prop_assert_eq!(assigned[0], (0, 0));
        }
    }

    /// Router invariants under arbitrary keys and shard counts: every
    /// record lands in exactly one shard (the buckets partition the
    /// input), and the assignment is a pure function of the key —
    /// `shard_of` reproduces it record by record.
    #[test]
    fn shard_router_partitions_exactly(
        ids in prop::collection::vec(0u64..10_000, 0..300),
        shards in 1usize..40,
        modulus in 1u64..64,
    ) {
        let router = ShardRouter::new(shards, move |item: &Item| item.id % modulus);
        let items: Vec<Item> = ids.iter().map(|&i| Item::new(i, 1.0)).collect();
        let buckets = router.route(items);
        prop_assert_eq!(buckets.len(), shards);
        let mut seen: Vec<u64> = buckets.iter().flatten().map(|i| i.id).collect();
        prop_assert_eq!(seen.len(), ids.len(), "exactly one shard per record");
        seen.sort_unstable();
        let mut expect = ids.clone();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect);
        for (s, bucket) in buckets.iter().enumerate() {
            for it in bucket {
                prop_assert_eq!(router.shard_of(it), s);
            }
        }
    }

    /// A shard's sample is a function of its own routed substream alone:
    /// adding empty shards to the fleet (same buckets, larger shard
    /// count) leaves every original shard's threshold and members
    /// byte-identical.
    #[test]
    fn per_shard_sample_independent_of_fleet_size(
        shards in 1usize..5,
        extra in 1usize..4,
        k in 1usize..10,
        n in 0u64..400,
        seed in 0u64..200,
    ) {
        let results = run_threads(1, move |comm| {
            let cfg = DistConfig::weighted(k, seed ^ 0x5AFE);
            let router = route_by_id(shards);
            let items: Vec<Item> =
                (0..n).map(|i| Item::new(i, 0.5 + (i % 9) as f64)).collect();
            let mut small = ShardedSampler::new(&comm, cfg, shards);
            let mut big = ShardedSampler::new(&comm, cfg, shards + extra);
            let mut buckets = router.route(items);
            small.process_batch(&buckets);
            buckets.resize(shards + extra, Vec::new());
            big.process_batch(&buckets);
            (small.collect_output(), big.collect_output())
        });
        let (small, big) = &results[0];
        for s in 0..shards {
            prop_assert_eq!(small[s].threshold(), big[s].threshold(), "shard {}", s);
            let a: Vec<u64> = small[s].local_items().iter().map(|m| m.id).collect();
            let b: Vec<u64> = big[s].local_items().iter().map(|m| m.id).collect();
            prop_assert_eq!(a, b, "shard {} members", s);
        }
    }

    /// The snapshot checksum witnesses every single-bit corruption of any
    /// header or item word, and a reordering of two distinct items.
    #[test]
    fn epoch_checksum_detects_bit_flips_and_item_swaps(
        head in (any::<u64>(), any::<u64>()),
        fields in prop::collection::vec((0.0f64..1.0, 1e-3f64..1e3), 2..24),
        swap in (any::<u64>(), any::<u64>()),
    ) {
        let (base, salt) = head;
        let items: Vec<SampleItem> = fields
            .iter()
            .enumerate()
            .map(|(i, &(key, weight))| SampleItem { id: base.wrapping_add(i as u64), weight, key })
            .collect();
        let n = items.len();
        let e = SampleEpoch::new(
            salt >> 8,
            items,
            salt % 1000,
            salt % 1000 + 2 * n as u64,
            (salt % 7) as usize,
            8,
            Some(0.5),
            (salt % 5) as u32,
        );
        prop_assert!(e.verify());
        type Flip = fn(&mut SampleEpoch, u64);
        let head_flips: [Flip; 7] = [
            |e, f| e.epoch ^= f,
            |e, f| e.offset ^= f,
            |e, f| e.total ^= f,
            |e, f| e.pe ^= f as usize,
            |e, f| e.pes ^= f as usize,
            |e, f| e.threshold = e.threshold.map(|t| f64::from_bits(t.to_bits() ^ f)),
            |e, f| e.rounds ^= f as u32,
        ];
        for bit in 0..64 {
            let f = 1u64 << bit;
            for (word, flip) in head_flips.iter().enumerate() {
                let mut torn = e.clone();
                flip(&mut torn, f);
                if torn != e {
                    prop_assert!(!torn.verify(), "head word {} bit {}", word, bit);
                }
            }
            for i in 0..n {
                let mut torn = e.clone();
                torn.items[i].id ^= f;
                prop_assert!(!torn.verify(), "item {} id bit {}", i, bit);
                let mut torn = e.clone();
                torn.items[i].weight = f64::from_bits(torn.items[i].weight.to_bits() ^ f);
                prop_assert!(!torn.verify(), "item {} weight bit {}", i, bit);
                let mut torn = e.clone();
                torn.items[i].key = f64::from_bits(torn.items[i].key.to_bits() ^ f);
                prop_assert!(!torn.verify(), "item {} key bit {}", i, bit);
            }
        }
        let mut torn = e.clone();
        torn.threshold = None;
        prop_assert!(!torn.verify(), "threshold dropped");
        let i = (swap.0 % n as u64) as usize;
        let j = (i + 1 + (swap.1 % (n as u64 - 1)) as usize) % n;
        let mut torn = e.clone();
        torn.items.swap(i, j);
        prop_assert!(!torn.verify(), "items {} and {} swapped", i, j);
    }
}
