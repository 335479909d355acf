//! Property-based model tests: the B+ tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary operation sequences, and all
//! structural invariants must hold after every operation. The bulk merge
//! `extend_sorted` must leave exactly the tree that per-item `insert`s of
//! the same run leave.

use proptest::prelude::*;
use reservoir_btree::{BPlusTree, SampleKey};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    SplitKeyInclusive(u64),
    SplitKeyExclusive(u64),
    SplitRank(usize),
    PopMin,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..500, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0u64..500).prop_map(Op::Remove),
        1 => (0u64..500).prop_map(Op::SplitKeyInclusive),
        1 => (0u64..500).prop_map(Op::SplitKeyExclusive),
        1 => (0usize..600).prop_map(Op::SplitRank),
        1 => Just(Op::PopMin),
    ]
}

fn check_equal(tree: &BPlusTree<u64, u32>, model: &BTreeMap<u64, u32>) {
    tree.check_invariants();
    assert_eq!(tree.len(), model.len());
    let tree_pairs: Vec<(u64, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
    let model_pairs: Vec<(u64, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(tree_pairs, model_pairs);
}

/// Degrees the bulk-merge model runs at: the minimum, an odd degree, a
/// small even one and the samplers' default.
const EXTEND_DEGREES: [usize; 4] = [4, 5, 8, 32];

/// Where a bulk-merged run lands relative to the tree it merges into
/// (tree keys are drawn from `TREE_KEYS`).
#[derive(Clone, Copy, Debug)]
enum RunShape {
    Empty,
    Single,
    /// A handful of entries spread over the tree's key range.
    Sparse,
    /// More entries than the tree holds, over the tree's key range.
    Dense,
    BelowMin,
    AboveMax,
    /// Half the tree's own keys with new values, plus fresh keys.
    Overlap,
    /// A dense run onto an empty tree.
    OntoEmpty,
}

const RUN_SHAPES: [RunShape; 8] = [
    RunShape::Empty,
    RunShape::Single,
    RunShape::Sparse,
    RunShape::Dense,
    RunShape::BelowMin,
    RunShape::AboveMax,
    RunShape::Overlap,
    RunShape::OntoEmpty,
];

const TREE_KEYS: std::ops::Range<u64> = 10_000..20_000;

/// The run of `shape` built from raw draws, sorted by key (stable, so a
/// key drawn twice keeps its draw order and the later value wins).
fn run_of(shape: RunShape, base: &BTreeMap<u64, u32>, raw: &[(u64, u32)]) -> Vec<(u64, u32)> {
    let within = |lo: u64, hi: u64| move |&(k, v): &(u64, u32)| (lo + k % (hi - lo), v);
    let min = base.keys().next().copied().unwrap_or(TREE_KEYS.start);
    let max = base.keys().next_back().copied().unwrap_or(TREE_KEYS.end);
    let in_range = within(TREE_KEYS.start, TREE_KEYS.end);
    let mut run: Vec<(u64, u32)> = match shape {
        RunShape::Empty => Vec::new(),
        RunShape::Single => raw.iter().take(1).map(in_range).collect(),
        RunShape::Sparse => raw.iter().take(4).map(in_range).collect(),
        RunShape::Dense | RunShape::OntoEmpty => raw.iter().map(in_range).collect(),
        RunShape::BelowMin => raw.iter().map(within(0, min)).collect(),
        RunShape::AboveMax => raw.iter().map(within(max + 1, max + 50_000)).collect(),
        RunShape::Overlap => base
            .keys()
            .step_by(2)
            .zip(raw.iter().cycle())
            .map(|(&k, &(_, v))| (k, v))
            .chain(raw.iter().take(raw.len() / 2).map(in_range))
            .collect(),
    };
    run.sort_by_key(|&(k, _)| k);
    run
}

fn check_extended(
    tree: &BPlusTree<u64, u32>,
    reference: &BPlusTree<u64, u32>,
    model: &BTreeMap<u64, u32>,
) {
    check_equal(tree, model);
    let tree_pairs: Vec<(u64, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
    let ref_pairs: Vec<(u64, u32)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(
        tree_pairs, ref_pairs,
        "bulk merge differs from per-item inserts"
    );
    for (i, (k, _)) in tree_pairs.iter().enumerate() {
        assert_eq!(tree.rank(k), i);
        assert_eq!(tree.select(i).map(|(sk, _)| *sk), Some(*k));
    }
    assert_eq!(tree.select(tree_pairs.len()), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn behaves_like_btreemap(ops in prop::collection::vec(op_strategy(), 1..120), degree in 4usize..33) {
        let mut tree: BPlusTree<u64, u32> = BPlusTree::with_degree(degree);
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k));
                }
                Op::SplitKeyInclusive(k) => {
                    // Split and immediately rejoin: contents must survive.
                    let right = tree.split_at_key(&k, true);
                    prop_assert!(tree.iter().all(|(kk, _)| *kk <= k));
                    prop_assert!(right.iter().all(|(kk, _)| *kk > k));
                    right.check_invariants();
                    tree = std::mem::take(&mut tree).join(right);
                }
                Op::SplitKeyExclusive(k) => {
                    let right = tree.split_at_key(&k, false);
                    prop_assert!(tree.iter().all(|(kk, _)| *kk < k));
                    prop_assert!(right.iter().all(|(kk, _)| *kk >= k));
                    right.check_invariants();
                    tree = std::mem::take(&mut tree).join(right);
                }
                Op::SplitRank(r) => {
                    let right = tree.split_at_rank(r);
                    prop_assert_eq!(tree.len(), r.min(model.len()));
                    right.check_invariants();
                    tree = std::mem::take(&mut tree).join(right);
                }
                Op::PopMin => {
                    let want = model.iter().next().map(|(k, v)| (*k, *v));
                    if let Some((k, _)) = want {
                        model.remove(&k);
                    }
                    prop_assert_eq!(tree.pop_min(), want);
                }
            }
            check_equal(&tree, &model);
        }
    }

    #[test]
    fn rank_select_consistency(keys in prop::collection::btree_set(0u64..10_000, 0..400), degree in 4usize..17) {
        let mut tree: BPlusTree<u64, ()> = BPlusTree::with_degree(degree);
        for &k in &keys {
            tree.insert(k, ());
        }
        let sorted: Vec<u64> = keys.iter().copied().collect();
        for (i, &k) in sorted.iter().enumerate() {
            prop_assert_eq!(tree.rank(&k), i);
            prop_assert_eq!(tree.count_le(&k), i + 1);
            let (sk, _) = tree.select(i).expect("in range");
            prop_assert_eq!(*sk, k);
        }
        // rank of a key not in the tree equals the number of smaller keys.
        for probe in [0u64, 1, 4_999, 10_000, 20_000] {
            let expect = sorted.iter().filter(|&&k| k < probe).count();
            prop_assert_eq!(tree.rank(&probe), expect);
        }
        prop_assert_eq!(tree.select(sorted.len()), None);
    }

    #[test]
    fn split_rank_then_rejoin_is_identity(n in 0usize..500, r in 0usize..700, degree in 4usize..17) {
        let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 3, i)).collect();
        let mut tree = BPlusTree::from_sorted(entries.clone(), degree);
        let right = tree.split_at_rank(r);
        let rejoined = tree.join(right);
        rejoined.check_invariants();
        let got: Vec<(u64, u64)> = rejoined.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, entries);
    }

    #[test]
    fn from_sorted_equals_incremental(n in 0usize..800, degree in 4usize..33) {
        let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 7 + 1, i)).collect();
        let bulk = BPlusTree::from_sorted(entries.clone(), degree);
        bulk.check_invariants();
        let mut inc = BPlusTree::with_degree(degree);
        for (k, v) in &entries {
            inc.insert(*k, *v);
        }
        let a: Vec<_> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<_> = inc.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sample_key_order_is_total(pairs in prop::collection::vec((any::<f64>(), any::<u64>()), 0..100)) {
        // NaN never occurs in the samplers; filter it here.
        let mut keys: Vec<SampleKey> = pairs
            .into_iter()
            .filter(|(f, _)| !f.is_nan())
            .map(|(f, id)| SampleKey::new(f, id))
            .collect();
        keys.sort();
        for w in keys.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Insertion into the tree must succeed for arbitrary finite floats.
        let mut tree: BPlusTree<SampleKey, ()> = BPlusTree::with_degree(8);
        for k in &keys {
            tree.insert(*k, ());
        }
        tree.check_invariants();
    }

    #[test]
    fn extend_sorted_equals_per_item_inserts(
        base_keys in prop::collection::btree_set(TREE_KEYS, 0..800),
        raw in prop::collection::vec((0u64..1_000_000, any::<u32>()), 1..1_200),
    ) {
        for degree in EXTEND_DEGREES {
            for shape in RUN_SHAPES {
                let mut tree: BPlusTree<u64, u32> = BPlusTree::with_degree(degree);
                let mut model: BTreeMap<u64, u32> = BTreeMap::new();
                if !matches!(shape, RunShape::OntoEmpty) {
                    for &k in &base_keys {
                        tree.insert(k, k as u32);
                        model.insert(k, k as u32);
                    }
                }
                let run = run_of(shape, &model, &raw);
                let mut reference: BPlusTree<u64, u32> = BPlusTree::with_degree(degree);
                for (k, v) in tree.iter() {
                    reference.insert(*k, *v);
                }
                for &(k, v) in &run {
                    reference.insert(k, v);
                    model.insert(k, v);
                }
                tree.extend_sorted(run);
                check_extended(&tree, &reference, &model);
            }
        }
    }
}
