//! [`simnet::VecMap`] is held to `BTreeMap`: random scripts of every
//! mutating operation leave both with the same length, the same answer to
//! every lookup and the same ascending walk after every step — the walk is
//! what lets one stand in for the other under a seeded run — and two maps
//! with the same entries are one value (`==`, `Hash`) however they were
//! built, which `TakeoverTable`'s convergence property leans on.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;

use proptest::prelude::*;
use simnet::VecMap;

/// A few keys, so that scripts hit the same one again and again, with both
/// ends of the key space among them.
const KEYS: [u32; 8] = [0, 1, 2, 3, 7, 1 << 20, u32::MAX - 1, u32::MAX];

fn key() -> impl Strategy<Value = u32> {
    (0usize..KEYS.len()).prop_map(|i| KEYS[i])
}

fn hash_of(map: &VecMap<u32, u64>) -> u64 {
    let mut hasher = DefaultHasher::new();
    map.hash(&mut hasher);
    hasher.finish()
}

fn bound(kind: u8, key: u32) -> Bound<u32> {
    match kind % 3 {
        0 => Bound::Included(key),
        1 => Bound::Excluded(key),
        _ => Bound::Unbounded,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_step_matches_the_btree(
        script in prop::collection::vec((0u8..8, key(), key(), 0u64..1_000), 1..60),
    ) {
        let mut flat: VecMap<u32, u64> = VecMap::new();
        let mut tree: BTreeMap<u32, u64> = BTreeMap::new();
        for (op, k, k2, v) in script {
            match op {
                0 | 1 => prop_assert_eq!(flat.insert(k, v), tree.insert(k, v)),
                2 => prop_assert_eq!(flat.remove(&k), tree.remove(&k)),
                3 => prop_assert_eq!(
                    *flat.get_or_insert_with(k, || v),
                    *tree.entry(k).or_insert(v)
                ),
                4 => {
                    if let Some(x) = flat.get_mut(&k) {
                        *x += v;
                    }
                    if let Some(x) = tree.get_mut(&k) {
                        *x += v;
                    }
                }
                5 => {
                    // The predicate sees the entries in ascending order and
                    // may edit the ones it keeps.
                    let mut seen = (Vec::new(), Vec::new());
                    flat.retain(|&key, x| {
                        seen.0.push(key);
                        *x += 1;
                        (u64::from(key) + *x + v) % 3 != 0
                    });
                    tree.retain(|&key, x| {
                        seen.1.push(key);
                        *x += 1;
                        (u64::from(key) + *x + v) % 3 != 0
                    });
                    prop_assert_eq!(seen.0, seen.1);
                }
                6 => {
                    for (&key, x) in &mut flat {
                        *x ^= v ^ u64::from(key);
                    }
                    for (&key, x) in &mut tree {
                        *x ^= v ^ u64::from(key);
                    }
                    flat.values_mut().for_each(|x| *x += 1);
                    tree.values_mut().for_each(|x| *x += 1);
                }
                _ => {
                    let (lo, hi) = (k.min(k2), k.max(k2));
                    let range = (bound(v as u8, lo), bound((v >> 2) as u8, hi));
                    // `BTreeMap::range` panics on the one empty range these
                    // bounds can spell; `VecMap::range` returns nothing.
                    let point = (Bound::Excluded(lo), Bound::Excluded(lo));
                    if lo == hi && range == point {
                        prop_assert_eq!(flat.range(range).count(), 0);
                    } else {
                        prop_assert!(flat.range(range).eq(tree.range(range)), "{range:?}");
                    }
                    // Ends before it starts: empty, not a panic.
                    if lo < hi {
                        prop_assert_eq!(flat.range(hi..lo).count(), 0);
                        prop_assert_eq!(flat.range(hi..=lo).count(), 0);
                    }
                }
            }
            prop_assert_eq!(flat.len(), tree.len());
            prop_assert_eq!(flat.is_empty(), tree.is_empty());
            prop_assert!(flat.iter().eq(tree.iter()), "{flat:?} vs {tree:?}");
            prop_assert!(flat.keys().eq(tree.keys()));
            prop_assert!(flat.values().eq(tree.values()));
            prop_assert!((&flat).into_iter().eq(&tree));
            for probe in KEYS {
                prop_assert_eq!(flat.get(&probe), tree.get(&probe));
                prop_assert_eq!(flat.contains_key(&probe), tree.contains_key(&probe));
            }
            if let Some((first, value)) = tree.iter().next() {
                prop_assert_eq!(flat[first], *value);
            }
        }
        flat.clear();
        prop_assert!(flat.is_empty() && flat.iter().next().is_none());
    }

    #[test]
    fn equal_entries_are_one_value_whatever_the_insertion_order(
        entries in prop::collection::vec((key(), 0u64..4), 0..12),
        rotate in 0usize..12,
    ) {
        // Last write wins in both, so settle the duplicates first.
        let settled: BTreeMap<u32, u64> = entries.iter().copied().collect();
        let forward: VecMap<u32, u64> = settled.iter().map(|(&k, &v)| (k, v)).collect();
        let mut order: Vec<(u32, u64)> = settled.into_iter().rev().collect();
        let by = rotate % order.len().max(1);
        order.rotate_left(by);
        let mut shuffled = VecMap::new();
        for (k, v) in order {
            shuffled.insert(k, v);
        }
        prop_assert_eq!(&forward, &shuffled);
        prop_assert_eq!(hash_of(&forward), hash_of(&shuffled));
        // And a different value under one key is a different map.
        if let Some(&first) = forward.keys().next() {
            let mut other = shuffled.clone();
            *other.get_mut(&first).expect("just read") += 1;
            prop_assert_ne!(&forward, &other);
        }
    }
}
