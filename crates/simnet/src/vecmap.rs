//! [`VecMap`]: a small ordered map over two parallel sorted arrays.

use std::iter::Zip;
use std::ops::{Bound, Index, RangeBounds};
use std::slice;

/// An ordered map kept as two parallel arrays sorted by key: lookups are a
/// binary search over the contiguous keys, and iteration walks both arrays
/// in ascending key order — the order of a `BTreeMap`, which is what lets
/// one replace the other without moving a single event of a seeded run.
/// Equal contents are equal values with equal hashes, whatever the
/// insertion order was.
///
/// Made for the tables a node consults on every packet, frame and tick:
/// tens of entries under small `Copy` ids, looked up and walked far more
/// often than they change. **Not** for large maps with frequent inserts or
/// removals in the middle — each one shifts the tail of both arrays, so
/// filling `n` entries in random order costs O(n²) moves where a tree pays
/// O(n log n). Appending in ascending key order is a plain push.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VecMap<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

/// Ascending borrowing iterator of a [`VecMap`].
pub type Iter<'a, K, V> = Zip<slice::Iter<'a, K>, slice::Iter<'a, V>>;
/// Ascending iterator of a [`VecMap`] with mutable values.
pub type IterMut<'a, K, V> = Zip<slice::Iter<'a, K>, slice::IterMut<'a, V>>;

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.keys.binary_search(key).ok().map(|i| &self.vals[i])
    }

    /// The value stored under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.keys.binary_search(key).ok().map(|i| &mut self.vals[i])
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    /// Stores `val` under `key`; returns the value it replaced.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        match self.keys.binary_search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.vals[i], val)),
            Err(i) => {
                self.keys.insert(i, key);
                self.vals.insert(i, val);
                None
            }
        }
    }

    /// The value under `key`, which is `make()` if there was none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.keys.binary_search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.keys.insert(i, key);
                self.vals.insert(i, make());
                i
            }
        };
        &mut self.vals[i]
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.keys.binary_search(key).ok()?;
        self.keys.remove(i);
        Some(self.vals.remove(i))
    }

    /// Drops every entry; keeps the allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
    }

    /// Keeps the entries `keep` accepts, visiting all in ascending order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            if keep(&self.keys[i], &mut self.vals[i]) {
                // Everything in `kept..i` was rejected: the swap moves this
                // entry behind the last kept one and preserves the order.
                self.keys.swap(kept, i);
                self.vals.swap(kept, i);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.vals.truncate(kept);
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        self.keys.iter().zip(&self.vals)
    }

    /// The entries in ascending key order, values mutable.
    pub fn iter_mut(&mut self) -> IterMut<'_, K, V> {
        self.keys.iter().zip(&mut self.vals)
    }

    /// The keys, ascending.
    pub fn keys(&self) -> slice::Iter<'_, K> {
        self.keys.iter()
    }

    /// The values, in ascending key order.
    pub fn values(&self) -> slice::Iter<'_, V> {
        self.vals.iter()
    }

    /// The values, in ascending key order, mutable.
    pub fn values_mut(&mut self) -> slice::IterMut<'_, V> {
        self.vals.iter_mut()
    }

    /// The entries whose key lies in `range`, ascending. A range that ends
    /// before it starts is empty (`BTreeMap::range` panics on one).
    pub fn range(&self, range: impl RangeBounds<K>) -> Iter<'_, K, V> {
        let hi = match range.end_bound() {
            Bound::Included(k) => self.keys.partition_point(|x| x <= k),
            Bound::Excluded(k) => self.keys.partition_point(|x| x < k),
            Bound::Unbounded => self.keys.len(),
        };
        let lo = match range.start_bound() {
            Bound::Included(k) => self.keys.partition_point(|x| x < k),
            Bound::Excluded(k) => self.keys.partition_point(|x| x <= k),
            Bound::Unbounded => 0,
        }
        .min(hi);
        self.keys[lo..hi].iter().zip(&self.vals[lo..hi])
    }
}

impl<K: Ord + Copy, V> Index<&K> for VecMap<K, V> {
    type Output = V;

    /// # Panics
    ///
    /// If `key` has no entry.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry for key")
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a VecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a mut VecMap<K, V> {
    type Item = (&'a K, &'a mut V);
    type IntoIter = IterMut<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<K: Ord + Copy, V> FromIterator<(K, V)> for VecMap<K, V> {
    /// A later entry replaces an earlier one with the same key.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut map = VecMap::new();
        for (key, val) in entries {
            map.insert(key, val);
        }
        map
    }
}
