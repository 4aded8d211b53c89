//! Deterministic-iteration helpers over the hash containers.
//!
//! `FxHashMap`/`FxHashSet` iteration order is an artifact of hash values
//! and insertion history — reproducible on one build, but not *canonical*:
//! it silently couples any order-sensitive consumer to the hasher's
//! internals. Every guarantee this workspace makes (bit-identical outputs
//! across transports, fault plans and dynamic batches; exact comm
//! accounting) rests on message-producing and accounting paths iterating
//! in an order that is a function of the *data*, not of the container.
//!
//! These helpers are the sanctioned route: they materialize a hash
//! container's contents in ascending key order (or perform an explicitly
//! order-insensitive reduction). The `kcheck` static pass (`kmm check`,
//! DESIGN.md §3.13) flags direct unordered iteration in the deterministic
//! paths; code routed through this module is clean by construction. This
//! module itself is the single audited exception in the lint's scope.
//!
//! The sort costs `O(s log s)` on a container of size `s` — noise next to
//! the work the iteration feeds (sketch sums, envelope construction), and
//! a price worth paying for canonical trajectories.

use rustc_hash::{FxHashMap, FxHashSet};

/// The map's entries in ascending key order, values borrowed.
pub fn sorted_entries<K: Ord + Copy, V>(map: &FxHashMap<K, V>) -> Vec<(K, &V)> {
    let mut v: Vec<(K, &V)> = map.iter().map(|(&k, val)| (k, val)).collect();
    v.sort_unstable_by_key(|&(k, _)| k);
    v
}

/// The map's entries in ascending key order, consuming the map.
pub fn into_sorted_entries<K: Ord, V>(map: FxHashMap<K, V>) -> Vec<(K, V)> {
    let mut v: Vec<(K, V)> = map.into_iter().collect();
    v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    v
}

/// The map's keys in ascending order.
pub fn sorted_keys<K: Ord + Copy, V>(map: &FxHashMap<K, V>) -> Vec<K> {
    let mut v: Vec<K> = map.keys().copied().collect();
    v.sort_unstable();
    v
}

/// The set's members in ascending order.
pub fn sorted_members<T: Ord + Copy>(set: &FxHashSet<T>) -> Vec<T> {
    let mut v: Vec<T> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// The maximum value in the map — an order-insensitive reduction (every
/// iteration order yields the same maximum), exposed here so accounting
/// code can take a per-link maximum without open-coding an unordered walk.
pub fn max_value<K, V: Ord + Copy>(map: &FxHashMap<K, V>) -> Option<V> {
    map.values().copied().max()
}

/// Does any value satisfy `pred`? Order-insensitive: `any` over a pure
/// predicate yields the same answer in every visit order (short-circuiting
/// only changes how fast, never what).
pub fn any_value<K, V>(map: &FxHashMap<K, V>, pred: impl FnMut(&V) -> bool) -> bool {
    map.values().any(pred)
}

/// The entry minimizing `key(k, v)`, ties broken by the smaller map key —
/// so the winner is a function of the data, not of iteration order, even
/// when several entries share the minimal key.
pub fn min_entry_by<K: Ord + Copy, V, T: Ord>(
    map: &FxHashMap<K, V>,
    mut key: impl FnMut(K, &V) -> T,
) -> Option<(K, &V)> {
    map.iter()
        .map(|(&k, v)| (k, v))
        .min_by(|a, b| key(a.0, a.1).cmp(&key(b.0, b.1)).then(a.0.cmp(&b.0)))
}

/// Apply `f` to every value in place. Sanctioned for per-entry mutation
/// only: the closure must not observe or accumulate cross-entry state, so
/// the post-state is independent of visit order.
pub fn for_each_value_mut<K, V>(map: &mut FxHashMap<K, V>, mut f: impl FnMut(&mut V)) {
    for v in map.values_mut() {
        f(v);
    }
}

/// Apply `f` to every `(key, value)` pair in place; same per-entry
/// independence contract as [`for_each_value_mut`].
pub fn for_each_entry_mut<K: Copy, V>(map: &mut FxHashMap<K, V>, mut f: impl FnMut(K, &mut V)) {
    for (&k, v) in map.iter_mut() {
        f(k, v);
    }
}

/// Keep the entries matching `pred`. Sanctioned for predicates whose
/// verdict is a pure function of the entry: then the retained set is
/// independent of visit order. The predicate may update the entry, and
/// may hand a dropped entry to a consumer that is itself order-insensitive
/// (a map insert, a min-merge): the dropped set is as canonical as the
/// retained one, only the visit order is not.
pub fn retain_where<K, V>(map: &mut FxHashMap<K, V>, pred: impl FnMut(&K, &mut V) -> bool) {
    map.retain(pred);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_come_back_key_sorted() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for (k, v) in [(9, "i"), (2, "b"), (7, "g"), (1, "a")] {
            m.insert(k, v);
        }
        let e = sorted_entries(&m);
        assert_eq!(
            e.iter().map(|&(k, &v)| (k, v)).collect::<Vec<_>>(),
            vec![(1, "a"), (2, "b"), (7, "g"), (9, "i")]
        );
        assert_eq!(sorted_keys(&m), vec![1, 2, 7, 9]);
        let owned = into_sorted_entries(m);
        assert_eq!(owned, vec![(1, "a"), (2, "b"), (7, "g"), (9, "i")]);
    }

    #[test]
    fn set_members_come_back_sorted() {
        let mut s: FxHashSet<u32> = FxHashSet::default();
        for x in [5, 1, 4, 1, 3] {
            s.insert(x);
        }
        assert_eq!(sorted_members(&s), vec![1, 3, 4, 5]);
    }

    #[test]
    fn max_value_matches_sorted_scan() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        assert_eq!(max_value(&m), None);
        for (i, b) in [(0, 10u64), (1, 99), (2, 7)] {
            m.insert((i, i + 1), b);
        }
        assert_eq!(max_value(&m), Some(99));
        let via_sorted = sorted_entries(&m).into_iter().map(|(_, &b)| b).max();
        assert_eq!(max_value(&m), via_sorted);
    }

    #[test]
    fn reductions_and_mutation_helpers() {
        let mut m: FxHashMap<u32, i64> = FxHashMap::default();
        for (k, v) in [(3, -1), (1, 5), (2, 0)] {
            m.insert(k, v);
        }
        let values = |m: &FxHashMap<u32, i64>| -> Vec<i64> {
            sorted_entries(m).into_iter().map(|(_, &v)| v).collect()
        };
        assert!(any_value(&m, |&v| v < 0));
        assert!(!any_value(&m, |&v| v > 9));
        for_each_value_mut(&mut m, |v| *v += 10);
        assert_eq!(values(&m), vec![15, 10, 9]);
        for_each_entry_mut(&mut m, |k, v| *v += i64::from(k));
        assert_eq!(values(&m), vec![16, 12, 12]);
        assert_eq!(min_entry_by(&m, |_, &v| v), Some((2, &12)));
        retain_where(&mut m, |_, v| *v >= 12);
        assert_eq!(sorted_keys(&m), vec![1, 2, 3]);
        retain_where(&mut m, |&k, _| k < 3);
        assert_eq!(sorted_keys(&m), vec![1, 2]);
    }
}
