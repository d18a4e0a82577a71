//! The workspace's one byte-budgeted LRU.
//!
//! [`LruCore`] is the budget/recency bookkeeping behind both the
//! driver's admission cache ([`crate::driver`], DESIGN.md §4.10) and
//! the `netpu-fleet` compiled-model cache (DESIGN.md §4.6). It is public
//! on its own so the fleet's property suite can drive arbitrary
//! admit/evict/lookup sequences against a reference model without
//! paying for real compilation (see `crates/fleet/tests/cache_proptest.rs`).

use std::collections::HashMap;

/// One cached slot.
struct Slot<V> {
    value: V,
    bytes: u64,
    last_used: u64,
}

/// Outcome of an [`LruCore::insert`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admit {
    /// Inserted; `evicted` lists the ids displaced to make room, in
    /// eviction order.
    Inserted {
        /// Ids evicted to fit the new entry.
        evicted: Vec<u64>,
    },
    /// The entry alone exceeds the whole budget; nothing was cached and
    /// nothing was evicted.
    TooLarge {
        /// Size of the rejected entry, bytes.
        bytes: u64,
        /// The configured budget, bytes.
        capacity: u64,
    },
}

/// Byte-budgeted LRU bookkeeping over opaque values.
///
/// Invariants (property-tested in `crates/fleet/tests/cache_proptest.rs`):
/// resident bytes never exceed the budget, and a lookup only ever
/// returns a value that was inserted and has not been evicted since.
pub struct LruCore<V> {
    capacity_bytes: u64,
    resident_bytes: u64,
    tick: u64,
    entries: HashMap<u64, Slot<V>>,
}

impl<V> LruCore<V> {
    /// An empty cache with the given byte budget.
    pub fn new(capacity_bytes: u64) -> LruCore<V> {
        LruCore {
            capacity_bytes,
            resident_bytes: 0,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// The configured budget, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently resident (always ≤ the budget).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `id`, refreshing its recency on a hit.
    pub fn lookup(&mut self, id: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&id).map(|slot| {
            slot.last_used = tick;
            &slot.value
        })
    }

    /// Inserts `value` under `id`, evicting least-recently-used entries
    /// until it fits. Re-inserting an existing id replaces the old
    /// value (its bytes are released first). Entries larger than the
    /// whole budget are refused.
    pub fn insert(&mut self, id: u64, value: V, bytes: u64) -> Admit {
        if bytes > self.capacity_bytes {
            return Admit::TooLarge {
                bytes,
                capacity: self.capacity_bytes,
            };
        }
        if let Some(old) = self.entries.remove(&id) {
            self.resident_bytes -= old.bytes;
        }
        let mut evicted = Vec::new();
        while self.resident_bytes + bytes > self.capacity_bytes {
            // Victim: oldest recency, ties broken by smaller id so the
            // walk over the unordered map stays deterministic.
            let victim = self
                .entries
                .iter()
                .map(|(&vid, slot)| (slot.last_used, vid))
                .min();
            let Some((_, vid)) = victim else { break };
            if let Some(slot) = self.entries.remove(&vid) {
                self.resident_bytes -= slot.bytes;
                evicted.push(vid);
            }
        }
        self.tick += 1;
        self.entries.insert(
            id,
            Slot {
                value,
                bytes,
                last_used: self.tick,
            },
        );
        self.resident_bytes += bytes;
        Admit::Inserted { evicted }
    }

    /// Removes `id`, returning its value if it was resident.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        self.entries.remove(&id).map(|slot| {
            self.resident_bytes -= slot.bytes;
            slot.value
        })
    }

    /// Resident ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.entries.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_first_and_respects_the_budget() {
        let mut lru = LruCore::new(100);
        assert_eq!(lru.insert(1, "a", 40), Admit::Inserted { evicted: vec![] });
        assert_eq!(lru.insert(2, "b", 40), Admit::Inserted { evicted: vec![] });
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(lru.lookup(1), Some(&"a"));
        assert_eq!(lru.insert(3, "c", 40), Admit::Inserted { evicted: vec![2] });
        assert!(lru.resident_bytes() <= lru.capacity_bytes());
        assert_eq!(lru.ids(), vec![1, 3]);
        assert_eq!(lru.lookup(2), None);
    }

    #[test]
    fn lru_refuses_entries_above_the_whole_budget() {
        let mut lru = LruCore::new(10);
        lru.insert(1, "a", 8);
        assert_eq!(
            lru.insert(2, "big", 11),
            Admit::TooLarge {
                bytes: 11,
                capacity: 10
            }
        );
        // The refusal evicted nothing.
        assert_eq!(lru.ids(), vec![1]);
    }

    #[test]
    fn reinserting_an_id_releases_its_old_bytes() {
        let mut lru = LruCore::new(100);
        lru.insert(1, "a", 60);
        lru.insert(1, "a2", 30);
        assert_eq!(lru.resident_bytes(), 30);
        // Room for another 70 without evicting 1.
        assert_eq!(lru.insert(2, "b", 70), Admit::Inserted { evicted: vec![] });
    }
}
