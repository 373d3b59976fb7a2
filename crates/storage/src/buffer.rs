//! Bounded, concurrently shared buffer pool.
//!
//! The paper restricts every approach to the same main-memory footprint
//! (1 GB) so that dataset sizes exceed memory and disk behaviour dominates.
//! The [`BufferPool`] plays that role here: page reads go through it, hits
//! cost (almost) nothing in the cost model, and its capacity is the memory
//! budget knob of [`crate::StorageOptions`].
//!
//! # Concurrency
//!
//! The pool is safe to use through `&self` from many threads. Large pools
//! (≥ [`SHARD_MIN_CAPACITY`] pages) are split into [`SHARD_COUNT`] independent
//! shards, each its own mutex-protected LRU, so concurrent readers of
//! different pages rarely contend; eviction is then LRU *per shard* rather
//! than globally. Small pools keep a single shard and therefore exact global
//! LRU order (which the deterministic cost-model tests rely on).
//!
//! Each shard is an exact LRU with O(1) operations: one hash map from page
//! key to a slot of a slab, and a doubly linked recency list threaded through
//! the slab by index. A hit moves the slot to the front of the list and hands
//! out a clone of the resident [`Page`] — a refcount bump on the shared
//! frame, not a copy — so the time under the shard lock does not depend on
//! the page size.

use crate::file::FileId;
use crate::page::{Page, PageId};
use crate::sync::{Exclusive, LockClass};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Key of a cached page.
pub type FramePageKey = (FileId, PageId);

/// Number of shards used by large pools.
pub const SHARD_COUNT: usize = 16;

/// Pools with at least this many pages of capacity are sharded.
pub const SHARD_MIN_CAPACITY: usize = 1024;

/// Multiplicative (Fx-style) hasher for [`FramePageKey`]s. The keys are file
/// and page numbers this process handed out itself, so the default hasher's
/// protection against crafted collisions buys nothing here and costs most of
/// a pool hit.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// "No slot": the end of the recency list in either direction.
const NIL: usize = usize::MAX;

/// One resident page and its links in the recency list (`prev` towards the
/// most recently used slot, `next` towards the least).
struct Slot {
    key: FramePageKey,
    page: Page,
    prev: usize,
    next: usize,
}

/// One exact-LRU shard. `slots` is dense: a removed slot is filled by the
/// last one, so there is no free list and `slots.len()` is the resident
/// count.
struct Shard {
    index: HashMap<FramePageKey, usize, BuildHasherDefault<KeyHasher>>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next eviction victim.
    tail: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            index: HashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Takes slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links the (unlinked) slot `i` in as the most recently used.
    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn get(&mut self, key: FramePageKey) -> Option<Page> {
        let i = *self.index.get(&key)?;
        self.touch(i);
        Some(self.slots[i].page.clone())
    }

    /// Returns `true` if an eviction was necessary.
    fn insert(&mut self, key: FramePageKey, page: Page, capacity: usize) -> bool {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].page = page;
            self.touch(i);
            return false;
        }
        debug_assert!(
            capacity > 0,
            "the pool never inserts into a zero-capacity shard"
        );
        let evicted = self.slots.len() >= capacity;
        let i = if evicted {
            // The victim's slot is reused in place.
            let i = self.tail;
            self.unlink(i);
            self.index.remove(&self.slots[i].key);
            self.slots[i].key = key;
            self.slots[i].page = page;
            i
        } else {
            self.slots.push(Slot {
                key,
                page,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.push_front(i);
        self.index.insert(key, i);
        evicted
    }

    /// Replaces a resident page without refreshing its recency.
    fn update_if_resident(&mut self, key: FramePageKey, page: &Page) {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].page = page.clone();
        }
    }

    fn invalidate(&mut self, key: FramePageKey) {
        let Some(i) = self.index.remove(&key) else {
            return;
        };
        self.unlink(i);
        self.slots.swap_remove(i);
        if i < self.slots.len() {
            // The former last slot now lives at `i`: repoint its list
            // neighbours and its index entry.
            let (key, prev, next) = {
                let moved = &self.slots[i];
                (moved.key, moved.prev, moved.next)
            };
            match prev {
                NIL => self.head = i,
                p => self.slots[p].next = i,
            }
            match next {
                NIL => self.tail = i,
                n => self.slots[n].prev = i,
            }
            self.index.insert(key, i);
        }
    }

    fn invalidate_file(&mut self, file: FileId) {
        let mut i = 0;
        while i < self.slots.len() {
            let key = self.slots[i].key;
            if key.0 == file {
                // Another slot moves into `i`; look at it next.
                self.invalidate(key);
            } else {
                i += 1;
            }
        }
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A fixed-capacity page cache with least-recently-used eviction, shared
/// across query threads.
pub struct BufferPool {
    capacity: usize,
    capacity_per_shard: usize,
    shards: Vec<Exclusive<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("resident", &self.resident())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool that caches up to `capacity` pages. A capacity of zero
    /// disables caching entirely (every access goes to the device).
    pub fn new(capacity: usize) -> Self {
        let shard_count = if capacity >= SHARD_MIN_CAPACITY {
            SHARD_COUNT
        } else {
            1
        };
        BufferPool {
            capacity,
            capacity_per_shard: capacity.div_ceil(shard_count),
            shards: (0..shard_count)
                .map(|_| Exclusive::new(LockClass::BufferShard, Shard::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident pages.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independently locked LRU shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of pages currently cached.
    pub fn resident(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().slots.len())
            .sum()
    }

    /// Number of lookups that found the page cached.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that missed.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of pages evicted to respect the capacity.
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn shard_index(&self, key: &FramePageKey) -> usize {
        // FileId in the high bits, page in the low bits; a multiplicative
        // hash spreads consecutive pages across shards.
        let mixed = ((key.0 .0 as u64) << 40 ^ key.1 .0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed >> 48) as usize % self.shards.len()
    }

    // analyzer: lock(shard = BufferShard)
    fn shard(&self, key: &FramePageKey) -> &Exclusive<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Looks up a page, refreshing its recency on a hit.
    pub fn get(&self, key: FramePageKey) -> Option<Page> {
        let result = self.shard(&key).lock().get(key);
        match &result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Inserts (or refreshes) a page, evicting the least recently used page
    /// of the key's shard if the shard is full. No-op when the capacity is
    /// zero.
    pub fn insert(&self, key: FramePageKey, page: Page) {
        if self.capacity == 0 {
            return;
        }
        let evicted = self
            .shard(&key)
            .lock()
            .insert(key, page, self.capacity_per_shard);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Updates a page if (and only if) it is resident; used by write-through
    /// so cached copies never go stale. The pool shares `page`'s frame.
    pub fn update_if_resident(&self, key: FramePageKey, page: &Page) {
        self.shard(&key).lock().update_if_resident(key, page);
    }

    /// Removes a cached page (e.g. when its file is dropped).
    pub fn invalidate(&self, key: FramePageKey) {
        self.shard(&key).lock().invalidate(key);
    }

    /// Removes every cached page of the given file.
    pub fn invalidate_file(&self, file: FileId) {
        for shard in &self.shards {
            shard.lock().invalidate_file(file);
        }
    }

    /// Drops every cached page (the paper clears caches between phases).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(f: u32, p: u64) -> FramePageKey {
        (FileId(f), PageId(p))
    }

    #[test]
    fn empty_pool_misses() {
        let pool = BufferPool::new(4);
        assert!(pool.get(key(0, 0)).is_none());
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.hits(), 0);
    }

    #[test]
    fn insert_then_hit() {
        let pool = BufferPool::new(4);
        pool.insert(key(0, 1), Page::empty());
        assert!(pool.get(key(0, 1)).is_some());
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.resident(), 1);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let pool = BufferPool::new(0);
        pool.insert(key(0, 1), Page::empty());
        assert_eq!(pool.resident(), 0);
        assert!(pool.get(key(0, 1)).is_none());
    }

    #[test]
    fn lru_eviction_order() {
        let pool = BufferPool::new(2);
        pool.insert(key(0, 0), Page::empty());
        pool.insert(key(0, 1), Page::empty());
        // Touch page 0 so page 1 becomes the LRU victim.
        assert!(pool.get(key(0, 0)).is_some());
        pool.insert(key(0, 2), Page::empty());
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.evictions(), 1);
        assert!(pool.get(key(0, 0)).is_some(), "recently used page survives");
        assert!(pool.get(key(0, 1)).is_none(), "LRU page evicted");
        assert!(pool.get(key(0, 2)).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let pool = BufferPool::new(2);
        pool.insert(key(0, 0), Page::empty());
        pool.insert(key(0, 0), Page::empty());
        assert_eq!(pool.resident(), 1);
        pool.insert(key(0, 1), Page::empty());
        pool.insert(key(0, 2), Page::empty());
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn update_if_resident_only_touches_existing() {
        use odyssey_geom::{Aabb, DatasetId, ObjectId, SpatialObject, Vec3};
        let pool = BufferPool::new(2);
        let obj = SpatialObject::new(
            ObjectId(7),
            DatasetId(0),
            Aabb::from_min_max(Vec3::ZERO, Vec3::ONE),
        );
        let page = Page::from_objects(&[obj]).unwrap();
        pool.update_if_resident(key(0, 0), &page);
        assert_eq!(pool.resident(), 0);
        pool.insert(key(0, 0), Page::empty());
        pool.update_if_resident(key(0, 0), &page);
        let got = pool.get(key(0, 0)).unwrap();
        assert_eq!(got.objects().unwrap().len(), 1);
    }

    #[test]
    fn invalidation() {
        let pool = BufferPool::new(8);
        pool.insert(key(0, 0), Page::empty());
        pool.insert(key(0, 1), Page::empty());
        pool.insert(key(1, 0), Page::empty());
        pool.invalidate(key(0, 0));
        assert!(pool.get(key(0, 0)).is_none());
        pool.invalidate_file(FileId(0));
        assert!(pool.get(key(0, 1)).is_none());
        assert!(pool.get(key(1, 0)).is_some());
        pool.clear();
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn heavy_insertion_respects_capacity() {
        let pool = BufferPool::new(16);
        for i in 0..1000u64 {
            pool.insert(key(0, i), Page::empty());
            assert!(pool.resident() <= 16);
        }
        assert_eq!(pool.evictions(), 1000 - 16);
    }

    #[test]
    fn small_pools_are_single_shard_large_pools_are_sharded() {
        assert_eq!(BufferPool::new(16).shard_count(), 1);
        assert_eq!(
            BufferPool::new(SHARD_MIN_CAPACITY).shard_count(),
            SHARD_COUNT
        );
    }

    #[test]
    fn sharded_pool_respects_total_capacity_approximately() {
        let pool = BufferPool::new(SHARD_MIN_CAPACITY);
        for i in 0..100_000u64 {
            pool.insert(key((i % 7) as u32, i), Page::empty());
        }
        // Per-shard capacity is capacity/SHARD_COUNT rounded up, so the pool
        // may exceed the nominal capacity by at most one page per shard.
        assert!(pool.resident() <= SHARD_MIN_CAPACITY + SHARD_COUNT);
        assert!(
            pool.resident() >= SHARD_MIN_CAPACITY / 2,
            "shards should fill up"
        );
    }

    impl Shard {
        /// Keys from most to least recently used, checking on the way that
        /// the list, the slab and the index describe the same set.
        fn recency(&self) -> Vec<FramePageKey> {
            let mut order = Vec::new();
            let (mut prev, mut i) = (NIL, self.head);
            while i != NIL {
                let slot = &self.slots[i];
                assert_eq!(slot.prev, prev, "back link of slot {i}");
                assert_eq!(self.index.get(&slot.key), Some(&i));
                order.push(slot.key);
                (prev, i) = (i, slot.next);
            }
            assert_eq!(self.tail, prev);
            assert_eq!(order.len(), self.slots.len());
            assert_eq!(order.len(), self.index.len());
            order
        }
    }

    /// The obvious LRU: per shard, a `Vec` ordered from most to least
    /// recently used, searched linearly.
    struct NaivePool {
        capacity: usize,
        capacity_per_shard: usize,
        shards: Vec<Vec<(FramePageKey, Page)>>,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl NaivePool {
        fn get(&mut self, shard: usize, key: FramePageKey) -> Option<Page> {
            let lru = &mut self.shards[shard];
            match lru.iter().position(|(k, _)| *k == key) {
                Some(at) => {
                    self.hits += 1;
                    let entry = lru.remove(at);
                    lru.insert(0, entry);
                    Some(lru[0].1.clone())
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, shard: usize, key: FramePageKey, page: Page) {
            if self.capacity == 0 {
                return;
            }
            let lru = &mut self.shards[shard];
            if let Some(at) = lru.iter().position(|(k, _)| *k == key) {
                lru.remove(at);
            } else if lru.len() >= self.capacity_per_shard {
                lru.pop();
                self.evictions += 1;
            }
            lru.insert(0, (key, page));
        }
    }

    /// Drives the pool and the naive model with the same seeded operation
    /// stream and compares victims (full recency order per shard), returned
    /// pages and counters after every step.
    fn check_against_naive_model(capacity: usize, files: u32, pages: u64, steps: usize) {
        use odyssey_geom::{Aabb, DatasetId, ObjectId, SpatialObject, Vec3};
        let pool = BufferPool::new(capacity);
        let mut model = NaivePool {
            capacity,
            capacity_per_shard: pool.capacity_per_shard,
            shards: vec![Vec::new(); pool.shard_count()],
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        // A small palette of distinguishable pages.
        let palette: Vec<Page> = (0..16u64)
            .map(|i| {
                let obj = SpatialObject::new(
                    ObjectId(i),
                    DatasetId(0),
                    Aabb::from_min_max(Vec3::ZERO, Vec3::ONE),
                );
                Page::from_objects(&[obj]).unwrap()
            })
            .collect();
        let mut rng = 0x2545_F491_4F6C_DD1Du64 ^ capacity as u64;
        let mut next = move || {
            // xorshift64*
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16
        };
        for step in 0..steps {
            let key = key((next() % files as u64) as u32, next() % pages);
            let shard = pool.shard_index(&key);
            let page = &palette[(next() % palette.len() as u64) as usize];
            // Whole-pool operations are rare enough for a large pool to fill
            // up (and evict) between them.
            let mut touched = shard..shard + 1;
            match next() % 10_000 {
                0..=4_499 => assert_eq!(pool.get(key), model.get(shard, key), "step {step}"),
                4_500..=8_499 => {
                    pool.insert(key, page.clone());
                    model.insert(shard, key, page.clone());
                }
                8_500..=9_299 => {
                    pool.update_if_resident(key, page);
                    if let Some(entry) = model.shards[shard].iter_mut().find(|(k, _)| *k == key) {
                        entry.1 = page.clone();
                    }
                }
                9_300..=9_949 => {
                    pool.invalidate(key);
                    model.shards[shard].retain(|(k, _)| *k != key);
                }
                9_950..=9_989 => {
                    pool.invalidate_file(key.0);
                    for lru in &mut model.shards {
                        lru.retain(|(k, _)| k.0 != key.0);
                    }
                    touched = 0..pool.shard_count();
                }
                _ => {
                    pool.clear();
                    model.shards.iter_mut().for_each(Vec::clear);
                    touched = 0..pool.shard_count();
                }
            }
            for shard in touched {
                let (shard, lru) = (pool.shards[shard].lock(), &model.shards[shard]);
                let expected: Vec<FramePageKey> = lru.iter().map(|(k, _)| *k).collect();
                assert_eq!(shard.recency(), expected, "step {step}");
                for (key, page) in lru {
                    assert_eq!(&shard.slots[shard.index[key]].page, page, "step {step}");
                }
            }
            assert_eq!(
                (pool.hits(), pool.misses(), pool.evictions()),
                (model.hits, model.misses, model.evictions),
                "step {step}"
            );
        }
        assert!(
            model.evictions > 0 || capacity == 0,
            "the stream must evict"
        );
    }

    #[test]
    fn single_shard_pool_matches_the_naive_lru() {
        check_against_naive_model(8, 3, 12, 20_000);
        check_against_naive_model(1, 2, 4, 2_000);
        check_against_naive_model(0, 2, 4, 200);
    }

    #[test]
    fn sharded_pool_matches_the_naive_lru() {
        // 64 slots per shard, ~5x as many keys as slots.
        check_against_naive_model(SHARD_MIN_CAPACITY, 50, 100, 40_000);
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let pool = BufferPool::new(SHARD_MIN_CAPACITY);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = key(t as u32, i);
                        pool.insert(k, Page::empty());
                        let _ = pool.get(k);
                    }
                });
            }
        });
        assert_eq!(pool.hits() + pool.misses(), 8 * 500);
        assert!(pool.resident() <= SHARD_MIN_CAPACITY + SHARD_COUNT);
    }
}
