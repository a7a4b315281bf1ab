//! Runtime memory management: the pooled allocator used when static
//! planning is disabled, and byte-accounting shared with the planned path.
//!
//! The Table 2 experiment compares "Relax w/o planning" (this pool) against
//! "Relax w/ planning" (static `AllocStorage`); what it reports is the
//! *total allocated memory* each strategy ends up holding.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Mutex;

use relax_arith::DataType;
use relax_tir::NDArray;

/// Statistics of an allocator's behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Bytes currently handed out to live tensors.
    pub in_use: usize,
    /// Total bytes of distinct blocks ever allocated (pool footprint).
    pub footprint: usize,
    /// Peak of `in_use`.
    pub peak_in_use: usize,
    /// Number of fresh block allocations (pool misses).
    pub fresh_allocations: usize,
    /// Number of requests served by recycling an existing block.
    pub reuses: usize,
}

/// A size-bucketed recycling pool: requests are served by the smallest free
/// block that fits, otherwise a fresh block is allocated. This models the
/// "runtime memory pool to recycle unused memory" baseline of §5.2.
#[derive(Debug, Default)]
pub struct PooledAllocator {
    // free blocks: size -> count
    free: BTreeMap<usize, usize>,
    stats: MemoryStats,
}

impl PooledAllocator {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a block of at least `bytes`; recycles a free block when one
    /// fits, else grows the footprint. Returns the block's size.
    pub fn alloc(&mut self, bytes: usize) -> usize {
        // Smallest free block with size >= bytes.
        let candidate = self.free.range(bytes..).next().map(|(size, _)| *size);
        let size = match candidate {
            Some(size) => {
                let cnt = self.free.get_mut(&size).expect("key exists");
                *cnt -= 1;
                if *cnt == 0 {
                    self.free.remove(&size);
                }
                self.stats.reuses += 1;
                size
            }
            None => {
                self.stats.footprint += bytes;
                self.stats.fresh_allocations += 1;
                bytes
            }
        };
        self.stats.in_use += size;
        self.stats.peak_in_use = self.stats.peak_in_use.max(self.stats.in_use);
        size
    }

    /// Returns a block of the given size to the pool.
    pub fn free(&mut self, size: usize) {
        *self.free.entry(size).or_insert(0) += 1;
        self.stats.in_use = self.stats.in_use.saturating_sub(size);
    }

    /// Current statistics.
    pub fn stats(&self) -> MemoryStats {
        self.stats
    }
}

/// The memory account of the one instruction loop ([`crate::domain`]),
/// kept alike by the VM and the dry run's `MemoryTracker`: only the loop
/// allocates, frees, requests storage and counts fallbacks.
#[derive(Debug, Default)]
pub struct Memory {
    /// The recycling pool (the unplanned path, and tensors that outgrew
    /// their planned storage).
    pub pool: PooledAllocator,
    /// Planned static storage by allocation site.
    pub planned: StorageLedger,
    /// Tensors that outgrew their planned storage and took a pool block.
    pub fallbacks: u64,
}

impl Memory {
    /// Bytes held: the pool's blocks in use plus planned storage.
    pub fn in_use(&self) -> usize {
        self.pool.stats().in_use + self.planned.total()
    }
}

/// Planned static storage by allocation site `(function, pc)`: a site's
/// storage id (in order of first request) and its bytes, grown to the
/// largest request.
#[derive(Debug, Default)]
pub struct StorageLedger(HashMap<(String, usize), (u64, usize)>);

impl StorageLedger {
    /// Bytes a request of `bytes` at `site` adds beyond what it holds.
    pub fn growth(&self, site: &(String, usize), bytes: usize) -> usize {
        bytes.saturating_sub(self.0.get(site).map_or(0, |&(_, held)| held))
    }

    /// Records a request of `bytes` at `site`; returns its id and bytes.
    pub fn request(&mut self, site: (String, usize), bytes: usize) -> (u64, usize) {
        let id = self.0.len() as u64;
        let entry = self.0.entry(site).or_insert((id, 0));
        entry.1 = entry.1.max(bytes);
        *entry
    }

    /// Total bytes held across sites.
    pub fn total(&self) -> usize {
        self.0.values().map(|&(_, held)| held).sum()
    }
}

/// Tokens per KV page (vLLM's default block size) of the VM's default
/// pool, the session default and the dry run's page rounding.
pub const KV_PAGE_TOKENS: usize = 16;

/// Statistics of a [`KvPagePool`]. The accounting invariant is
/// `allocated == in_use + free`: every page ever materialized is either
/// held by a live cache or parked on the free list — the reconciliation
/// check the chaos harness asserts after healing a crashed worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvPageStats {
    /// Tokens per page (the fixed block size).
    pub page_tokens: usize,
    /// Maximum pages the pool may hand out (`usize::MAX` = unbounded).
    pub capacity: usize,
    /// Pages with live backing buffers (`in_use + free`).
    pub allocated: usize,
    /// Pages currently held by caches.
    pub in_use: usize,
    /// Pages parked on the free list, ready for reuse.
    pub free: usize,
    /// Peak of `in_use`.
    pub peak_in_use: usize,
    /// Total acquire calls.
    pub acquires: u64,
    /// Total release calls.
    pub releases: u64,
    /// Acquires served by recycling a free page instead of allocating.
    pub reuses: u64,
    /// Acquires refused because the pool was at capacity.
    pub exhaustions: u64,
}

impl KvPageStats {
    /// `true` when the accounting invariant `allocated == in_use + free`
    /// holds.
    pub fn reconciles(&self) -> bool {
        self.allocated == self.in_use + self.free
    }
}

/// The pool refused an acquire because every page is in use; the serving
/// scheduler reacts by evicting a session and retrying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvPoolExhausted {
    /// Pages the pool may hand out.
    pub capacity: usize,
    /// Pages in use at the time of the refused acquire.
    pub in_use: usize,
}

impl fmt::Display for KvPoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kv page pool exhausted: {} of {} pages in use",
            self.in_use, self.capacity
        )
    }
}

impl std::error::Error for KvPoolExhausted {}

struct KvPoolInner {
    /// Recycled pages, bucketed by (shape, dtype). A serving deployment
    /// usually has one bucket (one model config); linear scan is fine.
    free: Vec<(Vec<usize>, DataType, Vec<NDArray>)>,
    stats: KvPageStats,
}

/// A fixed-size page allocator for KV caches, shared by every VM and
/// session of a serving engine.
///
/// Pages are `(batch, heads, page_tokens, head_dim)` tensors handed to
/// [`crate::kv_cache::KvCache`] block tables. Released pages are parked
/// on a free list and recycled (zero-filled) on the next acquire, so
/// steady-state serving allocates nothing; a bounded pool refuses
/// acquires beyond `capacity_pages`, which is the backpressure signal
/// the continuous-batching scheduler turns into session eviction.
///
/// All methods take `&self`; the pool is shared as an `Arc` across
/// worker threads. The interior mutex is poison-tolerant: a panicking
/// worker (chaos harness) cannot wedge the allocator for survivors.
pub struct KvPagePool {
    page_tokens: usize,
    capacity: usize,
    inner: Mutex<KvPoolInner>,
}

impl fmt::Debug for KvPagePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.stats();
        write!(
            f,
            "KvPagePool(page_tokens={}, in_use={}/{}, free={})",
            st.page_tokens,
            st.in_use,
            if st.capacity == usize::MAX {
                "∞".to_string()
            } else {
                st.capacity.to_string()
            },
            st.free
        )
    }
}

impl KvPagePool {
    /// A pool handing out pages of `page_tokens` tokens, at most
    /// `capacity_pages` at a time.
    pub fn with_capacity(page_tokens: usize, capacity_pages: usize) -> Self {
        KvPagePool {
            page_tokens: page_tokens.max(1),
            capacity: capacity_pages,
            inner: Mutex::new(KvPoolInner {
                free: Vec::new(),
                stats: KvPageStats {
                    page_tokens: page_tokens.max(1),
                    capacity: capacity_pages,
                    ..KvPageStats::default()
                },
            }),
        }
    }

    /// An unbounded pool (capacity `usize::MAX`).
    pub fn unbounded(page_tokens: usize) -> Self {
        Self::with_capacity(page_tokens, usize::MAX)
    }

    /// Tokens per page.
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, KvPoolInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires one zeroed page of the given shape, recycling a free page
    /// when one matches.
    ///
    /// # Errors
    ///
    /// Returns [`KvPoolExhausted`] when `in_use` has reached the
    /// capacity.
    pub fn acquire(&self, shape: &[usize], dtype: DataType) -> Result<NDArray, KvPoolExhausted> {
        let mut inner = self.lock();
        if inner.stats.in_use >= self.capacity {
            inner.stats.exhaustions += 1;
            return Err(KvPoolExhausted {
                capacity: self.capacity,
                in_use: inner.stats.in_use,
            });
        }
        inner.stats.acquires += 1;
        let recycled = inner
            .free
            .iter_mut()
            .find(|(s, d, pages)| s == shape && *d == dtype && !pages.is_empty())
            .and_then(|(_, _, pages)| pages.pop());
        let page = match recycled {
            Some(page) => {
                inner.stats.reuses += 1;
                inner.stats.free -= 1;
                page.fill(relax_tir::Scalar::F(0.0));
                page
            }
            None => {
                inner.stats.allocated += 1;
                NDArray::zeros(shape, dtype)
            }
        };
        inner.stats.in_use += 1;
        inner.stats.peak_in_use = inner.stats.peak_in_use.max(inner.stats.in_use);
        Ok(page)
    }

    /// Returns a page to the free list for reuse.
    pub fn release(&self, page: NDArray) {
        let mut inner = self.lock();
        inner.stats.releases += 1;
        inner.stats.in_use = inner.stats.in_use.saturating_sub(1);
        inner.stats.free += 1;
        let shape = page.shape().to_vec();
        let dtype = page.dtype();
        match inner
            .free
            .iter_mut()
            .find(|(s, d, _)| *s == shape && *d == dtype)
        {
            Some((_, _, pages)) => pages.push(page),
            None => inner.free.push((shape, dtype, vec![page])),
        }
    }

    /// Current statistics (see [`KvPageStats`] for the invariant).
    pub fn stats(&self) -> KvPageStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_reuse() {
        let mut pool = PooledAllocator::new();
        let s1 = pool.alloc(100);
        assert_eq!(s1, 100);
        pool.free(100);
        let s2 = pool.alloc(80); // fits in the 100-byte block
        assert_eq!(s2, 100);
        let st = pool.stats();
        assert_eq!(st.footprint, 100);
        assert_eq!(st.fresh_allocations, 1);
        assert_eq!(st.reuses, 1);
    }

    #[test]
    fn growth_when_nothing_fits() {
        let mut pool = PooledAllocator::new();
        pool.alloc(64);
        pool.free(64);
        pool.alloc(128); // 64 does not fit
        let st = pool.stats();
        assert_eq!(st.footprint, 64 + 128);
        assert_eq!(st.fresh_allocations, 2);
    }

    #[test]
    fn kv_pool_reuses_and_reconciles() {
        let pool = KvPagePool::with_capacity(4, 2);
        let shape = [1usize, 2, 4, 8];
        let a = pool.acquire(&shape, DataType::F32).unwrap();
        let b = pool.acquire(&shape, DataType::F32).unwrap();
        // At capacity: the third acquire is refused and counted.
        let err = pool.acquire(&shape, DataType::F32).unwrap_err();
        assert_eq!(err.in_use, 2);
        assert_eq!(err.capacity, 2);
        // Dirty a page, release it, and reacquire: recycled and zeroed.
        a.set(0, relax_tir::Scalar::F(7.0)).unwrap();
        pool.release(a);
        let c = pool.acquire(&shape, DataType::F32).unwrap();
        assert_eq!(c.get(0).unwrap(), relax_tir::Scalar::F(0.0));
        let st = pool.stats();
        assert!(st.reconciles(), "{st:?}");
        assert_eq!(st.allocated, 2);
        assert_eq!(st.in_use, 2);
        assert_eq!(st.free, 0);
        assert_eq!(st.reuses, 1);
        assert_eq!(st.exhaustions, 1);
        assert_eq!(st.peak_in_use, 2);
        pool.release(b);
        pool.release(c);
        let st = pool.stats();
        assert!(st.reconciles());
        assert_eq!(st.in_use, 0);
        assert_eq!(st.free, 2);
    }

    #[test]
    fn kv_pool_buckets_by_shape_and_dtype() {
        let pool = KvPagePool::unbounded(4);
        let p1 = pool.acquire(&[1, 1, 4, 2], DataType::F32).unwrap();
        pool.release(p1);
        // A different shape cannot recycle the parked page.
        let _p2 = pool.acquire(&[1, 2, 4, 2], DataType::F32).unwrap();
        let st = pool.stats();
        assert_eq!(st.reuses, 0);
        assert_eq!(st.allocated, 2);
        assert!(st.reconciles());
    }

    #[test]
    fn peak_tracking() {
        let mut pool = PooledAllocator::new();
        pool.alloc(10);
        pool.alloc(20);
        pool.free(10);
        pool.alloc(5);
        assert_eq!(pool.stats().peak_in_use, 30);
        assert_eq!(pool.stats().in_use, 30); // 20 + 10 (5 served by 10-block)
    }
}
