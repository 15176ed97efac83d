//! The client-side caching service (§2.2, §3.4).
//!
//! The paper expects "most reads to be handled by the client cache" and
//! attributes Sting's benchmark win partly to it. [`CachingReader`]
//! layers the workspace's one LRU ([`LruCache`]) over a [`Log`] as a
//! read-through block cache keyed by [`BlockAddr`].

use std::sync::Arc;

use parking_lot::Mutex;
use swarm_log::Log;
use swarm_types::{BlockAddr, Bytes, LruCache, Result};

/// A read-through block cache over a [`Log`].
///
/// Cached blocks are [`Bytes`] — shared slices of the fragments the log
/// fetched, so a cache hit hands back a refcount bump, not a copy.
pub struct CachingReader {
    log: Arc<Log>,
    cache: Mutex<LruCache<BlockAddr, Bytes>>,
}

impl std::fmt::Debug for CachingReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingReader")
            .field("cache", &*self.cache.lock())
            .finish()
    }
}

impl CachingReader {
    /// Wraps `log` with a cache of `capacity` blocks.
    pub fn new(log: Arc<Log>, capacity: usize) -> CachingReader {
        CachingReader {
            log,
            cache: Mutex::new(LruCache::new(capacity)),
        }
    }

    /// Reads `addr`, serving repeats from memory.
    ///
    /// # Errors
    ///
    /// Propagates log read failures on a miss.
    pub fn read(&self, addr: BlockAddr) -> Result<Bytes> {
        if let Some(hit) = self.cache.lock().get(&addr) {
            return Ok(hit.share());
        }
        let data = self.log.read(addr)?;
        self.cache.lock().insert(addr, data.share());
        Ok(data)
    }

    /// Pre-populates the cache (e.g. with data the caller just wrote).
    pub fn put(&self, addr: BlockAddr, data: Bytes) {
        self.cache.lock().insert(addr, data);
    }

    /// Drops one address (cleaner moved/deleted the block).
    pub fn invalidate(&self, addr: BlockAddr) {
        self.cache.lock().remove(&addr);
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        self.cache.lock().stats()
    }
}
