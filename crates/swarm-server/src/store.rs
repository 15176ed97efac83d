//! The fragment persistence abstraction.
//!
//! §3.2: "The server divides its disk(s) into fragment-sized slots, one for
//! each fragment. A mapping from FID to slot is maintained in an on-disk
//! fragment map." [`FragmentStore`] captures exactly that contract; the
//! request-handling logic in [`crate::StorageServer`] is generic over it so
//! the same server runs on memory ([`crate::MemStore`]) or disk
//! ([`crate::FileStore`]).

use swarm_types::{Bytes, ClientId, FragmentId, Result};

/// Metadata the store keeps per fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentMeta {
    /// Stored length in bytes.
    pub len: u32,
    /// Whether the client stored this fragment *marked* (§2.3.1); marked
    /// fragments anchor checkpoint discovery after a client crash.
    pub marked: bool,
}

/// A slot-oriented repository of immutable fragments.
///
/// Invariants every implementation upholds:
///
/// 1. **Immutability** — a stored fragment's bytes never change; `store`
///    on an existing FID fails with `FragmentExists`. That answer means
///    *durably there*: writers take it as the ack of a retried store, so
///    while an earlier `store` of the FID is still unresolved (writing its
///    data, or waiting for its commit) a second one waits for the outcome —
///    `FragmentExists` if the first committed, else it stores its own bytes.
/// 2. **Atomicity** — `store` either persists the whole fragment or
///    nothing, even across a crash (§2.3.1). `MemStore` gets this for
///    free; `FileStore` orders renames and journal appends to guarantee it.
/// 3. **Slot accounting** — when constructed with a capacity, a store never
///    holds more fragments (plus preallocated slots) than it has slots,
///    failing further stores with `OutOfSpace`.
pub trait FragmentStore: Send + Sync {
    /// Persists a fragment atomically.
    ///
    /// `data` is a shared buffer view: on the hot path it aliases the
    /// network frame the fragment arrived in, so in-memory stores can keep
    /// it without copying.
    ///
    /// # Errors
    ///
    /// * `FragmentExists` if `fid` is already stored — as durably as an
    ///   `Ok` from this store would make it, never merely in progress.
    /// * `OutOfSpace` if every slot is full.
    /// * `Io` on disk failure.
    fn store(&self, fid: FragmentId, data: Bytes, marked: bool) -> Result<()>;

    /// Reads `len` bytes at `offset` from fragment `fid`.
    ///
    /// The returned [`Bytes`] may alias the stored fragment (in-memory
    /// stores return a zero-copy sub-view).
    ///
    /// # Errors
    ///
    /// * `FragmentNotFound` if `fid` is not stored.
    /// * `RangeOutOfBounds` if the range extends past the stored length.
    fn read(&self, fid: FragmentId, offset: u32, len: u32) -> Result<Bytes>;

    /// Deletes a fragment, freeing its slot. Idempotent-by-error: deleting
    /// a missing fragment returns `FragmentNotFound`.
    ///
    /// # Errors
    ///
    /// * `FragmentNotFound` if `fid` is not stored.
    /// * `Io` on disk failure.
    fn delete(&self, fid: FragmentId) -> Result<()>;

    /// Reserves a slot so a future `store(fid, ..)` cannot fail for lack of
    /// space. Reserving an already-stored or already-reserved FID is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// * `OutOfSpace` if every slot is full.
    fn preallocate(&self, fid: FragmentId, len: u32) -> Result<()>;

    /// Metadata for a stored fragment, or `None`.
    fn meta(&self, fid: FragmentId) -> Option<FragmentMeta>;

    /// Newest (highest-sequence) *marked* fragment stored by `client`.
    fn last_marked(&self, client: ClientId) -> Option<FragmentId>;

    /// All stored fragment ids, ascending.
    fn list(&self) -> Vec<FragmentId>;

    /// Number of fragments currently stored.
    fn fragment_count(&self) -> u64;

    /// Total bytes of fragment data currently stored.
    fn byte_count(&self) -> u64;

    /// Slot capacity (0 = unbounded).
    fn capacity(&self) -> u64;
}

impl FragmentStore for Box<dyn FragmentStore> {
    fn store(&self, fid: FragmentId, data: Bytes, marked: bool) -> Result<()> {
        (**self).store(fid, data, marked)
    }
    fn read(&self, fid: FragmentId, offset: u32, len: u32) -> Result<Bytes> {
        (**self).read(fid, offset, len)
    }
    fn delete(&self, fid: FragmentId) -> Result<()> {
        (**self).delete(fid)
    }
    fn preallocate(&self, fid: FragmentId, len: u32) -> Result<()> {
        (**self).preallocate(fid, len)
    }
    fn meta(&self, fid: FragmentId) -> Option<FragmentMeta> {
        (**self).meta(fid)
    }
    fn last_marked(&self, client: ClientId) -> Option<FragmentId> {
        (**self).last_marked(client)
    }
    fn list(&self) -> Vec<FragmentId> {
        (**self).list()
    }
    fn fragment_count(&self) -> u64 {
        (**self).fragment_count()
    }
    fn byte_count(&self) -> u64 {
        (**self).byte_count()
    }
    fn capacity(&self) -> u64 {
        (**self).capacity()
    }
}

/// Shared conformance tests run against every [`FragmentStore`]
/// implementation (called from `memstore` and `filestore` test modules).
#[cfg(test)]
pub(crate) mod conformance {
    use super::*;
    use swarm_types::SwarmError;

    fn fid(client: u32, seq: u64) -> FragmentId {
        FragmentId::new(ClientId::new(client), seq)
    }

    pub fn store_read_roundtrip(s: &dyn FragmentStore) {
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        s.store(fid(1, 0), data.clone().into(), false).unwrap();
        assert_eq!(s.read(fid(1, 0), 0, 2048).unwrap(), data);
        assert_eq!(s.read(fid(1, 0), 100, 32).unwrap(), &data[100..132]);
        assert_eq!(s.read(fid(1, 0), 2048, 0).unwrap(), Vec::<u8>::new());
    }

    pub fn double_store_rejected(s: &dyn FragmentStore) {
        s.store(fid(1, 1), b"aaa".into(), false).unwrap();
        let err = s.store(fid(1, 1), b"bbb".into(), false).unwrap_err();
        assert!(matches!(err, SwarmError::FragmentExists(_)), "{err}");
        // Original data untouched.
        assert_eq!(s.read(fid(1, 1), 0, 3).unwrap(), b"aaa");
    }

    pub fn missing_fragment_errors(s: &dyn FragmentStore) {
        let err = s.read(fid(9, 9), 0, 1).unwrap_err();
        assert!(matches!(err, SwarmError::FragmentNotFound(_)), "{err}");
        let err = s.delete(fid(9, 9)).unwrap_err();
        assert!(matches!(err, SwarmError::FragmentNotFound(_)), "{err}");
    }

    pub fn out_of_range_read_errors(s: &dyn FragmentStore) {
        s.store(fid(1, 2), b"0123456789".into(), false).unwrap();
        let err = s.read(fid(1, 2), 5, 6).unwrap_err();
        assert!(matches!(err, SwarmError::RangeOutOfBounds { .. }), "{err}");
        let err = s.read(fid(1, 2), 11, 0).unwrap_err();
        assert!(matches!(err, SwarmError::RangeOutOfBounds { .. }), "{err}");
        // `offset + len` wraps a u32: still out of range, and refused
        // before anything is allocated.
        let err = s.read(fid(1, 2), 1, u32::MAX).unwrap_err();
        assert!(matches!(err, SwarmError::RangeOutOfBounds { .. }), "{err}");
    }

    pub fn delete_frees_fragment(s: &dyn FragmentStore) {
        s.store(fid(1, 3), b"gone".into(), false).unwrap();
        s.delete(fid(1, 3)).unwrap();
        assert!(s.read(fid(1, 3), 0, 1).is_err());
        assert!(s.meta(fid(1, 3)).is_none());
        // Slot is reusable.
        s.store(fid(1, 3), b"back".into(), false).unwrap();
        assert_eq!(s.read(fid(1, 3), 0, 4).unwrap(), b"back");
    }

    pub fn marked_tracking(s: &dyn FragmentStore) {
        assert_eq!(s.last_marked(ClientId::new(2)), None);
        s.store(fid(2, 0), b"a".into(), true).unwrap();
        s.store(fid(2, 1), b"b".into(), false).unwrap();
        s.store(fid(2, 2), b"c".into(), true).unwrap();
        s.store(fid(3, 7), b"d".into(), true).unwrap();
        assert_eq!(s.last_marked(ClientId::new(2)), Some(fid(2, 2)));
        assert_eq!(s.last_marked(ClientId::new(3)), Some(fid(3, 7)));
        // Deleting the newest marked fragment falls back to the previous.
        s.delete(fid(2, 2)).unwrap();
        assert_eq!(s.last_marked(ClientId::new(2)), Some(fid(2, 0)));
    }

    pub fn capacity_enforced(s: &dyn FragmentStore) {
        assert_eq!(s.capacity(), 2);
        s.store(fid(4, 0), b"x".into(), false).unwrap();
        s.preallocate(fid(4, 1), 1).unwrap();
        let err = s.store(fid(4, 2), b"z".into(), false).unwrap_err();
        assert!(matches!(err, SwarmError::OutOfSpace(_)), "{err}");
        // The preallocated slot still accepts its fragment.
        s.store(fid(4, 1), b"y".into(), false).unwrap();
        // Deleting frees a slot.
        s.delete(fid(4, 0)).unwrap();
        s.store(fid(4, 2), b"z".into(), false).unwrap();
    }

    /// Concurrent stores, reads, and deletes across distinct FIDs must
    /// never tear: a read observes either the full fragment (byte-exact,
    /// derived from the FID) or `FragmentNotFound` — nothing in between.
    pub fn concurrent_store_read_delete(s: &dyn FragmentStore) {
        fn content(t: u32, i: u64) -> Vec<u8> {
            (0..256u32).map(|j| (t + i as u32 * 31 + j) as u8).collect()
        }
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let f = fid(10 + t, i);
                        s.store(f, content(t, i).into(), false).unwrap();
                        match s.read(f, 0, 256) {
                            Ok(got) => assert_eq!(&got[..], &content(t, i)[..]),
                            Err(SwarmError::FragmentNotFound(_)) => {}
                            Err(e) => panic!("unexpected read error: {e}"),
                        }
                        if i % 3 == 0 {
                            s.delete(f).unwrap();
                        }
                    }
                });
                // A reader thread racing over every other thread's FIDs.
                scope.spawn(move || {
                    for i in 0..25u64 {
                        for rt in 0..4u32 {
                            match s.read(fid(10 + rt, i), 0, 256) {
                                Ok(got) => assert_eq!(&got[..], &content(rt, i)[..]),
                                Err(SwarmError::FragmentNotFound(_)) => {}
                                Err(e) => panic!("unexpected read error: {e}"),
                            }
                        }
                    }
                });
            }
        });
        // Every surviving fragment is byte-exact.
        for t in 0..4u32 {
            for i in 0..25u64 {
                let f = fid(10 + t, i);
                if i % 3 == 0 {
                    assert!(s.meta(f).is_none());
                } else {
                    assert_eq!(&s.read(f, 0, 256).unwrap()[..], &content(t, i)[..]);
                }
            }
        }
    }

    pub fn accounting(s: &dyn FragmentStore) {
        assert_eq!(s.fragment_count(), 0);
        assert_eq!(s.byte_count(), 0);
        s.store(fid(5, 0), vec![0u8; 100].into(), false).unwrap();
        s.store(fid(5, 1), vec![0u8; 28].into(), false).unwrap();
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.byte_count(), 128);
        assert_eq!(s.list(), vec![fid(5, 0), fid(5, 1)]);
        s.delete(fid(5, 0)).unwrap();
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.byte_count(), 28);
    }
}
