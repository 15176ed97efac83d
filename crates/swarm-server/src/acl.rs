//! Access control lists (§2.3.2).
//!
//! "The server maintains a database of ACLs, indexed by an ACL ID (AID).
//! … When a fragment is stored each non-overlapping byte range can be
//! assigned an AID. Subsequent accesses to a byte range will only be
//! permitted if the requesting client is a member of the ACL."
//!
//! Bytes not covered by any range are world-accessible, and the reserved
//! [`Aid::WORLD`] ACL admits every client. Once stored, a range's AID
//! cannot change — permissions change by changing ACL membership, which is
//! exactly the paper's mechanism for adding a new client with the same
//! privileges as existing ones.

use std::collections::{BTreeMap, HashSet};

use parking_lot::RwLock;
use swarm_net::StoreRange;
use swarm_types::{Aid, ClientId, FragmentId, Result, SwarmError};

/// The per-server ACL database plus per-fragment protected-range table.
#[derive(Debug, Default)]
pub struct AclDb {
    inner: RwLock<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    acls: BTreeMap<Aid, HashSet<ClientId>>,
    /// Protected ranges per fragment, each tagged with the ticket of the
    /// Store request that recorded them.
    ranges: BTreeMap<FragmentId, (u64, Vec<StoreRange>)>,
    next_aid: u32,
    next_ticket: u64,
}

/// The ranges of one Store request between [`AclDb::attach_ranges`] and
/// [`AclDb::settle_ranges`].
#[derive(Debug)]
pub struct PendingRanges(Pending);

#[derive(Debug)]
enum Pending {
    /// The request protects nothing.
    Open,
    /// Recorded under this ticket before the store.
    Recorded(u64),
    /// The FID already had ranges — another request's; these are held back
    /// until the store says whose fragment it is.
    Held(Vec<StoreRange>),
}

impl AclDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        AclDb {
            inner: RwLock::new(Inner {
                acls: BTreeMap::new(),
                ranges: BTreeMap::new(),
                next_aid: 1, // 0 is Aid::WORLD
                next_ticket: 0,
            }),
        }
    }

    /// Creates an ACL with the given members, returning its new id.
    pub fn create(&self, members: impl IntoIterator<Item = ClientId>) -> Aid {
        let mut inner = self.inner.write();
        let aid = Aid::new(inner.next_aid);
        inner.next_aid += 1;
        inner.acls.insert(aid, members.into_iter().collect());
        aid
    }

    /// Adds and removes members of an existing ACL.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::AclNotFound`] for an unknown id, and
    /// [`SwarmError::InvalidArgument`] for [`Aid::WORLD`], which is
    /// immutable.
    pub fn modify(
        &self,
        aid: Aid,
        add: impl IntoIterator<Item = ClientId>,
        remove: impl IntoIterator<Item = ClientId>,
    ) -> Result<()> {
        if aid == Aid::WORLD {
            return Err(SwarmError::invalid("the world ACL is immutable"));
        }
        let mut inner = self.inner.write();
        let members = inner
            .acls
            .get_mut(&aid)
            .ok_or(SwarmError::AclNotFound(aid))?;
        for c in add {
            members.insert(c);
        }
        for c in remove {
            members.remove(&c);
        }
        Ok(())
    }

    /// Deletes an ACL. Ranges that reference it become inaccessible (a
    /// deliberate fail-closed choice).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::AclNotFound`] for an unknown id and
    /// [`SwarmError::InvalidArgument`] for [`Aid::WORLD`].
    pub fn delete(&self, aid: Aid) -> Result<()> {
        if aid == Aid::WORLD {
            return Err(SwarmError::invalid("the world ACL cannot be deleted"));
        }
        let mut inner = self.inner.write();
        inner
            .acls
            .remove(&aid)
            .map(|_| ())
            .ok_or(SwarmError::AclNotFound(aid))
    }

    /// Is `client` a member of `aid`?
    ///
    /// [`Aid::WORLD`] admits everyone; a deleted/unknown ACL admits no one.
    pub fn is_member(&self, aid: Aid, client: ClientId) -> bool {
        if aid == Aid::WORLD {
            return true;
        }
        self.inner
            .read()
            .acls
            .get(&aid)
            .is_some_and(|m| m.contains(&client))
    }

    /// First half of a Store: validates the protected ranges supplied
    /// with it — non-overlapping (the paper requires "non-overlapping byte
    /// range\[s\]"), known ACLs — and records them *before* the bytes are
    /// stored, so the fragment is never readable without them. Ranges the
    /// FID already has are another request's and are left alone: a Store
    /// that turns out to be a refused duplicate must not replace them.
    /// Pass the result to [`AclDb::settle_ranges`] once the store has
    /// succeeded or failed.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] on overlap and
    /// [`SwarmError::AclNotFound`] for ranges referencing unknown ACLs;
    /// nothing is recorded then.
    pub fn attach_ranges(
        &self,
        fid: FragmentId,
        mut ranges: Vec<StoreRange>,
    ) -> Result<PendingRanges> {
        if ranges.is_empty() {
            return Ok(PendingRanges(Pending::Open));
        }
        ranges.sort_by_key(|r| r.offset);
        for pair in ranges.windows(2) {
            if pair[0].offset + pair[0].len > pair[1].offset {
                return Err(SwarmError::invalid(format!(
                    "overlapping protected ranges at offsets {} and {}",
                    pair[0].offset, pair[1].offset
                )));
            }
        }
        let mut inner = self.inner.write();
        for r in &ranges {
            if r.aid != Aid::WORLD && !inner.acls.contains_key(&r.aid) {
                return Err(SwarmError::AclNotFound(r.aid));
            }
        }
        if inner.ranges.contains_key(&fid) {
            return Ok(PendingRanges(Pending::Held(ranges)));
        }
        let ticket = inner.record(fid, ranges);
        Ok(PendingRanges(Pending::Recorded(ticket)))
    }

    /// Second half of a Store. `stored`: this request created the
    /// fragment, so its ranges are the fragment's — recorded now if they
    /// were held back. Not stored: the ranges this request recorded are
    /// withdrawn, and only those; a FID it did not create keeps what it
    /// had.
    pub fn settle_ranges(&self, fid: FragmentId, pending: PendingRanges, stored: bool) {
        match (pending.0, stored) {
            (Pending::Recorded(ticket), false) => {
                let mut inner = self.inner.write();
                if inner.ranges.get(&fid).is_some_and(|(by, _)| *by == ticket) {
                    inner.ranges.remove(&fid);
                }
            }
            (Pending::Held(ranges), true) => {
                self.inner.write().record(fid, ranges);
            }
            _ => {}
        }
    }

    /// Forgets the ranges of a deleted fragment.
    pub fn detach_ranges(&self, fid: FragmentId) {
        self.inner.write().ranges.remove(&fid);
    }

    /// Checks that `client` may access `[offset, offset+len)` of `fid`.
    ///
    /// Every protected range overlapping the request must admit the
    /// client; unprotected bytes are world-accessible.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::AccessDenied`] naming the denying ACL.
    pub fn check(
        &self,
        fid: FragmentId,
        offset: u32,
        len: u32,
        client: ClientId,
        op: &'static str,
    ) -> Result<()> {
        let inner = self.inner.read();
        let Some((_, ranges)) = inner.ranges.get(&fid) else {
            return Ok(());
        };
        let req_end = offset.saturating_add(len);
        for r in ranges {
            let r_end = r.offset + r.len;
            let overlaps = r.offset < req_end && offset < r_end;
            if !overlaps || r.aid == Aid::WORLD {
                continue;
            }
            let admitted = inner.acls.get(&r.aid).is_some_and(|m| m.contains(&client));
            if !admitted {
                return Err(SwarmError::AccessDenied { aid: r.aid, op });
            }
        }
        Ok(())
    }
}

impl Inner {
    fn record(&mut self, fid: FragmentId, ranges: Vec<StoreRange>) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.ranges.insert(fid, (ticket, ranges));
        ticket
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(s: u64) -> FragmentId {
        FragmentId::new(ClientId::new(1), s)
    }

    fn c(n: u32) -> ClientId {
        ClientId::new(n)
    }

    #[test]
    fn create_and_membership() {
        let db = AclDb::new();
        let aid = db.create([c(1), c(2)]);
        assert!(db.is_member(aid, c(1)));
        assert!(db.is_member(aid, c(2)));
        assert!(!db.is_member(aid, c(3)));
    }

    #[test]
    fn world_admits_everyone_and_is_immutable() {
        let db = AclDb::new();
        assert!(db.is_member(Aid::WORLD, c(999)));
        assert!(db.modify(Aid::WORLD, [c(1)], []).is_err());
        assert!(db.delete(Aid::WORLD).is_err());
    }

    #[test]
    fn modify_changes_membership() {
        let db = AclDb::new();
        let aid = db.create([c(1)]);
        db.modify(aid, [c(2)], [c(1)]).unwrap();
        assert!(!db.is_member(aid, c(1)));
        assert!(db.is_member(aid, c(2)));
    }

    #[test]
    fn adding_a_client_grants_access_to_existing_data() {
        // The paper's motivating scenario: add a client to existing ACLs
        // and all data protected by them becomes accessible.
        let db = AclDb::new();
        let aid = db.create([c(1)]);
        db.attach_ranges(
            fid(0),
            vec![StoreRange {
                offset: 0,
                len: 100,
                aid,
            }],
        )
        .unwrap();
        assert!(db.check(fid(0), 0, 10, c(9), "read").is_err());
        db.modify(aid, [c(9)], []).unwrap();
        db.check(fid(0), 0, 10, c(9), "read").unwrap();
    }

    #[test]
    fn unprotected_bytes_are_world_readable() {
        let db = AclDb::new();
        let aid = db.create([c(1)]);
        db.attach_ranges(
            fid(0),
            vec![StoreRange {
                offset: 100,
                len: 50,
                aid,
            }],
        )
        .unwrap();
        // [0,100) unprotected.
        db.check(fid(0), 0, 100, c(9), "read").unwrap();
        // Overlapping the protected range denies.
        assert!(db.check(fid(0), 90, 20, c(9), "read").is_err());
        // Member passes.
        db.check(fid(0), 90, 20, c(1), "read").unwrap();
    }

    #[test]
    fn fragment_without_ranges_is_open() {
        let db = AclDb::new();
        db.check(fid(3), 0, u32::MAX, c(42), "read").unwrap();
    }

    #[test]
    fn overlapping_ranges_rejected() {
        let db = AclDb::new();
        let aid = db.create([c(1)]);
        let err = db
            .attach_ranges(
                fid(0),
                vec![
                    StoreRange {
                        offset: 0,
                        len: 10,
                        aid,
                    },
                    StoreRange {
                        offset: 5,
                        len: 10,
                        aid,
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, SwarmError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn unknown_acl_in_range_rejected() {
        let db = AclDb::new();
        let err = db
            .attach_ranges(
                fid(0),
                vec![StoreRange {
                    offset: 0,
                    len: 10,
                    aid: Aid::new(77),
                }],
            )
            .unwrap_err();
        assert!(matches!(err, SwarmError::AclNotFound(_)), "{err}");
    }

    #[test]
    fn deleted_acl_fails_closed() {
        let db = AclDb::new();
        let aid = db.create([c(1)]);
        db.attach_ranges(
            fid(0),
            vec![StoreRange {
                offset: 0,
                len: 10,
                aid,
            }],
        )
        .unwrap();
        db.delete(aid).unwrap();
        // Even the former member is now denied.
        assert!(db.check(fid(0), 0, 10, c(1), "read").is_err());
    }

    #[test]
    fn detach_forgets_ranges() {
        let db = AclDb::new();
        let aid = db.create([c(1)]);
        db.attach_ranges(
            fid(0),
            vec![StoreRange {
                offset: 0,
                len: 10,
                aid,
            }],
        )
        .unwrap();
        db.detach_ranges(fid(0));
        db.check(fid(0), 0, 10, c(9), "read").unwrap();
    }

    /// Two Stores of one FID overlap; the first fails, the second creates
    /// the fragment. Whatever order they settle in, the fragment ends up
    /// with the ranges of the request that stored it.
    #[test]
    fn ranges_follow_the_request_that_stored_the_fragment() {
        for loser_settles_first in [true, false] {
            let db = AclDb::new();
            let (a, b) = (db.create([c(1)]), db.create([c(2)]));
            let range = |aid| {
                vec![StoreRange {
                    offset: 0,
                    len: 10,
                    aid,
                }]
            };
            let loser = db.attach_ranges(fid(0), range(a)).unwrap();
            let winner = db.attach_ranges(fid(0), range(b)).unwrap();
            // Until either settles the loser's ranges guard the FID.
            assert!(db.check(fid(0), 0, 10, c(2), "read").is_err());
            if loser_settles_first {
                db.settle_ranges(fid(0), loser, false);
                db.settle_ranges(fid(0), winner, true);
            } else {
                db.settle_ranges(fid(0), winner, true);
                db.settle_ranges(fid(0), loser, false);
            }
            db.check(fid(0), 0, 10, c(2), "read").unwrap();
            assert!(db.check(fid(0), 0, 10, c(1), "read").is_err());
        }
    }

    #[test]
    fn distinct_aids_assigned() {
        let db = AclDb::new();
        let a = db.create([]);
        let b = db.create([]);
        assert_ne!(a, b);
        assert_ne!(a, Aid::WORLD);
    }
}
