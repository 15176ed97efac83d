//! ACL enforcement end-to-end (§2.3.2): byte-range protection on stored
//! fragments, membership changes, and the paper's "add a client with the
//! same privileges" scenario — over the full server/protocol path.

use swarm_net::{Request, Response, StoreRange, Transport};
use swarm_types::{Aid, ClientId, FragmentId, SwarmError};

use swarm::local::LocalCluster;

fn call(
    cluster: &LocalCluster,
    server: u32,
    client: u32,
    req: Request,
) -> Result<Response, SwarmError> {
    let transport = cluster.transport();
    let mut conn = transport.connect(swarm_types::ServerId::new(server), ClientId::new(client))?;
    conn.call(&req)?.into_result()
}

fn must(resp: Result<Response, SwarmError>) -> Response {
    resp.expect("operation should succeed")
}

#[test]
fn byte_range_protection_through_the_wire() {
    let cluster = LocalCluster::new(1).unwrap();
    let owner = 1u32;
    let stranger = 2u32;

    let aid = match must(call(
        &cluster,
        0,
        owner,
        Request::AclCreate {
            members: vec![ClientId::new(owner)],
        },
    )) {
        Response::AclCreated(aid) => aid,
        r => panic!("{r:?}"),
    };

    let fid = FragmentId::new(ClientId::new(owner), 0);
    must(call(
        &cluster,
        0,
        owner,
        Request::Store {
            fid,
            marked: false,
            ranges: vec![StoreRange {
                offset: 0,
                len: 6,
                aid,
            }],
            data: b"secretPUBLIC".into(),
        },
    ));

    // Stranger: protected range denied, public range allowed.
    let denied = call(
        &cluster,
        0,
        stranger,
        Request::Read {
            fid,
            offset: 0,
            len: 6,
        },
    );
    assert!(
        matches!(denied, Err(SwarmError::AccessDenied { .. })),
        "{denied:?}"
    );
    let public = must(call(
        &cluster,
        0,
        stranger,
        Request::Read {
            fid,
            offset: 6,
            len: 6,
        },
    ));
    assert_eq!(public, Response::Data(b"PUBLIC".into()));

    // Owner reads everything.
    let all = must(call(
        &cluster,
        0,
        owner,
        Request::Read {
            fid,
            offset: 0,
            len: 12,
        },
    ));
    assert_eq!(all, Response::Data(b"secretPUBLIC".into()));
}

#[test]
fn adding_a_member_opens_all_existing_data() {
    // §2.3.2: "This makes it easy to add a client to the system with the
    // same privileges as existing clients; once the client has been added
    // to the appropriate ACLs, all data protected by those ACLs will be
    // accessible."
    let cluster = LocalCluster::new(1).unwrap();
    let aid = match must(call(
        &cluster,
        0,
        1,
        Request::AclCreate {
            members: vec![ClientId::new(1)],
        },
    )) {
        Response::AclCreated(aid) => aid,
        r => panic!("{r:?}"),
    };
    // Two protected fragments.
    for seq in 0..2u64 {
        must(call(
            &cluster,
            0,
            1,
            Request::Store {
                fid: FragmentId::new(ClientId::new(1), seq),
                marked: false,
                ranges: vec![StoreRange {
                    offset: 0,
                    len: 4,
                    aid,
                }],
                data: format!("data{seq}").into_bytes().into(),
            },
        ));
    }
    let newcomer = 9u32;
    for seq in 0..2u64 {
        assert!(call(
            &cluster,
            0,
            newcomer,
            Request::Read {
                fid: FragmentId::new(ClientId::new(1), seq),
                offset: 0,
                len: 4,
            },
        )
        .is_err());
    }
    must(call(
        &cluster,
        0,
        1,
        Request::AclModify {
            aid,
            add: vec![ClientId::new(newcomer)],
            remove: vec![],
        },
    ));
    for seq in 0..2u64 {
        must(call(
            &cluster,
            0,
            newcomer,
            Request::Read {
                fid: FragmentId::new(ClientId::new(1), seq),
                offset: 0,
                len: 4,
            },
        ));
    }
}

#[test]
fn locate_respects_acls() {
    // Reconstruction's Locate returns fragment prefixes; protected
    // prefixes must not leak to non-members.
    let cluster = LocalCluster::new(1).unwrap();
    let aid = match must(call(
        &cluster,
        0,
        1,
        Request::AclCreate {
            members: vec![ClientId::new(1)],
        },
    )) {
        Response::AclCreated(aid) => aid,
        r => panic!("{r:?}"),
    };
    let fid = FragmentId::new(ClientId::new(1), 7);
    must(call(
        &cluster,
        0,
        1,
        Request::Store {
            fid,
            marked: false,
            ranges: vec![StoreRange {
                offset: 0,
                len: 100,
                aid,
            }],
            data: vec![0xaa; 100].into(),
        },
    ));
    let leak = call(
        &cluster,
        0,
        2,
        Request::Locate {
            fid,
            header_len: 64,
        },
    );
    assert!(
        matches!(leak, Err(SwarmError::AccessDenied { .. })),
        "{leak:?}"
    );
    // The owner can still locate.
    must(call(
        &cluster,
        0,
        1,
        Request::Locate {
            fid,
            header_len: 64,
        },
    ));
}

#[test]
fn world_acl_and_unprotected_stores_stay_open() {
    let cluster = LocalCluster::new(1).unwrap();
    let fid = FragmentId::new(ClientId::new(1), 0);
    must(call(
        &cluster,
        0,
        1,
        Request::Store {
            fid,
            marked: false,
            ranges: vec![StoreRange {
                offset: 0,
                len: 4,
                aid: Aid::WORLD,
            }],
            data: b"open".into(),
        },
    ));
    must(call(
        &cluster,
        0,
        99,
        Request::Read {
            fid,
            offset: 0,
            len: 4,
        },
    ));
}

/// A Store the server refuses as a duplicate must leave the fragment's
/// protection exactly as its creator set it — whether the duplicate names
/// no ranges or ranges of its own. (It used to record the duplicate's
/// ranges over the original's and then, on `FragmentExists`, drop the
/// entry: any client, and every writer retry after a lost ack, made a
/// protected fragment world-readable.)
#[test]
fn refused_duplicate_store_leaves_the_acl_in_place() {
    let cluster = LocalCluster::new(1).unwrap();
    let (owner, stranger) = (1u32, 2u32);
    let create_acl = |client: u32| match must(call(
        &cluster,
        0,
        client,
        Request::AclCreate {
            members: vec![ClientId::new(client)],
        },
    )) {
        Response::AclCreated(aid) => aid,
        r => panic!("{r:?}"),
    };
    let owners = create_acl(owner);
    let strangers = create_acl(stranger);
    for (seq, duplicate_ranges) in [
        (0u64, vec![]),
        (
            1,
            vec![StoreRange {
                offset: 0,
                len: 6,
                aid: strangers,
            }],
        ),
    ] {
        let fid = FragmentId::new(ClientId::new(owner), seq);
        let secret = Request::Read {
            fid,
            offset: 0,
            len: 6,
        };
        must(call(
            &cluster,
            0,
            owner,
            Request::Store {
                fid,
                marked: false,
                ranges: vec![StoreRange {
                    offset: 0,
                    len: 6,
                    aid: owners,
                }],
                data: b"secretPUBLIC".into(),
            },
        ));
        let denied = call(&cluster, 0, stranger, secret.clone());
        assert!(
            matches!(denied, Err(SwarmError::AccessDenied { .. })),
            "{denied:?}"
        );

        let refused = call(
            &cluster,
            0,
            stranger,
            Request::Store {
                fid,
                marked: false,
                ranges: duplicate_ranges,
                data: b"x".into(),
            },
        );
        assert!(
            matches!(refused, Err(SwarmError::FragmentExists(_))),
            "{refused:?}"
        );

        let still_denied = call(&cluster, 0, stranger, secret.clone());
        assert!(
            matches!(still_denied, Err(SwarmError::AccessDenied { .. })),
            "fragment {seq}: a refused duplicate opened it: {still_denied:?}"
        );
        assert_eq!(
            must(call(&cluster, 0, owner, secret)),
            Response::Data(b"secret".into()),
            "fragment {seq}: the owner lost access"
        );
    }
}
