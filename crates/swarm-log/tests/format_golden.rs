//! Format stability: the bytes of a sealed stripe built from fixed inputs
//! are pinned, so a change to a checksum kernel or to the way entries are
//! written into a fragment cannot alter what reaches the wire and the disk.

use swarm_log::fragment::FragmentBuilder;
use swarm_log::parity::ParityAccumulator;
use swarm_log::stripe::StripeGroup;
use swarm_types::{ClientId, Geometry, ServerId, ServiceId, StripeSeq};

/// FNV-1a, 64-bit: a hash that shares nothing with the CRC under test.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn sealed_4p1_stripe_bytes_are_pinned() {
    let group = StripeGroup::with_geometry(
        (0..5).map(ServerId::new).collect(),
        "4+1".parse::<Geometry>().unwrap(),
    )
    .unwrap();
    let plan = group.plan(ClientId::new(7), StripeSeq::new(3));
    let mut acc = ParityAccumulator::with_geometry(4, 1);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut total = 0usize;
    for member in 0..4u8 {
        let mut b = FragmentBuilder::new(plan.header(member), 64 * 1024);
        let svc = ServiceId::new(1 + member as u16);
        // Every entry kind, and block sizes on both sides of the 64-byte
        // threshold where the checksum changes kernels.
        let mut first = None;
        for i in 0..12u32 {
            let len = [0usize, 1, 63, 64, 65, 4096][i as usize % 6] + member as usize;
            let data: Vec<u8> = (0..len)
                .map(|j| (j as u32 * 31 + i * 7 + member as u32) as u8)
                .collect();
            let addr = b.append_block(svc, &i.to_le_bytes()[..i as usize % 5], &data);
            first.get_or_insert(addr);
            b.append_record(svc, i as u16, &data[..len.min(40)]);
        }
        b.append_delete(svc, first.unwrap());
        if member == 2 {
            b.append_checkpoint(svc, b"checkpoint payload");
        }
        let sealed = b.seal();
        acc.add(&sealed);
        hash = fnv1a(hash, &sealed.bytes);
        total += sealed.bytes.len();
    }
    for parity in acc.build_parities([plan.header(4)]) {
        hash = fnv1a(hash, &parity.bytes);
        total += parity.bytes.len();
    }
    assert_eq!(
        (total, hash),
        (46_550, 0x38e3_c5ef_ac04_5b09),
        "sealed stripe bytes changed"
    );
}
