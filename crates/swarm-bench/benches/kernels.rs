//! Word-wide kernel benchmarks: the CRC32 (the kernel the CPU picks and
//! the portable slice-by-8 loop), the u64-wide parity XOR, and the SWAR
//! GF(2^8) Reed–Solomon multiply-fold against their byte-at-a-time
//! baselines, plus a full 4+2 two-erasure decode and end-to-end store
//! throughput over the zero-copy request path.
//!
//! The baselines (`crc32_baseline`, `xor_into_baseline`) are the exact
//! scalar loops the optimized kernels replaced; the ratio between the
//! rows of each group is the kernel speedup. `crc32/dispatch` equals
//! `crc32/portable` on a CPU without a carry-less multiplier.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use swarm_bench::mem_cluster;
use swarm_net::{PreparedRequest, Request, Transport};
use swarm_types::{ClientId, FragmentId, ServerId};

const MIB: usize = 1 << 20;

fn bench_crc32(c: &mut Criterion) {
    use swarm_types::crc::{crc32_baseline, crc32_portable};
    use swarm_types::crc32;
    let buf: Vec<u8> = (0..MIB).map(|i| (i % 251) as u8).collect();
    assert_eq!(crc32(&buf), crc32_baseline(&buf));
    assert_eq!(crc32_portable(&buf), crc32_baseline(&buf));
    for (name, len) in [("crc32_1MiB", MIB), ("crc32_4KiB", 4096)] {
        let buf = &buf[..len];
        let mut g = c.benchmark_group(name);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function("dispatch", |b| b.iter(|| crc32(buf)));
        g.bench_function("portable", |b| b.iter(|| crc32_portable(buf)));
        g.bench_function("baseline_bytewise", |b| b.iter(|| crc32_baseline(buf)));
        g.finish();
    }
}

fn bench_xor_into(c: &mut Criterion) {
    use swarm_log::parity::{xor_into, xor_into_baseline};
    let src: Vec<u8> = (0..MIB).map(|i| (i % 253) as u8).collect();
    let mut g = c.benchmark_group("xor_into_1MiB");
    g.throughput(Throughput::Bytes(MIB as u64));
    g.bench_function("word_wide", |b| {
        let mut dst = vec![0x5au8; MIB];
        b.iter(|| xor_into(&mut dst, &src));
    });
    g.bench_function("baseline_bytewise", |b| {
        let mut dst = vec![0x5au8; MIB];
        b.iter(|| xor_into_baseline(&mut dst, &src));
    });
    g.finish();
}

fn bench_rs_encode(c: &mut Criterion) {
    use swarm_log::gf::{mul_into, mul_into_baseline};
    let src: Vec<u8> = (0..MIB).map(|i| (i % 247) as u8).collect();
    // A non-trivial coefficient (1 would route through plain XOR).
    let coeff = 0x8e;
    let mut g = c.benchmark_group("rs_encode_1MiB");
    g.throughput(Throughput::Bytes(MIB as u64));
    g.bench_function("word_wide", |b| {
        let mut dst = vec![0x5au8; MIB];
        b.iter(|| mul_into(&mut dst, &src, coeff));
    });
    g.bench_function("baseline_bytewise", |b| {
        let mut dst = vec![0x5au8; MIB];
        b.iter(|| mul_into_baseline(&mut dst, &src, coeff));
    });
    g.finish();
}

fn bench_rs_decode(c: &mut Criterion) {
    use swarm_log::gf::{decode_rows, mul_into};
    // A 4+2 stripe with two data members lost: recompute both from the
    // four survivors — matrix inversion plus eight 256 KiB multiply-folds,
    // the client-side cost of one fully degraded stripe read.
    let k = 4usize;
    let frag = MIB / k;
    let members: Vec<Vec<u8>> = (0..k + 2)
        .map(|m| (0..frag).map(|i| ((i * 7 + m * 13) % 251) as u8).collect())
        .collect();
    let survivors = [1usize, 3, 4, 5];
    let wanted = [0usize, 2];
    let mut g = c.benchmark_group("rs_decode_4p2_two_lost");
    g.throughput(Throughput::Bytes(MIB as u64));
    g.bench_function("decode_two_data_members", |b| {
        b.iter(|| {
            let rows = decode_rows(k, &survivors, &wanted).unwrap();
            let mut out = Vec::with_capacity(wanted.len());
            for row in &rows {
                let mut rebuilt = Vec::with_capacity(frag);
                for (i, &s) in survivors.iter().enumerate() {
                    mul_into(&mut rebuilt, &members[s], row[i]);
                }
                out.push(rebuilt);
            }
            out
        });
    });
    g.finish();
}

fn bench_store_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_throughput");
    g.sample_size(20);
    g.throughput(Throughput::Bytes(MIB as u64));
    // One prepared 1 MiB store per iteration: header encoded once up
    // front, the payload shared (refcount bump) into every request.
    g.bench_function("prepared_1MiB_store", |b| {
        let transport = mem_cluster(1);
        let client = ClientId::new(1);
        let payload = swarm_types::Bytes::from(vec![0xa5u8; MIB]);
        let mut conn = transport.connect(ServerId::new(0), client).unwrap();
        let mut seq = 0u64;
        b.iter(|| {
            let prepared = PreparedRequest::new(Request::Store {
                fid: FragmentId::new(client, seq),
                marked: false,
                ranges: vec![],
                data: payload.share(),
            });
            seq += 1;
            conn.call_prepared(&prepared).unwrap()
        });
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_crc32,
    bench_xor_into,
    bench_rs_encode,
    bench_rs_decode,
    bench_store_throughput
);
criterion_main!(kernels);
