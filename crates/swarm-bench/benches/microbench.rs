//! Microbenchmarks of the real implementation (not the testbed model):
//! parity XOR, fragment encode/parse, log append throughput, Sting file
//! operations, reconstruction, and the LRU every cache uses.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sting::{StingConfig, StingFs};
use swarm_bench::{log_config, mem_cluster};
use swarm_log::{Log, LogConfig, StripeGroup};
use swarm_net::MemTransport;
use swarm_types::{ClientId, LruCache, ServerId, ServiceId};

const SVC: ServiceId = ServiceId::new(1);

fn bench_parity_xor(c: &mut Criterion) {
    use swarm_log::parity::xor_into;
    let mut g = c.benchmark_group("parity_xor");
    for size in [64 * 1024usize, 1 << 20] {
        let src = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{}KiB", size / 1024), |b| {
            let mut dst = vec![0u8; size];
            b.iter(|| xor_into(&mut dst, &src));
        });
    }
    g.finish();
}

fn bench_fragment_codec(c: &mut Criterion) {
    use swarm_log::fragment::{FragmentBuilder, FragmentView};
    use swarm_types::StripeSeq;
    let group = StripeGroup::new((0..4).map(ServerId::new).collect()).unwrap();
    let plan = group.plan(ClientId::new(1), StripeSeq::new(0));
    let mut g = c.benchmark_group("fragment");
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("build_seal_1MiB", |b| {
        b.iter(|| {
            let mut builder = FragmentBuilder::new(plan.header(0), 1 << 20);
            let block = vec![7u8; 4096];
            while builder.fits(4200) {
                builder.append_block(SVC, b"0123456789abcdef", &block);
            }
            builder.seal()
        });
    });
    let sealed = {
        let mut builder = FragmentBuilder::new(plan.header(0), 1 << 20);
        let block = vec![7u8; 4096];
        while builder.fits(4200) {
            builder.append_block(SVC, b"0123456789abcdef", &block);
        }
        builder.seal()
    };
    g.bench_function("parse_1MiB", |b| {
        b.iter(|| FragmentView::parse(&sealed.bytes).unwrap());
    });
    g.finish();
}

fn make_log(servers: u32) -> Log {
    // Every in-process call round-trips the wire codec, so these numbers
    // include encoding and decoding each request and response.
    let transport = Arc::new(MemTransport::new());
    for s in 0..servers {
        let srv = swarm_server::StorageServer::new(ServerId::new(s), swarm_server::MemStore::new())
            .into_shared();
        transport.register(ServerId::new(s), srv);
    }
    Log::create(transport, log_config(1, servers)).unwrap()
}

fn bench_log_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("log_append");
    g.sample_size(20);
    for servers in [2u32, 4, 8] {
        g.throughput(Throughput::Bytes(4096 * 256));
        g.bench_function(format!("{servers}_servers_1MiB_of_4k_blocks"), |b| {
            let log = make_log(servers);
            b.iter(|| {
                for _ in 0..256 {
                    log.append_block(SVC, b"", &[5u8; 4096]).unwrap();
                }
                log.flush().unwrap();
            });
        });
    }
    g.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconstruction");
    g.sample_size(10);
    for servers in [3u32, 8] {
        g.throughput(Throughput::Bytes(1 << 20));
        g.bench_function(format!("rebuild_1MiB_fragment_width_{servers}"), |b| {
            let transport = mem_cluster(servers);
            let config =
                LogConfig::new(ClientId::new(1), (0..servers).map(ServerId::new).collect())
                    .unwrap();
            let log = Log::create(transport.clone(), config).unwrap();
            let mut addr = None;
            for _ in 0..(servers as usize) * 300 {
                addr = Some(log.append_block(SVC, b"", &[9u8; 4000]).unwrap());
            }
            log.flush().unwrap();
            let addr = addr.unwrap();
            let (victim, _) = swarm_log::reconstruct::locate_fragment(log.engine(), addr.fid)
                .expect("fragment stored");
            transport.set_down(victim, true);
            let engine = swarm_log::ReadEngine::new(log.engine().clone());
            b.iter(|| swarm_log::reconstruct::reconstruct_fragment(&engine, addr.fid).unwrap());
        });
    }
    g.finish();
}

fn bench_sting_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("sting");
    g.sample_size(20);
    g.bench_function("create_write_4k_unlink", |b| {
        let transport = mem_cluster(2);
        let log = Arc::new(Log::create(transport, log_config(1, 2)).unwrap());
        let fs = StingFs::format(log, StingConfig::default()).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let path = format!("/bench{i}");
            i += 1;
            fs.write_file(&path, 0, &[3u8; 4096]).unwrap();
            fs.unlink(&path).unwrap();
        });
    });
    g.throughput(Throughput::Bytes(1 << 20));
    g.bench_function("write_1MiB_file", |b| {
        let transport = mem_cluster(2);
        let log = Arc::new(Log::create(transport, log_config(1, 2)).unwrap());
        let fs = StingFs::format(log, StingConfig::default()).unwrap();
        let data = vec![1u8; 1 << 20];
        let mut i = 0u64;
        b.iter(|| {
            let path = format!("/big{i}");
            i += 1;
            fs.write_file(&path, 0, &data).unwrap();
        });
    });
    g.bench_function("cached_read_1MiB", |b| {
        let transport = mem_cluster(2);
        let log = Arc::new(Log::create(transport, log_config(1, 2)).unwrap());
        let fs = StingFs::format(log, StingConfig::default()).unwrap();
        fs.write_file("/hot", 0, &vec![1u8; 1 << 20]).unwrap();
        fs.flush().unwrap();
        fs.read_to_end("/hot").unwrap(); // warm
        b.iter(|| fs.read_to_end("/hot").unwrap());
    });
    g.finish();
}

fn bench_substrates(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrates");
    g.bench_function("lru_insert_get", |b| {
        b.iter_batched(
            || LruCache::<u64, u64>::new(1024),
            |mut cache| {
                for i in 0..4096u64 {
                    cache.insert(i, i);
                    cache.get(&(i / 2));
                }
                cache
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parity_xor,
    bench_fragment_codec,
    bench_log_append,
    bench_reconstruction,
    bench_sting_ops,
    bench_substrates
);
criterion_main!(benches);
