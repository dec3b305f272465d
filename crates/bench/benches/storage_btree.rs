//! Microbenchmarks of the storage substrate: B+tree bulk load, point
//! gets, match seeks, and list-chain scans.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use xk_storage::{BTree, EnvOptions, ListReader, ListWriter, StorageEnv};

fn key(i: u32) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

fn env() -> StorageEnv {
    StorageEnv::in_memory(EnvOptions { page_size: 4096, pool_pages: 8192 })
}

fn bench_btree(c: &mut Criterion) {
    let n: u32 = 50_000;

    let mut group = c.benchmark_group("btree_build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("bulk_load", n), |b| {
        b.iter(|| {
            let e = env();
            let entries = (0..n).map(|i| (key(i), Vec::new()));
            black_box(BTree::bulk_load(&e, 0, entries).unwrap())
        })
    });
    group.finish();

    // Read-side benches over a prebuilt tree.
    let e = env();
    let tree = BTree::bulk_load(&e, 0, (0..n).map(|i| (key(i * 2), key(i)))).unwrap();

    let mut group = c.benchmark_group("btree_read");
    group.sample_size(30);
    group.bench_function("point_get_hot", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i.wrapping_mul(2654435761)) % n;
            black_box(tree.get(&e, &key(i * 2)).unwrap())
        })
    });
    group.bench_function("seek_ge_miss_hot", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i.wrapping_mul(2654435761)) % n;
            // Odd keys are absent: every seek lands between entries.
            black_box(tree.seek_ge(&e, &key(i * 2 + 1)).unwrap())
        })
    });
    group.bench_function("full_cursor_scan", |b| {
        b.iter(|| {
            let mut cur = tree.cursor_first(&e).unwrap();
            let mut cnt = 0u64;
            while cur.read(&e).unwrap().is_some() {
                cnt += 1;
                cur.advance(&e).unwrap();
            }
            black_box(cnt)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("list_chain");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n as u64));
    let handle = {
        let mut w = ListWriter::new(&e);
        for i in 0..n {
            w.append(&e, &key(i)).unwrap();
        }
        w.finish(&e).unwrap()
    };
    group.bench_function("sequential_read", |b| {
        b.iter(|| {
            let mut r = ListReader::new(&handle);
            let mut cnt = 0u64;
            while r.next_record(&e).unwrap().is_some() {
                cnt += 1;
            }
            black_box(cnt)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_btree);
criterion_main!(benches);
