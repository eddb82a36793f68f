//! Criterion: the lock-free token bucket — the primitive every packet
//! touches. Measures single-thread meter cost and multi-thread contention
//! (the paper's wait-free atomic-meter property).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flowvalve::bucket::TokenBucket;
use sim_core::fixed::Tokens;

fn bench_meter(c: &mut Criterion) {
    let mut g = c.benchmark_group("token_bucket");
    g.throughput(Throughput::Elements(1));

    g.bench_function("meter_green", |b| {
        let bucket = TokenBucket::new(Tokens::from_bits(u32::MAX as u64));
        bucket.set_level(Tokens::from_bits(u32::MAX as u64));
        b.iter(|| {
            bucket.refill(Tokens::from_bits(12_000));
            std::hint::black_box(bucket.meter(Tokens::from_bits(12_000)))
        });
    });

    g.bench_function("meter_red", |b| {
        let bucket = TokenBucket::new(Tokens::from_bits(1_000));
        bucket.drain();
        b.iter(|| std::hint::black_box(bucket.meter(Tokens::from_bits(12_000))));
    });

    g.throughput(Throughput::Elements(1));
    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("meter_contended", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    let bucket = Arc::new(TokenBucket::new(Tokens::from_bits(u64::MAX >> 17)));
                    bucket.set_level(Tokens::from_bits(u64::MAX >> 17));
                    let start = std::time::Instant::now();
                    std::thread::scope(|s| {
                        for _ in 0..threads {
                            let bucket = Arc::clone(&bucket);
                            s.spawn(move || {
                                for _ in 0..iters / threads as u64 {
                                    std::hint::black_box(bucket.meter(Tokens::from_bits(1)));
                                }
                            });
                        }
                    });
                    start.elapsed()
                });
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    targets = bench_meter
}
criterion_main!(benches);
