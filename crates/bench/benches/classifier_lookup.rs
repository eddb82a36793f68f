//! Criterion: classification costs — exact-match cache hit vs filter
//! table walk (the ~10x gap of the paper's Observation 2, in software).

use std::time::{Duration, Instant};

use classifier::shard::SHARDS;
use classifier::{Classifier, FilterRule, FilterTable, FlowMatch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netstack::flow::FlowKey;
use netstack::packet::VfPort;

/// Flow-cache capacity; worker stripe 0, which `classify` uses, holds
/// `CACHE_CAPACITY / SHARDS` flows of it.
const CACHE_CAPACITY: usize = 1 << 16;

fn classifier_with_rules(n_rules: u16) -> Classifier<u32> {
    let rules = (0..n_rules)
        .map(|i| FilterRule::new(i, FlowMatch::any().dst_port(5_000 + i), i as u32 + 1))
        .collect();
    Classifier::from_table(FilterTable::from_rules(0u32, rules), CACHE_CAPACITY)
}

fn bench_classify(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier");
    g.throughput(Throughput::Elements(1));

    // Cache hit: the steady-state fast path.
    g.bench_function("cache_hit", |b| {
        let mut cls = classifier_with_rules(64);
        let flow = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 255, 1], 5_010);
        let _ = cls.classify(&flow, VfPort(0)); // warm the cache
        b.iter(|| std::hint::black_box(cls.classify(&flow, VfPort(0)).1));
    });

    // Miss + table walk + fill, for growing rule tables (the slow path the
    // hardware EMFC exists to avoid). The flow cycle is exactly one
    // shard's capacity and every cycle starts on an empty cache (cloned
    // outside the timed section), so no lookup ever hits and no fill ever
    // evicts. A cycle longer than the shard measures clock eviction too; a
    // cycle that fits a cache left in place measures hits from its second
    // lap on.
    const CYCLE: u64 = (CACHE_CAPACITY / SHARDS) as u64;
    for rules in [16u16, 64, 256] {
        g.bench_with_input(
            BenchmarkId::new("miss_table_walk", rules),
            &rules,
            |b, &rules| {
                let empty = classifier_with_rules(rules);
                b.iter_custom(|iters| {
                    let mut spent = Duration::ZERO;
                    let mut left = iters;
                    while left > 0 {
                        let lap = left.min(CYCLE);
                        let mut cls = empty.clone();
                        let start = Instant::now();
                        for port in 0..lap as u16 {
                            let flow = FlowKey::tcp([10, 0, 0, 1], port, [10, 0, 255, 1], 65_000);
                            std::hint::black_box(cls.classify(&flow, VfPort(0)).1);
                        }
                        spent += start.elapsed();
                        left -= lap;
                    }
                    spent
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
    targets = bench_classify
}
criterion_main!(benches);
