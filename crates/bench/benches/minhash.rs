//! Criterion bench for the sketching substrate: MinHash signature
//! generation, LSH Ensemble banding (the index build from precomputed
//! signatures), and LSH Ensemble queries (the per-partition
//! parameter-tuning ablation of DESIGN.md §5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dialite_minhash::{LshEnsembleBuilder, MinHasher};

fn tokens(n: usize, prefix: &str) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

fn bench_minhash(c: &mut Criterion) {
    let mut group = c.benchmark_group("minhash");
    group.sample_size(20);

    for set_size in [100usize, 1000, 10_000] {
        let toks = tokens(set_size, "v");
        let hasher = MinHasher::new(128, 1);
        group.bench_with_input(
            BenchmarkId::new("signature-128", set_size),
            &set_size,
            |b, _| b.iter(|| hasher.signature(toks.iter().map(String::as_str))),
        );
    }

    // Ensemble build from precomputed signatures: 4,096 domains at the
    // discovery default of 256 permutations and 8 partitions, so the
    // measured time is the partition banding alone.
    let hasher = MinHasher::new(256, 3);
    let signed: Vec<(String, usize, _)> = (0..4096)
        .map(|d| {
            let toks = tokens(8 + d % 120, &format!("b{d}_"));
            let sig = hasher.signature(toks.iter().map(String::as_str));
            (format!("dom{d}"), toks.len(), sig)
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("ensemble-build", 4096),
        &8usize,
        |b, &parts| {
            b.iter(|| {
                let mut builder = LshEnsembleBuilder::new(256, 3);
                for (key, size, sig) in &signed {
                    builder.insert_signature(key.clone(), *size, sig.clone());
                }
                builder.build(parts)
            })
        },
    );

    // Ensemble query over 512 indexed domains, with 1 vs 8 partitions
    // (the single-partition configuration is the no-partitioning ablation).
    for partitions in [1usize, 8] {
        let mut builder = LshEnsembleBuilder::new(128, 2);
        for d in 0..512 {
            let size = 20 + (d % 50) * 10;
            let toks = tokens(size, &format!("d{d}_"));
            builder.insert_tokens(format!("dom{d}"), toks.iter().map(String::as_str));
        }
        let hasher = builder.hasher().clone();
        let index = builder.build(partitions);
        let q = tokens(60, "d7_");
        let sig = hasher.signature(q.iter().map(String::as_str));
        group.bench_with_input(
            BenchmarkId::new("ensemble-query", partitions),
            &partitions,
            |b, _| b.iter(|| index.query(std::hint::black_box(&sig), q.len(), 0.5)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_minhash);
criterion_main!(benches);
