//! Cache microbenchmarks: serving a column from the binary cache vs
//! re-tokenizing + re-parsing it from raw bytes (§3.2's payoff), and the
//! statistics-collection overhead (§3.3's cost, the "NoDB" slice of Fig 3).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use nodb_rawcache::{CachePolicy, ColumnSegments, RawCache, TypedColumn};
use nodb_rawcsv::tokenizer::{TokenizerConfig, Tokens};
use nodb_rawcsv::{parser, ColumnType, Datum, GeneratorConfig};
use nodb_stats::TableStats;

fn lines(cols: usize, rows: u64) -> Vec<Vec<u8>> {
    GeneratorConfig::uniform_ints(cols, rows, 9)
        .generate_bytes()
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|l| l.to_vec())
        .collect()
}

fn bench_hit_vs_reparse(c: &mut Criterion) {
    let data = lines(10, 5000);
    let cfg = TokenizerConfig::default();
    let attr = 7usize;

    // Warm the cache once: parse the column, then admit it as one segment.
    let mut cache = RawCache::new(CachePolicy::default());
    let tick = cache.begin_query(&[attr]);
    let mut t = Tokens::new();
    let mut col = TypedColumn::new(ColumnType::Int);
    for (row, l) in data.iter().enumerate() {
        cfg.tokenize_selective(l, attr, &mut t);
        let d = parser::parse_field(
            t.get(attr).unwrap().of(l),
            ColumnType::Int,
            row as u64,
            attr,
        )
        .unwrap();
        col.push(&d);
    }
    let segments = vec![col];
    cache.admit_segments(vec![ColumnSegments { attr, segments }], Vec::new(), tick);

    let mut group = c.benchmark_group("cache");
    group.bench_function("hit_5000_rows", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for row in 0..data.len() {
                if let Some(Datum::Int(v)) = cache.peek(attr, row) {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        })
    });

    group.bench_function("reparse_5000_rows", |b| {
        let mut t = Tokens::new();
        b.iter(|| {
            let mut acc = 0i64;
            for (row, l) in data.iter().enumerate() {
                cfg.tokenize_selective(l, attr, &mut t);
                let d = parser::parse_field(
                    t.get(attr).unwrap().of(l),
                    ColumnType::Int,
                    row as u64,
                    attr,
                )
                .unwrap();
                if let Datum::Int(v) = d {
                    acc = acc.wrapping_add(v);
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_stats_overhead(c: &mut Criterion) {
    let values: Vec<Datum> = (0..5000i64).map(|i| Datum::Int(i * 37)).collect();
    let mut group = c.benchmark_group("stats_collection");
    for stride in [1u64, 20] {
        group.bench_function(format!("observe_every_{stride}"), |b| {
            b.iter(|| {
                let mut stats = TableStats::new(stride);
                let a = stats.attr_mut(0);
                for (i, v) in values.iter().enumerate() {
                    if (i as u64).is_multiple_of(stride) {
                        a.observe(i as u64, v);
                    }
                }
                black_box(stats.attr(0).map(|s| s.rows_seen()))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hit_vs_reparse, bench_stats_overhead);
criterion_main!(benches);
