//! Micro-benches over the hot kernels: CRC-32 / consistent-hash placement,
//! MinHash LSH, string similarity, embeddings, the partial-order store, the
//! fix store, and the bitset popcount kernels behind the discovery cache.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rock_chase::{FixStore, PartialOrderStore};
use rock_crystal::crc32;
use rock_crystal::ring::{ConsistentHashRing, NodeId};
use rock_data::{Bitset, TupleId};
use rock_ml::features::HashingEmbedder;
use rock_ml::text::{edit_similarity, trigram_cosine, TextProfile};
use rock_ml::MinHashLsh;

fn bench_kernels(c: &mut Criterion) {
    c.bench_function("crc32/64B", |b| {
        let data = vec![0xABu8; 64];
        b.iter(|| crc32(black_box(&data)))
    });

    c.bench_function("ring/owner", |b| {
        let mut ring = ConsistentHashRing::new(64);
        for i in 0..20 {
            ring.add_node(NodeId(i), &format!("10.0.0.{i}"));
        }
        b.iter(|| ring.owner(black_box(b"partition-1234")))
    });

    c.bench_function("lsh/insert+query", |b| {
        b.iter(|| {
            let mut lsh = MinHashLsh::new(16, 2);
            for i in 0..50u32 {
                lsh.insert(i, &format!("street number {i} beijing west road"));
            }
            lsh.candidates(black_box("street number 25 beijing west road"))
        })
    });

    c.bench_function("text/edit_similarity", |b| {
        b.iter(|| edit_similarity(black_box("5 Beijing West Road"), black_box("5 West Road")))
    });

    c.bench_function("text/trigram_cosine", |b| {
        b.iter(|| {
            trigram_cosine(
                black_box("IPhone 14 Discount ID 41"),
                black_box("IPhone 14 Discount Code 41"),
            )
        })
    });

    // The same kernels split the way blocking uses them: a profile per
    // string once, then all three scores per candidate pair.
    c.bench_function("text/prepare", |b| {
        b.iter(|| TextProfile::new(black_box("IPhone 14 Discount ID 41")))
    });

    c.bench_function("text/score_prepared", |b| {
        let x = TextProfile::new("IPhone 14 Discount ID 41");
        let y = TextProfile::new("IPhone 14 Discount Code 41");
        b.iter(|| {
            let (x, y) = (black_box(&x), black_box(&y));
            x.edit_similarity(y) + x.token_jaccard(y) + x.trigram_cosine(y)
        })
    });

    c.bench_function("ml/embed_str", |b| {
        let e = HashingEmbedder::default();
        b.iter(|| e.embed_str(black_box("Golden Dragon Trading Co Shanghai")))
    });

    c.bench_function("order/insert+holds", |b| {
        b.iter(|| {
            let mut p = PartialOrderStore::new();
            for i in 0..30u32 {
                p.insert(TupleId(i), TupleId(i + 1), i % 3 == 0);
            }
            p.holds(TupleId(0), TupleId(30), true)
        })
    });

    // pair-domain sized bitsets (n = 512 tuples → 512² bits = 32 KiB)
    let pair_bits = 512usize * 512;
    let (x, y, z) = {
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut mk = |density: u64| {
            let mut b = Bitset::new(pair_bits);
            for i in 0..pair_bits {
                if next() % 100 < density {
                    b.set(i);
                }
            }
            b
        };
        (mk(50), mk(20), mk(80))
    };

    c.bench_function("bitset/and_popcount-256k", |b| {
        b.iter(|| black_box(&x).and_popcount(black_box(&y)))
    });

    c.bench_function("bitset/and3_popcount-256k", |b| {
        b.iter(|| black_box(&x).and3_popcount(black_box(&y), black_box(&z)))
    });

    c.bench_function("bitset/intersect_with-256k", |b| {
        b.iter(|| {
            let mut w = x.clone();
            w.intersect_with(black_box(&y));
            w
        })
    });

    c.bench_function("bitset/ones-iterate-20pct", |b| {
        b.iter(|| black_box(&y).ones().sum::<usize>())
    });

    c.bench_function("fixes/union-find", |b| {
        use rock_chase::EntityKey;
        use rock_data::{Eid, RelId};
        b.iter(|| {
            let mut f = FixStore::new();
            for i in 0..100u32 {
                f.merge(
                    EntityKey::new(RelId(0), Eid(i)),
                    EntityKey::new(RelId(0), Eid(i / 2)),
                );
            }
            f.same_entity(
                EntityKey::new(RelId(0), Eid(0)),
                EntityKey::new(RelId(0), Eid(99)),
            )
        })
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
