//! Criterion micro-benchmarks for the computational substrate: PRG
//! expansion, F₂ rank, the exact engine walk, Bron–Kerbosch on the
//! Appendix B active subgraph, and the transcript-key sort at the heart
//! of the sampled estimator (comparison sort vs the LSD radix sort).

use bcc_bench::walk_fixtures::{intersect_fixture, shared_family};
use bcc_congest::{FnProtocol, TurnProtocol};
use bcc_core::{
    exact_mixture_comparison_reference, radix_sort_u64, Estimator, ExactEstimator, ExecMode,
    ProductInput,
};
use bcc_f2::{gauss, BitMatrix, BitVec, ConsistentSet};
use bcc_graphs::clique::max_clique;
use bcc_graphs::digraph::UGraph;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_prg_expand(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("prg_expand");
    for &(k, m) in &[(128usize, 1024usize), (256, 4096)] {
        let mat = BitMatrix::random(&mut rng, k, m - k);
        let seed = BitVec::random(&mut rng, k);
        group.bench_function(format!("k{k}_m{m}"), |b| {
            b.iter(|| mat.left_mul_vec(std::hint::black_box(&seed)))
        });
    }
    group.finish();
}

fn bench_rank(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("f2_rank");
    for &n in &[64usize, 256] {
        group.bench_function(format!("{n}x{n}"), |b| {
            b.iter_batched(
                || BitMatrix::random(&mut rng, n, n),
                |m| gauss::rank(std::hint::black_box(&m)),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_engine_walk(c: &mut Criterion) {
    let proto = FnProtocol::new(4, 6, 8, |_, input, tr| {
        (input & (0x15 ^ tr.as_u64())).count_ones() % 2 == 1
    });
    let a = ProductInput::uniform(4, 6);
    let b = ProductInput::uniform(4, 6);
    c.bench_function("engine_walk_4proc_8turns", |bch| {
        bch.iter(|| {
            ExactEstimator::default().estimate_pair(&proto.as_wide(), std::hint::black_box(&a), &b)
        })
    });
}

/// A decomposition-family walk in the shape the paper produces: members
/// differ from the baseline in one planted row and share every other
/// row's `Arc` (`ProductInput::with_row`), over a moderately expensive
/// parity protocol. "seed" partitions by evaluating the protocol per
/// node for every distribution; "label_planes" evaluates once per shared
/// support row per node and splits with word-parallel plane ops — the
/// before/after of the partition overhaul.
fn bench_walk_partition(c: &mut Criterion) {
    let proto = FnProtocol::new(4, 8, 10, |proc, input, tr| {
        let mask = 0xB5u64 ^ tr.as_u64() ^ ((proc as u64) << 2);
        (input & mask).count_ones() % 2 == 1
    });
    let (members, baseline) = shared_family(4, 8, 6);
    let mut group = c.benchmark_group("walk_partition");
    group.bench_function("seed/6members_10turns", |b| {
        b.iter(|| {
            exact_mixture_comparison_reference(
                &proto.as_wide(),
                std::hint::black_box(&members),
                &baseline,
                ExecMode::Sequential,
            )
        })
    });
    group.bench_function("label_planes/6members_10turns", |b| {
        b.iter(|| {
            ExactEstimator::sequential().estimate_full(
                &proto.as_wide(),
                std::hint::black_box(&members),
                &baseline,
            )
        })
    });
    group.finish();
}

/// Dense-vs-sparse consistent-set intersection at huge-support scale: a
/// 2^17-point universe with 512 live points, filtered by a label plane.
/// The dense side pays `O(universe/64)` words per split; the sparse side
/// pays `O(live)` — the price-by-occupancy argument, measured.
fn bench_consistent_intersect(c: &mut Criterion) {
    let universe = 1usize << 17;
    let live = 512usize;
    // The sparse hybrid set vs the same occupancy forced dense (as the
    // seed representation kept it), split by one random label plane.
    let fx = intersect_fixture(universe, live, bcc_bench::SEED);
    let (plane, sparse, mask) = (fx.plane, fx.sparse, fx.mask);
    let mut group = c.benchmark_group("consistent_intersect");
    group.throughput(Throughput::Elements(live as u64));
    group.bench_function("dense_mask/2e17universe_512live", |b| {
        let mut out = BitVec::zeros(universe);
        b.iter(|| {
            // alive AND plane + popcount, the seed walk's split cost.
            out = mask.clone();
            let mut count = 0usize;
            for (w, &p) in out.as_words().iter().zip(&plane) {
                count += (w & p).count_ones() as usize;
            }
            std::hint::black_box(count)
        })
    });
    group.bench_function("sparse_indices/2e17universe_512live", |b| {
        let mut out = ConsistentSet::empty(universe);
        b.iter(|| {
            out.assign_filtered(std::hint::black_box(&sparse), &plane, true);
            std::hint::black_box(out.count())
        })
    });
    group.finish();
}

fn bench_transcript_sort(c: &mut Criterion) {
    // The sampled estimator's hot loop sorts packed prefix keys: a
    // horizon-T protocol leaves only the top T bits varying (the
    // bit-reversed packing), which is exactly the shape the radix sort's
    // constant-byte skip exploits. "before" is the comparison sort the
    // arena used previously; "after" is bcc_core::radix_sort_u64.
    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("transcript_sort");
    for &(len, horizon) in &[(1usize << 14, 12u32), (1 << 17, 12), (1 << 17, 48)] {
        let keys: Vec<u64> = (0..len)
            .map(|_| (rng.gen::<u64>() & ((1u64 << horizon) - 1)).reverse_bits())
            .collect();
        group.throughput(Throughput::Elements(len as u64));
        group.bench_function(format!("std_unstable/{len}keys_h{horizon}"), |b| {
            b.iter_batched(
                || keys.clone(),
                |mut v| {
                    v.sort_unstable();
                    v
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_function(format!("radix_lsd/{len}keys_h{horizon}"), |b| {
            b.iter_batched(
                || keys.clone(),
                |mut v| {
                    radix_sort_u64(&mut v);
                    v
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_max_clique(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    // The Appendix B active-subgraph shape: density 1/4 with a planted
    // 40-clique in 200 vertices.
    let mut g = UGraph::random(&mut rng, 200, 0.25);
    let planted: Vec<usize> = (0..40).map(|i| i * 5).collect();
    for &u in &planted {
        for &v in &planted {
            if u != v {
                g.set_edge(u, v, true);
            }
        }
    }
    c.bench_function("bron_kerbosch_active_subgraph", |b| {
        b.iter(|| max_clique(std::hint::black_box(&g)))
    });
}

criterion_group!(
    benches,
    bench_prg_expand,
    bench_rank,
    bench_engine_walk,
    bench_walk_partition,
    bench_consistent_intersect,
    bench_transcript_sort,
    bench_max_clique
);
criterion_main!(benches);
