//! Measures the exact walk on a one-thread rayon pool against the same
//! walk on a pool of all the machine's threads, on an 8-member
//! family, and checks the two are bitwise identical.
//!
//! ```text
//! cargo run --release --example exec_speedup
//! ```

use std::time::Instant;

use bcc::congest::FnProtocol;
use bcc::core::exec::{Estimator, ExactEstimator};
use bcc::core::{DepthProfile, ProductInput, RowSupport};

fn main() {
    let (n, bits, horizon) = (4usize, 8u32, 18u32);
    let protocol = FnProtocol::new(n, bits, horizon, |proc, input, tr| {
        let mask = (0xA7u64 ^ (tr.as_u64() << 1) ^ ((proc as u64) << 3)) & 0xFF;
        (input & mask).count_ones() % 2 == 1
    });
    let members: Vec<ProductInput> = (0..8u64)
        .map(|i| {
            let points: Vec<u64> = (0..(1u64 << bits)).filter(|x| (x ^ i) % 5 != 0).collect();
            let mut rows = vec![RowSupport::uniform(bits); n];
            rows[(i % n as u64) as usize] = RowSupport::explicit(bits, points);
            ProductInput::new(rows)
        })
        .collect();
    let baseline = ProductInput::uniform(n, bits);

    println!(
        "exact mixture walk: {} members, {n} processors, {bits}-bit inputs, horizon {horizon}",
        members.len()
    );
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("machine cores: {cores} (worker threads honour RAYON_NUM_THREADS)");
    if cores == 1 {
        println!("NOTE: single-core machine — expect parity, not speedup; the walk");
        println!("fans out up to 64 subtree tasks and scales with real cores.");
    }

    let time = || -> (DepthProfile, f64) {
        let start = Instant::now();
        let profile = ExactEstimator.estimate(&protocol, &members, &baseline);
        (profile, start.elapsed().as_secs_f64())
    };

    // Every pool cuts the same frontier, so the walks must agree bit for
    // bit.
    let threads = rayon::current_num_threads();
    let on_pool = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build the rayon pool")
            .install(time)
    };
    let (seq, t_seq) = on_pool(1);
    let (par, t_par) = on_pool(threads);

    let identical = seq
        .mixture_tv_by_depth
        .iter()
        .zip(&par.mixture_tv_by_depth)
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && seq
            .per_member_tv
            .iter()
            .zip(&par.per_member_tv)
            .all(|(a, b)| a.to_bits() == b.to_bits());

    println!("1 thread:    {t_seq:.3} s");
    println!("{threads} threads:   {t_par:.3} s");
    println!("speedup:    {:.2}x", t_seq / t_par);
    println!("bitwise identical profiles: {identical}");
    println!("mixture TV at horizon: {:.6}", par.tv());
    assert!(identical, "the walks on 1 and {threads} threads diverged");
}
