//! E16 — "computationally very cheap" (§1.2): PRG expansion throughput.
//!
//! Measures the wall-clock cost of the only operation the PRG asks of a
//! processor — `xᵀM` over F₂ — across parameter scales, in output
//! megabits per second, plus the one-off construction cost.

use bcc_bench::{banner, f, print_table, rate};
use bcc_f2::{BitMatrix, BitVec};
use bcc_lab::{Scenario, Workload};
use bcc_prg::MatrixPrg;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    banner(
        "E16: PRG computational cost",
        "Section 1.2 (\"computationally cheap\")",
        "throughput of x^T M expansion and construction cost across scales",
    );
    let mut rng = StdRng::seed_from_u64(bcc_bench::SEED);

    let mut rows = Vec::new();
    for &(k, m) in &[(64u32, 256u32), (128, 1024), (256, 4096), (512, 16384)] {
        let mat = BitMatrix::random(&mut rng, k as usize, (m - k) as usize);
        let seeds: Vec<BitVec> = (0..256)
            .map(|_| BitVec::random(&mut rng, k as usize))
            .collect();
        // Warm up, then time.
        let mut sink = 0usize;
        for s in &seeds {
            sink += mat.left_mul_vec(s).count_ones();
        }
        let start = Instant::now();
        let reps = 2000usize;
        for r in 0..reps {
            sink += mat.left_mul_vec(&seeds[r % seeds.len()]).count_ones();
        }
        let elapsed = start.elapsed().as_secs_f64();
        let bits = reps as f64 * (m - k) as f64;
        rows.push(vec![
            k.to_string(),
            m.to_string(),
            format!("{:.1}", bits / elapsed / 1e6),
            format!("{:.2}", elapsed / reps as f64 * 1e6),
            format!("{sink:.0}")[..1].to_string(), // defeat dead-code elim
        ]);
    }
    print_table(&["k", "m", "Mbit/s out", "us/expand", "."], &rows);

    println!("\n-- end-to-end construction (n processors, matrix broadcast + expand) --");
    let mut rows = Vec::new();
    for &(n, k, m) in &[(256usize, 64u32, 256u32), (1024, 128, 1024)] {
        let prg = MatrixPrg::new(n, k, m).expect("valid");
        let start = Instant::now();
        let run = prg.run(&mut rng);
        let elapsed = start.elapsed().as_secs_f64();
        rows.push(vec![
            n.to_string(),
            k.to_string(),
            m.to_string(),
            run.rounds_used.to_string(),
            format!("{:.1}", elapsed * 1e3),
        ]);
    }
    print_table(&["n", "k", "m", "BCAST(1) rounds", "ms total"], &rows);

    println!("\n-- scaled: adaptive-precision throughput sweep (bcc-lab) --");
    let scenario = Scenario::builder("e16-throughput-scaled")
        .workload(Workload::PrgThroughput)
        .n(&[4096, 16384]) // output width m
        .k(&[128, 256])
        .seeds(&[bcc_bench::SEED])
        .tolerance(0.10) // relative stderr target across timing chunks
        .initial_samples(64)
        .max_samples(4096)
        .build();
    let sweep = scenario.sweep_ephemeral();
    let mut rows = Vec::new();
    for r in &sweep.records {
        // "Mbit/s out" comes from the timed stretch alone; "eff bits/s"
        // divides the final budget's output by the point's full
        // wall-clock (setup and earlier adaptive batches included), so it
        // reads lower — it is the sweep-planning number.
        let bits_out = (r.n - r.k as usize) as u64;
        rows.push(vec![
            r.k.to_string(),
            r.n.to_string(),
            format!("{:.1}", r.estimate),
            f(r.noise_floor),
            r.samples.to_string(),
            rate(r.samples * bits_out, r.wall_ms / 1e3),
        ]);
    }
    print_table(
        &[
            "k",
            "m",
            "Mbit/s out",
            "rel stderr",
            "expands",
            "eff bits/s",
        ],
        &rows,
    );
    println!(
        "\nShape check: expansion runs at memory speed (the inner loop is\n\
         word-XOR); the paper's claim that processors only compute F2 dot\n\
         products is the whole computational budget. The adaptive layer\n\
         repeats each cell until its relative stderr <= 0.10 (met = {}).",
        sweep.all_met_tolerance()
    );
}
