//! Quickstart: the Broadcast Congested Clique in five minutes.
//!
//! Builds a tiny `BCAST(1)` network, runs a protocol with exact round
//! accounting, then computes an *exact* transcript-distribution distance
//! with the exact estimator — the object every theorem in the paper
//! bounds.
//!
//! Run with: `cargo run --example quickstart`

use bcc::congest::{FnProtocol, Model, Network};
use bcc::core::{Estimator, ExactEstimator, ProductInput, RowSupport};
use bcc::prg::MatrixPrg;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2019);

    // --- 1. A synchronous BCAST(1) network with round accounting. ------
    println!("== a BCAST(1) round ==");
    let mut net = Network::new(Model::bcast1(4));
    let heard = net.broadcast_round(&[1, 0, 1, 1]).to_vec();
    println!(
        "processors heard {heard:?} after {} round",
        net.rounds_used()
    );

    // --- 2. A turn-based protocol and its exact transcript distance. ---
    // Each processor broadcasts the majority of its 5 input bits; we ask
    // exactly how well ANY observer of the transcript can tell uniform
    // inputs from inputs whose first processor is biased to heavy rows.
    println!("\n== exact transcript distance ==");
    let protocol = FnProtocol::new(3, 5, 3, |_, input, _| input.count_ones() >= 3);
    let uniform = ProductInput::uniform(3, 5);
    let biased = ProductInput::new(vec![
        RowSupport::explicit(5, (0..32).filter(|x: &u64| x.count_ones() >= 2).collect()),
        RowSupport::uniform(5),
        RowSupport::uniform(5),
    ]);
    let cmp = ExactEstimator.estimate(&protocol, std::slice::from_ref(&biased), &uniform);
    println!("prefix distance by turn: {:?}", cmp.mixture_tv_by_depth);
    println!(
        "optimal distinguisher advantage after 3 turns: {:.4}",
        cmp.tv()
    );

    // --- 3. The paper's PRG: k seed bits -> m pseudorandom bits. --------
    // Theorem 1.3's regime is m = O(n): with n = 64 processors, k = 16
    // seed bits stretch to m = 48 output bits at 24 fresh bits each.
    println!("\n== the matrix PRG (Theorem 1.3) ==");
    let (n, k, m) = (64usize, 16u32, 48u32);
    let prg = MatrixPrg::new(n, k, m).expect("valid parameters");
    let run = prg.run(&mut rng);
    println!(
        "stretched {} seed bits/processor to {m} output bits/processor",
        run.seed_bits_per_processor
    );
    println!(
        "construction used {} BCAST(1) rounds (theory: ceil(k(m-k)/n) = {})",
        run.rounds_used,
        ((k * (m - k)) as usize).div_ceil(n)
    );
    println!("processor 0 output: {}", run.outputs[0]);
}
