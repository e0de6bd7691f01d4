//! The planted clique problem in the Broadcast Congested Clique — the
//! first main contribution of Chen & Grossman (PODC 2019).
//!
//! An input graph is either `A_rand` (uniform directed graph) or `A_k`
//! (uniform with a planted directed `k`-clique); processor `i` holds row
//! `i` of the adjacency matrix. The interesting regime is
//! `log n ≲ k ≲ √n` (§1.2).
//!
//! Lower-bound side (Theorems 1.6 and 4.1): no `n^{o(1)}`-round `BCAST(1)`
//! protocol distinguishes the two cases for `k = n^{1/4−ε}`:
//!
//! * [`inputs`] — plugs `A_rand` / `A_C` / the `A_k = avg_C A_C`
//!   decomposition into the exact engine of `bcc-core`;
//! * [`lemmas`] — the statistical inequalities (Lemmas 1.8, 1.10, 4.3,
//!   4.4) evaluated exactly on concrete function families;
//! * [`bounds`] — the closed-form bounds of Theorems 1.6 and 4.1, for the
//!   experiment tables' "paper" column.
//!
//! Upper-bound side:
//!
//! * [`find`] — the Appendix B algorithm: subsample at rate
//!   `p = log²n / k`, publish the active subgraph, take its maximum
//!   clique, and let every vertex claiming 9/10-connectivity join —
//!   `O(n/k · polylog n)` rounds, measured not asserted;
//! * [`degree`] — the high-degree heuristic that takes over once
//!   `k ≳ √n` (§1.2), completing the crossover picture.

#![forbid(unsafe_code)]

pub mod bounds;
pub mod degree;
pub mod find;
pub mod inputs;
pub mod lemmas;
pub mod protocols;
pub mod triangles;
pub mod undirected;

pub use find::{find_planted_clique, FindOutcome};
pub use inputs::{clique_family, clique_input, rand_input};
pub use protocols::exact_experiment;
