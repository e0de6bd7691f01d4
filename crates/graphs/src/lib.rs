//! Directed random graphs and the planted-clique input distributions.
//!
//! The paper's planted clique problem (§1.2, §4) is about *directed* graphs
//! on `n` vertices, given to the Broadcast Congested Clique row-by-row:
//! processor `i` holds row `i` of the adjacency matrix. The three input
//! distributions (§1.3 notation) are
//!
//! * `A_rand` — every off-diagonal entry an independent fair coin;
//! * `A_C` — `A_rand` conditioned on the vertex set `C` being a clique
//!   (all edges among `C` present, in both directions);
//! * `A_k` — `A_C` for a uniformly random size-`k` subset `C`.
//!
//! This crate provides the graph type ([`DiGraph`]), exact samplers for the
//! three distributions ([`planted`]), undirected projections (the *mutual*
//! graph, whose cliques are exactly the directed cliques), clique
//! verification and maximum-clique search ([`clique`] — Appendix B lets
//! processors run unbounded local computation, which is Bron–Kerbosch
//! here), and the top-`k` degree ranking ([`degree`]) for the `k ≳ √n`
//! regime.

#![forbid(unsafe_code)]

pub mod clique;
pub mod degree;
pub mod digraph;
pub mod planted;

pub use digraph::{DiGraph, UGraph};
