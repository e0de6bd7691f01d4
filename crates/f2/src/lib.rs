//! Bit-packed linear algebra over the two-element field F₂.
//!
//! This crate is the arithmetic substrate for the Broadcast Congested Clique
//! reproduction: the pseudorandom generator of Chen & Grossman (PODC 2019) is
//! the map `x ↦ (x, xᵀM)` over F₂, its seed-length attack (§8 of the paper)
//! solves F₂ linear systems, and the average-case lower bound (Theorem 1.4)
//! is about the rank of uniformly random F₂ matrices.
//!
//! The crate provides:
//!
//! * [`BitVec`] — a bit-packed vector over F₂ with XOR/AND/parity operations,
//!   and [`CompressMask`], a fixed selection its coordinates are gathered by;
//! * [`BitMatrix`] — a row-major bit-packed matrix with multiplication,
//!   transpose and Gaussian elimination;
//! * [`gauss`] — rank, row-echelon forms, kernels and linear-system solving;
//! * [`rank_dist`] — the distribution of the rank of uniformly random
//!   matrices (the finite-`n` law and Kolchin's limit constants `Q_s`, used
//!   by Theorem 1.4 of the paper);
//! * [`subcube`] — affine subcubes `{x : x_i = c_i for i ∈ S}` of the Boolean
//!   cube, the support shape of every planted-clique row distribution;
//! * [`ConsistentSet`] — hybrid dense/sparse live-point sets, the
//!   consistent-set representation of the exact transcript walks (dense
//!   word masks that demote to sorted index lists at low occupancy);
//! * [`kernel`] — the word-loop kernel layer: every `u64` hot loop
//!   named by the [`kernel::WordKernel`] trait and implemented once, in
//!   safe scalar code.
//!
//! # Example
//!
//! ```
//! use bcc_f2::{BitMatrix, BitVec};
//!
//! let m = BitMatrix::identity(4);
//! let x = BitVec::from_bools(&[true, false, true, true]);
//! assert_eq!(m.mul_vec(&x), x);
//! assert_eq!(bcc_f2::gauss::rank(&m), 4);
//! ```

#![forbid(unsafe_code)]

mod bitvec;
mod consistent;
mod matrix;

pub mod gauss;
pub mod kernel;
pub mod rank_dist;
pub mod subcube;

pub use bitvec::{BitVec, CompressMask};
pub use consistent::{sparse_budget, ConsistentSet, SetIter, SetRepr};
pub use matrix::BitMatrix;
