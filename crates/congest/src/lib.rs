//! The Broadcast Congested Clique model of Chen & Grossman (PODC 2019).
//!
//! In `BCAST(b)` there are `n` processors with unlimited local computation;
//! computation proceeds in synchronous rounds, and in each round every
//! processor broadcasts one `b`-bit message to all others (the same message
//! to everyone). The paper works mainly with `b = 1` (`BCAST(1)`) and notes
//! every lower bound extends to `BCAST(log n)` with a `log n` factor loss.
//!
//! Two protocol styles coexist, matching the paper's two uses of the model:
//!
//! * **Turn protocols** ([`turn`]) — the lower-bound side. By Yao's
//!   principle the processors are deterministic, and the paper strengthens
//!   the model so processors speak *in turns*, one bit at a time
//!   (§1.3, §3: "on the tth turn, processor `(t−1) mod n + 1` gets to send a
//!   single bit"). A protocol is a pure function
//!   `fᵢ(input, transcript) → bit`. The exact transcript-distribution
//!   engine in `bcc-core` analyzes the `BCAST(w)` generalization
//!   ([`wide`]); a bit protocol enters it as its width-1 view
//!   [`TurnProtocol::as_wide`].
//! * **Algorithm protocols** ([`network`]) — the upper-bound side
//!   (Appendix B clique finding, the PRG construction rounds, Newman
//!   simulation). Code drives a [`network::Network`] that enforces the
//!   broadcast discipline and does exact round/bit accounting in any
//!   `BCAST(b)`.
//!
//! [`model::Model`] carries `(n, b)`; [`transcript`] holds the packed
//! transcript types shared by both styles.

#![forbid(unsafe_code)]

pub mod model;
pub mod network;
pub mod transcript;
pub mod turn;
pub mod wide;

pub use model::Model;
pub use network::Network;
pub use transcript::{RoundLog, TurnTranscript};
pub use turn::{is_consistent, run_turn_protocol, FnProtocol, TurnProtocol};
