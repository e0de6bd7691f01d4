//! Turn-based deterministic bit protocols: the lower-bound side of the model.
//!
//! The paper's relaxation (§1.3, §3): instead of `j` synchronous rounds,
//! run `j·n` *turns*; on turn `t` processor `(t−1) mod n + 1` (0-indexed
//! here: `t mod n`) broadcasts a single bit that may depend on its input
//! and everything broadcast before. Lower bounds in this stronger model
//! imply lower bounds for `BCAST(1)`, and any synchronous protocol embeds
//! into it. A bit protocol is a [`WideTurnProtocol`] of width 1
//! (footnote 2: `BCAST(1)` is `BCAST(w)` at `w = 1`), so the exact engine
//! and the samplers in `bcc-core` analyze it as written.

use crate::wide::{WideTranscript, WideTurnProtocol};

/// A width-1 [`WideTurnProtocol`] built from a bit-valued closure, for
/// tests and experiments.
///
/// Processor `i`'s behaviour is the pure function `f(i, input,
/// transcript) → bit` — the paper's `f_i^{|p}(z)`. Inputs are packed `u64`s
/// of `input_bits` bits (per processor), which is what makes exhaustive
/// input enumeration feasible. The speaker on turn `t` is `t mod n`.
///
/// # Example
///
/// ```
/// use bcc_congest::wide::{WideTranscript, WideTurnProtocol};
/// use bcc_congest::FnProtocol;
///
/// // One round of "broadcast your input's parity".
/// let p = FnProtocol::new(4, 8, 4, |_, input, _| input.count_ones() % 2 == 1);
/// let t = WideTranscript::empty(1);
/// assert_eq!(p.message(0, 0b0111, &t), 1);
/// ```
pub struct FnProtocol<F> {
    n: usize,
    input_bits: u32,
    horizon: u32,
    f: F,
}

impl<F> FnProtocol<F>
where
    F: Fn(usize, u64, &WideTranscript) -> bool,
{
    /// Wraps `f(proc, input, transcript) → bit` as a protocol.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `input_bits > 63`, or `horizon > 64`.
    pub fn new(n: usize, input_bits: u32, horizon: u32, f: F) -> Self {
        assert!(n > 0, "need at least one processor");
        assert!(input_bits <= 63, "packed inputs hold at most 63 bits");
        assert!(horizon <= 64, "bit transcripts hold at most 64 turns");
        FnProtocol {
            n,
            input_bits,
            horizon,
            f,
        }
    }
}

impl<F> WideTurnProtocol for FnProtocol<F>
where
    F: Fn(usize, u64, &WideTranscript) -> bool,
{
    fn n(&self) -> usize {
        self.n
    }

    fn input_bits(&self) -> u32 {
        self.input_bits
    }

    fn width(&self) -> u32 {
        1
    }

    fn horizon(&self) -> u32 {
        self.horizon
    }

    fn message(&self, proc: usize, input: u64, transcript: &WideTranscript) -> u64 {
        u64::from((self.f)(proc, input, transcript))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wide::run_wide_protocol;

    #[test]
    fn round_robin_speaker() {
        let p = FnProtocol::new(3, 4, 9, |_, _, _| false);
        assert_eq!(p.speaker(0), 0);
        assert_eq!(p.speaker(3), 0);
        assert_eq!(p.speaker(5), 2);
    }

    #[test]
    fn run_records_bits_in_order() {
        // Each processor broadcasts its lowest input bit.
        let p = FnProtocol::new(3, 2, 3, |_, input, _| input & 1 == 1);
        let t = run_wide_protocol(&p, &[1, 0, 3]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.as_u64(), 0b101);
    }

    #[test]
    fn later_turns_see_earlier_bits() {
        // Processor 1 echoes what processor 0 said.
        let p = FnProtocol::new(2, 1, 2, |proc, input, tr| {
            if proc == 0 {
                input == 1
            } else {
                tr.message(0) == 1
            }
        });
        let t = run_wide_protocol(&p, &[1, 0]);
        assert_eq!((t.message(0), t.message(1)), (1, 1));
        let t = run_wide_protocol(&p, &[0, 0]);
        assert_eq!((t.message(0), t.message(1)), (0, 0));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_input_panics() {
        let p = FnProtocol::new(1, 2, 1, |_, _, _| false);
        run_wide_protocol(&p, &[4]);
    }
}
