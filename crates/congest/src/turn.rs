//! Turn-based deterministic protocols: the lower-bound side of the model.
//!
//! The paper's relaxation (§1.3, §3): instead of `j` synchronous rounds,
//! run `j·n` *turns*; on turn `t` processor `(t−1) mod n + 1` (0-indexed
//! here: `t mod n`) broadcasts a single bit that may depend on its input
//! and everything broadcast before. Lower bounds in this stronger model
//! imply lower bounds for `BCAST(1)`, and any synchronous protocol embeds
//! into it. The exact engine in `bcc-core` analyzes `BCAST(w)` protocols;
//! a bit protocol reaches it as the width-1 view [`TurnProtocol::as_wide`].

use crate::transcript::TurnTranscript;
use crate::wide::AsWide;

/// A deterministic turn-based `BCAST(1)` protocol on packed inputs.
///
/// Processor `i`'s behaviour is the pure function
/// [`bit`](TurnProtocol::bit)`(i, input, transcript)` — the paper's
/// `f_i^{|p}(z)`. Inputs are packed `u64`s of [`input_bits`] bits (per
/// processor), which is what makes exhaustive input enumeration feasible.
///
/// [`input_bits`]: TurnProtocol::input_bits
pub trait TurnProtocol {
    /// The number of processors.
    fn n(&self) -> usize;

    /// The number of input bits per processor (`≤ 63`).
    fn input_bits(&self) -> u32;

    /// The total number of turns (the horizon `T = j·n` for `j` rounds).
    fn horizon(&self) -> u32;

    /// Which processor speaks on turn `t`. Default: round-robin
    /// `t mod n`, the paper's schedule.
    fn speaker(&self, t: u32) -> usize {
        t as usize % self.n()
    }

    /// The bit processor `proc` broadcasts given its input and the
    /// transcript so far. Must be a pure function of its arguments.
    fn bit(&self, proc: usize, input: u64, transcript: &TurnTranscript) -> bool;

    /// The number of full rounds, `⌈horizon / n⌉`.
    fn rounds(&self) -> u32 {
        (self.horizon() as usize).div_ceil(self.n()) as u32
    }

    /// This protocol as a width-1 `BCAST(w)` protocol — how bit
    /// protocols reach the exact engine and the samplers of `bcc-core`.
    fn as_wide(&self) -> AsWide<'_, Self> {
        AsWide(self)
    }
}

/// A [`TurnProtocol`] built from a closure, for tests and experiments.
///
/// # Example
///
/// ```
/// use bcc_congest::{FnProtocol, TurnProtocol, TurnTranscript};
///
/// // One round of "broadcast your input's parity".
/// let p = FnProtocol::new(4, 8, 4, |_, input, _| input.count_ones() % 2 == 1);
/// let t = TurnTranscript::empty();
/// assert!(p.bit(0, 0b0111, &t));
/// ```
pub struct FnProtocol<F> {
    n: usize,
    input_bits: u32,
    horizon: u32,
    f: F,
}

impl<F> FnProtocol<F>
where
    F: Fn(usize, u64, &TurnTranscript) -> bool,
{
    /// Wraps `f(proc, input, transcript) → bit` as a protocol.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `input_bits > 63`, or `horizon > 64`.
    pub fn new(n: usize, input_bits: u32, horizon: u32, f: F) -> Self {
        assert!(n > 0, "need at least one processor");
        assert!(input_bits <= 63, "packed inputs hold at most 63 bits");
        assert!(horizon <= 64, "turn transcripts hold at most 64 turns");
        FnProtocol {
            n,
            input_bits,
            horizon,
            f,
        }
    }
}

impl<F> TurnProtocol for FnProtocol<F>
where
    F: Fn(usize, u64, &TurnTranscript) -> bool,
{
    fn n(&self) -> usize {
        self.n
    }

    fn input_bits(&self) -> u32 {
        self.input_bits
    }

    fn horizon(&self) -> u32 {
        self.horizon
    }

    fn bit(&self, proc: usize, input: u64, transcript: &TurnTranscript) -> bool {
        (self.f)(proc, input, transcript)
    }
}

/// Runs a turn protocol on concrete inputs and returns the transcript.
///
/// # Panics
///
/// Panics if `inputs.len() != protocol.n()` or any input exceeds
/// `input_bits` bits.
pub fn run_turn_protocol<P: TurnProtocol + ?Sized>(protocol: &P, inputs: &[u64]) -> TurnTranscript {
    assert_eq!(inputs.len(), protocol.n(), "one input per processor");
    let limit = 1u64 << protocol.input_bits();
    for &x in inputs {
        assert!(
            x < limit,
            "input {x} exceeds {} bits",
            protocol.input_bits()
        );
    }
    let mut transcript = TurnTranscript::empty();
    for t in 0..protocol.horizon() {
        let speaker = protocol.speaker(t);
        let bit = protocol.bit(speaker, inputs[speaker], &transcript);
        transcript.push(bit);
    }
    transcript
}

/// Whether `input` is *consistent* with `transcript` for processor `proc`:
/// replaying the protocol, every bit `proc` actually spoke matches what it
/// would have spoken with this input (the paper's set `D_p^{(t)}`,
/// Claim 2 / Claim 4).
pub fn is_consistent<P: TurnProtocol + ?Sized>(
    protocol: &P,
    proc: usize,
    input: u64,
    transcript: &TurnTranscript,
) -> bool {
    for t in 0..transcript.len() {
        if protocol.speaker(t) == proc {
            let prefix = transcript.prefix(t);
            if protocol.bit(proc, input, &prefix) != transcript.bit(t) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_speaker() {
        let p = FnProtocol::new(3, 4, 9, |_, _, _| false);
        assert_eq!(p.speaker(0), 0);
        assert_eq!(p.speaker(3), 0);
        assert_eq!(p.speaker(5), 2);
        assert_eq!(p.rounds(), 3);
    }

    #[test]
    fn run_records_bits_in_order() {
        // Each processor broadcasts its lowest input bit.
        let p = FnProtocol::new(3, 2, 3, |_, input, _| input & 1 == 1);
        let t = run_turn_protocol(&p, &[1, 0, 3]);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![true, false, true]);
    }

    #[test]
    fn later_turns_see_earlier_bits() {
        // Processor 1 echoes what processor 0 said.
        let p = FnProtocol::new(
            2,
            1,
            2,
            |proc, input, tr| {
                if proc == 0 {
                    input == 1
                } else {
                    tr.bit(0)
                }
            },
        );
        let t = run_turn_protocol(&p, &[1, 0]);
        assert!(t.bit(0) && t.bit(1));
        let t = run_turn_protocol(&p, &[0, 0]);
        assert!(!t.bit(0) && !t.bit(1));
    }

    #[test]
    fn consistency_accepts_real_input() {
        let p = FnProtocol::new(2, 3, 6, |_, input, tr| {
            (input >> (tr.len() / 2) as u64) & 1 == 1
        });
        let inputs = [0b101u64, 0b011];
        let t = run_turn_protocol(&p, &inputs);
        assert!(is_consistent(&p, 0, inputs[0], &t));
        assert!(is_consistent(&p, 1, inputs[1], &t));
    }

    #[test]
    fn consistency_rejects_contradicting_input() {
        // Turn 0: processor 0 broadcasts bit 0 of its input.
        let p = FnProtocol::new(2, 1, 2, |_, input, _| input == 1);
        let t = run_turn_protocol(&p, &[1, 0]);
        assert!(!is_consistent(&p, 0, 0, &t));
        assert!(is_consistent(&p, 0, 1, &t));
    }

    #[test]
    fn consistency_of_silent_processor_is_trivial() {
        // With horizon 1 only processor 0 spoke; any input of processor 1
        // is consistent.
        let p = FnProtocol::new(2, 2, 1, |_, input, _| input & 1 == 1);
        let t = run_turn_protocol(&p, &[0, 3]);
        for x in 0..4u64 {
            assert!(is_consistent(&p, 1, x, &t));
        }
    }

    #[test]
    fn consistent_set_size_halves_per_spoken_bit() {
        // Processor 0 broadcasts input bit t on its t-th turn: after j of
        // its turns the consistent set has 2^{bits-j} members.
        let p = FnProtocol::new(2, 4, 6, |_, input, tr| {
            let my_turns = tr.len() / 2;
            (input >> my_turns) & 1 == 1
        });
        let t = run_turn_protocol(&p, &[0b1010, 0]);
        let count = (0..16u64).filter(|&x| is_consistent(&p, 0, x, &t)).count();
        assert_eq!(count, 2); // 3 bits of processor 0 pinned by 3 turns
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_input_panics() {
        let p = FnProtocol::new(1, 2, 1, |_, _, _| false);
        run_turn_protocol(&p, &[4]);
    }
}
