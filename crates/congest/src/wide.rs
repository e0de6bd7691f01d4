//! Wide-message turn protocols: the `BCAST(w)` generalization.
//!
//! Footnotes 1–2 of the paper: lower bounds proven for `BCAST(1)` extend
//! to `BCAST(log n)` with a `log n` factor in the round count, and all
//! results generalize to logarithmic message sizes; `BCAST(1)` is simply
//! `BCAST(w)` at `w = 1`. This module is the one transcript model the
//! exact engine and the samplers in `bcc-core` analyze. Bit protocols are
//! still written as [`TurnProtocol`]s and enter through
//! [`TurnProtocol::as_wide`], a zero-cost width-1 view ([`AsWide`]): at
//! `w = 1` a [`WideTranscript`] and a [`TurnTranscript`] share one
//! packing (bit `t` = turn `t`), so [`WideTranscript::as_bits`] converts
//! in `O(1)`.

use crate::transcript::TurnTranscript;
use crate::turn::TurnProtocol;

/// A prefix of a turn-based `BCAST(w)` execution: one `w`-bit message per
/// turn, packed into a `u64` (capacity `⌊64/w⌋` turns).
///
/// # Example
///
/// ```
/// use bcc_congest::wide::WideTranscript;
///
/// let mut t = WideTranscript::empty(3);
/// t.push(0b101);
/// t.push(0b010);
/// assert_eq!(t.message(0), 0b101);
/// assert_eq!(t.message(1), 0b010);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WideTranscript {
    bits: u64,
    len: u32,
    width: u32,
}

impl WideTranscript {
    /// The empty transcript for `width`-bit messages.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ width ≤ 16`.
    pub fn empty(width: u32) -> Self {
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        WideTranscript {
            bits: 0,
            len: 0,
            width,
        }
    }

    /// The message width `w`.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The number of messages recorded.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether no message has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The maximum number of messages, `⌊64/width⌋`.
    pub fn capacity(&self) -> u32 {
        64 / self.width
    }

    /// The message broadcast on turn `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= len`.
    pub fn message(&self, t: u32) -> u64 {
        assert!(t < self.len, "turn {t} not yet recorded");
        (self.bits >> (t * self.width)) & ((1u64 << self.width) - 1)
    }

    /// Appends the next message.
    ///
    /// # Panics
    ///
    /// Panics if full or if `message` exceeds the width.
    pub fn push(&mut self, message: u64) {
        assert!(self.len < self.capacity(), "wide transcript full");
        assert!(
            message < (1u64 << self.width),
            "message exceeds {} bits",
            self.width
        );
        self.bits |= message << (self.len * self.width);
        self.len += 1;
    }

    /// This transcript extended by one message.
    pub fn child(&self, message: u64) -> Self {
        let mut c = *self;
        c.push(message);
        c
    }

    /// The first `t` messages.
    ///
    /// # Panics
    ///
    /// Panics if `t > len`.
    pub fn prefix(&self, t: u32) -> Self {
        assert!(t <= self.len, "prefix longer than transcript");
        let kept = t * self.width;
        let mask = if kept == 64 { !0 } else { (1u64 << kept) - 1 };
        WideTranscript {
            bits: self.bits & mask,
            len: t,
            width: self.width,
        }
    }

    /// The packed messages.
    pub fn as_u64(&self) -> u64 {
        self.bits
    }

    /// This width-1 transcript as a [`TurnTranscript`], in `O(1)`: at
    /// `w = 1` both packings put turn `t` at bit `t`, and [`push`] has
    /// already enforced the zero bits beyond the length.
    ///
    /// # Panics
    ///
    /// Panics unless `width == 1`.
    ///
    /// [`push`]: WideTranscript::push
    // Inlined across crates: the exact walk calls this once per live
    // point per node (through `AsWide::message`).
    #[inline]
    pub fn as_bits(&self) -> TurnTranscript {
        assert_eq!(
            self.width, 1,
            "only width-1 transcripts are bit transcripts"
        );
        TurnTranscript::from_bits_unchecked(self.bits, self.len)
    }
}

/// A deterministic turn-based `BCAST(w)` protocol on packed inputs.
pub trait WideTurnProtocol {
    /// The number of processors.
    fn n(&self) -> usize;

    /// Input bits per processor (`≤ 63`).
    fn input_bits(&self) -> u32;

    /// Message width `w` (`1..=16`).
    fn width(&self) -> u32;

    /// The number of turns.
    fn horizon(&self) -> u32;

    /// Which processor speaks on turn `t` (round-robin by default).
    fn speaker(&self, t: u32) -> usize {
        t as usize % self.n()
    }

    /// The message processor `proc` broadcasts (must be `< 2^width`).
    fn message(&self, proc: usize, input: u64, transcript: &WideTranscript) -> u64;
}

/// A [`WideTurnProtocol`] built from a closure.
pub struct FnWideProtocol<F> {
    n: usize,
    input_bits: u32,
    width: u32,
    horizon: u32,
    f: F,
}

impl<F> FnWideProtocol<F>
where
    F: Fn(usize, u64, &WideTranscript) -> u64,
{
    /// Wraps `f(proc, input, transcript) → message`.
    ///
    /// # Panics
    ///
    /// Panics on invalid dimensions (zero processors, width outside
    /// `1..=16`, or a horizon beyond the packed capacity).
    pub fn new(n: usize, input_bits: u32, width: u32, horizon: u32, f: F) -> Self {
        assert!(n > 0, "need at least one processor");
        assert!(input_bits <= 63, "packed inputs hold at most 63 bits");
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        // Widened before multiplying: an absurd horizon must hit this
        // assert, not a u32 overflow.
        assert!(
            u64::from(horizon) * u64::from(width) <= 64,
            "horizon exceeds packed capacity"
        );
        FnWideProtocol {
            n,
            input_bits,
            width,
            horizon,
            f,
        }
    }
}

impl<F> WideTurnProtocol for FnWideProtocol<F>
where
    F: Fn(usize, u64, &WideTranscript) -> u64,
{
    fn n(&self) -> usize {
        self.n
    }

    fn input_bits(&self) -> u32 {
        self.input_bits
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn horizon(&self) -> u32 {
        self.horizon
    }

    fn message(&self, proc: usize, input: u64, transcript: &WideTranscript) -> u64 {
        let m = (self.f)(proc, input, transcript);
        assert!(m < (1u64 << self.width), "message exceeds width");
        m
    }
}

/// A [`TurnProtocol`] seen as a width-1 [`WideTurnProtocol`] (built by
/// [`TurnProtocol::as_wide`]): each message is the bit the protocol
/// broadcasts, read against the transcript's [`WideTranscript::as_bits`]
/// view. Runs, walks and samples of the view are bitwise those of the bit
/// protocol.
pub struct AsWide<'a, P: ?Sized>(pub(crate) &'a P);

impl<P: TurnProtocol + ?Sized> WideTurnProtocol for AsWide<'_, P> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn input_bits(&self) -> u32 {
        self.0.input_bits()
    }

    fn width(&self) -> u32 {
        1
    }

    fn horizon(&self) -> u32 {
        self.0.horizon()
    }

    fn speaker(&self, t: u32) -> usize {
        self.0.speaker(t)
    }

    fn message(&self, proc: usize, input: u64, transcript: &WideTranscript) -> u64 {
        u64::from(self.0.bit(proc, input, &transcript.as_bits()))
    }
}

/// Runs a wide protocol on concrete inputs.
///
/// # Panics
///
/// Panics on input-count or input-width mismatches.
pub fn run_wide_protocol<P: WideTurnProtocol + ?Sized>(
    protocol: &P,
    inputs: &[u64],
) -> WideTranscript {
    assert_eq!(inputs.len(), protocol.n(), "one input per processor");
    let limit = 1u64 << protocol.input_bits();
    for &x in inputs {
        assert!(x < limit, "input exceeds {} bits", protocol.input_bits());
    }
    let mut t = WideTranscript::empty(protocol.width());
    for turn in 0..protocol.horizon() {
        let s = protocol.speaker(turn);
        let m = protocol.message(s, inputs[s], &t);
        t.push(m);
    }
    t
}

/// Packs `width` consecutive turns of a `BCAST(1)` protocol into one
/// `BCAST(width)` turn per *processor round*: on its turn, a processor
/// simulates its next `width` single-bit broadcasts (feeding its own bits
/// back into the simulated transcript) and ships them as one message.
///
/// This is the constructive direction of footnote 2: a `j·w`-turn
/// `BCAST(1)` protocol in which each processor's turns are contiguous
/// becomes a `j`-turn `BCAST(w)` protocol. (The general schedule costs the
/// usual `log n` factor; this adapter serves the experiments.)
pub struct PackedAdapter<P> {
    inner: P,
    width: u32,
}

impl<P: TurnProtocol> PackedAdapter<P> {
    /// Wraps a single-speaker-contiguous `BCAST(1)` protocol.
    ///
    /// # Panics
    ///
    /// Panics if the inner horizon is not a multiple of `width`.
    pub fn new(inner: P, width: u32) -> Self {
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        assert_eq!(
            inner.horizon() % width,
            0,
            "inner horizon must be a multiple of the packing width"
        );
        PackedAdapter { inner, width }
    }

    /// Expands a wide transcript back into the inner single-bit form.
    fn unpack(&self, transcript: &WideTranscript) -> TurnTranscript {
        let mut t = TurnTranscript::empty();
        for i in 0..transcript.len() {
            let m = transcript.message(i);
            for b in 0..self.width {
                t.push((m >> b) & 1 == 1);
            }
        }
        t
    }
}

impl<P: TurnProtocol> WideTurnProtocol for PackedAdapter<P> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn input_bits(&self) -> u32 {
        self.inner.input_bits()
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn horizon(&self) -> u32 {
        self.inner.horizon() / self.width
    }

    fn speaker(&self, t: u32) -> usize {
        self.inner.speaker(t * self.width)
    }

    fn message(&self, proc: usize, input: u64, transcript: &WideTranscript) -> u64 {
        let mut bits = self.unpack(transcript);
        let mut message = 0u64;
        for b in 0..self.width {
            let turn = transcript.len() * self.width + b;
            assert_eq!(
                self.inner.speaker(turn),
                proc,
                "inner speaker must stay fixed across one packed message"
            );
            let bit = self.inner.bit(proc, input, &bits);
            if bit {
                message |= 1 << b;
            }
            bits.push(bit);
        }
        message
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turn::FnProtocol;

    #[test]
    fn transcript_pack_unpack() {
        let mut t = WideTranscript::empty(4);
        t.push(0xA);
        t.push(0x3);
        t.push(0xF);
        assert_eq!(t.len(), 3);
        assert_eq!(t.message(0), 0xA);
        assert_eq!(t.message(2), 0xF);
        let p = t.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.message(1), 0x3);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_message_rejected() {
        WideTranscript::empty(2).push(4);
    }

    #[test]
    #[should_panic(expected = "packed capacity")]
    fn absurd_horizons_hit_the_capacity_check_not_an_overflow() {
        // horizon * width overflows u32; the widened check must still
        // report the capacity violation.
        let _ = FnWideProtocol::new(1, 1, 16, u32::MAX / 4, |_, _, _| 0);
    }

    #[test]
    fn capacity_by_width() {
        assert_eq!(WideTranscript::empty(1).capacity(), 64);
        assert_eq!(WideTranscript::empty(3).capacity(), 21);
        assert_eq!(WideTranscript::empty(16).capacity(), 4);
    }

    #[test]
    fn run_wide_protocol_basic() {
        // Each processor ships its low 2 input bits as one message.
        let p = FnWideProtocol::new(3, 4, 2, 3, |_, input, _| input & 0b11);
        let t = run_wide_protocol(&p, &[0b0110, 0b0001, 0b1011]);
        assert_eq!(t.message(0), 0b10);
        assert_eq!(t.message(1), 0b01);
        assert_eq!(t.message(2), 0b11);
    }

    #[test]
    fn adapter_matches_inner_protocol() {
        // Inner BCAST(1): 2 processors, each speaks 2 contiguous turns
        // (speaker schedule: t/2), broadcasting input bits adaptively.
        struct Contig<F>(FnProtocol<F>);
        impl<F: Fn(usize, u64, &TurnTranscript) -> bool> TurnProtocol for Contig<F> {
            fn n(&self) -> usize {
                self.0.n()
            }
            fn input_bits(&self) -> u32 {
                self.0.input_bits()
            }
            fn horizon(&self) -> u32 {
                self.0.horizon()
            }
            fn speaker(&self, t: u32) -> usize {
                (t / 2) as usize % self.n()
            }
            fn bit(&self, proc: usize, input: u64, tr: &TurnTranscript) -> bool {
                self.0.bit(proc, input, tr)
            }
        }
        let inner = Contig(FnProtocol::new(2, 3, 4, |_, input, tr| {
            (input >> (tr.len() % 3)) & 1 == 1
        }));
        let inputs = [0b101u64, 0b010];
        // Direct single-bit run with the contiguous schedule.
        let mut bits = TurnTranscript::empty();
        for t in 0..4 {
            let s = inner.speaker(t);
            let b = inner.bit(s, inputs[s], &bits);
            bits.push(b);
        }
        // Packed run.
        let wide = PackedAdapter::new(inner, 2);
        assert_eq!(wide.horizon(), 2);
        let wt = run_wide_protocol(&wide, &inputs);
        // Unpacked messages must equal the single-bit transcript.
        for t in 0..4u32 {
            let msg = wt.message(t / 2);
            assert_eq!((msg >> (t % 2)) & 1 == 1, bits.bit(t), "turn {t}");
        }
    }
}
