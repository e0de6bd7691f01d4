//! Turn protocols of the `BCAST(w)` model: the one protocol trait and the
//! one transcript type.
//!
//! Footnotes 1–2 of the paper: lower bounds proven for `BCAST(1)` extend
//! to `BCAST(log n)` with a `log n` factor in the round count, and all
//! results generalize to logarithmic message sizes; `BCAST(1)` is simply
//! `BCAST(w)` at `w = 1`. This module is the one transcript model the
//! exact engine and the samplers in `bcc-core` analyze. A bit protocol is
//! a [`WideTurnProtocol`] of width 1 ([`crate::FnProtocol`]), whose
//! [`WideTranscript`] holds turn `t`'s bit at bit `t`.

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
    // Inlined across crates: the samplers start one transcript per draw,
    // and a width known at the call site lets `push` fold its checks.
    #[inline]
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
    // Inlined across crates: the samplers push once per drawn turn.
    #[inline]
    pub fn push(&mut self, message: u64) {
        // The capacity `⌊64/width⌋` without a division.
        assert!((self.len + 1) * self.width <= 64, "wide transcript full");
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

    /// The packed messages.
    pub fn as_u64(&self) -> u64 {
        self.bits
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

impl<P: WideTurnProtocol> PackedAdapter<P> {
    /// Wraps a single-speaker-contiguous `BCAST(1)` protocol.
    ///
    /// # Panics
    ///
    /// Panics if the inner protocol is not of width 1 or its horizon is not
    /// a multiple of `width`.
    pub fn new(inner: P, width: u32) -> Self {
        assert_eq!(
            inner.width(),
            1,
            "PackedAdapter packs width-1 protocols only"
        );
        assert!((1..=16).contains(&width), "width must be in 1..=16");
        assert_eq!(
            inner.horizon() % width,
            0,
            "inner horizon must be a multiple of the packing width"
        );
        PackedAdapter { inner, width }
    }

    /// Expands a wide transcript back into the inner single-bit form.
    fn unpack(&self, transcript: &WideTranscript) -> WideTranscript {
        let mut t = WideTranscript::empty(1);
        for i in 0..transcript.len() {
            let m = transcript.message(i);
            for b in 0..self.width {
                t.push((m >> b) & 1);
            }
        }
        t
    }
}

impl<P: WideTurnProtocol> WideTurnProtocol for PackedAdapter<P> {
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
            let bit = self.inner.message(proc, input, &bits);
            message |= bit << b;
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
        assert_eq!(t.message(1), 0x3);
        assert_eq!(t.message(2), 0xF);
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
        // `⌊64/width⌋` messages fit and the next one does not.
        for (width, capacity) in [(1, 64), (3, 21), (16, 4)] {
            let mut t = WideTranscript::empty(width);
            for _ in 0..capacity {
                t.push(0);
            }
            assert_eq!(t.len(), capacity);
            let overflow = std::panic::catch_unwind(move || t.child(0));
            assert!(
                overflow.is_err(),
                "width {width} took message {}",
                capacity + 1
            );
        }
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
        impl<F: Fn(usize, u64, &WideTranscript) -> bool> WideTurnProtocol for Contig<F> {
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
                (t / 2) as usize % self.n()
            }
            fn message(&self, proc: usize, input: u64, tr: &WideTranscript) -> u64 {
                self.0.message(proc, input, tr)
            }
        }
        let inner = Contig(FnProtocol::new(2, 3, 4, |_, input, tr| {
            (input >> (tr.len() % 3)) & 1 == 1
        }));
        let inputs = [0b101u64, 0b010];
        // Direct single-bit run with the contiguous schedule.
        let bits = run_wide_protocol(&inner, &inputs);
        // Packed run.
        let wide = PackedAdapter::new(inner, 2);
        assert_eq!(wide.horizon(), 2);
        let wt = run_wide_protocol(&wide, &inputs);
        // Unpacked messages must equal the single-bit transcript.
        for t in 0..4u32 {
            let msg = wt.message(t / 2);
            assert_eq!((msg >> (t % 2)) & 1, bits.message(t), "turn {t}");
        }
    }

    #[test]
    #[should_panic(expected = "PackedAdapter packs width-1 protocols only")]
    fn adapter_refuses_a_wide_inner_protocol() {
        let inner = FnWideProtocol::new(2, 2, 2, 4, |_, input, _| input);
        let _ = PackedAdapter::new(inner, 2);
    }
}
