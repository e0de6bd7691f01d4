//! The log of a synchronous-round execution: every message broadcast so
//! far, by round and processor.
//!
//! The paper (§1.3): "the 'transcript' is a list of all messages sent so
//! far as well as who sent which message and when". Turn protocols fix the
//! speaker schedule, so their transcripts are just the packed messages
//! ([`crate::wide::WideTranscript`]); this module holds the round log that
//! [`crate::network::Network`] keeps for algorithm protocols.

use bcc_f2::BitVec;

/// The full log of a synchronous-round execution, packed: one bit stream
/// per processor, `width` bits per round. Round `r`'s message from
/// processor `i` is bits `[r·width, (r+1)·width)` of stream `i`, so a
/// multi-round payload ([`RoundLog::push_bits`]) lands as one word-level
/// append per processor rather than one `u64` per processor per round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundLog {
    width: u32,
    rounds: usize,
    streams: Vec<BitVec>,
}

impl RoundLog {
    /// An empty log for `n` processors sending `width_bits`-bit messages.
    ///
    /// # Panics
    ///
    /// Panics unless `width_bits` is in `1..=64`.
    pub fn new(n: usize, width_bits: u32) -> Self {
        assert!(
            (1..=64).contains(&width_bits),
            "log width must be in 1..=64 bits"
        );
        RoundLog {
            width: width_bits,
            rounds: 0,
            streams: vec![BitVec::zeros(0); n],
        }
    }

    /// The number of completed rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The messages of round `r` (one per processor).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn round(&self, r: usize) -> Vec<u64> {
        (0..self.streams.len())
            .map(|i| self.message(r, i))
            .collect()
    }

    /// The message processor `i` broadcast in round `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn message(&self, r: usize, i: usize) -> u64 {
        assert!(
            r < self.rounds,
            "round {r} not logged ({} rounds)",
            self.rounds
        );
        let w = self.width as usize;
        self.streams[i].word_at(r * w, w)
    }

    /// Appends a completed round, one message per processor.
    ///
    /// # Panics
    ///
    /// Panics if the processor count differs from the log's or a message
    /// exceeds the width.
    pub fn push_round(&mut self, messages: &[u64]) {
        assert_eq!(
            self.streams.len(),
            messages.len(),
            "all rounds must have the same processor count"
        );
        for (stream, &m) in self.streams.iter_mut().zip(messages) {
            assert!(
                self.width == 64 || m >> self.width == 0,
                "message {m} exceeds the {}-bit log width",
                self.width
            );
            stream.push_word(m, self.width as usize);
        }
        self.rounds += 1;
    }

    /// Appends one equal-length payload per processor over
    /// `⌈len / width⌉` rounds, zero-padding the last round. Returns the
    /// number of rounds appended.
    ///
    /// # Panics
    ///
    /// Panics if the processor count differs from the log's or the payload
    /// lengths differ.
    pub fn push_bits(&mut self, payloads: &[BitVec]) -> usize {
        assert_eq!(
            self.streams.len(),
            payloads.len(),
            "all rounds must have the same processor count"
        );
        let len = payloads.first().map_or(0, BitVec::len);
        for p in payloads {
            assert_eq!(p.len(), len, "payloads must have equal length");
        }
        let width = self.width as usize;
        let rounds = len.div_ceil(width);
        for (stream, payload) in self.streams.iter_mut().zip(payloads) {
            stream.append(payload);
            stream.push_word(0, rounds * width - len);
        }
        self.rounds += rounds;
        rounds
    }

    /// All messages broadcast by processor `i`, in round order.
    pub fn by_processor(&self, i: usize) -> Vec<u64> {
        (0..self.rounds).map(|r| self.message(r, i)).collect()
    }

    /// The bits processor `i` broadcast across rounds, `width` per round,
    /// earliest round first (little-endian within each message).
    pub fn bits_by_processor(&self, i: usize) -> &BitVec {
        &self.streams[i]
    }

    /// Total bits broadcast by all processors so far.
    pub fn total_bits(&self) -> usize {
        self.rounds * self.streams.len() * self.width as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_log_accessors() {
        let mut log = RoundLog::new(3, 1);
        log.push_round(&[1, 0, 1]);
        log.push_round(&[0, 1, 1]);
        assert_eq!(log.rounds(), 2);
        assert_eq!(log.message(1, 1), 1);
        assert_eq!(log.round(0), vec![1, 0, 1]);
        assert_eq!(log.by_processor(2), vec![1, 1]);
        assert_eq!(log.total_bits(), 6);
    }

    #[test]
    fn bits_by_processor_reassembles() {
        let mut log = RoundLog::new(2, 2);
        // width 2: processor 0 sends 0b10 then 0b01.
        log.push_round(&[0b10, 0b11]);
        log.push_round(&[0b01, 0b00]);
        let bits = log.bits_by_processor(0);
        assert_eq!(
            bits.iter().collect::<Vec<_>>(),
            vec![false, true, true, false]
        );
    }

    #[test]
    #[should_panic(expected = "same processor count")]
    fn mismatched_round_width_panics() {
        let mut log = RoundLog::new(2, 1);
        log.push_round(&[0, 1]);
        log.push_round(&[0]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 2-bit log width")]
    fn oversized_message_panics() {
        RoundLog::new(1, 2).push_round(&[4]);
    }

    #[test]
    #[should_panic(expected = "not logged")]
    fn message_past_the_last_round_panics() {
        let mut log = RoundLog::new(1, 4);
        log.push_round(&[3]);
        log.message(1, 0);
    }
}
