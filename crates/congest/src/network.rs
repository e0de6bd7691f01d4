//! Synchronous-round execution with exact round and bit accounting: the
//! algorithm side of the model.
//!
//! Upper-bound protocols (Appendix B clique finding, the PRG construction,
//! the derandomization wrapper) are ordinary Rust orchestration code that
//! drives a [`Network`]. The network enforces the broadcast discipline —
//! every processor must submit exactly one message per round, each fitting
//! the model width — and tallies rounds, so the round counts the
//! experiments report are measured, not asserted.

use bcc_f2::BitVec;

use crate::model::Model;
use crate::transcript::RoundLog;

/// A synchronous Broadcast Congested Clique under a [`Model`].
///
/// # Example
///
/// ```
/// use bcc_congest::{Model, Network};
///
/// let mut net = Network::new(Model::bcast1(3));
/// let heard = net.broadcast_round(&[1, 0, 1]).to_vec();
/// assert_eq!(heard, vec![1, 0, 1]);
/// assert_eq!(net.rounds_used(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    model: Model,
    log: RoundLog,
}

impl Network {
    /// A fresh network with no rounds elapsed.
    pub fn new(model: Model) -> Self {
        Network {
            model,
            log: RoundLog::new(model.n(), model.width_bits()),
        }
    }

    /// The model parameters.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Rounds elapsed so far.
    pub fn rounds_used(&self) -> usize {
        self.log.rounds()
    }

    /// Total bits broadcast so far (all processors, all rounds).
    pub fn bits_used(&self) -> usize {
        self.log.total_bits()
    }

    /// The full broadcast log.
    pub fn log(&self) -> &RoundLog {
        &self.log
    }

    /// Executes one synchronous round: every processor broadcasts one
    /// message; returns the messages everyone now knows (in a broadcast
    /// round, exactly the messages sent).
    ///
    /// # Panics
    ///
    /// Panics if `messages.len() != n` or any message exceeds the model
    /// width.
    pub fn broadcast_round<'m>(&mut self, messages: &'m [u64]) -> &'m [u64] {
        assert_eq!(
            messages.len(),
            self.model.n(),
            "one message per processor per round"
        );
        for &m in messages {
            assert!(
                self.model.fits(m),
                "message {m} exceeds BCAST({}) width",
                self.model.width_bits()
            );
        }
        self.log.push_round(messages);
        messages
    }

    /// Ships one equal-length bit payload per processor, `width_bits` bits
    /// per round, over `⌈payload_bits / width⌉` rounds. Processors with
    /// nothing to say must still pass a payload (of zeros) — in a broadcast
    /// round everyone speaks. Each round is accounted exactly; the log
    /// stores the payloads packed, one word-level append per processor.
    ///
    /// Returns the number of rounds consumed.
    ///
    /// # Panics
    ///
    /// Panics if payload lengths differ or `payloads.len() != n`.
    pub fn broadcast_bits(&mut self, payloads: &[BitVec]) -> usize {
        assert_eq!(payloads.len(), self.model.n(), "one payload per processor");
        self.log.push_bits(payloads)
    }

    /// Recovers the payloads sent by [`Network::broadcast_bits`] from the
    /// last `rounds` rounds of the log, truncated to `payload_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` exceeds the rounds logged, or `payload_bits`
    /// exceeds what `rounds` rounds carry (`rounds × width`).
    pub fn collect_bits(&self, rounds: usize, payload_bits: usize) -> Vec<BitVec> {
        let width = self.model.width_bits() as usize;
        assert!(
            rounds <= self.log.rounds(),
            "collect_bits asks for {rounds} rounds but only {} were logged",
            self.log.rounds()
        );
        assert!(
            payload_bits <= rounds * width,
            "collect_bits asks for {payload_bits} payload bits but {rounds} rounds carry {}",
            rounds * width
        );
        let lo = (self.log.rounds() - rounds) * width;
        (0..self.model.n())
            .map(|i| self.log.bits_by_processor(i).slice(lo, lo + payload_bits))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_accounting() {
        let mut net = Network::new(Model::bcast1(4));
        net.broadcast_round(&[0, 1, 0, 1]);
        net.broadcast_round(&[1, 1, 0, 0]);
        assert_eq!(net.rounds_used(), 2);
        assert_eq!(net.bits_used(), 8);
        assert_eq!(net.log().message(1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn width_enforced() {
        let mut net = Network::new(Model::bcast1(2));
        net.broadcast_round(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "one message per processor")]
    fn processor_count_enforced() {
        let mut net = Network::new(Model::bcast1(3));
        net.broadcast_round(&[0, 1]);
    }

    #[test]
    fn broadcast_bits_roundtrip_bcast1() {
        let mut net = Network::new(Model::bcast1(2));
        let payloads = vec![
            BitVec::from_bools(&[true, false, true, true, false]),
            BitVec::from_bools(&[false, true, false, false, true]),
        ];
        let rounds = net.broadcast_bits(&payloads);
        assert_eq!(rounds, 5);
        let got = net.collect_bits(rounds, 5);
        assert_eq!(got, payloads);
    }

    #[test]
    fn broadcast_bits_roundtrip_wide() {
        let mut net = Network::new(Model::new(3, 4));
        let payloads = vec![
            BitVec::from_bools(&[true; 10]),
            BitVec::from_bools(&[false; 10]),
            {
                let mut v = BitVec::zeros(10);
                v.set(9, true);
                v
            },
        ];
        let rounds = net.broadcast_bits(&payloads);
        assert_eq!(rounds, 3); // ceil(10/4)
        let got = net.collect_bits(rounds, 10);
        assert_eq!(got, payloads);
    }

    #[test]
    fn broadcast_bits_empty_payload_is_free() {
        let mut net = Network::new(Model::bcast1(2));
        let rounds = net.broadcast_bits(&[BitVec::zeros(0), BitVec::zeros(0)]);
        assert_eq!(rounds, 0);
        assert_eq!(net.rounds_used(), 0);
    }

    #[test]
    #[should_panic(expected = "only 2 were logged")]
    fn collect_bits_refuses_more_rounds_than_logged() {
        let mut net = Network::new(Model::bcast1(2));
        let rounds = net.broadcast_bits(&[BitVec::ones(2), BitVec::zeros(2)]);
        net.collect_bits(rounds + 1, 2);
    }

    #[test]
    #[should_panic(expected = "3 rounds carry 12")]
    fn collect_bits_refuses_more_bits_than_the_rounds_carry() {
        let mut net = Network::new(Model::new(2, 4));
        let rounds = net.broadcast_bits(&[BitVec::ones(10), BitVec::zeros(10)]);
        net.collect_bits(rounds, 13);
    }

    #[test]
    fn bcast_log_vs_bcast1_round_ratio() {
        // Shipping 100 bits: BCAST(1) needs 100 rounds, BCAST(log n) with
        // n = 1024 needs 10 — the paper's footnote-2 log n factor.
        let mk = |model: Model| {
            let mut net = Network::new(model);
            let payloads: Vec<BitVec> = (0..model.n()).map(|_| BitVec::ones(100)).collect();
            net.broadcast_bits(&payloads)
        };
        assert_eq!(mk(Model::bcast1(4)), 100);
        assert_eq!(mk(Model::new(4, 10)), 10);
    }
}
