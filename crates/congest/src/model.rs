//! Model parameters for the Broadcast Congested Clique.

/// A `BCAST(b)` Broadcast Congested Clique with `n` processors.
///
/// `b` is the per-round message width in bits. The paper's two standard
/// settings are [`Model::bcast1`] and [`Model::bcast_log`] (footnote 2:
/// results in the two transfer with a `log n` factor in the round count).
///
/// # Example
///
/// ```
/// use bcc_congest::Model;
///
/// let m = Model::bcast_log(1024);
/// assert_eq!(m.n(), 1024);
/// assert_eq!(m.width_bits(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Model {
    n: usize,
    width_bits: u32,
}

impl Model {
    /// A `BCAST(b)` model with `n` processors and `b = width_bits`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `width_bits == 0`, or `width_bits > 63`.
    pub fn new(n: usize, width_bits: u32) -> Self {
        assert!(n > 0, "need at least one processor");
        assert!(
            (1..=63).contains(&width_bits),
            "message width must be in 1..=63 bits"
        );
        Model { n, width_bits }
    }

    /// The single-bit model `BCAST(1)` the paper's lower bounds target.
    pub fn bcast1(n: usize) -> Self {
        Model::new(n, 1)
    }

    /// The `BCAST(log n)` model: width `⌈log₂ n⌉` (at least 1).
    pub fn bcast_log(n: usize) -> Self {
        let w = usize::BITS - n.saturating_sub(1).leading_zeros();
        Model::new(n, w.max(1))
    }

    /// The number of processors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The message width `b` in bits.
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// The number of distinct messages per broadcast, `2^b`.
    fn alphabet_size(&self) -> u64 {
        1u64 << self.width_bits
    }

    /// Whether `value` fits in one message.
    pub fn fits(&self, value: u64) -> bool {
        value < self.alphabet_size()
    }

    /// Rounds needed to ship `payload_bits` bits from one processor,
    /// `⌈payload_bits / b⌉`.
    pub fn rounds_for_bits(&self, payload_bits: usize) -> usize {
        payload_bits.div_ceil(self.width_bits as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast1_width() {
        let m = Model::bcast1(10);
        assert_eq!(m.width_bits(), 1);
        assert_eq!(m.alphabet_size(), 2);
        assert!(m.fits(1));
        assert!(!m.fits(2));
    }

    #[test]
    fn bcast_log_width() {
        assert_eq!(Model::bcast_log(2).width_bits(), 1);
        assert_eq!(Model::bcast_log(3).width_bits(), 2);
        assert_eq!(Model::bcast_log(1024).width_bits(), 10);
        assert_eq!(Model::bcast_log(1025).width_bits(), 11);
    }

    #[test]
    fn bcast_log_of_one() {
        assert_eq!(Model::bcast_log(1).width_bits(), 1);
    }

    #[test]
    fn rounds_for_bits_ceil() {
        let m = Model::new(8, 10);
        assert_eq!(m.rounds_for_bits(0), 0);
        assert_eq!(m.rounds_for_bits(10), 1);
        assert_eq!(m.rounds_for_bits(11), 2);
        let one = Model::bcast1(8);
        assert_eq!(one.rounds_for_bits(7), 7);
    }

    #[test]
    #[should_panic(expected = "message width")]
    fn zero_width_panics() {
        Model::new(4, 0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        Model::new(0, 1);
    }
}
