//! The one layout of the `u64` tokens handed to the engine. A token with
//! bit 63 clear is the caller's own (an arrival, a tick), so it is never
//! mistaken for a connection's: those set bit 63, then hold the id in
//! bits 32–62, the [`Phase`] in bits 30–31 and the subflow or timer
//! number in bits 0–29.

/// A connection's token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// The connection's id (31 bits).
    pub conn: u32,
    /// What happened.
    pub phase: Phase,
    /// The subflow, or the owner's timer number (30 bits).
    pub index: u32,
}

/// What a connection's token reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A window finished sending on subflow `index`.
    Sent,
    /// That window's ACK reached the sender.
    Acked,
    /// The owner's timer `index` (a DCol session's setup, review, probe).
    Timer,
}

impl Token {
    /// The raw token to hand the engine.
    ///
    /// # Panics
    ///
    /// Panics if the id needs over 31 bits or the index over 30.
    pub fn raw(self) -> u64 {
        assert!(
            self.conn < 1 << 31 && self.index < 1 << 30,
            "{self:?} does not fit"
        );
        1 << 63 | u64::from(self.conn) << 32 | (self.phase as u64) << 30 | u64::from(self.index)
    }

    /// The connection token `raw` is; `None` for a caller's own.
    pub fn of(raw: u64) -> Option<Token> {
        if raw >> 63 == 0 {
            return None;
        }
        let phase = match raw >> 30 & 3 {
            0 => Phase::Sent,
            1 => Phase::Acked,
            _ => Phase::Timer,
        };
        let conn = (raw >> 32) as u32 & !(1 << 31);
        let index = raw as u32 & ((1 << 30) - 1);
        Some(Token { conn, phase, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_round_trips_and_own_tokens_stay_apart() {
        for phase in [Phase::Sent, Phase::Acked, Phase::Timer] {
            for (conn, index) in [(0, 0), ((1 << 31) - 1, (1 << 30) - 1), (7, 3)] {
                let t = Token { conn, phase, index };
                assert_eq!(Token::of(t.raw()), Some(t));
            }
        }
        for own in [0, 1, (1 << 63) - 1] {
            assert_eq!(Token::of(own), None);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn an_id_over_31_bits_is_refused() {
        let phase = Phase::Sent;
        let _ = Token {
            conn: 1 << 31,
            phase,
            index: 0,
        }
        .raw();
    }
}
