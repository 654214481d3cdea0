//! Property-based verification of the reliable-FIFO link constructions
//! (§3: "a (1-bit) sequence number on each message and an acknowledgement
//! protocol"): under arbitrary loss, duplication and reordering rates, the
//! delivered stream equals the sent stream, exactly once, in order.

use gmp::link::alternating_bit::{self, AbAck, AbFrame};
use gmp::link::go_back_n::{self, GbnAck, GbnFrame};
use gmp::link::raw::{RawChannel, RawConfig};
use proptest::prelude::*;

proptest! {
    // Explicit case budget: keeps CI runtime bounded, and failures are
    // reproducible via the per-case seeds recorded in proptest-regressions/.
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The alternating-bit protocol delivers the exact payload sequence
    /// whatever the channel does (short of total loss).
    #[test]
    fn alternating_bit_is_reliable_fifo(
        seed in 0u64..10_000,
        loss in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        len in 1usize..60,
    ) {
        let payloads: Vec<u32> = (0..len as u32).collect();
        let cfg = RawConfig { loss, duplicate: dup, reorder: 0.0 };
        let mut data = RawChannel::new(cfg, seed);
        let mut ack = RawChannel::new(cfg, seed.wrapping_add(1));
        let got = alternating_bit::run_exchange(&payloads, &mut data, &mut ack, 2_000_000);
        prop_assert_eq!(got, payloads);
    }

    /// Go-back-N additionally tolerates reordering.
    #[test]
    fn go_back_n_is_reliable_fifo(
        seed in 0u64..10_000,
        loss in 0.0f64..0.35,
        dup in 0.0f64..0.25,
        reorder in 0.0f64..0.4,
        window in 1usize..12,
        len in 1usize..80,
    ) {
        let payloads: Vec<u32> = (0..len as u32).collect();
        let cfg = RawConfig { loss, duplicate: dup, reorder };
        let mut data = RawChannel::new(cfg, seed);
        let mut ack = RawChannel::new(cfg, seed.wrapping_add(1));
        let got = go_back_n::run_exchange(&payloads, window, &mut data, &mut ack, 3_000_000);
        prop_assert_eq!(got, payloads);
    }

    /// The alternating-bit receiver never delivers the same bit twice in a
    /// row, whatever frame barrage it sees.
    #[test]
    fn ab_receiver_never_double_delivers(frames in proptest::collection::vec((proptest::bool::ANY, 0u8..8), 1..64)) {
        let mut rx = gmp::link::AbReceiver::new();
        let mut last_delivered_bit: Option<bool> = None;
        for (bit, payload) in frames {
            let (delivered, _ack): (Option<u8>, AbAck) = rx.on_frame(AbFrame { bit, payload });
            if delivered.is_some() {
                prop_assert_ne!(Some(bit), last_delivered_bit, "same bit delivered twice");
                last_delivered_bit = Some(bit);
            }
        }
    }

    /// The go-back-N receiver delivers a gapless prefix of sequence
    /// numbers no matter what arrives.
    #[test]
    fn gbn_receiver_delivers_gapless_prefix(seqs in proptest::collection::vec(0u64..20, 1..100)) {
        let mut rx = gmp::link::GbnReceiver::new();
        let mut next_expected = 0u64;
        for seq in seqs {
            let (delivered, ack): (Option<u64>, GbnAck) =
                rx.on_frame(GbnFrame { seq, payload: seq });
            if let Some(p) = delivered {
                prop_assert_eq!(p, next_expected);
                next_expected += 1;
            }
            prop_assert_eq!(ack.next, next_expected);
        }
    }
}
