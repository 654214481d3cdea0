//! Reliable FIFO links built from scratch (§3's channel requirements).
//!
//! The paper's solution "will make use of two channel properties ... both of
//! these properties are easily implemented: the former \[FIFO\] requires a
//! (1-bit) sequence number on each message and an acknowledgement protocol;
//! the latter involves adding view numbers to messages".
//!
//! This crate builds the former over an *unreliable* raw channel model
//! (loss, reordering, duplication):
//!
//! * [`alternating_bit`] — the 1-bit sequence-number + acknowledgement
//!   protocol the paper references (stop-and-wait);
//! * [`go_back_n`] — a windowed generalization for throughput.
//!
//! The latter, the "no messages from future views" delay rule, is the
//! member's own update buffer in `gmp-core`.

pub mod alternating_bit;
pub mod go_back_n;
pub mod raw;

pub use alternating_bit::{AbReceiver, AbSender};
pub use go_back_n::{GbnReceiver, GbnSender};
pub use raw::RawChannel;
