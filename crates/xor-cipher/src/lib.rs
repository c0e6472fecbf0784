//! # cim-xor-cipher
//!
//! The one-time pad of the §II "XOR encryption kernel" of the DATE'19
//! paper, on the host.
//!
//! The kernel "performs an XOR operation of a string sequence and a
//! predefined (secret) key … used for one-time-pad cryptography". On the
//! CIM architecture, message and key rows live in a digital memristive
//! tile; every ciphertext row is produced by a single two-row Scouting
//! XOR access instead of a load-load-xor-store round trip through the
//! cache hierarchy. That path is the `cim-runtime` pool's
//! `WorkloadSpec::XorEncrypt`, which derives its key from
//! [`OneTimePad::generate`] and returns [`OneTimePad::encrypt`]'s
//! ciphertext byte for byte.
//!
//! * [`otp`] — the one-time pad: key generation, software XOR, the
//!   perfect-recovery and key-reuse properties.
//!
//! # Example
//!
//! ```
//! use cim_xor_cipher::otp::OneTimePad;
//!
//! let pad = OneTimePad::generate(16, 7);
//! let msg = b"attack at dawn!!";
//! let ct = pad.encrypt(msg).unwrap();
//! assert_ne!(&ct[..], &msg[..]);
//! assert_eq!(pad.decrypt(&ct).unwrap(), msg.to_vec());
//! ```

pub mod otp;

pub use otp::{CipherError, OneTimePad};
