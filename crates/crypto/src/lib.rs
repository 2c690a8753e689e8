//! # fabric-crypto
//!
//! From-scratch cryptographic substrate for the `fabric-rs` workspace, the
//! Rust reproduction of *Hyperledger Fabric: A Distributed Operating System
//! for Permissioned Blockchains* (EuroSys 2018).
//!
//! The paper's deployment signs every client transaction, endorsement, and
//! orderer block with 256-bit ECDSA (Sec. 5.2: "signatures use the default
//! 256-bit ECDSA scheme"), and signature verification dominates the
//! validation phase CPU profile (Fig. 7). To reproduce that cost profile
//! without external dependencies this crate implements the full stack:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), the workspace-wide hash, on the
//!   x86-64 SHA extensions where the processor has them.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104).
//! * [`u256`] — fixed-width 256-bit integer arithmetic.
//! * [`field`] — Montgomery modular arithmetic over 256-bit odd moduli.
//! * [`p256`] — the NIST P-256 group (Jacobian coordinates).
//! * [`ecdsa`] — ECDSA signing/verification with RFC 6979 nonces.
//! * [`merkle`] — domain-separated binary Merkle trees for block commitments.
//!
//! ## Security note
//!
//! This implementation targets *functional and performance-profile* fidelity
//! for a systems-research reproduction. Field and scalar arithmetic are not
//! constant-time, so the signing path is not hardened against local timing
//! side channels. Do not use this crate to protect real assets.

pub mod ecdsa;
pub mod field;
pub mod hmac;
pub mod merkle;
pub mod p256;
pub mod sha256;
pub mod u256;

pub use ecdsa::{Error as EcdsaError, Signature, SigningKey, VerifyingKey};
pub use sha256::{digest, Digest};
pub use u256::U256;

/// Renders a digest (or any byte slice) as lowercase hex.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses a lowercase/uppercase hex string into bytes.
///
/// Returns `None` on odd length or non-hex characters.
pub fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for i in (0..s.len()).step_by(2) {
        let hi = (bytes[i] as char).to_digit(16)?;
        let lo = (bytes[i + 1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let data = [0x00u8, 0x01, 0xab, 0xff];
        assert_eq!(hex(&data), "0001abff");
        assert_eq!(unhex("0001abff").unwrap(), data);
        assert_eq!(unhex("0001ABFF").unwrap(), data);
    }

    #[test]
    fn unhex_rejects_bad_input() {
        assert!(unhex("abc").is_none());
        assert!(unhex("zz").is_none());
        assert_eq!(unhex("").unwrap(), Vec::<u8>::new());
    }
}
