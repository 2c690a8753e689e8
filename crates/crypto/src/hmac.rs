//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! Used by the RFC 6979 deterministic-nonce generator and available for
//! message authentication in transport layers.

use crate::sha256::{digest, Digest, Sha256};

const BLOCK_LEN: usize = 64;

/// Incremental HMAC-SHA256 computation.
///
/// # Examples
///
/// ```
/// use fabric_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"message");
/// let tag = mac.finalize();
/// assert_eq!(tag, fabric_crypto::hmac::hmac(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = digest(key);
            block_key[..d.len()].copy_from_slice(&d);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = block_key[i] ^ 0x36;
            opad[i] = block_key[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    /// Feeds message data into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the MAC and returns the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256 of `data` under `key`.
pub fn hmac(key: &[u8], data: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// Constant-time equality comparison for MAC tags.
///
/// Returns `true` iff `a == b`, without early exit on the first differing
/// byte.
pub fn verify_tag(a: &Digest, b: &Digest) -> bool {
    let mut acc = 0u8;
    for i in 0..a.len() {
        acc |= a[i] ^ b[i];
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case1() {
        // Key = 0x0b * 20, Data = "Hi There".
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // Keys longer than the block size are first hashed (RFC 4231 case 6).
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut mac = HmacSha256::new(b"secret");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac(b"secret", b"hello world"));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac(b"k1", b"m"), hmac(b"k2", b"m"));
    }

    #[test]
    fn tag_verification() {
        let t1 = hmac(b"k", b"m");
        let mut t2 = t1;
        assert!(verify_tag(&t1, &t2));
        t2[31] ^= 1;
        assert!(!verify_tag(&t1, &t2));
    }
}
