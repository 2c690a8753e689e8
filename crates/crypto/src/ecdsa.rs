//! ECDSA over P-256 with SHA-256 and deterministic nonces (RFC 6979).
//!
//! This module provides the signature scheme used everywhere in the
//! workspace: client transaction signatures, peer endorsements, orderer
//! block signatures, and certificate issuance all go through
//! [`SigningKey::sign`] / [`VerifyingKey::verify`].
//!
//! Nonces are derived deterministically from the private key and message
//! (RFC 6979), so signing never consumes external randomness and repeated
//! signatures over the same message are identical — convenient for
//! reproducible tests and immune to nonce-reuse key leakage.

use rand::RngCore;

use crate::hmac::HmacSha256;
use crate::p256::{fq, order, Point};
use crate::sha256::{digest, Digest};
use crate::u256::U256;

/// Errors produced by key parsing and signature verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The private scalar was zero or not less than the group order.
    InvalidPrivateKey,
    /// The public key bytes did not decode to a curve point.
    InvalidPublicKey,
    /// The signature components were out of range.
    InvalidSignature,
    /// The signature did not verify against the key and message.
    VerificationFailed,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::InvalidPrivateKey => write!(f, "invalid private key scalar"),
            Error::InvalidPublicKey => write!(f, "invalid public key encoding"),
            Error::InvalidSignature => write!(f, "signature components out of range"),
            Error::VerificationFailed => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for Error {}

/// An ECDSA P-256 signature `(r, s)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The `r` component.
    pub r: U256,
    /// The `s` component.
    pub s: U256,
}

impl Signature {
    /// Serializes as 64 bytes: `r || s`, both big-endian.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses a 64-byte `r || s` signature.
    ///
    /// Returns an error if either component is zero or not below the group
    /// order.
    pub fn from_bytes(bytes: &[u8]) -> Result<Signature, Error> {
        if bytes.len() != 64 {
            return Err(Error::InvalidSignature);
        }
        let mut rb = [0u8; 32];
        let mut sb = [0u8; 32];
        rb.copy_from_slice(&bytes[..32]);
        sb.copy_from_slice(&bytes[32..]);
        let r = U256::from_be_bytes(&rb);
        let s = U256::from_be_bytes(&sb);
        let n = order();
        if r.is_zero() || s.is_zero() || r >= n || s >= n {
            return Err(Error::InvalidSignature);
        }
        Ok(Signature { r, s })
    }
}

impl core::fmt::Debug for Signature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Signature(r=0x{}, s=0x{})",
            self.r.to_hex(),
            self.s.to_hex()
        )
    }
}

/// A P-256 public (verifying) key.
#[derive(Clone, Copy, Debug)]
pub struct VerifyingKey {
    point: Point,
}

impl VerifyingKey {
    /// Wraps a curve point as a verifying key.
    ///
    /// Returns an error for the point at infinity.
    pub fn from_point(point: Point) -> Result<Self, Error> {
        if point.is_infinity() {
            return Err(Error::InvalidPublicKey);
        }
        Ok(VerifyingKey { point })
    }

    /// Parses a SEC1-encoded public key (compressed or uncompressed).
    pub fn from_sec1(bytes: &[u8]) -> Result<Self, Error> {
        let point = Point::from_sec1(bytes).ok_or(Error::InvalidPublicKey)?;
        Self::from_point(point)
    }

    /// Serializes in uncompressed SEC1 form (65 bytes).
    pub fn to_sec1(&self) -> [u8; 65] {
        self.point
            .to_uncompressed()
            .expect("verifying key is never infinity")
    }

    /// Serializes in compressed SEC1 form (33 bytes).
    pub fn to_sec1_compressed(&self) -> [u8; 33] {
        self.point
            .to_compressed()
            .expect("verifying key is never infinity")
    }

    /// Verifies `signature` over the raw `message` (hashed internally with
    /// SHA-256).
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), Error> {
        self.verify_prehashed(&digest(message), signature)
    }

    /// Verifies `signature` over an externally computed SHA-256 digest.
    pub fn verify_prehashed(&self, hash: &Digest, signature: &Signature) -> Result<(), Error> {
        let q = fq();
        let n = order();
        let (r, s) = (signature.r, signature.s);
        if r.is_zero() || s.is_zero() || r >= n || s >= n {
            return Err(Error::InvalidSignature);
        }
        let e = hash_to_scalar(hash);
        // w = s^-1 mod n; u1 = e*w; u2 = r*w.
        let sm = q.to_mont(&s);
        let w = q.inv(&sm);
        let em = q.to_mont(&e);
        let rm = q.to_mont(&r);
        let u1 = q.from_mont(&q.mul(&em, &w));
        let u2 = q.from_mont(&q.mul(&rm, &w));
        let point = Point::generator().double_scalar_mul(&u1, &self.point, &u2);
        let (x, _) = point.to_affine().ok_or(Error::VerificationFailed)?;
        if x.reduce_once(&n) == r {
            Ok(())
        } else {
            Err(Error::VerificationFailed)
        }
    }

    /// Returns the underlying curve point.
    pub fn point(&self) -> &Point {
        &self.point
    }
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        self.point.eq_point(&other.point)
    }
}

impl Eq for VerifyingKey {}

/// A P-256 private (signing) key.
#[derive(Clone)]
pub struct SigningKey {
    d: U256,
    public: VerifyingKey,
}

impl SigningKey {
    /// Creates a signing key from a raw scalar.
    ///
    /// Returns an error if the scalar is zero or not below the group order.
    pub fn from_scalar(d: U256) -> Result<Self, Error> {
        let n = order();
        if d.is_zero() || d >= n {
            return Err(Error::InvalidPrivateKey);
        }
        let point = Point::generator().mul(&d);
        Ok(SigningKey {
            d,
            public: VerifyingKey::from_point(point)?,
        })
    }

    /// Generates a fresh random key from `rng` by rejection sampling.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill_bytes(&mut bytes);
            let d = U256::from_be_bytes(&bytes);
            if let Ok(key) = Self::from_scalar(d) {
                return key;
            }
        }
    }

    /// Derives a key deterministically from a seed (for tests and
    /// reproducible network setups): the scalar is
    /// `SHA-256(seed || counter)` with rejection sampling.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut counter: u32 = 0;
        loop {
            let mut h = crate::sha256::Sha256::new();
            h.update(seed);
            h.update(&counter.to_be_bytes());
            let d = U256::from_be_bytes(&h.finalize());
            if let Ok(key) = Self::from_scalar(d) {
                return key;
            }
            counter += 1;
        }
    }

    /// Returns the corresponding public key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// Returns the private scalar as 32 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.d.to_be_bytes()
    }

    /// Signs the raw `message` (hashed internally with SHA-256).
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_prehashed(&digest(message))
    }

    /// Signs an externally computed SHA-256 digest.
    pub fn sign_prehashed(&self, hash: &Digest) -> Signature {
        let q = fq();
        let n = order();
        let e = hash_to_scalar(hash);
        let mut nonce_gen = Rfc6979::new(&self.d, hash);
        loop {
            let k = nonce_gen.next_nonce();
            let point = Point::generator().mul(&k);
            let (x, _) = point
                .to_affine()
                .expect("k in [1, n-1] never yields infinity");
            let r = x.reduce_once(&n);
            if r.is_zero() {
                continue;
            }
            // s = k^-1 (e + r d) mod n.
            let km = q.to_mont(&k);
            let kinv = q.inv(&km);
            let rm = q.to_mont(&r);
            let dm = q.to_mont(&self.d);
            let em = q.to_mont(&e);
            let rd = q.mul(&rm, &dm);
            let sum = q.add(&em, &rd);
            let s = q.from_mont(&q.mul(&kinv, &sum));
            if s.is_zero() {
                continue;
            }
            return Signature { r, s };
        }
    }

    /// Signs many raw messages at once (each hashed internally with
    /// SHA-256). See [`SigningKey::sign_prehashed_batch`].
    pub fn sign_batch(&self, messages: &[&[u8]]) -> Vec<Signature> {
        let hashes: Vec<Digest> = messages.iter().map(|m| digest(m)).collect();
        self.sign_prehashed_batch(&hashes)
    }

    /// Signs a batch of digests, amortizing the modular inversion.
    ///
    /// Produces signatures byte-identical to calling
    /// [`SigningKey::sign_prehashed`] per digest (nonces are the same
    /// RFC 6979 derivation), but computes all the `k^-1` values with one
    /// Fermat inversion via Montgomery's batch-inversion trick — 1
    /// inversion + 3(N-1) multiplications instead of N inversions. The
    /// per-signature point multiplication is unchanged, so the saving is
    /// the inversion share of the signing cost.
    pub fn sign_prehashed_batch(&self, hashes: &[Digest]) -> Vec<Signature> {
        let q = fq();
        let n = order();
        let dm = q.to_mont(&self.d);
        // Phase 1: per digest, derive the nonce and compute everything
        // except the inversion: k (Montgomery form), r, and
        // (e + r·d) in Montgomery form. The retry conditions mirror
        // `sign_prehashed` exactly: r == 0 retries the nonce, and
        // s == 0 ⇔ (e + r·d) == 0 (since k^-1 ≠ 0), so checking the sum
        // here is the same retry the sequential signer performs.
        let mut km = Vec::with_capacity(hashes.len());
        let mut sums = Vec::with_capacity(hashes.len());
        let mut rs = Vec::with_capacity(hashes.len());
        for hash in hashes {
            let e = hash_to_scalar(hash);
            let mut nonce_gen = Rfc6979::new(&self.d, hash);
            loop {
                let k = nonce_gen.next_nonce();
                let point = Point::generator().mul(&k);
                let (x, _) = point
                    .to_affine()
                    .expect("k in [1, n-1] never yields infinity");
                let r = x.reduce_once(&n);
                if r.is_zero() {
                    continue;
                }
                let rm = q.to_mont(&r);
                let em = q.to_mont(&e);
                let sum = q.add(&em, &q.mul(&rm, &dm));
                if sum.is_zero() {
                    continue;
                }
                km.push(q.to_mont(&k));
                sums.push(sum);
                rs.push(r);
                break;
            }
        }
        // Phase 2: batch-invert the nonces. prefix[i] = k_0·…·k_i; one
        // inversion of the total product, then peel inverses off the back.
        let mut prefix = Vec::with_capacity(km.len());
        let mut acc = q.one();
        for k in &km {
            acc = q.mul(&acc, k);
            prefix.push(acc);
        }
        let mut inv_acc = q.inv(&acc);
        let mut kinv = vec![U256::ZERO; km.len()];
        for i in (0..km.len()).rev() {
            if i == 0 {
                kinv[0] = inv_acc;
            } else {
                kinv[i] = q.mul(&inv_acc, &prefix[i - 1]);
                inv_acc = q.mul(&inv_acc, &km[i]);
            }
        }
        // Phase 3: s_i = k_i^-1 (e_i + r_i·d).
        (0..km.len())
            .map(|i| Signature {
                r: rs[i],
                s: q.from_mont(&q.mul(&kinv[i], &sums[i])),
            })
            .collect()
    }
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the private scalar.
        write!(f, "SigningKey({:?})", self.public)
    }
}

/// Converts a 32-byte hash to a scalar modulo `n` (FIPS 186-4 style
/// truncation followed by modular reduction).
fn hash_to_scalar(hash: &Digest) -> U256 {
    U256::from_be_bytes(hash).reduce_once(&order())
}

/// RFC 6979 deterministic nonce generator (HMAC-SHA256 based).
struct Rfc6979 {
    k: Digest,
    v: Digest,
}

impl Rfc6979 {
    fn new(private_scalar: &U256, hash: &Digest) -> Self {
        let x_bytes = private_scalar.to_be_bytes();
        // bits2octets: reduce the hash modulo n, then serialize.
        let h_reduced = U256::from_be_bytes(hash)
            .reduce_once(&order())
            .to_be_bytes();
        let mut k = [0u8; 32];
        let v = [0x01u8; 32];
        // K = HMAC_K(V || 0x00 || x || h).
        let mut mac = HmacSha256::new(&k);
        mac.update(&v);
        mac.update(&[0x00]);
        mac.update(&x_bytes);
        mac.update(&h_reduced);
        k = mac.finalize();
        // V = HMAC_K(V).
        let mut v = crate::hmac::hmac(&k, &v);
        // K = HMAC_K(V || 0x01 || x || h).
        let mut mac = HmacSha256::new(&k);
        mac.update(&v);
        mac.update(&[0x01]);
        mac.update(&x_bytes);
        mac.update(&h_reduced);
        k = mac.finalize();
        // V = HMAC_K(V).
        v = crate::hmac::hmac(&k, &v);
        Rfc6979 { k, v }
    }

    /// Produces the next candidate nonce in `[1, n-1]`.
    fn next_nonce(&mut self) -> U256 {
        let n = order();
        loop {
            self.v = crate::hmac::hmac(&self.k, &self.v);
            let candidate = U256::from_be_bytes(&self.v);
            if !candidate.is_zero() && candidate < n {
                return candidate;
            }
            let mut mac = HmacSha256::new(&self.k);
            mac.update(&self.v);
            mac.update(&[0x00]);
            self.k = mac.finalize();
            self.v = crate::hmac::hmac(&self.k, &self.v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sign_verify_round_trip() {
        let key = SigningKey::from_seed(b"test-key-1");
        let sig = key.sign(b"hello fabric");
        key.verifying_key().verify(b"hello fabric", &sig).unwrap();
    }

    #[test]
    fn batch_signing_matches_sequential() {
        let key = SigningKey::from_seed(b"batch-key");
        let messages: Vec<Vec<u8>> = (0..17u32)
            .map(|i| format!("payload-{i}").into_bytes())
            .collect();
        let refs: Vec<&[u8]> = messages.iter().map(|m| m.as_slice()).collect();
        let batch = key.sign_batch(&refs);
        assert_eq!(batch.len(), messages.len());
        for (message, sig) in messages.iter().zip(&batch) {
            // Byte-identical to the one-at-a-time signer (RFC 6979 nonces
            // are deterministic) and verifiable.
            assert_eq!(sig.to_bytes(), key.sign(message).to_bytes());
            key.verifying_key().verify(message, sig).unwrap();
        }
    }

    #[test]
    fn batch_signing_empty_and_single() {
        let key = SigningKey::from_seed(b"batch-key-2");
        assert!(key.sign_batch(&[]).is_empty());
        let batch = key.sign_batch(&[b"only".as_slice()]);
        assert_eq!(batch[0].to_bytes(), key.sign(b"only").to_bytes());
    }

    #[test]
    fn rfc6979_p256_sha256_sample_vector() {
        // RFC 6979 A.2.5: P-256, SHA-256, message "sample".
        let d = U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
            .unwrap();
        let key = SigningKey::from_scalar(d).unwrap();
        let sig = key.sign(b"sample");
        assert_eq!(
            sig.r.to_hex(),
            "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716"
        );
        assert_eq!(
            sig.s.to_hex(),
            "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8"
        );
        key.verifying_key().verify(b"sample", &sig).unwrap();
    }

    #[test]
    fn rfc6979_p256_sha256_test_vector() {
        // RFC 6979 A.2.5: P-256, SHA-256, message "test".
        let d = U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
            .unwrap();
        let key = SigningKey::from_scalar(d).unwrap();
        let sig = key.sign(b"test");
        assert_eq!(
            sig.r.to_hex(),
            "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367"
        );
        assert_eq!(
            sig.s.to_hex(),
            "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083"
        );
    }

    #[test]
    fn rfc6979_public_key_vector() {
        // RFC 6979 A.2.5 also lists the public key for the test scalar.
        let d = U256::from_hex("c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721")
            .unwrap();
        let key = SigningKey::from_scalar(d).unwrap();
        let sec1 = key.verifying_key().to_sec1();
        let x: String = sec1[1..33].iter().map(|b| format!("{b:02x}")).collect();
        let y: String = sec1[33..].iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            x,
            "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6"
        );
        assert_eq!(
            y,
            "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299"
        );
    }

    #[test]
    fn deterministic_signatures() {
        let key = SigningKey::from_seed(b"det");
        assert_eq!(key.sign(b"m").to_bytes(), key.sign(b"m").to_bytes());
        assert_ne!(key.sign(b"m").to_bytes(), key.sign(b"m2").to_bytes());
    }

    #[test]
    fn wrong_message_rejected() {
        let key = SigningKey::from_seed(b"k");
        let sig = key.sign(b"message");
        assert_eq!(
            key.verifying_key().verify(b"other", &sig),
            Err(Error::VerificationFailed)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let k1 = SigningKey::from_seed(b"k1");
        let k2 = SigningKey::from_seed(b"k2");
        let sig = k1.sign(b"msg");
        assert_eq!(
            k2.verifying_key().verify(b"msg", &sig),
            Err(Error::VerificationFailed)
        );
    }

    #[test]
    fn corrupted_signature_rejected() {
        let key = SigningKey::from_seed(b"k");
        let sig = key.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[5] ^= 0x40;
        match Signature::from_bytes(&bytes) {
            // Either the parse fails (out of range) or verification fails.
            Ok(bad) => assert!(key.verifying_key().verify(b"msg", &bad).is_err()),
            Err(e) => assert_eq!(e, Error::InvalidSignature),
        }
    }

    #[test]
    fn signature_encoding_round_trip() {
        let key = SigningKey::from_seed(b"enc");
        let sig = key.sign(b"data");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn zero_signature_rejected() {
        assert!(Signature::from_bytes(&[0u8; 64]).is_err());
        assert!(Signature::from_bytes(&[0u8; 63]).is_err());
        assert!(Signature::from_bytes(&[0xffu8; 64]).is_err());
    }

    #[test]
    fn invalid_private_scalars_rejected() {
        assert!(SigningKey::from_scalar(U256::ZERO).is_err());
        assert!(SigningKey::from_scalar(order()).is_err());
        assert!(SigningKey::from_scalar(U256::MAX).is_err());
        assert!(SigningKey::from_scalar(U256::ONE).is_ok());
    }

    #[test]
    fn generated_keys_work() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..4 {
            let key = SigningKey::generate(&mut rng);
            let sig = key.sign(b"random key test");
            key.verifying_key()
                .verify(b"random key test", &sig)
                .unwrap();
        }
    }

    #[test]
    fn public_key_sec1_round_trip() {
        let key = SigningKey::from_seed(b"sec1");
        let vk = key.verifying_key();
        let parsed = VerifyingKey::from_sec1(&vk.to_sec1()).unwrap();
        assert_eq!(&parsed, vk);
        let parsed_c = VerifyingKey::from_sec1(&vk.to_sec1_compressed()).unwrap();
        assert_eq!(&parsed_c, vk);
    }

    #[test]
    fn prehashed_matches_raw() {
        let key = SigningKey::from_seed(b"pre");
        let h = digest(b"payload");
        let sig = key.sign_prehashed(&h);
        assert_eq!(sig, key.sign(b"payload"));
        key.verifying_key().verify_prehashed(&h, &sig).unwrap();
    }
}
