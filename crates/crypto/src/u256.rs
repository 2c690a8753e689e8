//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is the limb-level substrate for the modular arithmetic in
//! [`crate::field`] and ultimately for the P-256 ECDSA implementation. It is
//! stored as four little-endian `u64` limbs and provides exactly the
//! operations the cryptographic layers need: carry-propagating add/sub,
//! widening multiplication, comparisons, shifts, and byte/hex conversions.

use core::cmp::Ordering;

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
///
/// `limbs[0]` is the least significant limb. All arithmetic is plain
/// fixed-width integer arithmetic; modular semantics live in
/// [`crate::field`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value one.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a `U256` from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Parses a big-endian hex string (with or without a `0x` prefix).
    ///
    /// Returns `None` if the string is empty, longer than 64 hex digits, or
    /// contains a non-hex character.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        // Left-pad the hex string to 64 nibbles.
        let mut nibbles = [0u8; 64];
        let offset = 64 - s.len();
        for (i, c) in s.bytes().enumerate() {
            nibbles[offset + i] = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return None,
            };
        }
        for i in 0..32 {
            bytes[i] = (nibbles[2 * i] << 4) | nibbles[2 * i + 1];
        }
        Some(Self::from_be_bytes(&bytes))
    }

    /// Renders the value as a 64-digit lowercase big-endian hex string.
    pub fn to_hex(&self) -> String {
        let bytes = self.to_be_bytes();
        let mut s = String::with_capacity(64);
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Interprets 32 big-endian bytes as a `U256`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut limb = [0u8; 8];
            limb.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            limbs[3 - i] = u64::from_be_bytes(limb);
        }
        U256(limbs)
    }

    /// Serializes the value as 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[3 - i].to_be_bytes());
        }
        out
    }

    /// Adds `other`, returning the wrapped sum and the carry-out bit.
    pub fn adc(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (o, (s, r)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            let sum = *s as u128 + *r as u128 + carry as u128;
            *o = sum as u64;
            carry = (sum >> 64) as u64;
        }
        (U256(out), carry != 0)
    }

    /// Subtracts `other`, returning the wrapped difference and the borrow bit.
    pub fn sbb(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (o, (s, r)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            let (d1, b1) = s.overflowing_sub(*r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 | b2) as u64;
        }
        (U256(out), borrow != 0)
    }

    /// Computes the full 512-bit product, returned as `(low, high)` halves.
    pub fn mul_wide(&self, other: &U256) -> (U256, U256) {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc = t[i + j] as u128 + self.0[i] as u128 * other.0[j] as u128 + carry;
                t[i + j] = acc as u64;
                carry = acc >> 64;
            }
            t[i + 4] = carry as u64;
        }
        (
            U256([t[0], t[1], t[2], t[3]]),
            U256([t[4], t[5], t[6], t[7]]),
        )
    }

    /// Returns bit `i` (0 = least significant). Bits at or above 256 are zero.
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the number of significant bits (`0` for zero).
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Shifts left by one bit, discarding the carry-out.
    pub fn shl1(&self) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (o, s) in out.iter_mut().zip(&self.0) {
            *o = (s << 1) | carry;
            carry = s >> 63;
        }
        U256(out)
    }

    /// Shifts right by one bit.
    pub fn shr1(&self) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in (0..4).rev() {
            out[i] = (self.0[i] >> 1) | (carry << 63);
            carry = self.0[i] & 1;
        }
        U256(out)
    }

    /// Modular addition: `(self + other) mod m`.
    ///
    /// Both operands must already be reduced modulo `m`.
    pub fn add_mod(&self, other: &U256, m: &U256) -> U256 {
        let (sum, carry) = self.adc(other);
        // If the 257-bit sum overflowed or reached `m`, subtract `m` once.
        if carry || sum.cmp(m) != Ordering::Less {
            sum.sbb(m).0
        } else {
            sum
        }
    }

    /// Modular subtraction: `(self - other) mod m`.
    ///
    /// Both operands must already be reduced modulo `m`.
    pub fn sub_mod(&self, other: &U256, m: &U256) -> U256 {
        let (diff, borrow) = self.sbb(other);
        if borrow {
            diff.adc(m).0
        } else {
            diff
        }
    }

    /// Reduces an arbitrary `U256` modulo `m` by conditional subtraction.
    ///
    /// Intended for values at most a few multiples of `m` (e.g. hash outputs
    /// reduced modulo a 256-bit prime); runs in a short loop.
    pub fn reduce_once(&self, m: &U256) -> U256 {
        let mut v = *self;
        while v.cmp(m) != Ordering::Less {
            v = v.sbb(m).0;
        }
        v
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl core::fmt::Debug for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let v = U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
            .unwrap();
        assert_eq!(
            v.to_hex(),
            "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"
        );
    }

    #[test]
    fn hex_prefix_and_short() {
        assert_eq!(U256::from_hex("0x10").unwrap(), U256::from_u64(16));
        assert_eq!(U256::from_hex("f").unwrap(), U256::from_u64(15));
        assert!(U256::from_hex("").is_none());
        assert!(U256::from_hex("xyz").is_none());
        assert!(U256::from_hex(&"f".repeat(65)).is_none());
    }

    #[test]
    fn bytes_round_trip() {
        let v = U256::from_hex("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
            .unwrap();
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn add_with_carry() {
        let (sum, carry) = U256::MAX.adc(&U256::ONE);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
        let (sum, carry) = U256::from_u64(2).adc(&U256::from_u64(3));
        assert!(!carry);
        assert_eq!(sum, U256::from_u64(5));
    }

    #[test]
    fn sub_with_borrow() {
        let (diff, borrow) = U256::ZERO.sbb(&U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256::MAX);
        let (diff, borrow) = U256::from_u64(5).sbb(&U256::from_u64(3));
        assert!(!borrow);
        assert_eq!(diff, U256::from_u64(2));
    }

    #[test]
    fn mul_wide_small() {
        let (lo, hi) = U256::from_u64(u64::MAX).mul_wide(&U256::from_u64(u64::MAX));
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1.
        assert_eq!(lo, U256([1, u64::MAX - 1, 0, 0]));
        assert_eq!(hi, U256::ZERO);
    }

    #[test]
    fn mul_wide_max() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1.
        let (lo, hi) = U256::MAX.mul_wide(&U256::MAX);
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256([u64::MAX - 1, u64::MAX, u64::MAX, u64::MAX]));
    }

    #[test]
    fn bit_access() {
        let v = U256::from_u64(0b1010);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(256));
        assert!(!v.bit(1000));
    }

    #[test]
    fn bit_length() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::from_u64(0x80).bits(), 8);
        assert_eq!(U256::MAX.bits(), 256);
        assert_eq!(U256([0, 1, 0, 0]).bits(), 65);
    }

    #[test]
    fn shifts() {
        let v = U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001")
            .unwrap();
        assert_eq!(v.shl1(), U256::from_u64(2));
        let w = v.shr1();
        assert_eq!(
            w.to_hex(),
            "4000000000000000000000000000000000000000000000000000000000000000"
        );
    }

    #[test]
    fn modular_add_sub() {
        let m = U256::from_u64(97);
        let a = U256::from_u64(90);
        let b = U256::from_u64(20);
        assert_eq!(a.add_mod(&b, &m), U256::from_u64(13));
        assert_eq!(b.sub_mod(&a, &m), U256::from_u64(27));
        assert_eq!(a.sub_mod(&b, &m), U256::from_u64(70));
    }

    #[test]
    fn modular_add_near_overflow() {
        // m just above 2^255: adding two reduced values can overflow 256 bits.
        let m = U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001")
            .unwrap();
        let a = m.sbb(&U256::ONE).0; // m - 1
        let sum = a.add_mod(&a, &m); // 2m - 2 mod m = m - 2
        assert_eq!(sum, m.sbb(&U256::from_u64(2)).0);
    }

    #[test]
    fn reduce_once_multiples() {
        let m = U256::from_u64(100);
        assert_eq!(U256::from_u64(250).reduce_once(&m), U256::from_u64(50));
        assert_eq!(U256::from_u64(99).reduce_once(&m), U256::from_u64(99));
    }

    #[test]
    fn ordering() {
        let a = U256([0, 0, 0, 1]);
        let b = U256([u64::MAX, u64::MAX, u64::MAX, 0]);
        assert!(a > b);
        assert!(b < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}
