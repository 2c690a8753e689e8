//! Append-only record framing with CRC-32 integrity.
//!
//! The block store, the state checkpoint, and the Merkle bucket file all
//! append their records framed as:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload bytes]
//! ```
//!
//! Replay stops cleanly at the first torn or corrupt record, which is
//! exactly the crash-recovery behaviour the ledger's savepoint logic
//! (paper Sec. 4.4) builds on: a crash mid-append loses only the
//! unacknowledged tail.

use crate::backend::BackendFile;
use crate::StoreError;

/// Slicing-by-8 lookup tables for IEEE CRC-32 (polynomial 0xEDB88320),
/// generated at compile time. `TABLES[0]` is the classic byte table; the
/// higher tables fold 8 input bytes per iteration, because every block
/// append and checkpoint record is checksummed and the bitwise form costs
/// ~8 shifts per byte.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Computes the IEEE CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// Appends one framed record, returning the offset it starts at.
pub fn append_record(file: &mut dyn BackendFile, payload: &[u8]) -> Result<u64, StoreError> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    file.append(&frame)
}

/// Reads every intact record from the start of the file.
///
/// Returns the payloads and the offset of the first byte *after* the last
/// intact record; a torn or corrupt tail is reported via that offset so the
/// caller can truncate it.
pub fn read_all(file: &mut dyn BackendFile) -> Result<(Vec<Vec<u8>>, u64), StoreError> {
    let total = file.len()?;
    let mut records = Vec::new();
    let mut offset: u64 = 0;
    loop {
        if offset + 8 > total {
            break;
        }
        let header = file.read_at(offset, 8)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if offset + 8 + len > total {
            break; // torn tail
        }
        let payload = file.read_at(offset + 8, len as usize)?;
        if crc32(&payload) != crc {
            break; // corrupt tail
        }
        records.push(payload);
        offset += 8 + len;
    }
    Ok((records, offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, MemBackend};

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_read_back() {
        let backend = MemBackend::new();
        let mut f = backend.open("log").unwrap();
        append_record(f.as_mut(), b"one").unwrap();
        append_record(f.as_mut(), b"two").unwrap();
        append_record(f.as_mut(), b"").unwrap();
        let (records, end) = read_all(f.as_mut()).unwrap();
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec(), vec![]]);
        assert_eq!(end, f.len().unwrap());
    }

    #[test]
    fn torn_tail_ignored() {
        let backend = MemBackend::new();
        let mut f = backend.open("log").unwrap();
        append_record(f.as_mut(), b"complete").unwrap();
        let good_end = f.len().unwrap();
        // Simulate a crash mid-append: header promising more than exists.
        f.append(&20u32.to_le_bytes()).unwrap();
        f.append(&0u32.to_le_bytes()).unwrap();
        f.append(b"shor").unwrap();
        let (records, end) = read_all(f.as_mut()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(end, good_end);
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let backend = MemBackend::new();
        let mut f = backend.open("log").unwrap();
        append_record(f.as_mut(), b"first").unwrap();
        let good_end = f.len().unwrap();
        // A record with a bad checksum.
        f.append(&5u32.to_le_bytes()).unwrap();
        f.append(&0xdeadbeefu32.to_le_bytes()).unwrap();
        f.append(b"xxxxx").unwrap();
        // And a good one after it, which must NOT be reached.
        append_record(f.as_mut(), b"after-corruption").unwrap();
        let (records, end) = read_all(f.as_mut()).unwrap();
        assert_eq!(records, vec![b"first".to_vec()]);
        assert_eq!(end, good_end);
    }

    #[test]
    fn empty_log() {
        let backend = MemBackend::new();
        let mut f = backend.open("log").unwrap();
        let (records, end) = read_all(f.as_mut()).unwrap();
        assert!(records.is_empty());
        assert_eq!(end, 0);
    }
}
