//! The benchmark-owned KV chaincode of `kv-mixed`: fixed-size values
//! whose first eight bytes count the valid rewrites of the key.

use fabric::chaincode::Stub;

use crate::config::{KV_KEYS, KV_VALUE_LEN};

/// Chaincode name and state namespace.
pub const KV_NAMESPACE: &str = "kvbench";

/// Zipfian rank -> key id, a bijection on `0..KV_KEYS` that scatters the
/// hot ranks over the key space (7919 is coprime to `KV_KEYS`).
pub fn key_id(rank: u64) -> u32 {
    ((rank * 7919 + 4099) % KV_KEYS) as u32
}

pub fn key_name(id: u32) -> String {
    format!("k{id:07}")
}

/// The value of key `id` after `counter` valid rewrites.
pub fn value(id: u32, counter: u64) -> Vec<u8> {
    let mut v = vec![id as u8; KV_VALUE_LEN];
    v[..8].copy_from_slice(&counter.to_le_bytes());
    v[8..12].copy_from_slice(&id.to_le_bytes());
    v
}

/// Splits a value into `(counter, key id)`; `None` if it is not one of
/// ours.
pub fn parse_value(raw: &[u8]) -> Option<(u64, u32)> {
    if raw.len() != KV_VALUE_LEN {
        return None;
    }
    let counter = u64::from_le_bytes(raw[..8].try_into().ok()?);
    let id = u32::from_le_bytes(raw[8..12].try_into().ok()?);
    Some((counter, id))
}

fn arg_u32(stub: &Stub<'_>, i: usize) -> Result<u32, String> {
    stub.arg_string(i)?
        .parse()
        .map_err(|_| format!("argument {i} is not a number"))
}

/// * `load(first, count)` — writes keys `first..first+count` with
///   counter 0 (pre-load).
/// * `rw(writes, key...)` — reads every key, then rewrites the last
///   `writes` of them with their counter plus one.
/// * `get(key)` — read-only query.
pub fn kv_chaincode(stub: &mut Stub<'_>) -> Result<Vec<u8>, String> {
    match stub.function() {
        "load" => {
            let first = arg_u32(stub, 0)?;
            let count = arg_u32(stub, 1)?;
            for id in first..first + count {
                stub.put_state(&key_name(id), value(id, 0));
            }
            Ok(vec![])
        }
        "rw" => {
            let writes = arg_u32(stub, 0)? as usize;
            let keys: Vec<String> = (1..stub.args().len())
                .map(|i| stub.arg_string(i))
                .collect::<Result<_, _>>()?;
            if writes > keys.len() {
                return Err("more writes than keys".into());
            }
            let first_write = keys.len() - writes;
            for (i, key) in keys.iter().enumerate() {
                let raw = stub
                    .get_state(key)?
                    .ok_or_else(|| format!("{key} not loaded"))?;
                if i >= first_write {
                    let (counter, id) =
                        parse_value(&raw).ok_or_else(|| format!("{key} holds a foreign value"))?;
                    stub.put_state(key, value(id, counter + 1));
                }
            }
            Ok(vec![])
        }
        "get" => {
            let key = stub.arg_string(0)?;
            stub.get_state(&key)?
                .ok_or_else(|| format!("{key} not loaded"))
        }
        other => Err(format!("unknown function {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_ids_are_a_bijection() {
        let mut seen = vec![false; KV_KEYS as usize];
        for rank in 0..KV_KEYS {
            let id = key_id(rank) as usize;
            assert!(!seen[id], "rank {rank} collides");
            seen[id] = true;
        }
    }

    #[test]
    fn values_round_trip() {
        let v = value(4711, 9);
        assert_eq!(v.len(), KV_VALUE_LEN);
        assert_eq!(parse_value(&v), Some((9, 4711)));
        assert_eq!(parse_value(&v[1..]), None);
    }
}
