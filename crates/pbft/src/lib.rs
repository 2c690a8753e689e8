//! # fabric-pbft
//!
//! A PBFT-style Byzantine-fault-tolerant atomic broadcast, standing in for
//! the BFT-SMaRt proof-of-concept ordering service the paper references
//! (Sec. 3.5, 4.2, reference 53). With `n = 3f + 1` replicas it tolerates up to
//! `f` Byzantine ordering nodes.
//!
//! The implementation follows Castro & Liskov's three-phase commit pattern
//! — pre-prepare / prepare / commit with quorums of `2f + 1` — plus a
//! simplified view change that carries prepared certificates forward and
//! fills sequence gaps with no-ops. Like the Raft crate, the node is a pure
//! deterministic state machine driven by `tick`/`step`, making Byzantine
//! behaviours injectable in tests.
//!
//! ## Simplifications (documented scope)
//!
//! * Point-to-point channels are assumed authenticated (the deployment
//!   layer runs PBFT among identified OSNs over authenticated transports;
//!   original PBFT uses MACs the same way). View-change messages carry
//!   prepared certificates by value rather than signed proofs, so a
//!   Byzantine *primary* can be displaced but a Byzantine replica forging
//!   view-change contents is outside the tested model.
//! * No checkpoint/garbage-collection protocol: the in-memory log grows for
//!   the lifetime of a run, which is adequate for benchmarks and tests.

pub mod node;

pub use node::{
    decode_batch, encode_batch, Output, PbftConfig, PbftMessage, PbftNode, ProposeError,
};

/// Identifier of a PBFT replica (0-based; view `v` is led by `v mod n`).
pub type ReplicaId = u64;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Deterministic in-memory PBFT cluster harness.
    struct Cluster {
        nodes: Vec<PbftNode>,
        network: VecDeque<(ReplicaId, ReplicaId, PbftMessage)>,
        delivered: Vec<Vec<(u64, Vec<u8>)>>,
        /// Replica ids that are crashed (drop all their traffic).
        down: Vec<ReplicaId>,
    }

    impl Cluster {
        fn new(n: usize) -> Self {
            Self::new_with(n, PbftConfig::default())
        }

        fn new_with(n: usize, config: PbftConfig) -> Self {
            Cluster {
                nodes: (0..n as u64)
                    .map(|id| PbftNode::new(id, n, config))
                    .collect(),
                network: VecDeque::new(),
                delivered: vec![Vec::new(); n],
                down: Vec::new(),
            }
        }

        fn absorb(&mut self, from: ReplicaId, outputs: Vec<Output>) {
            for output in outputs {
                match output {
                    Output::Send { to, message } => {
                        self.network.push_back((from, to, message));
                    }
                    Output::Delivered { seq, data } => {
                        if !data.is_empty() {
                            self.delivered[from as usize].push((seq, data));
                        }
                    }
                }
            }
        }

        fn drain(&mut self) {
            let mut budget = 200_000;
            while let Some((from, to, msg)) = self.network.pop_front() {
                budget -= 1;
                assert!(budget > 0, "network did not quiesce");
                if self.down.contains(&from) || self.down.contains(&to) {
                    continue;
                }
                let outputs = self.nodes[to as usize].step(from, msg);
                self.absorb(to, outputs);
            }
        }

        fn tick(&mut self) {
            for i in 0..self.nodes.len() {
                if self.down.contains(&(i as u64)) {
                    continue;
                }
                let outputs = self.nodes[i].tick();
                self.absorb(i as u64, outputs);
            }
            self.drain();
        }

        fn propose_at_primary(&mut self, data: Vec<u8>) {
            // Find the live node that currently believes it is primary.
            let primary = (0..self.nodes.len() as u64)
                .find(|&i| !self.down.contains(&i) && self.nodes[i as usize].is_primary())
                .expect("a live primary");
            let outputs = self.nodes[primary as usize]
                .propose(data)
                .expect("primary accepts");
            self.absorb(primary, outputs);
            self.drain();
        }

        fn assert_agreement(&self) {
            let longest = self
                .delivered
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.down.contains(&(*i as u64)))
                .map(|(_, d)| d)
                .max_by_key(|d| d.len())
                .unwrap();
            for (i, delivered) in self.delivered.iter().enumerate() {
                if self.down.contains(&(i as u64)) {
                    continue;
                }
                for (pos, entry) in delivered.iter().enumerate() {
                    assert_eq!(entry, &longest[pos], "replica {i} diverges at {pos}");
                }
            }
        }
    }

    #[test]
    fn normal_case_delivery() {
        let mut cluster = Cluster::new(4);
        for i in 0..5u8 {
            cluster.propose_at_primary(vec![i]);
        }
        cluster.assert_agreement();
        for d in &cluster.delivered {
            assert_eq!(d.len(), 5, "all replicas deliver all requests");
            let seqs: Vec<u64> = d.iter().map(|(s, _)| *s).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "in-order delivery");
        }
    }

    #[test]
    fn tolerates_f_silent_replicas() {
        let mut cluster = Cluster::new(4);
        cluster.down = vec![3]; // f = 1 replica silent (not the primary)
        for i in 0..5u8 {
            cluster.propose_at_primary(vec![i]);
        }
        cluster.assert_agreement();
        for (i, d) in cluster.delivered.iter().enumerate() {
            if i != 3 {
                assert_eq!(d.len(), 5);
            }
        }
    }

    #[test]
    fn view_change_on_primary_failure() {
        let mut cluster = Cluster::new(4);
        cluster.propose_at_primary(vec![1]);
        // Kill the primary (replica 0 in view 0).
        cluster.down = vec![0];
        // Replicas notice the missing primary via request timeout: inject a
        // pending request at a backup, which forwards to the (dead)
        // primary and eventually triggers a view change.
        let outputs = cluster.nodes[1].on_request(vec![2]);
        cluster.absorb(1, outputs);
        cluster.drain();
        for _ in 0..100 {
            cluster.tick();
            if cluster.delivered[1].iter().any(|(_, d)| d == &vec![2]) {
                break;
            }
        }
        cluster.assert_agreement();
        for i in [1usize, 2, 3] {
            assert!(
                cluster.delivered[i].iter().any(|(_, d)| d == &vec![2]),
                "replica {i} delivered the request after view change"
            );
            assert!(cluster.nodes[i].view() > 0, "replica {i} moved past view 0");
        }
    }

    #[test]
    fn committed_request_survives_view_change() {
        let mut cluster = Cluster::new(4);
        cluster.propose_at_primary(vec![1]);
        cluster.down = vec![0];
        let outputs = cluster.nodes[2].on_request(vec![2]);
        cluster.absorb(2, outputs);
        cluster.drain();
        for _ in 0..100 {
            cluster.tick();
            if cluster.delivered[2].iter().any(|(_, d)| d == &vec![2]) {
                break;
            }
        }
        cluster.assert_agreement();
        let d1 = &cluster.delivered[1];
        assert!(d1.iter().any(|(_, d)| d == &vec![1]));
        assert!(d1.iter().any(|(_, d)| d == &vec![2]));
    }

    #[test]
    fn seven_replicas_tolerate_two_faults() {
        let mut cluster = Cluster::new(7); // f = 2
        cluster.down = vec![5, 6];
        for i in 0..4u8 {
            cluster.propose_at_primary(vec![i]);
        }
        cluster.assert_agreement();
        for i in 0..5usize {
            assert_eq!(cluster.delivered[i].len(), 4);
        }
    }

    #[test]
    fn non_primary_rejects_proposals() {
        let mut cluster = Cluster::new(4);
        assert!(cluster.nodes[1].propose(vec![9]).is_err());
        assert!(cluster.nodes[0].propose(vec![9]).is_ok());
    }

    #[test]
    fn batch_frame_roundtrip() {
        let payloads = vec![b"alpha".to_vec(), Vec::new(), b"b".to_vec()];
        let frame = encode_batch(&payloads);
        assert_eq!(decode_batch(&frame), Some(payloads));
        assert_eq!(decode_batch(&encode_batch(&[])), Some(Vec::new()));
        // Not a frame: wrong marker.
        assert_eq!(decode_batch(b"not a frame"), None);
        // Truncated and trailing-garbage frames are rejected.
        let frame = encode_batch(&[b"x".to_vec()]);
        assert_eq!(decode_batch(&frame[..frame.len() - 1]), None);
        let mut padded = frame.clone();
        padded.push(0);
        assert_eq!(decode_batch(&padded), None);
    }

    #[test]
    fn backlogged_requests_coalesce_into_batches() {
        // One in-flight slot: the first request seals alone; the rest
        // must queue and seal as a single batch once slot 1 delivers.
        let config = PbftConfig {
            max_inflight: 1,
            ..PbftConfig::default()
        };
        let mut cluster = Cluster::new_with(4, config);
        for i in 0..5u8 {
            let outputs = cluster.nodes[0].on_request(vec![i]);
            cluster.absorb(0, outputs);
        }
        cluster.drain();
        cluster.assert_agreement();
        for (i, d) in cluster.delivered.iter().enumerate() {
            let data: Vec<&Vec<u8>> = d.iter().map(|(_, p)| p).collect();
            assert_eq!(
                data,
                (0..5u8)
                    .map(|i| vec![i])
                    .collect::<Vec<_>>()
                    .iter()
                    .collect::<Vec<_>>(),
                "replica {i} delivers every payload once, in intake order"
            );
        }
        let (batches, payloads) = cluster.nodes[0].batch_stats();
        assert_eq!(payloads, 5);
        assert_eq!(batches, 2, "backlog coalesced into one follow-up batch");
    }

    #[test]
    fn partially_replicated_batch_survives_view_change_exactly_once() {
        // The primary seals a batch of three but its pre-prepare reaches
        // only replica 1 before the primary dies. After the view change,
        // every payload must deliver exactly once on every live replica:
        // none lost, none committed twice (the re-proposed batch and any
        // carried-over state overlap is resolved by delivery-time dedup).
        let mut cluster = Cluster::new(4);
        let batch: Vec<Vec<u8>> = (10..13u8).map(|i| vec![i]).collect();
        let frame = encode_batch(&batch);
        let pre = PbftMessage::PrePrepare {
            view: 0,
            seq: 1,
            digest: fabric_crypto::digest(&frame),
            payload: frame,
        };
        let outputs = cluster.nodes[1].step(0, pre);
        cluster.absorb(1, outputs);
        cluster.down = vec![0];
        cluster.drain();
        // Clients re-submit at a live backup; timers expire; view changes.
        for payload in &batch {
            let outputs = cluster.nodes[2].on_request(payload.clone());
            cluster.absorb(2, outputs);
        }
        cluster.drain();
        for _ in 0..100 {
            cluster.tick();
            if cluster.delivered[1].len() >= batch.len()
                && cluster.delivered[2].len() >= batch.len()
                && cluster.delivered[3].len() >= batch.len()
            {
                break;
            }
        }
        cluster.assert_agreement();
        for i in [1usize, 2, 3] {
            let data: Vec<&Vec<u8>> = cluster.delivered[i].iter().map(|(_, p)| p).collect();
            for payload in &batch {
                assert_eq!(
                    data.iter().filter(|p| **p == payload).count(),
                    1,
                    "replica {i}: payload {payload:?} must deliver exactly once"
                );
            }
        }
    }

    #[test]
    fn conflicting_preprepare_from_byzantine_primary_is_isolated() {
        // A Byzantine primary equivocates: sends different payloads for the
        // same (view, seq) to different replicas. Quorum intersection must
        // prevent both from committing.
        let mut cluster = Cluster::new(4);
        let a = PbftMessage::PrePrepare {
            view: 0,
            seq: 1,
            digest: fabric_crypto::digest(b"A"),
            payload: b"A".to_vec(),
        };
        let b = PbftMessage::PrePrepare {
            view: 0,
            seq: 1,
            digest: fabric_crypto::digest(b"B"),
            payload: b"B".to_vec(),
        };
        // Replica 1 and 2 get A; replica 3 gets B.
        let o = cluster.nodes[1].step(0, a.clone());
        cluster.absorb(1, o);
        let o = cluster.nodes[2].step(0, a);
        cluster.absorb(2, o);
        let o = cluster.nodes[3].step(0, b);
        cluster.absorb(3, o);
        cluster.drain();
        // At most one of the values may be delivered anywhere, and whatever
        // is delivered must agree across replicas.
        cluster.assert_agreement();
        let all: Vec<&(u64, Vec<u8>)> = cluster.delivered.iter().flatten().collect();
        let delivered_a = all.iter().any(|(_, d)| d == b"A");
        let delivered_b = all.iter().any(|(_, d)| d == b"B");
        assert!(
            !(delivered_a && delivered_b),
            "equivocation must not commit both values"
        );
    }
}
