//! # fabric-raft
//!
//! A from-scratch Raft consensus implementation (Ongaro & Ousterhout),
//! serving as the crash-fault-tolerant replicated log behind the ordering
//! service — the role Apache Kafka + ZooKeeper play in the paper (Sec. 4.2).
//! Production Fabric later replaced Kafka with exactly this substitution
//! (etcd-raft), which is why a Raft log is the faithful CFT stand-in.
//!
//! The implementation is a pure state machine ([`RaftNode`]): drivers feed
//! ticks and messages, and execute the returned [`Output`]s. This keeps the
//! protocol deterministic and testable under seeded fault injection (see
//! [`cluster::Cluster`]) and lets the same code run threaded or inside the
//! discrete-event simulator.
//!
//! Scope notes: leadership transfer and membership change are not
//! implemented — the ordering service uses a static OSN cluster per
//! channel and persists delivered blocks itself, so the Raft log is a
//! transport, not the system of record. Log growth is bounded by
//! *floor-anchored compaction* ([`RaftNode::compact`]): the ordering
//! service compacts every node each tick to the entries it has applied,
//! but never past a floor the leader advertises in `AppendEntries` — an
//! index committed and matched by every peer — so no node ever needs a
//! discarded entry from any future leader (which is why no
//! InstallSnapshot RPC is required).

pub mod cluster;
pub mod message;
pub mod node;

pub use cluster::{Cluster, Fate, InFlight};
pub use message::{LogEntry, Message, NodeId, Output};
pub use node::{ProposeError, RaftConfig, RaftNode, ReplicationMode, Role};
