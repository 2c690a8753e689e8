//! Raft RPC messages and log entries.

/// Identifier of a Raft node within its cluster.
pub type NodeId = u64;

/// One replicated log entry: the term it was proposed in and an opaque
/// payload (the ordering service stores serialized envelopes here).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Term in which the leader appended this entry.
    pub term: u64,
    /// Opaque command payload.
    pub data: Vec<u8>,
}

/// Raft protocol messages (Ongaro & Ousterhout, "In Search of an
/// Understandable Consensus Algorithm", §5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Reply to `RequestVote`.
    RequestVoteResponse {
        /// Responder's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries (empty = heartbeat).
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry immediately preceding `entries`.
        prev_log_index: u64,
        /// Term of that preceding entry.
        prev_log_term: u64,
        /// Entries to append.
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: u64,
        /// Leader's compaction floor: committed, and matched by every
        /// peer, so no node ever needs an entry at or below it resent
        /// (see [`crate::RaftNode::compact`]).
        floor: u64,
    },
    /// Reply to `AppendEntries`.
    AppendEntriesResponse {
        /// Responder's current term.
        term: u64,
        /// Whether the append was consistent and applied.
        success: bool,
        /// Highest log index known replicated at the responder (valid when
        /// `success`); hint for next retry otherwise.
        match_index: u64,
    },
}

impl Message {
    /// The term carried by the message.
    pub fn term(&self) -> u64 {
        match self {
            Message::RequestVote { term, .. }
            | Message::RequestVoteResponse { term, .. }
            | Message::AppendEntries { term, .. }
            | Message::AppendEntriesResponse { term, .. } => *term,
        }
    }
}

/// Events a [`crate::RaftNode`] asks its driver to act on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Send `message` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        message: Message,
    },
    /// The entry at `index` is committed; apply `data` to the state machine.
    Committed {
        /// Log index (1-based).
        index: u64,
        /// Entry payload.
        data: Vec<u8>,
    },
    /// This node won an election.
    BecameLeader,
    /// This node stepped down from leadership.
    SteppedDown,
}
