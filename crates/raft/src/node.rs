//! The Raft consensus state machine.
//!
//! A [`RaftNode`] is a pure, deterministic state machine: the driver feeds
//! it clock ticks ([`RaftNode::tick`]) and messages ([`RaftNode::step`]) and
//! executes the [`Output`]s it returns. Determinism (given the seed) makes
//! whole-cluster behaviour reproducible in tests and in the discrete-event
//! simulator.
//!
//! Log indices are 1-based; index 0 is the empty-log sentinel.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::message::{LogEntry, Message, NodeId, Output};

/// A node's current role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// Cluster leader.
    Leader,
}

/// Errors returned by [`RaftNode::propose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProposeError {
    /// Only the leader accepts proposals; retry at the hinted leader.
    NotLeader(Option<NodeId>),
}

/// How the leader replicates its log to followers.
///
/// `Lockstep` is the original one-append-in-flight path: the leader sends
/// one `AppendEntries` per follower and waits for the ack before shipping
/// the next batch, resending from `next_index` on every propose/heartbeat.
/// It is kept verbatim as the equivalence oracle for the pipelined path.
///
/// `Pipelined` keeps up to [`RaftConfig::max_inflight`] batched appends in
/// flight per follower before any ack returns. The leader tracks each
/// unacked `(prev, last)` window; a failure ack or a stalled window
/// triggers go-back-N retransmission from the acked frontier. Assumes the
/// transport preserves per-connection FIFO order (both the in-memory
/// cluster and the simnet do); reordering only costs duplicate
/// retransmissions, never safety.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// One append in flight per follower (the pre-pipelining baseline).
    Lockstep,
    /// Windowed, batched appends in flight before acks return.
    #[default]
    Pipelined,
}

/// Tunable timing, in ticks (the driver defines the tick length).
#[derive(Clone, Copy, Debug)]
pub struct RaftConfig {
    /// Minimum election timeout.
    pub election_timeout_min: u64,
    /// Maximum election timeout (randomized per node and per election).
    pub election_timeout_max: u64,
    /// Leader heartbeat interval.
    pub heartbeat_interval: u64,
    /// Maximum entries shipped in one `AppendEntries`.
    pub max_batch: usize,
    /// Replication strategy (see [`ReplicationMode`]).
    pub mode: ReplicationMode,
    /// Maximum unacked `AppendEntries` per follower (`Pipelined` only).
    pub max_inflight: usize,
    /// Heartbeat intervals without ack progress on a non-empty in-flight
    /// window before the leader assumes loss and retransmits from the
    /// acked frontier (`Pipelined` only). Failure acks retransmit
    /// immediately; this is the fallback for lost acks.
    pub retransmit_beats: u64,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout_min: 10,
            election_timeout_max: 20,
            heartbeat_interval: 3,
            max_batch: 512,
            mode: ReplicationMode::Pipelined,
            max_inflight: 8,
            retransmit_beats: 2,
        }
    }
}

/// A single Raft participant.
pub struct RaftNode {
    id: NodeId,
    peers: Vec<NodeId>,
    config: RaftConfig,
    rng: StdRng,

    // Persistent state (exposed via `hard_state` for drivers that persist).
    term: u64,
    voted_for: Option<NodeId>,
    log: Vec<LogEntry>,
    /// Entries `1..=log_offset` have been compacted away; `log[0]` is the
    /// entry at index `log_offset + 1`.
    log_offset: u64,
    /// Term of the entry at `log_offset` (the compaction boundary), needed
    /// for consistency checks that reference it.
    snapshot_term: u64,
    /// Highest compaction floor a leader has advertised to this node.
    floor: u64,

    // Volatile state.
    role: Role,
    commit_index: u64,
    last_applied: u64,
    leader_hint: Option<NodeId>,
    ticks_since_activity: u64,
    election_deadline: u64,
    votes: HashSet<NodeId>,

    // Leader state.
    next_index: HashMap<NodeId, u64>,
    match_index: HashMap<NodeId, u64>,
    ticks_since_heartbeat: u64,

    // Pipelined-replication leader state. `inflight[peer]` holds the
    // unacked `(prev, last)` index windows in send order; `pipeline_next`
    // is the optimistic send frontier (>= `next_index`, which only
    // advances on acks); `stalled_beats` counts heartbeats without ack
    // progress while the window is non-empty.
    inflight: HashMap<NodeId, VecDeque<(u64, u64)>>,
    pipeline_next: HashMap<NodeId, u64>,
    stalled_beats: HashMap<NodeId, u64>,
}

impl RaftNode {
    /// Creates a node. `peers` lists the *other* cluster members; `seed`
    /// drives election-timeout randomization.
    pub fn new(id: NodeId, peers: Vec<NodeId>, config: RaftConfig, seed: u64) -> Self {
        let mut node = RaftNode {
            id,
            peers,
            config,
            rng: StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            term: 0,
            voted_for: None,
            log: Vec::new(),
            log_offset: 0,
            snapshot_term: 0,
            floor: 0,
            role: Role::Follower,
            commit_index: 0,
            last_applied: 0,
            leader_hint: None,
            ticks_since_activity: 0,
            election_deadline: 0,
            votes: HashSet::new(),
            next_index: HashMap::new(),
            match_index: HashMap::new(),
            ticks_since_heartbeat: 0,
            inflight: HashMap::new(),
            pipeline_next: HashMap::new(),
            stalled_beats: HashMap::new(),
        };
        node.reset_election_deadline();
        node
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Highest committed log index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Last known leader, if any.
    pub fn leader_hint(&self) -> Option<NodeId> {
        if self.role == Role::Leader {
            Some(self.id)
        } else {
            self.leader_hint
        }
    }

    /// Total log length (compacted prefix included).
    pub fn log_len(&self) -> u64 {
        self.log_offset + self.log.len() as u64
    }

    /// Number of entries retained in memory (after compaction).
    pub fn retained_len(&self) -> u64 {
        self.log.len() as u64
    }

    /// Highest compacted index; entries at or below it are gone.
    pub fn log_offset(&self) -> u64 {
        self.log_offset
    }

    /// Reads a log entry by 1-based index; `None` for out-of-range *and*
    /// compacted indices.
    pub fn entry(&self, index: u64) -> Option<&LogEntry> {
        if index <= self.log_offset {
            return None;
        }
        self.log.get((index - self.log_offset) as usize - 1)
    }

    /// The compaction floor: an index that is committed and that every
    /// peer has matched, so no node — whoever leads later — will ever
    /// need an entry at or below it resent. A leader derives it from
    /// `commit_index` and the slowest peer's `match_index` and advertises
    /// it in every `AppendEntries`; any node keeps the highest floor
    /// advertised to it. A peer that stops acking (crashed, partitioned)
    /// pins the floor where it stopped.
    pub(crate) fn compaction_floor(&self) -> u64 {
        if self.role != Role::Leader {
            return self.floor;
        }
        let slowest = self
            .peers
            .iter()
            .map(|p| *self.match_index.get(p).unwrap_or(&0))
            .min()
            .unwrap_or(u64::MAX);
        self.floor.max(slowest.min(self.commit_index))
    }

    /// Discards log entries up to `min(upto, last_applied, floor)`, where
    /// the floor is [`RaftNode::compaction_floor`]: the node drops only
    /// what it has applied and what no peer can still need from it, on a
    /// follower as much as on the leader. Every peer therefore stays
    /// repairable from any future leader's log, with no InstallSnapshot
    /// RPC; a freshly elected leader compacts nothing new until its
    /// followers respond.
    ///
    /// The ordering service calls this once per tick with `u64::MAX`:
    /// applied entries already live on as blocks (or in the cutter's
    /// pending batch), so the log keeps only entries in flight.
    ///
    /// Returns the new `log_offset`.
    pub fn compact(&mut self, upto: u64) -> u64 {
        let limit = upto.min(self.last_applied).min(self.compaction_floor());
        if limit > self.log_offset {
            self.snapshot_term = self.term_at(limit);
            self.log.drain(..(limit - self.log_offset) as usize);
            self.log_offset = limit;
        }
        self.log_offset
    }

    fn quorum(&self) -> usize {
        self.peers.len().div_ceil(2) + 1
    }

    fn last_log_index(&self) -> u64 {
        self.log_offset + self.log.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map(|e| e.term).unwrap_or(self.snapshot_term)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else if index <= self.log_offset {
            // Compacted entries are committed, hence identical on every
            // node; only the boundary term is ever compared.
            self.snapshot_term
        } else {
            self.log
                .get((index - self.log_offset) as usize - 1)
                .map(|e| e.term)
                .unwrap_or(0)
        }
    }

    fn reset_election_deadline(&mut self) {
        self.ticks_since_activity = 0;
        self.election_deadline = self
            .rng
            .gen_range(self.config.election_timeout_min..=self.config.election_timeout_max);
    }

    /// Advances the node's clock by one tick.
    pub fn tick(&mut self) -> Vec<Output> {
        let mut out = Vec::new();
        match self.role {
            Role::Leader => {
                self.ticks_since_heartbeat += 1;
                if self.ticks_since_heartbeat >= self.config.heartbeat_interval {
                    self.ticks_since_heartbeat = 0;
                    match self.config.mode {
                        ReplicationMode::Lockstep => self.broadcast_append(&mut out),
                        ReplicationMode::Pipelined => self.heartbeat_pipelined(&mut out),
                    }
                }
            }
            Role::Follower | Role::Candidate => {
                self.ticks_since_activity += 1;
                if self.ticks_since_activity >= self.election_deadline {
                    self.start_election(&mut out);
                }
            }
        }
        out
    }

    /// Proposes a command; only valid on the leader.
    pub fn propose(&mut self, data: Vec<u8>) -> Result<(u64, Vec<Output>), ProposeError> {
        if self.role != Role::Leader {
            return Err(ProposeError::NotLeader(self.leader_hint()));
        }
        self.log.push(LogEntry {
            term: self.term,
            data,
        });
        let index = self.last_log_index();
        let mut out = Vec::new();
        // Single-node cluster commits immediately.
        self.maybe_advance_commit(&mut out);
        match self.config.mode {
            ReplicationMode::Lockstep => {
                self.broadcast_append(&mut out);
                self.ticks_since_heartbeat = 0;
            }
            ReplicationMode::Pipelined => {
                // Ship to every follower with window room; the heartbeat
                // cadence is left alone so commit-index propagation and
                // the stall detector keep running under constant load.
                let peers = self.peers.clone();
                for peer in peers {
                    self.pump(peer, &mut out);
                }
            }
        }
        Ok((index, out))
    }

    /// Handles a message from `from`.
    pub fn step(&mut self, from: NodeId, message: Message) -> Vec<Output> {
        let mut out = Vec::new();
        // Any higher term converts us to follower first.
        if message.term() > self.term {
            self.become_follower(message.term(), &mut out);
        }
        match message {
            Message::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(from, term, last_log_index, last_log_term, &mut out),
            Message::RequestVoteResponse { term, granted } => {
                self.on_vote_response(from, term, granted, &mut out)
            }
            Message::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
                floor,
            } => {
                // A floor stays true once computed, whatever its term.
                self.floor = self.floor.max(floor);
                self.on_append_entries(
                    from,
                    term,
                    prev_log_index,
                    prev_log_term,
                    entries,
                    leader_commit,
                    &mut out,
                )
            }
            Message::AppendEntriesResponse {
                term,
                success,
                match_index,
            } => self.on_append_response(from, term, success, match_index, &mut out),
        }
        out
    }

    fn become_follower(&mut self, term: u64, out: &mut Vec<Output>) {
        let was_leader = self.role == Role::Leader;
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.votes.clear();
        self.reset_election_deadline();
        if was_leader {
            out.push(Output::SteppedDown);
        }
    }

    fn start_election(&mut self, out: &mut Vec<Output>) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes.clear();
        self.votes.insert(self.id);
        self.reset_election_deadline();
        if self.votes.len() >= self.quorum() {
            // Single-node cluster.
            self.become_leader(out);
            return;
        }
        let msg = Message::RequestVote {
            term: self.term,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        };
        for &peer in &self.peers {
            out.push(Output::Send {
                to: peer,
                message: msg.clone(),
            });
        }
    }

    fn on_request_vote(
        &mut self,
        from: NodeId,
        term: u64,
        last_log_index: u64,
        last_log_term: u64,
        out: &mut Vec<Output>,
    ) {
        let up_to_date = last_log_term > self.last_log_term()
            || (last_log_term == self.last_log_term() && last_log_index >= self.last_log_index());
        let grant = term == self.term
            && up_to_date
            && (self.voted_for.is_none() || self.voted_for == Some(from));
        if grant {
            self.voted_for = Some(from);
            self.reset_election_deadline();
        }
        out.push(Output::Send {
            to: from,
            message: Message::RequestVoteResponse {
                term: self.term,
                granted: grant,
            },
        });
    }

    fn on_vote_response(&mut self, from: NodeId, term: u64, granted: bool, out: &mut Vec<Output>) {
        if self.role != Role::Candidate || term != self.term || !granted {
            return;
        }
        self.votes.insert(from);
        if self.votes.len() >= self.quorum() {
            self.become_leader(out);
        }
    }

    fn become_leader(&mut self, out: &mut Vec<Output>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.next_index.clear();
        self.match_index.clear();
        let next = self.last_log_index() + 1;
        for &peer in &self.peers {
            self.next_index.insert(peer, next);
            self.match_index.insert(peer, 0);
        }
        self.inflight.clear();
        self.pipeline_next.clear();
        self.stalled_beats.clear();
        for &peer in &self.peers {
            self.pipeline_next.insert(peer, next);
        }
        self.ticks_since_heartbeat = 0;
        out.push(Output::BecameLeader);
        // Both modes open with an empty probe at the log end (`next` is
        // `last + 1`, so `send_append` ships no entries): followers that
        // lag answer with a conflict hint and repair starts from there.
        self.broadcast_append(out);
    }

    fn broadcast_append(&mut self, out: &mut Vec<Output>) {
        let peers = self.peers.clone();
        for peer in peers {
            self.send_append(peer, out);
        }
    }

    fn send_append(&mut self, peer: NodeId, out: &mut Vec<Output>) {
        // The compaction floor keeps every follower at or above the
        // compaction point; clamping to the boundary is only a guard.
        let next = (*self.next_index.get(&peer).unwrap_or(&1)).max(self.log_offset + 1);
        let prev_log_index = next - 1;
        let prev_log_term = self.term_at(prev_log_index);
        let from = (next - 1 - self.log_offset) as usize;
        let to = (from + self.config.max_batch).min(self.log.len());
        let entries = if from < self.log.len() {
            self.log[from..to].to_vec()
        } else {
            Vec::new()
        };
        out.push(Output::Send {
            to: peer,
            message: Message::AppendEntries {
                term: self.term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit: self.commit_index,
                floor: self.compaction_floor(),
            },
        });
    }

    /// The peer's optimistic send frontier: the index after the last
    /// entry shipped (acked or not), clamped to the repairable range.
    fn send_frontier(&self, peer: NodeId) -> u64 {
        let base = (*self.next_index.get(&peer).unwrap_or(&1)).max(self.log_offset + 1);
        (*self.pipeline_next.get(&peer).unwrap_or(&base)).max(base)
    }

    /// Fills the peer's in-flight window with batched appends starting at
    /// the send frontier, without waiting for acks (`Pipelined` only).
    fn pump(&mut self, peer: NodeId, out: &mut Vec<Output>) {
        let last = self.last_log_index();
        loop {
            if self.inflight.get(&peer).map_or(0, |q| q.len()) >= self.config.max_inflight {
                return;
            }
            let start = self.send_frontier(peer);
            if start > last {
                return;
            }
            let prev = start - 1;
            let from = (start - 1 - self.log_offset) as usize;
            let to = (from + self.config.max_batch).min(self.log.len());
            let entries = self.log[from..to].to_vec();
            let sent_last = prev + entries.len() as u64;
            out.push(Output::Send {
                to: peer,
                message: Message::AppendEntries {
                    term: self.term,
                    prev_log_index: prev,
                    prev_log_term: self.term_at(prev),
                    entries,
                    leader_commit: self.commit_index,
                    floor: self.compaction_floor(),
                },
            });
            self.inflight
                .entry(peer)
                .or_default()
                .push_back((prev, sent_last));
            self.pipeline_next.insert(peer, sent_last + 1);
        }
    }

    /// Empty append at the send frontier: keeps the follower's election
    /// timer reset, propagates `leader_commit`, and — because its `prev`
    /// covers everything shipped so far — doubles as a gap detector (a
    /// follower missing a lost in-flight batch answers with a conflict
    /// hint, triggering immediate go-back-N retransmission).
    fn probe(&mut self, peer: NodeId, out: &mut Vec<Output>) {
        let prev = self.send_frontier(peer) - 1;
        out.push(Output::Send {
            to: peer,
            message: Message::AppendEntries {
                term: self.term,
                prev_log_index: prev,
                prev_log_term: self.term_at(prev),
                entries: Vec::new(),
                leader_commit: self.commit_index,
                floor: self.compaction_floor(),
            },
        });
    }

    /// Abandons the peer's unacked window and rewinds the send frontier
    /// to `next_index` (the acked frontier after back-off), so the next
    /// `pump` retransmits everything outstanding (go-back-N).
    fn reset_pipeline(&mut self, peer: NodeId) {
        self.inflight.entry(peer).or_default().clear();
        let next = *self.next_index.get(&peer).unwrap_or(&1);
        self.pipeline_next.insert(peer, next);
        self.stalled_beats.insert(peer, 0);
    }

    fn heartbeat_pipelined(&mut self, out: &mut Vec<Output>) {
        let peers = self.peers.clone();
        for peer in peers {
            // Fallback stall detector: if the window has been non-empty
            // with no ack progress for `retransmit_beats` heartbeats, the
            // acks themselves were probably lost — retransmit.
            if self.inflight.get(&peer).is_some_and(|q| !q.is_empty()) {
                let stalled = self.stalled_beats.entry(peer).or_insert(0);
                *stalled += 1;
                if *stalled >= self.config.retransmit_beats {
                    self.reset_pipeline(peer);
                }
            }
            self.pump(peer, out);
            self.probe(peer, out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append_entries(
        &mut self,
        from: NodeId,
        term: u64,
        prev_log_index: u64,
        prev_log_term: u64,
        entries: Vec<LogEntry>,
        leader_commit: u64,
        out: &mut Vec<Output>,
    ) {
        if term < self.term {
            out.push(Output::Send {
                to: from,
                message: Message::AppendEntriesResponse {
                    term: self.term,
                    success: false,
                    match_index: 0,
                },
            });
            return;
        }
        // Valid leader for this term.
        if self.role != Role::Follower {
            self.role = Role::Follower;
            self.votes.clear();
        }
        self.leader_hint = Some(from);
        self.reset_election_deadline();

        // A prefix that ends inside our compacted region is committed and
        // identical cluster-wide: skip the already-compacted entries and
        // anchor the consistency check at the compaction boundary.
        let (prev_log_index, prev_log_term, entries) = if prev_log_index < self.log_offset {
            let skip = ((self.log_offset - prev_log_index) as usize).min(entries.len());
            (self.log_offset, self.snapshot_term, entries[skip..].to_vec())
        } else {
            (prev_log_index, prev_log_term, entries)
        };

        // Consistency check.
        if prev_log_index > self.last_log_index()
            || self.term_at(prev_log_index) != prev_log_term
        {
            out.push(Output::Send {
                to: from,
                message: Message::AppendEntriesResponse {
                    term: self.term,
                    success: false,
                    // Hint: retry from our log end (simple but effective
                    // conflict back-off).
                    match_index: self.last_log_index().min(prev_log_index.saturating_sub(1)),
                },
            });
            return;
        }
        // Append, truncating conflicts. Entries at or below the
        // compaction boundary are committed and identical; never touched.
        let mut index = prev_log_index;
        for entry in entries {
            index += 1;
            if index <= self.log_offset {
                continue;
            }
            if self.term_at(index) != entry.term {
                self.log.truncate((index - self.log_offset) as usize - 1);
                self.log.push(entry);
            }
        }
        if leader_commit > self.commit_index {
            self.commit_index = leader_commit.min(self.last_log_index());
            self.emit_applied(out);
        }
        out.push(Output::Send {
            to: from,
            message: Message::AppendEntriesResponse {
                term: self.term,
                success: true,
                match_index: index,
            },
        });
    }

    fn on_append_response(
        &mut self,
        from: NodeId,
        term: u64,
        success: bool,
        match_index: u64,
        out: &mut Vec<Output>,
    ) {
        if self.role != Role::Leader || term != self.term {
            return;
        }
        match self.config.mode {
            ReplicationMode::Lockstep => {
                if success {
                    self.match_index.insert(from, match_index);
                    self.next_index.insert(from, match_index + 1);
                    self.maybe_advance_commit(out);
                    // Ship any remaining entries immediately.
                    if *self.next_index.get(&from).unwrap_or(&1) <= self.last_log_index() {
                        self.send_append(from, out);
                    }
                } else {
                    // Back off toward the follower's hint and retry, never
                    // moving forward on failure.
                    let current = *self.next_index.get(&from).unwrap_or(&1);
                    let backed_off = (match_index + 1).min(current.saturating_sub(1)).max(1);
                    self.next_index.insert(from, backed_off);
                    self.send_append(from, out);
                }
            }
            ReplicationMode::Pipelined => {
                self.on_append_response_pipelined(from, success, match_index, out)
            }
        }
    }

    /// Pipelined ack handling. Acks for a windowed stream arrive out of
    /// order relative to retransmissions and probes, so `match_index`
    /// only moves forward (`max`), acked windows are dropped from the
    /// front of the in-flight queue, and stale failure hints below the
    /// confirmed match are ignored (the follower is already known
    /// consistent through `match_index`).
    fn on_append_response_pipelined(
        &mut self,
        from: NodeId,
        success: bool,
        match_index: u64,
        out: &mut Vec<Output>,
    ) {
        let old_match = *self.match_index.get(&from).unwrap_or(&0);
        if success {
            let new_match = old_match.max(match_index);
            self.match_index.insert(from, new_match);
            let next = *self.next_index.get(&from).unwrap_or(&1);
            self.next_index.insert(from, next.max(new_match + 1));
            let queue = self.inflight.entry(from).or_default();
            let before = queue.len();
            while queue.front().is_some_and(|&(_, last)| last <= new_match) {
                queue.pop_front();
            }
            if queue.len() < before || new_match > old_match {
                self.stalled_beats.insert(from, 0);
            }
            self.maybe_advance_commit(out);
            self.pump(from, out);
        } else {
            if match_index < old_match {
                return;
            }
            let current = *self.next_index.get(&from).unwrap_or(&1);
            let backed_off = (match_index + 1).min(current.saturating_sub(1)).max(1);
            self.next_index.insert(from, backed_off);
            self.reset_pipeline(from);
            self.pump(from, out);
        }
    }

    fn maybe_advance_commit(&mut self, out: &mut Vec<Output>) {
        let last = self.last_log_index();
        for candidate in (self.commit_index + 1..=last).rev() {
            // Only entries from the current term commit by counting
            // (Raft §5.4.2).
            if self.term_at(candidate) != self.term {
                continue;
            }
            let replicas = 1 + self
                .match_index
                .values()
                .filter(|&&m| m >= candidate)
                .count();
            if replicas >= self.quorum() {
                self.commit_index = candidate;
                self.emit_applied(out);
                break;
            }
        }
    }

    fn emit_applied(&mut self, out: &mut Vec<Output>) {
        while self.last_applied < self.commit_index {
            self.last_applied += 1;
            // `compact` never discards above `last_applied`, so the entry
            // is always retained.
            let slot = (self.last_applied - self.log_offset) as usize - 1;
            let data = self.log[slot].data.clone();
            out.push(Output::Committed {
                index: self.last_applied,
                data,
            });
        }
    }
}
