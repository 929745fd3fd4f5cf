//! The daemon's write-ahead log: a line-oriented JSON journal on disk.
//!
//! The in-memory [`StateJournal`](wdm_core::journal::StateJournal) keeps
//! the whole event log and serializes once at the end of a run — fine for
//! a simulation, useless for a daemon that must survive being killed
//! mid-load. [`WalSink`] is the streaming counterpart: an [`EventSink`]
//! whose every [`record`](EventSink::record) appends one JSON line to the
//! log file and flushes it, so the log on disk is never more than the
//! in-flight event behind the live state.
//!
//! # File format (JSONL)
//!
//! ```text
//! {"wal":1,"policy":…,"network":…,"checkpoint":…,"semantic_hash":H0}   header
//! {"seq":1,"event":{"Provision":{…}}}                                  event
//! {"seq":2,"event":{"FailLink":{…}}}                                   event
//! {"checkpoint_seq":2,"state":…,"semantic_hash":H2}                    checkpoint
//! {"seq":3,"event":…}                                                  event
//! {"final_seq":3,"semantic_hash":H3}                                   graceful close
//! ```
//!
//! * the **header** is self-contained: network, policy, initial state —
//!   recovery needs no other inputs (same property as `wdm simulate
//!   --journal` files);
//! * **event** lines carry a strictly `+1`-increasing sequence number;
//! * **checkpoint** lines are *verification anchors*: recovery replays
//!   events from the header and asserts its reconstructed
//!   [`semantic_hash`](wdm_core::network::ResidualState::semantic_hash)
//!   against every anchor, so divergence is pinned to the first bad
//!   window rather than discovered at the end;
//! * the **final** line only exists after a graceful shutdown; its absence
//!   means the process died mid-stream and [`recover`] is reconstructing
//!   from events alone.
//!
//! [`recover`] tolerates exactly one torn line — a partial write at the
//! very end of the file, the signature of a kill mid-append. Corruption
//! anywhere else is an error.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use wdm_core::journal::{apply_event, EventSink, NetEvent};
use wdm_core::network::{ResidualState, WdmNetwork};
use wdm_sim::policy::Policy;

/// Why a WAL could not be written or recovered.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The first line is not a valid header.
    BadHeader(String),
    /// A non-tail line failed to parse.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        detail: String,
    },
    /// An event line's sequence number broke the `+1` chain.
    SeqGap {
        /// Expected next sequence number.
        expected: u64,
        /// Number actually found.
        got: u64,
    },
    /// Replaying an event was rejected by the state (journal/state
    /// divergence).
    Replay {
        /// The offending event's sequence number.
        seq: u64,
        /// The mutation error.
        detail: String,
    },
    /// A checkpoint anchor's hash does not match the replayed state.
    CheckpointMismatch {
        /// The anchor's sequence number.
        seq: u64,
    },
    /// The graceful-close line's hash does not match the replayed state.
    FinalHashMismatch {
        /// Hash recorded at shutdown.
        recorded: u64,
        /// Hash of the recovered state.
        replayed: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::BadHeader(d) => write!(f, "wal header invalid: {d}"),
            WalError::Corrupt { line, detail } => {
                write!(f, "wal corrupt at line {line}: {detail}")
            }
            WalError::SeqGap { expected, got } => {
                write!(f, "wal sequence gap: expected {expected}, got {got}")
            }
            WalError::Replay { seq, detail } => {
                write!(f, "wal replay diverged at seq {seq}: {detail}")
            }
            WalError::CheckpointMismatch { seq } => {
                write!(
                    f,
                    "wal checkpoint anchor at seq {seq} does not match replayed state"
                )
            }
            WalError::FinalHashMismatch { recorded, replayed } => write!(
                f,
                "wal final hash {recorded:#x} does not match replayed {replayed:#x}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

#[derive(serde::Serialize, serde::Deserialize)]
struct WalHeader {
    wal: u32,
    policy: Policy,
    network: WdmNetwork,
    checkpoint: ResidualState,
    semantic_hash: u64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct WalEventLine {
    seq: u64,
    event: NetEvent,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct WalCheckpointLine {
    checkpoint_seq: u64,
    state: ResidualState,
    semantic_hash: u64,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct WalFinalLine {
    final_seq: u64,
    semantic_hash: u64,
}

/// The streaming [`EventSink`]: one flushed JSON line per event.
///
/// I/O errors cannot surface through [`EventSink::record`]'s signature, so
/// they are stashed; callers poll [`WalSink::take_error`] at their
/// convenience (the daemon checks once per mutation batch).
pub struct WalSink {
    out: BufWriter<File>,
    seq: u64,
    io_error: Option<std::io::Error>,
    last_write_ns: u64,
}

impl WalSink {
    /// Creates the log at `path` and writes the self-contained header.
    pub fn create(
        path: &Path,
        net: &WdmNetwork,
        policy: Policy,
        checkpoint: &ResidualState,
    ) -> Result<Self, WalError> {
        let file = File::create(path)?;
        let mut out = BufWriter::new(file);
        let header = WalHeader {
            wal: 1,
            policy,
            network: net.clone(),
            checkpoint: checkpoint.clone(),
            semantic_hash: checkpoint.semantic_hash(),
        };
        let line =
            serde_json::to_string(&header).map_err(|e| WalError::BadHeader(e.to_string()))?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        Ok(Self {
            out,
            seq: 0,
            io_error: None,
            last_write_ns: 0,
        })
    }

    /// Events written so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Takes the first stashed write error, if any.
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.io_error.take()
    }

    /// Takes (and clears) the wall time the last [`EventSink::record`]
    /// spent serializing, appending and flushing its journal line. The
    /// daemon reads this right after a commit to carve the WAL-fsync
    /// slice out of the commit span and feed the fsync-latency histogram.
    pub fn take_last_write_ns(&mut self) -> u64 {
        std::mem::take(&mut self.last_write_ns)
    }

    fn write_line(&mut self, line: &str) {
        if self.io_error.is_some() {
            return; // The log is already broken; don't mask the first error.
        }
        let r = self
            .out
            .write_all(line.as_bytes())
            .and_then(|_| self.out.write_all(b"\n"))
            .and_then(|_| self.out.flush());
        if let Err(e) = r {
            self.io_error = Some(e);
        }
    }

    /// Writes a checkpoint anchor for the current state.
    pub fn checkpoint(&mut self, state: &ResidualState) {
        let line = serde_json::to_string(&WalCheckpointLine {
            checkpoint_seq: self.seq,
            state: state.clone(),
            semantic_hash: state.semantic_hash(),
        });
        match line {
            Ok(line) => self.write_line(&line),
            Err(e) => {
                self.io_error
                    .get_or_insert(std::io::Error::other(e.to_string()));
            }
        }
    }

    /// Writes the graceful-close line and flushes. The log is complete
    /// after this; further records would corrupt it.
    pub fn finalize(&mut self, state: &ResidualState) -> Result<(), WalError> {
        let line = serde_json::to_string(&WalFinalLine {
            final_seq: self.seq,
            semantic_hash: state.semantic_hash(),
        })
        .map_err(|e| WalError::BadHeader(e.to_string()))?;
        self.write_line(&line);
        if let Some(e) = self.io_error.take() {
            return Err(WalError::Io(e));
        }
        Ok(())
    }
}

impl EventSink for WalSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: NetEvent) {
        let t0 = std::time::Instant::now();
        self.seq += 1;
        match serde_json::to_string(&WalEventLine {
            seq: self.seq,
            event,
        }) {
            Ok(line) => self.write_line(&line),
            Err(e) => {
                self.io_error
                    .get_or_insert(std::io::Error::other(e.to_string()));
            }
        }
        self.last_write_ns = t0.elapsed().as_nanos() as u64;
    }
}

/// What the daemon needs from its journal beyond [`EventSink`]: sequence
/// numbers for correlation, checkpoint anchors, the graceful close, and
/// the stashed-error / write-latency side channels. Abstracting it (rather
/// than naming [`WalSink`] in every signature) keeps the daemon's worker
/// and dispatch paths generic, so tests can substitute an in-memory log.
pub trait ServeLog: EventSink {
    /// Events written so far (the WAL sequence number of the last event).
    fn seq(&self) -> u64;
    /// Writes a checkpoint anchor for `state`.
    fn checkpoint(&mut self, state: &ResidualState);
    /// Writes the graceful-close line; the log is complete afterwards.
    fn finalize(&mut self, state: &ResidualState) -> Result<(), WalError>;
    /// Takes the first stashed write error, if any.
    fn take_error(&mut self) -> Option<std::io::Error>;
    /// Takes (and clears) the last event append's wall time.
    fn take_last_write_ns(&mut self) -> u64;
}

impl ServeLog for WalSink {
    fn seq(&self) -> u64 {
        WalSink::seq(self)
    }

    fn checkpoint(&mut self, state: &ResidualState) {
        WalSink::checkpoint(self, state);
    }

    fn finalize(&mut self, state: &ResidualState) -> Result<(), WalError> {
        WalSink::finalize(self, state)
    }

    fn take_error(&mut self) -> Option<std::io::Error> {
        WalSink::take_error(self)
    }

    fn take_last_write_ns(&mut self) -> u64 {
        WalSink::take_last_write_ns(self)
    }
}

/// What [`recover`] reconstructed from a log file.
pub struct WalRecovery {
    /// The network the log was recorded on.
    pub network: WdmNetwork,
    /// The provisioning policy in force.
    pub policy: Policy,
    /// The state after replaying every intact event.
    pub state: ResidualState,
    /// Sequence number of the last applied event.
    pub seq: u64,
    /// Hash from the graceful-close line (`None`: the process died
    /// mid-stream).
    pub final_hash: Option<u64>,
    /// Whether a torn (partially written) last line was discarded.
    pub torn_tail: bool,
    /// Checkpoint anchors verified during replay.
    pub anchors_verified: usize,
}

impl WalRecovery {
    /// Hash of the recovered state.
    pub fn semantic_hash(&self) -> u64 {
        self.state.semantic_hash()
    }

    /// Whether the log ended with a matching graceful-close line.
    pub fn clean_shutdown(&self) -> bool {
        self.final_hash == Some(self.state.semantic_hash())
    }
}

/// Recovers a WAL: replays every event over the header checkpoint,
/// verifying each checkpoint anchor and (if present) the graceful-close
/// hash. Tolerates one torn line at the very end of the file.
///
/// The log is streamed one line at a time, so memory is bounded by the
/// longest line rather than the file. Trailing blank lines are ignored; a
/// blank line with content after it is corruption like any other bad line.
pub fn recover(path: &Path) -> Result<WalRecovery, WalError> {
    let mut lines = BufReader::new(File::open(path)?).lines();
    let Some(head) = next_content(&mut lines, 0)? else {
        return Err(WalError::BadHeader("empty file".into()));
    };
    // Line 1 is the header even when it is blank (and so fails to parse).
    let head_text = head.blank_before.as_ref().map_or(&head.text, |(_, b)| b);
    let mut rec = WalRecovery::from_header(head_text)?;
    let mut next = next_content(&mut lines, head.lineno)?;
    while let Some(cur) = next {
        // A blank line with content after it fails as corrupt here.
        if let Some((lineno, blank)) = &cur.blank_before {
            rec.replay_line(*lineno, blank, false)?;
        }
        // One line of lookahead: only the last non-blank line may be torn.
        next = next_content(&mut lines, cur.lineno)?;
        rec.replay_line(cur.lineno, &cur.text, next.is_none())?;
    }
    Ok(rec)
}

/// The next non-blank line of a log, with the first blank line skipped on
/// the way to it (if any).
struct Content {
    /// 1-based line number of `text`.
    lineno: usize,
    text: String,
    /// `(line number, text)` of the first blank line before `text`.
    blank_before: Option<(usize, String)>,
}

/// Reads past blank lines to the next non-blank one after line `lineno`;
/// `None` when only blank lines (or nothing) remain.
fn next_content(
    lines: &mut std::io::Lines<impl BufRead>,
    mut lineno: usize,
) -> std::io::Result<Option<Content>> {
    let mut blank_before = None;
    for text in lines {
        let text = text?;
        lineno += 1;
        if text.trim().is_empty() {
            blank_before.get_or_insert((lineno, text));
        } else {
            return Ok(Some(Content {
                lineno,
                text,
                blank_before,
            }));
        }
    }
    Ok(None)
}

impl WalRecovery {
    /// The state a log starts from: its header line, parsed and checked.
    fn from_header(head: &str) -> Result<Self, WalError> {
        let header: WalHeader =
            serde_json::from_str(head).map_err(|e| WalError::BadHeader(e.to_string()))?;
        if header.wal != 1 {
            return Err(WalError::BadHeader(format!(
                "unsupported wal version {}",
                header.wal
            )));
        }
        Ok(Self {
            network: header.network,
            policy: header.policy,
            state: header.checkpoint,
            seq: 0,
            final_hash: None,
            torn_tail: false,
            anchors_verified: 0,
        })
    }

    /// Applies line `lineno` of the log. A line that does not parse is a
    /// torn tail when it is the `last` non-blank line, corruption otherwise.
    fn replay_line(&mut self, lineno: usize, raw: &str, last: bool) -> Result<(), WalError> {
        let corrupt = |e: serde_json::Error| WalError::Corrupt {
            line: lineno,
            detail: e.to_string(),
        };
        let value = match serde_json::from_str::<serde_json::Value>(raw) {
            Ok(v) => v,
            // A partial append from a kill mid-write: discard.
            Err(_) if last => {
                self.torn_tail = true;
                return Ok(());
            }
            Err(e) => return Err(corrupt(e)),
        };
        if self.final_hash.is_some() {
            return Err(WalError::Corrupt {
                line: lineno,
                detail: "records after the graceful-close line".into(),
            });
        }
        if value.get("seq").is_some() {
            let ev: WalEventLine = serde::Deserialize::from_value(&value).map_err(corrupt)?;
            if ev.seq != self.seq + 1 {
                return Err(WalError::SeqGap {
                    expected: self.seq + 1,
                    got: ev.seq,
                });
            }
            apply_event(&mut self.state, &self.network, &ev.event).map_err(|e| {
                WalError::Replay {
                    seq: ev.seq,
                    detail: e.to_string(),
                }
            })?;
            self.seq = ev.seq;
        } else if value.get("checkpoint_seq").is_some() {
            let cp: WalCheckpointLine = serde::Deserialize::from_value(&value).map_err(corrupt)?;
            if cp.checkpoint_seq != self.seq || cp.semantic_hash != self.state.semantic_hash() {
                return Err(WalError::CheckpointMismatch {
                    seq: cp.checkpoint_seq,
                });
            }
            self.anchors_verified += 1;
        } else if value.get("final_seq").is_some() {
            let fin: WalFinalLine = serde::Deserialize::from_value(&value).map_err(corrupt)?;
            if fin.final_seq != self.seq {
                return Err(WalError::SeqGap {
                    expected: self.seq,
                    got: fin.final_seq,
                });
            }
            if fin.semantic_hash != self.state.semantic_hash() {
                return Err(WalError::FinalHashMismatch {
                    recorded: fin.semantic_hash,
                    replayed: self.state.semantic_hash(),
                });
            }
            self.final_hash = Some(fin.semantic_hash);
        } else {
            return Err(WalError::Corrupt {
                line: lineno,
                detail: "unrecognized record shape".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wdm_core::network::NetworkBuilder;
    use wdm_graph::NodeId;
    use wdm_sim::provisioner::{NetProvisioner, Provisioner};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "wdm-wal-{}-{}-{}.jsonl",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// Drives a journaled provisioner lifecycle through a WalSink; returns
    /// (path, live hash, live seq).
    fn record_lifecycle(tag: &str, finalize: bool) -> (std::path::PathBuf, u64, u64) {
        let net = NetworkBuilder::nsfnet(8).build();
        let path = temp_path(tag);
        let state = wdm_core::network::ResidualState::fresh(&net);
        let wal = WalSink::create(&path, &net, Policy::CostOnly, &state).expect("create");
        let mut p = NetProvisioner::with_parts(
            &net,
            Policy::CostOnly,
            state,
            wdm_core::aux_engine::RouterCtx::new(),
            wal,
        );
        let a = p.provision(NodeId(0), NodeId(9)).unwrap();
        let _b = p.provision(NodeId(3), NodeId(11)).unwrap();
        // Mid-stream checkpoint anchor.
        let snapshot = p.state().clone();
        p.journal_mut().checkpoint(&snapshot);
        p.fail_link(wdm_graph::EdgeId(0));
        p.teardown(a);
        p.repair_link(wdm_graph::EdgeId(0));
        let seq = p.journal_seq();
        let hash = p.semantic_hash();
        if finalize {
            let fin = p.state().clone();
            p.journal_mut().finalize(&fin).expect("finalize");
        }
        assert!(
            p.journal_mut().take_error().is_none(),
            "no stashed io error"
        );
        (path, hash, seq)
    }

    #[test]
    fn graceful_log_recovers_to_live_hash() {
        let (path, live_hash, live_seq) = record_lifecycle("graceful", true);
        let rec = recover(&path).expect("recover");
        assert_eq!(rec.seq, live_seq);
        assert_eq!(rec.semantic_hash(), live_hash);
        assert_eq!(rec.final_hash, Some(live_hash));
        assert!(rec.clean_shutdown());
        assert!(!rec.torn_tail);
        assert_eq!(rec.anchors_verified, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crashed_log_without_final_line_still_recovers() {
        let (path, live_hash, live_seq) = record_lifecycle("crash", false);
        let rec = recover(&path).expect("recover");
        assert_eq!(rec.seq, live_seq);
        assert_eq!(rec.semantic_hash(), live_hash);
        assert_eq!(rec.final_hash, None);
        assert!(!rec.clean_shutdown());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_but_earlier_corruption_is_fatal() {
        let (path, _, live_seq) = record_lifecycle("torn", false);
        // Tear the last line in half — a kill mid-append.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 20;
        std::fs::write(&path, &text.as_bytes()[..keep]).unwrap();
        let rec = recover(&path).expect("torn tail tolerated");
        assert!(rec.torn_tail);
        assert_eq!(rec.seq, live_seq - 1, "the torn event is discarded");

        // The same damage mid-file is corruption, not a torn tail.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let mid = lines.len() / 2;
        let half = lines[mid].len() / 2;
        lines[mid].truncate(half);
        std::fs::write(&path, lines.join("\n")).unwrap();
        match recover(&path) {
            Err(WalError::Corrupt { line, .. }) => assert_eq!(line, mid + 1),
            other => panic!("expected Corrupt, got {:?}", other.map(|r| r.seq)),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_event_stream_fails_the_anchor_check() {
        let (path, _, _) = record_lifecycle("tamper", true);
        // Drop the first event line (a Provision): the checkpoint anchor
        // that follows must catch the divergence.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        std::fs::write(&path, lines.join("\n")).unwrap();
        match recover(&path) {
            Err(WalError::SeqGap {
                expected: 1,
                got: 2,
            }) => {}
            other => panic!(
                "expected the seq chain to break, got {:?}",
                other.map(|r| r.seq)
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    /// The whole-file recovery that streaming replaced, kept as the
    /// reference for line splitting: read everything, pop trailing blank
    /// lines, replay the rest with the last one allowed to be torn.
    fn recover_in_memory(bytes: &[u8]) -> Result<WalRecovery, WalError> {
        let text = std::str::from_utf8(bytes).map_err(std::io::Error::other)?;
        let mut lines: Vec<&str> = text.lines().collect();
        while lines.last().is_some_and(|l| l.trim().is_empty()) {
            lines.pop();
        }
        let Some((&head, tail)) = lines.split_first() else {
            return Err(WalError::BadHeader("empty file".into()));
        };
        let mut rec = WalRecovery::from_header(head)?;
        for (i, raw) in tail.iter().enumerate() {
            rec.replay_line(i + 2, raw, i + 1 == tail.len())?;
        }
        Ok(rec)
    }

    fn outcome(r: &Result<WalRecovery, WalError>) -> String {
        match r {
            Ok(rec) => format!(
                "ok seq={} hash={:#x} final={:?} torn={} anchors={}",
                rec.seq,
                rec.semantic_hash(),
                rec.final_hash,
                rec.torn_tail,
                rec.anchors_verified
            ),
            Err(e) => format!("err {e}"),
        }
    }

    /// Recovers `bytes` from disk with the streaming [`recover`], asserting
    /// it agrees with the whole-file reference on the same bytes.
    fn recover_bytes(tag: &str, bytes: &[u8]) -> Result<WalRecovery, WalError> {
        let path = temp_path(tag);
        std::fs::write(&path, bytes).unwrap();
        let streamed = recover(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(
            outcome(&streamed),
            outcome(&recover_in_memory(bytes)),
            "streaming and whole-file recovery disagree ({tag})"
        );
        streamed
    }

    /// The lines of a recorded lifecycle log (header, events, one anchor,
    /// and the graceful-close line when `finalize`).
    fn lifecycle_lines(finalize: bool) -> Vec<String> {
        let (path, _, _) = record_lifecycle("lines", finalize);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        text.lines().map(String::from).collect()
    }

    #[test]
    fn streamed_trailing_blank_lines_are_ignored() {
        let lines = lifecycle_lines(true);
        let clean = recover_bytes("clean", (lines.join("\n") + "\n").as_bytes());
        assert!(clean
            .as_ref()
            .is_ok_and(|r| r.clean_shutdown() && !r.torn_tail));
        // Blank and whitespace-only tails, CRLF endings and a missing
        // final newline all recover exactly like the clean file.
        for bytes in [
            lines.join("\n") + "\n\n",
            lines.join("\n") + "\n  \n\t\n",
            lines.join("\n") + "\n\n\n\n",
            lines.join("\r\n") + "\r\n\r\n",
            lines.join("\n"),
        ] {
            let rec = recover_bytes("blank-tail", bytes.as_bytes());
            assert_eq!(outcome(&rec), outcome(&clean), "{bytes:?}");
        }
    }

    #[test]
    fn streamed_torn_last_line_sets_torn_tail() {
        let mut lines = lifecycle_lines(false);
        let events = lines.len() - 1 - 1; // minus header and one anchor
        let last = lines.last_mut().unwrap();
        last.truncate(last.len() / 2);
        for tail in ["", "\n", "\n\n  \n"] {
            let rec = recover_bytes("torn", (lines.join("\n") + tail).as_bytes()).unwrap();
            assert!(rec.torn_tail);
            assert_eq!(rec.seq as usize, events - 1, "the torn event is discarded");
            assert!(!rec.clean_shutdown());
        }
    }

    #[test]
    fn streamed_interior_blank_or_bad_line_is_corrupt_at_its_line() {
        let lines = lifecycle_lines(true);
        let corrupt_line = |bytes: String| match recover_bytes("interior", bytes.as_bytes()) {
            Err(WalError::Corrupt { line, .. }) => line,
            other => panic!("expected Corrupt, got {}", outcome(&other)),
        };
        for (at, inserted) in [(1, ""), (3, "   "), (2, "\n\n"), (lines.len() - 1, "\t")] {
            let mut damaged = lines.clone();
            damaged.insert(at, inserted.to_string());
            // Line numbers are 1-based: the inserted line is number `at + 1`.
            assert_eq!(corrupt_line(damaged.join("\n") + "\n"), at + 1);
        }
        for at in [1, 3, lines.len() - 2] {
            let mut damaged = lines.clone();
            damaged[at] = "{\"seq\":".into();
            assert_eq!(corrupt_line(damaged.join("\n") + "\n"), at + 1);
        }
        // A blank line (and content) after the graceful-close line.
        let mut damaged = lines.clone();
        damaged.push(String::new());
        damaged.push(lines[1].clone());
        assert_eq!(corrupt_line(damaged.join("\n")), lines.len() + 1);
    }

    #[test]
    fn streamed_empty_or_blank_file_is_a_bad_header() {
        for bytes in ["", "\n", "\n  \n\t\n", "\r\n\r\n"] {
            match recover_bytes("empty", bytes.as_bytes()) {
                Err(WalError::BadHeader(d)) => assert_eq!(d, "empty file", "{bytes:?}"),
                other => panic!("expected BadHeader, got {}", outcome(&other)),
            }
        }
        // A blank first line followed by the header is a bad header, not
        // an empty file: line 1 is always the header.
        let lines = lifecycle_lines(true);
        match recover_bytes("blank-head", format!("\n{}\n", lines.join("\n")).as_bytes()) {
            Err(WalError::BadHeader(d)) => assert_ne!(d, "empty file"),
            other => panic!("expected BadHeader, got {}", outcome(&other)),
        }
        // A header alone recovers to the initial state.
        let rec = recover_bytes("header-only", lines[0].as_bytes()).unwrap();
        assert_eq!((rec.seq, rec.torn_tail, rec.final_hash), (0, false, None));
    }

    #[test]
    fn empty_and_headerless_files_are_rejected() {
        let path = temp_path("empty");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(recover(&path), Err(WalError::BadHeader(_))));
        std::fs::write(&path, "{\"seq\":1}\n").unwrap();
        assert!(matches!(recover(&path), Err(WalError::BadHeader(_))));
        std::fs::remove_file(&path).ok();
    }
}
