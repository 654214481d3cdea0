//! The log's catch-up rule, stepped by hand through a `Vec` sink with no
//! simulator. A joiner's `Sync` is answered with the last `compact_keep`
//! applied entries, behind a snapshot when the joiner asks from below
//! them. An acceptor booted from a snapshot keeps everything from its
//! base, and answers a `Recover` from below it with a snapshot at the base
//! and every entry it holds.

use gmp::log::{LogCmd, LogMsg, RecoverOkBody, ReplicatedLog, Snapshot};
use gmp::protocol::MemberEvent;
use gmp::sim::Effect;
use gmp::types::ProcessId;
use std::ops::Range;
use std::sync::Arc;

type Sink = Vec<Effect<LogMsg>>;

/// View `ver` of `members`, led by `mgr`.
fn view(ver: u64, members: &[u32], mgr: u32) -> MemberEvent {
    let members = members.iter().copied().map(ProcessId).collect();
    let mgr = ProcessId(mgr);
    MemberEvent::ViewInstalled { ver, members, mgr }
}

/// Client 9's commands with the sequence numbers `seqs`: the solitary
/// leader below commits command `s` at slot `s`.
fn ops(seqs: Range<u64>) -> Vec<LogCmd> {
    seqs.map(|seq| LogCmd {
        client: ProcessId(9),
        seq,
    })
    .collect()
}

/// A solitary leader p0 (quorum 1) that has committed client 9's first
/// `len` commands and answers a `Sync` with up to `keep` entries.
fn solitary(len: u64, keep: usize) -> ReplicatedLog {
    let mut sink = Sink::new();
    let mut log = ReplicatedLog::with_tuning(8, 1, keep);
    log.bind(ProcessId(0));
    log.step_event(&mut sink, view(0, &[0], 0), 0);
    for cmd in ops(0..len) {
        log.step_message(&mut sink, ProcessId(9), LogMsg::Request { cmd }, cmd.seq);
    }
    log
}

/// The one message `log` sends back to `from` for `msg`.
fn answer(log: &mut ReplicatedLog, from: u32, msg: LogMsg) -> LogMsg {
    let mut sink = Sink::new();
    log.step_message(&mut sink, ProcessId(from), msg, 40);
    match sink.as_slice() {
        [Effect::Send { to, msg }] if *to == ProcessId(from) => msg.clone(),
        other => panic!("expected one send to p{from}, got {other:?}"),
    }
}

/// A fresh p5, welcomed into p0's view and caught up by `sync_ok`.
fn booted_from(sync_ok: LogMsg, keep: usize) -> ReplicatedLog {
    let mut sink = Sink::new();
    let mut joiner = ReplicatedLog::with_tuning(8, 1, keep);
    joiner.bind(ProcessId(5));
    joiner.step_event(&mut sink, view(1, &[0, 5], 0), 41);
    joiner.step_message(&mut sink, ProcessId(0), sync_ok, 42);
    joiner
}

/// What `log` reports to a new leader's `Recover` from slot 0.
fn recover_from_zero(log: &mut ReplicatedLog) -> RecoverOkBody {
    match answer(log, 1, LogMsg::Recover { ballot: 7, from: 0 }) {
        LogMsg::RecoverOk(body) => Arc::unwrap_or_clone(body),
        other => panic!("expected a RecoverOk, got {other:?}"),
    }
}

/// `Sync { from: 0 }` ships every applied entry while there are at most
/// `keep` of them. Otherwise it ships a snapshot at `len − keep` plus
/// exactly the last `keep` entries, and a fresh replica booted from that
/// holds `[len − keep, len)` and the client's mark.
#[test]
fn sync_ships_the_last_keep_entries_behind_a_snapshot() {
    for keep in [1, 4, 7, usize::MAX] {
        let top = keep.checked_mul(3).unwrap_or(12) as u64;
        for len in 0..=top {
            let case = format!("keep {keep}, len {len}");
            let mut log = solitary(len, keep);
            let sync_ok = answer(&mut log, 5, LogMsg::Sync { from: 0 });
            let LogMsg::SyncOk(body) = &sync_ok else {
                panic!("{case}: expected a SyncOk, got {sync_ok:?}");
            };
            let shipped: Vec<LogCmd> = body.entries.iter().map(|&(_, cmd)| cmd).collect();
            if len <= keep as u64 {
                assert_eq!((body.from, &body.snapshot), (0, &None), "{case}");
                assert_eq!(shipped, ops(0..len), "{case}");
                continue;
            }
            let cut = len - keep as u64;
            let snap = Some(Snapshot {
                floor: cut,
                clients: vec![(ProcessId(9), len - 1)],
            });
            assert_eq!((body.from, &body.snapshot), (cut, &snap), "{case}");
            assert_eq!(shipped, ops(cut..len), "{case}");
            let mut joiner = booted_from(sync_ok.clone(), keep);
            assert_eq!(joiner.base(), cut, "{case}");
            assert_eq!(joiner.committed(), ops(cut..len), "{case}");
            // The adopted mark travels on in the joiner's own snapshot.
            assert_eq!(recover_from_zero(&mut joiner).snapshot, snap, "{case}");
        }
    }
}

/// A replica booted from a snapshot, that has since applied more than
/// `2·keep` further entries, answers a `Recover` from below its base
/// with a snapshot at the base and every entry from there on.
#[test]
fn recover_below_a_booted_base_reports_every_entry_from_the_base() {
    let keep = 4;
    let sync_ok = answer(&mut solitary(20, keep), 5, LogMsg::Sync { from: 0 });
    let mut joiner = booted_from(sync_ok, keep);
    let base = joiner.base();
    assert!(base > 0, "the joiner did not boot from a snapshot");
    let mut sink = Sink::new();
    let decide = LogMsg::DecideBatch {
        ballot: 1,
        first_slot: 20,
        cmds: ops(20..30).into(),
    };
    joiner.step_message(&mut sink, ProcessId(0), decide, 43);
    assert_eq!(joiner.logical_len(), 30);
    let report = recover_from_zero(&mut joiner);
    let snap = Snapshot {
        floor: base,
        clients: vec![(ProcessId(9), 29)],
    };
    assert_eq!(report.snapshot, Some(snap));
    let slots: Vec<u64> = report.entries.iter().map(|e| e.0).collect();
    assert_eq!(slots, (base..30).collect::<Vec<_>>());
}
