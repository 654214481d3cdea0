//! The failure-detection shell both baselines share: the local view and
//! version, the local detector (F1 and S1) and the heartbeat tick. Each
//! baseline wraps one and adds only its own protocol.
//!
//! Views only shrink here (no baseline admits joiners), so a view member
//! is believed faulty exactly when it is isolated: the detector's isolated
//! ids are the faulty set. A member that quit is stopped: it admits no
//! message and acts on no tick.

use gmp_detect::HeartbeatDetector;
use gmp_sim::Out;
use gmp_types::note::{FaultySource, QuitReason};
use gmp_types::{Note, Op, ProcessId, Ver, View};

/// The heartbeat tick's timer tag, the only timer a baseline arms.
pub(crate) const TICK: u64 = 1;

/// One baseline member's view, version and failure detection.
pub(crate) struct Shell {
    pub(crate) me: ProcessId,
    pub(crate) view: View,
    pub(crate) ver: Ver,
    /// Leases of the monitored peers, and S1: every process this one
    /// believes faulty, whose messages it discards.
    fd: HeartbeatDetector,
    heartbeat_every: u64,
    /// Set by [`Shell::quit`]; nothing reaches the member after it.
    stopped: bool,
}

impl Shell {
    /// An unstarted member of `view` with the given failure-detection timing.
    pub(crate) fn new(view: View, heartbeat_every: u64, suspect_after: u64) -> Self {
        Shell {
            me: ProcessId(u32::MAX),
            view,
            ver: 0,
            fd: HeartbeatDetector::new(suspect_after),
            heartbeat_every,
            stopped: false,
        }
    }

    /// Starts as process `me` at `now`: monitors every peer, notes the
    /// initial view and arms the tick.
    pub(crate) fn start<M>(&mut self, out: &mut impl Out<M>, me: ProcessId, now: u64) {
        self.me = me;
        let peers: Vec<ProcessId> = self.view.iter().filter(|&p| p != me).collect();
        self.fd.monitor(&peers, now);
        out.note(Note::ViewInstalled {
            ver: 0,
            members: self.view.shared(),
            mgr: self.view.most_senior().expect("non-empty view"),
        });
        out.set_timer(self.heartbeat_every, TICK);
    }

    /// S1, then the life sign: whether a message from `from`, delivered
    /// at `now`, reaches the protocol. None reaches a stopped member.
    pub(crate) fn admit<M>(&mut self, out: &mut impl Out<M>, from: ProcessId, now: u64) -> bool {
        if self.stopped {
            return false;
        }
        let admitted = self.fd.admit(from, now);
        if !admitted {
            out.note(Note::Isolated { from });
        }
        admitted
    }

    /// Whether timer `tag` is a tick this member acts on: its own, and
    /// not after a quit.
    pub(crate) fn ticks(&self, tag: u64) -> bool {
        tag == TICK && !self.stopped
    }

    /// Executes `quit` for `reason`: notes it, stops the process and
    /// leaves the member stopped.
    pub(crate) fn quit<M>(&mut self, out: &mut impl Out<M>, reason: QuitReason) {
        out.note(Note::Quit { reason });
        out.quit();
        self.stopped = true;
    }

    /// The tick's first half: sends `heartbeat` to every view member not
    /// believed faulty and returns the peers whose lease expired. The
    /// caller handles those, then calls [`Shell::rearm`].
    pub(crate) fn beat<M: Clone>(
        &mut self,
        out: &mut impl Out<M>,
        heartbeat: M,
        now: u64,
    ) -> Vec<ProcessId> {
        for p in self.view.iter() {
            if p != self.me && !self.is_faulty(p) {
                out.send(p, heartbeat.clone());
            }
        }
        self.fd.tick(now)
    }

    /// The tick's second half: arms the next one.
    pub(crate) fn rearm<M>(&self, out: &mut impl Out<M>) {
        out.set_timer(self.heartbeat_every, TICK);
    }

    /// Comes to believe `q` faulty: isolates it, stops monitoring it and
    /// notes the belief. Returns whether `q` is a view member newly
    /// believed faulty, which the protocol then acts on.
    pub(crate) fn suspect<M>(
        &mut self,
        out: &mut impl Out<M>,
        q: ProcessId,
        source: FaultySource,
    ) -> bool {
        if q == self.me || !self.fd.isolate(q) {
            return false;
        }
        out.note(Note::Faulty { suspect: q, source });
        self.view.contains(q)
    }

    /// Whether this process believes view member `p` faulty.
    pub(crate) fn is_faulty(&self, p: ProcessId) -> bool {
        self.fd.is_isolated(p)
    }

    /// The most senior view member not believed faulty.
    pub(crate) fn coordinator(&self) -> Option<ProcessId> {
        self.view.iter().find(|&p| !self.is_faulty(p))
    }

    /// Applies `remove(target)` if `target` is a member: bumps the version
    /// and notes the op and the new view, whose coordinator is `mgr` of
    /// the shrunk shell (this process if `None`).
    pub(crate) fn remove<M>(
        &mut self,
        out: &mut impl Out<M>,
        target: ProcessId,
        mgr: fn(&Shell) -> Option<ProcessId>,
    ) {
        if !self.view.remove(target) {
            return;
        }
        self.ver += 1;
        out.note(Note::OpApplied {
            op: Op::remove(target),
            ver: self.ver,
        });
        out.note(Note::ViewInstalled {
            ver: self.ver,
            members: self.view.shared(),
            mgr: mgr(self).unwrap_or(self.me),
        });
    }
}
