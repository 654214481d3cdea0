//! The [`Member`] state machine: the paper's full algorithm.
//!
//! A member plays one of several roles at a time:
//!
//! * **Outer process** — responds to `Mgr`'s invitations and commits
//!   (Fig. 9), and to reconfiguration messages (Fig. 10);
//! * **`Mgr`** — coordinates two-phase updates with condensed rounds
//!   (Fig. 8);
//! * **Reconfiguration initiator** — runs the three-phase
//!   interrogate/propose/commit algorithm when every process ranked above
//!   it is perceived faulty (Fig. 10, §4).
//!
//! The failure-detector (F1), gossip (F2) and isolation (S1) rules of §2.2
//! are integrated here; the decision procedures of Fig. 6 live in
//! [`crate::decide`].
//!
//! The member does no I/O. Its three entry points — [`Member::start`],
//! [`Member::receive`] and [`Member::fire`] — take the current time and
//! emit every effect through a sink, `&mut impl Out<Msg>`: in the
//! simulator that is the handler's [`Ctx`] (bare, or a composite node's
//! whose envelope converts from [`Msg`]), which applies each effect as it
//! is emitted; in a hand-wired test it is a `Vec<Effect<Msg>>`.

use crate::config::Config;
use crate::decide::{determine, PhaseOneResp};
use crate::event::MemberEvent;
use crate::msg::{
    CommitBody, HeartbeatDigest, InterrogateOkBody, Msg, ReconfBody, ViewUpdateBody, WelcomeBody,
};
use gmp_detect::{HeartbeatDetector, Isolation};
use gmp_sim::{Ctx, Node, Out, Shared};
use gmp_types::note::{FaultySource, QuitReason};
use gmp_types::{Arena, NextEntry, Note, Op, OpKind, ProcessId, Ver, View};
use std::collections::{BTreeSet, VecDeque};

/// Timer tag: heartbeat + failure-detector tick.
const TICK: u64 = 1;
/// Timer tag: (re)send a join request.
const JOIN: u64 = 2;
/// Timer tag: observer subscription health check.
const OBSERVE: u64 = 3;

/// Where this process stands in the group lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lifecycle {
    /// Outside the group, soliciting membership (§7).
    Joining,
    /// Outside the group, tracking its membership as an observer (§8
    /// hierarchical service).
    Observing,
    /// A group member executing the protocol.
    Active,
    /// Crashed logically: executed `quit` (excluded or lost a majority).
    Stopped,
}

/// The member's current protocol role.
#[derive(Clone, Debug)]
enum Role {
    /// Follower.
    Outer,
    /// Coordinator with no update in flight.
    MgrIdle,
    /// Coordinator awaiting `OK`s for `op` installing `ver` (Fig. 8 await).
    MgrAwait {
        op: Op,
        ver: Ver,
        pending: BTreeSet<ProcessId>,
        oks: BTreeSet<ProcessId>,
    },
    /// Reconfiguration Phase I: awaiting interrogation responses.
    ReconfInterrogate {
        pending: BTreeSet<ProcessId>,
        resp: Vec<PhaseOneResp>,
    },
    /// Reconfiguration Phase II: awaiting proposal acknowledgements.
    ReconfPropose {
        v: Ver,
        rl: Vec<Op>,
        invis: Vec<Op>,
        pending: BTreeSet<ProcessId>,
        oks: BTreeSet<ProcessId>,
    },
}

/// Deferred continuation after mutating role state (avoids re-borrow).
enum After {
    None,
    MgrStart,
    MgrComplete,
    Phase1Complete,
    Phase2Complete,
    MaybeInitiate,
}

/// A group member running the Ricciardi–Birman membership protocol.
///
/// Construct initial members with [`Member::new`] (all initial members must
/// be given the *same* view — GMP-0 assumes the initial membership is
/// commonly known) and late joiners with a [`Config`] carrying a
/// [`JoinConfig`](crate::JoinConfig). Step it through [`Member::start`],
/// [`Member::receive`] and [`Member::fire`], each given the sink its
/// effects go to.
pub struct Member {
    cfg: Config,
    me: ProcessId,
    lifecycle: Lifecycle,
    view: View,
    ver: Ver,
    seq: Vec<Op>,
    next: Vec<NextEntry>,
    mgr: ProcessId,
    /// `Faulty(p)`: believed faulty but not yet removed from the view.
    faulty: BTreeSet<ProcessId>,
    /// `Recovered(Mgr)`: queued joiners (meaningful while coordinator).
    recovered: VecDeque<ProcessId>,
    /// Contingent operations inherited from reconfiguration (`invis`),
    /// executed first once this member is coordinator.
    forced: VecDeque<Op>,
    iso: Isolation,
    fd: HeartbeatDetector,
    role: Role,
    /// Future-view update messages, waiting for their view (§3).
    buffered: Vec<(ProcessId, Msg)>,
    /// Suspicions queued by tests/experiments, applied at the next tick.
    injected: Vec<ProcessId>,
    /// Last time each suspect was reported to `Mgr` (for re-reports),
    /// addressed by the detector's roster slots: a dense array access per
    /// touch, structurally pruned when a view change tombstones the slot.
    last_report: Arena<u64>,
    /// Sender-side state of the delta-encoded heartbeat digests (F2).
    hb: HbGossip,
    /// The monitoring set computed from `cfg.topology` at the last view
    /// install, in view order: heartbeat targets, digest carriers and
    /// detector enrollment all draw from this cache instead of
    /// re-enumerating the view. [`Member::install_topology`] keeps it (and
    /// the detector roster) in sync with the view.
    topo_monitored: Vec<ProcessId>,
    /// Observers subscribed to this member's view stream (§8).
    subscribers: BTreeSet<ProcessId>,
    /// Observer-side state, when this process is an observer.
    obs: Option<ObsState>,
    /// Undrained consumer events ([`Member::take_events`]). Pushing here is
    /// protocol-invisible — no sends, notes or randomness — so the queue
    /// never perturbs the byte-identical golden runs.
    events: Vec<MemberEvent>,
    /// The time of the input being handled, as the entry point was given.
    now: u64,
}

/// Sender-side heartbeat-gossip state: the faulty set travels as one
/// `Arc`-shared snapshot per *change*, not one `Vec` per target per tick.
#[derive(Clone, Debug, Default)]
struct HbGossip {
    /// Bumped whenever the faulty set differs from the previous tick's.
    epoch: u64,
    /// The faulty set as of `epoch` (ascending id order, like `faulty_vec`).
    last: Vec<ProcessId>,
    /// Shared snapshot for `epoch`; `None` while the set is empty (an empty
    /// snapshot and an empty beat are indistinguishable to the receiver).
    snapshot: Option<Shared<[ProcessId]>>,
    /// Per-peer digest-delivery state, addressed by the detector's roster
    /// slots (so it dies structurally with the slot when a view change
    /// tombstones the peer).
    peers: Arena<HbPeer>,
    /// Snapshot materializations, for the E9 fan-out experiment.
    builds: u64,
}

/// Digest-delivery bookkeeping for one heartbeat target.
#[derive(Clone, Copy, Debug, Default)]
struct HbPeer {
    /// Last epoch whose snapshot this peer is *known* to have received (the
    /// carrying beat was sent while the peer was confirmed `Active`).
    sent: Option<u64>,
    /// Whether we hold evidence the peer reached `Active`: any message it
    /// sent other than its own `JoinRequest` (joiners send those while
    /// still `Joining`, discarding everything but `Welcome` in return).
    /// Until then, a carrying beat might land on a `Joining` receiver and
    /// be discarded, so the snapshot is re-carried instead of marked sent.
    confirmed: bool,
}

/// Observer-side bookkeeping (§8 hierarchical service).
#[derive(Clone, Debug)]
struct ObsState {
    /// Fail-over contact list (config contacts, extended by observed
    /// membership).
    contacts: Vec<ProcessId>,
    /// Index of the contact currently subscribed to.
    idx: usize,
    /// Time of the last update (or subscription attempt).
    last_update: u64,
    /// Whether a subscription attempt is outstanding.
    subscribed: bool,
    /// Latest observed membership.
    view: View,
    /// Latest observed version.
    ver: Ver,
    /// Latest observed coordinator.
    mgr: ProcessId,
    /// Whether any update has arrived yet.
    seen_any: bool,
}

impl Member {
    /// Creates an initial member of `initial_view`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` carries a join configuration (use a joiner
    /// constructor path for that) or if the initial view is empty.
    pub fn new(cfg: Config, initial_view: View) -> Self {
        assert!(
            cfg.join.is_none(),
            "initial members must not carry a join config"
        );
        assert!(!initial_view.is_empty(), "initial view must be non-empty");
        Member::blank(cfg, Lifecycle::Active, initial_view, None)
    }

    /// Creates a process outside the group that will ask to join (§7).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` lacks a join configuration.
    pub fn joiner(cfg: Config) -> Self {
        assert!(cfg.join.is_some(), "a joiner requires a join config");
        Member::blank(cfg, Lifecycle::Joining, View::empty(), None)
    }

    /// Creates an observer of the group (§8): it receives every agreed
    /// view transition but never becomes a member.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` lacks an observer configuration.
    pub fn observer(cfg: Config) -> Self {
        let observe = cfg
            .observe
            .clone()
            .expect("an observer requires an observe config");
        let obs = ObsState {
            contacts: observe.contacts,
            idx: 0,
            last_update: 0,
            subscribed: false,
            view: View::empty(),
            ver: 0,
            mgr: ProcessId(u32::MAX),
            seen_any: false,
        };
        Member::blank(cfg, Lifecycle::Observing, View::empty(), Some(obs))
    }

    /// The one constructor: version 0, no role yet, `Mgr` the most senior
    /// of `view` (a placeholder id while the view is empty).
    fn blank(cfg: Config, lifecycle: Lifecycle, view: View, obs: Option<ObsState>) -> Self {
        let suspect_after = cfg.suspect_after;
        Member {
            cfg,
            me: ProcessId(u32::MAX), // assigned at start
            lifecycle,
            mgr: view.most_senior().unwrap_or(ProcessId(u32::MAX)),
            view,
            ver: 0,
            seq: Vec::new(),
            next: Vec::new(),
            faulty: BTreeSet::new(),
            recovered: VecDeque::new(),
            forced: VecDeque::new(),
            iso: Isolation::new(),
            fd: HeartbeatDetector::new(suspect_after),
            role: Role::Outer,
            buffered: Vec::new(),
            injected: Vec::new(),
            last_report: Arena::new(),
            hb: HbGossip::default(),
            topo_monitored: Vec::new(),
            subscribers: BTreeSet::new(),
            obs,
            events: Vec::new(),
            now: 0,
        }
    }

    // ------------------------------------------------------------------
    // Inspection (tests, examples, experiments)
    // ------------------------------------------------------------------

    /// The current local view `Memb(p)`.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// The current local version `ver(p)`.
    pub fn ver(&self) -> Ver {
        self.ver
    }

    /// Whom this process considers coordinator.
    pub fn mgr(&self) -> ProcessId {
        self.mgr
    }

    /// True while this process is coordinator.
    pub fn is_mgr(&self) -> bool {
        matches!(self.role, Role::MgrIdle | Role::MgrAwait { .. })
    }

    /// Group lifecycle state.
    pub fn lifecycle(&self) -> Lifecycle {
        self.lifecycle
    }

    /// The committed operation sequence `seq(p)`.
    pub fn seq(&self) -> &[Op] {
        &self.seq
    }

    /// The expectation list `next(p)`.
    pub fn next_list(&self) -> &[NextEntry] {
        &self.next
    }

    /// Processes currently believed faulty and still in the view.
    pub fn faulty_set(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.faulty.iter().copied()
    }

    /// Drains the queued [`MemberEvent`]s, in occurrence order.
    ///
    /// This is the push-flavored consumer API: a layer built on top of the
    /// group (`gmp-log`'s replicated log, most prominently) calls this
    /// after every handler invocation and reacts to membership transitions
    /// instead of polling accessors. See [`crate::event`] for the queue's
    /// contract (protocol-invisible, deterministic, ordered, drained).
    pub fn take_events(&mut self) -> Vec<MemberEvent> {
        std::mem::take(&mut self.events)
    }

    /// Queues a spurious suspicion, applied at the next detector tick.
    /// Models the degraded-performance misdetections of §2.2.
    ///
    /// Test-only hook (enable the `testing` feature): real suspicions come
    /// from the failure-detection rules F1/F2, never from outside.
    #[cfg(any(feature = "testing", test))]
    pub fn inject_suspicion(&mut self, q: ProcessId) {
        self.injected.push(q);
    }

    /// Suspects currently held in the GMP-5 re-report throttle, in
    /// ascending id order. Entries live in an arena addressed by the
    /// detector's roster slots, so a view install prunes them structurally:
    /// tombstoning a slot (or recycling it for a joiner) makes the old
    /// entry unreadable — the state stays bounded by the view size across
    /// arbitrarily long reconfiguration-heavy runs.
    ///
    /// Test/experiment instrumentation (enable the `testing` feature).
    #[cfg(any(feature = "testing", test))]
    pub fn reported_suspects(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.fd
            .enrolled()
            .filter(|&(_, r)| self.last_report.get(r).is_some())
            .map(|(q, _)| q)
    }

    /// How many heartbeat-gossip payloads this member has materialized: one
    /// per *change* of its faulty set, never one per tick or per target.
    /// The E9 fan-out experiment sums this across members to show payload
    /// constructions per interval dropped from Θ(n²) to Θ(n).
    ///
    /// Test/experiment instrumentation (enable the `testing` feature).
    #[cfg(any(feature = "testing", test))]
    pub fn heartbeat_payload_builds(&self) -> u64 {
        self.hb.builds
    }

    /// True when this process is a group observer (§8).
    pub fn is_observer(&self) -> bool {
        self.obs.is_some()
    }

    /// The latest membership an observer has learned of, with its version
    /// and coordinator; `None` until the first update arrives (or if this
    /// process is not an observer).
    pub fn observed_view(&self) -> Option<(&View, Ver, ProcessId)> {
        self.obs
            .as_ref()
            .filter(|o| o.seen_any)
            .map(|o| (&o.view, o.ver, o.mgr))
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Starts the member as process `me` at time `now` (once, first).
    ///
    /// # Panics
    ///
    /// Panics if an initial member is not in its own initial view.
    pub fn start(&mut self, out: &mut impl Out<Msg>, me: ProcessId, now: u64) {
        self.me = me;
        self.now = now;
        if self.obs.is_some() {
            let at = self.cfg.observe.as_ref().expect("observer config").at;
            out.set_timer(at.max(1), OBSERVE);
            return;
        }
        if let Some(join) = &self.cfg.join {
            let at = join.at.max(1);
            out.set_timer(at, JOIN);
            return;
        }
        assert!(
            self.view.contains(self.me),
            "initial member {} must appear in its initial view",
            self.me
        );
        self.install_topology(self.now);
        // GMP-0: the initial membership is commonly known and every initial
        // member starts `Active`, so digests to monitored peers may be
        // delta-encoded from the first beat.
        for p in self.topo_monitored.clone() {
            self.confirm_peer(p);
        }
        self.events.push(MemberEvent::ViewInstalled {
            ver: 0,
            members: self.view.to_vec(),
            mgr: self.mgr,
        });
        out.note(Note::ViewInstalled {
            ver: 0,
            members: self.view.shared(),
            mgr: self.mgr,
        });
        if self.mgr == self.me {
            self.role = Role::MgrIdle;
            out.note(Note::BecameMgr { ver: 0 });
        }
        out.set_timer(self.cfg.heartbeat_every, TICK);
    }

    /// Handles `msg` from `from`, delivered at time `now`.
    #[inline] // into the `Node` impl: the per-message hot path
    pub fn receive(&mut self, out: &mut impl Out<Msg>, from: ProcessId, msg: Msg, now: u64) {
        self.now = now;
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        // S1: messages from perceived-faulty processes are discarded.
        if self.iso.is_isolated(from) {
            out.note(Note::Isolated { from });
            return;
        }
        if self.lifecycle == Lifecycle::Joining {
            match msg {
                Msg::Welcome(body) => self.on_welcome(out, from, body),
                // Coordinator rounds addressed to this process as an
                // already-added member can overtake its Welcome (the add
                // commits first, and the Welcome may need a retried join
                // request if the original welcomer died). Invitations and
                // interrogations are never retransmitted, so discarding
                // them would wedge the coordinator awaiting this process's
                // response. Hold them and replay once a Welcome installs a
                // view; each handler's version guard discards stale ones.
                Msg::Invite { .. }
                | Msg::Commit(_)
                | Msg::Interrogate
                | Msg::Propose(_)
                | Msg::ReconfCommit(_) => self.buffered.push((from, msg)),
                _ => {}
            }
            return;
        }
        if self.lifecycle == Lifecycle::Observing {
            if let Msg::ViewUpdate(body) = msg {
                self.on_view_update(out, body);
            }
            return;
        }
        // Life sign: one indexed load in the detector's roster, then the
        // generation-checked lease read, which covers every guard — a
        // suspected peer's lease was cleared, a forgotten peer's slot went
        // with it, and a stranger has no handle at all.
        self.fd.heard_from(from, self.now);
        // Any message except the sender's own `JoinRequest` is evidence the
        // sender reached `Active` (joiners emit join requests while still
        // `Joining`; everything else is sent by active members — observers'
        // `Subscribe`s come from processes without a roster slot, so
        // confirming them is a structural no-op). A *forwarded* join
        // request (`joiner != from`) does confirm the forwarder.
        if !matches!(&msg, Msg::JoinRequest { joiner } if *joiner == from) {
            self.confirm_peer(from);
        }
        self.dispatch(out, from, msg);
    }

    /// Handles the timer `tag` this member armed, due at time `now`.
    #[inline] // into the `Node` impl: the heartbeat tick's path
    pub fn fire(&mut self, out: &mut impl Out<Msg>, tag: u64, now: u64) {
        self.now = now;
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        match tag {
            TICK => self.on_tick(out),
            JOIN if self.lifecycle == Lifecycle::Joining => {
                let join = self.cfg.join.as_ref().expect("joiner has join config");
                for &c in &join.contacts {
                    out.send(c, Msg::JoinRequest { joiner: self.me });
                }
                out.set_timer(join.retry_every, JOIN);
            }
            OBSERVE => self.on_observe_tick(out),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn do_quit(&mut self, out: &mut impl Out<Msg>, reason: QuitReason) {
        self.lifecycle = Lifecycle::Stopped;
        // A stopped member neither reports nor heartbeats ever again; free
        // the per-peer arenas rather than letting them outlive the
        // membership. The event queue survives: the host gets to observe
        // the terminal transition.
        self.last_report.clear();
        self.hb = HbGossip::default();
        self.topo_monitored.clear();
        self.events.push(MemberEvent::Quit {
            reason: reason.clone(),
        });
        out.note(Note::Quit { reason });
        out.quit();
    }

    /// `Bcast(p, G, m)` (§3.1) to the rest of the view: not failure-atomic,
    /// since a crash may cut it short after any prefix of the sends.
    fn broadcast(&self, out: &mut impl Out<Msg>, msg: Msg) {
        for to in self.view.iter().filter(|&p| p != self.me) {
            out.send(to, msg.clone());
        }
    }

    /// `Memb − {me} − Faulty`: the processes whose response is awaited.
    fn await_set(&self) -> BTreeSet<ProcessId> {
        self.view
            .iter()
            .filter(|&p| p != self.me && !self.faulty.contains(&p))
            .collect()
    }

    fn faulty_vec(&self) -> Vec<ProcessId> {
        self.faulty.iter().copied().collect()
    }

    /// Records evidence that `p` has reached `Active`: from now on a
    /// digest-carrying beat to `p` may mark its epoch delivered at send
    /// time (lifecycle is monotone past `Active`, so no later beat can land
    /// on a discarding `Joining` receiver). No-op for strangers (observers,
    /// not-yet-admitted joiners) — they have no roster slot.
    fn confirm_peer(&mut self, p: ProcessId) {
        if let Some(r) = self.fd.resolve(p) {
            self.hb.peers.entry(r).confirmed = true;
        }
    }

    /// Recomputes the monitoring set from the configured topology against
    /// the current view, diffing it against the previous set: ex-monitors
    /// are released (not forgotten — they are still group members),
    /// new monitors are tracked with `lease` as their presumed last life
    /// sign. Called on every view install (initial start, welcome, and
    /// each applied operation).
    ///
    /// Emits no trace events and draws no randomness; `track` is a no-op
    /// for already-enrolled peers and `release` for never-enrolled ones —
    /// so under [`Flat`](crate::topology::Flat), where the set is always
    /// "everyone else", this reduces exactly to the pre-topology engine's
    /// track-on-add calls and the run stays byte-identical (pinned by the
    /// goldens in `tests/topology.rs`).
    fn install_topology(&mut self, lease: u64) {
        let monitored = self.cfg.topology.monitors(self.me, &self.view);
        debug_assert!(
            !monitored.contains(&self.me),
            "topology contract: no self-monitoring"
        );
        let keep: BTreeSet<ProcessId> = monitored.iter().copied().collect();
        let old = std::mem::replace(&mut self.topo_monitored, monitored);
        for p in old {
            if !keep.contains(&p) && self.view.contains(p) {
                self.fd.release(p);
            }
            // Ex-monitors no longer in the view were already retired by
            // `fd.forget` in the removal path; releasing them again
            // would be a harmless no-op, skipped for clarity.
        }
        // One exact allocation per install: ascending inserts would
        // otherwise double the id index to twice the largest monitored id.
        let end = self.topo_monitored.iter().map(|p| p.index() + 1).max();
        self.fd.reserve_ids(end.unwrap_or(0));
        for &p in &self.topo_monitored {
            self.fd.track(p, lease);
        }
    }

    /// A `Commit` of `op` installing `ver`, with `next` as its contingent
    /// invitation: one body, shared by every recipient of the broadcast.
    fn commit(&self, op: Op, ver: Ver, next: Option<Op>) -> Msg {
        Msg::Commit(Shared::from(CommitBody {
            op,
            ver,
            next,
            faulty: self.faulty_vec(),
            recovered: self.recovered.iter().copied().collect(),
        }))
    }

    /// State transfer of the current view, naming `mgr` as coordinator.
    fn welcome(&self, mgr: ProcessId) -> Msg {
        Msg::Welcome(Shared::from(WelcomeBody {
            members: self.view.to_vec(),
            ver: self.ver,
            seq: self.seq.clone(),
            mgr,
        }))
    }

    /// The current view, as streamed to observers.
    fn view_update(&self) -> Msg {
        Msg::ViewUpdate(Shared::from(ViewUpdateBody {
            members: self.view.to_vec(),
            ver: self.ver,
            mgr: self.mgr,
        }))
    }

    /// The initiator's own pending operations for `GetNext`: queued joiners
    /// first (Fig. 8 serves `Recovered` first), then queued removals.
    fn queue_ops(&self) -> Vec<Op> {
        let mut q: Vec<Op> = self
            .recovered
            .iter()
            .filter(|j| !self.view.contains(**j))
            .map(|&j| Op::add(j))
            .collect();
        q.extend(
            self.faulty
                .iter()
                .filter(|f| self.view.contains(**f))
                .map(|&f| Op::remove(f)),
        );
        q
    }

    fn op_valid(&self, op: Op) -> bool {
        match op.kind {
            OpKind::Remove => self.view.contains(op.target) && op.target != self.me,
            OpKind::Add => !self.view.contains(op.target),
        }
    }

    /// Picks the next operation for the coordinator: inherited contingent
    /// plan first, then queued joiners, then queued removals.
    fn mgr_pick_next(&mut self) -> Option<Op> {
        while let Some(&op) = self.forced.front() {
            self.forced.pop_front();
            if self.op_valid(op) {
                return Some(op);
            }
        }
        if let Some(&j) = self.recovered.iter().find(|j| !self.view.contains(**j)) {
            return Some(Op::add(j));
        }
        if let Some(&f) = self.faulty.iter().find(|f| self.view.contains(**f)) {
            return Some(Op::remove(f));
        }
        None
    }

    /// Applies one committed membership operation, bumping the version and
    /// emitting the trace notes the property checkers consume.
    fn apply_op(&mut self, out: &mut impl Out<Msg>, op: Op) {
        let excluded = (op.kind == OpKind::Remove).then_some(op.target);
        match op.kind {
            OpKind::Remove => {
                if op.target == self.me {
                    self.do_quit(out, QuitReason::Excluded);
                    return;
                }
                // GMP-1: `q ∉ Memb(p) ⇒ faulty_p(q)` — the belief always
                // precedes the removal, whatever path committed it.
                self.mark_faulty_quiet(out, op.target, FaultySource::Gossip);
                self.view.remove(op.target);
                self.faulty.remove(&op.target);
                self.fd.forget(op.target);
            }
            OpKind::Add => {
                if op.target == self.me || !self.view.push_junior(op.target) {
                    // Redundant add; still advances the version to stay in
                    // lockstep with the rest of the group.
                }
                self.recovered.retain(|&j| j != op.target);
            }
        }
        // The view changed: re-knit the monitoring graph around it. Under
        // a removal this also enrolls whoever the shifted graph newly
        // assigns to us (a sparse ring closes over the gap); under Flat it
        // reduces to tracking exactly the added member.
        self.install_topology(self.now);
        self.seq.push(op);
        self.ver += 1;
        // Installing a view needs no explicit pruning of the per-peer
        // bookkeeping: `last_report` and the digest-delivery state live in
        // arenas addressed by the detector's roster, and `fd.forget` above
        // tombstoned the slots of everyone the new view excludes — their
        // entries are already unreadable (and a recycled slot's generation
        // check keeps them invisible to later joiners). The state stays
        // bounded by the view size across arbitrarily long runs.
        out.note(Note::OpApplied { op, ver: self.ver });
        out.note(Note::ViewInstalled {
            ver: self.ver,
            members: self.view.shared(),
            mgr: self.mgr,
        });
        if let Some(peer) = excluded {
            self.events.push(MemberEvent::PeerExcluded {
                peer,
                ver: self.ver,
            });
        }
        self.events.push(MemberEvent::ViewInstalled {
            ver: self.ver,
            members: self.view.to_vec(),
            mgr: self.mgr,
        });
        self.notify_subscribers(out);
    }

    /// Streams the current view to subscribed observers (§8).
    fn notify_subscribers(&self, out: &mut impl Out<Msg>) {
        if self.subscribers.is_empty() {
            return;
        }
        let update = self.view_update();
        for &to in &self.subscribers {
            out.send(to, update.clone());
        }
    }

    /// Records `faulty_p(q)` without driving any protocol step: used while
    /// already inside a protocol transition (e.g. applying a reconfiguration
    /// proposal), where GMP-1 requires the belief to precede the removal but
    /// triggering succession logic mid-step would be unsound.
    fn mark_faulty_quiet(&mut self, out: &mut impl Out<Msg>, q: ProcessId, source: FaultySource) {
        if q == self.me || !self.iso.isolate(q) {
            return;
        }
        self.fd.suspect(q);
        self.events
            .push(MemberEvent::PeerSuspected { peer: q, source });
        out.note(Note::Faulty { suspect: q, source });
        if self.view.contains(q) {
            self.faulty.insert(q);
        }
        self.recovered.retain(|&j| j != q);
    }

    /// Applies a reconfiguration proposal `rl` installing version `v`,
    /// starting from whatever prefix this process already holds.
    fn apply_rl(&mut self, out: &mut impl Out<Msg>, rl: &[Op], v: Ver) {
        if self.ver >= v {
            return;
        }
        debug_assert!(
            !rl.is_empty(),
            "a reconfiguration proposal installs at least one op"
        );
        let start = v.saturating_sub(rl.len() as u64);
        if self.ver < start {
            // Further behind than the proposal can repair; impossible per
            // Prop. 5.1 but tolerated defensively.
            out.note(Note::Custom(format!(
                "cannot catch up: at v{} but proposal covers v{}..v{}",
                self.ver, start, v
            )));
            return;
        }
        let skip = (self.ver - start) as usize;
        for &op in &rl[skip..] {
            self.apply_op(out, op);
            if self.lifecycle == Lifecycle::Stopped {
                return;
            }
        }
        debug_assert_eq!(self.ver, v);
    }

    /// The core `faulty_p(q)` event (§2.2): isolates `q` (S1), records the
    /// belief, and drives whatever protocol step the suspicion unblocks.
    fn handle_faulty(&mut self, out: &mut impl Out<Msg>, q: ProcessId, source: FaultySource) {
        if q == self.me || self.lifecycle == Lifecycle::Stopped {
            return;
        }
        if !self.iso.isolate(q) {
            return; // already believed faulty
        }
        self.fd.suspect(q);
        self.events
            .push(MemberEvent::PeerSuspected { peer: q, source });
        out.note(Note::Faulty { suspect: q, source });
        if !self.view.contains(q) {
            return;
        }
        self.faulty.insert(q);
        self.recovered.retain(|&j| j != q);
        if self.lifecycle != Lifecycle::Active {
            return;
        }
        // Drop placeholders of a dead interrogator: we stop waiting for its
        // proposal. Concrete entries are evidence and stay (§4.4).
        self.next.retain(|e| !(e.is_placeholder() && e.coord == q));

        let after = match &mut self.role {
            Role::MgrIdle => After::MgrStart,
            Role::MgrAwait { pending, .. } => {
                pending.remove(&q);
                if pending.is_empty() {
                    After::MgrComplete
                } else {
                    After::None
                }
            }
            Role::ReconfInterrogate { pending, .. } => {
                pending.remove(&q);
                if pending.is_empty() {
                    After::Phase1Complete
                } else {
                    After::None
                }
            }
            Role::ReconfPropose { pending, .. } => {
                pending.remove(&q);
                if pending.is_empty() {
                    After::Phase2Complete
                } else {
                    After::None
                }
            }
            Role::Outer => After::MaybeInitiate,
        };
        match after {
            After::None => {}
            After::MgrStart => self.mgr_start_update(out),
            After::MgrComplete => self.mgr_oks_complete(out),
            After::Phase1Complete => self.reconf_phase1_complete(out),
            After::Phase2Complete => self.reconf_phase2_complete(out),
            After::MaybeInitiate => {
                // Report the observation so Mgr starts the exclusion
                // algorithm (§3.1); gossip-derived beliefs are re-reported
                // periodically instead to avoid echo storms.
                if matches!(source, FaultySource::Observation | FaultySource::Injected)
                    && q != self.mgr
                    && self.mgr != self.me
                    && !self.faulty.contains(&self.mgr)
                {
                    out.send(self.mgr, Msg::FaultyReport { suspect: q });
                    // `q` is in view, so its roster slot is live (suspicion
                    // keeps the slot; only removal retires it).
                    if let Some(r) = self.fd.resolve(q) {
                        self.last_report.set(r, self.now);
                    }
                }
                self.maybe_initiate(out);
            }
        }
    }

    /// The succession rule (§4.2): initiate reconfiguration when every
    /// member ranked above this process — and the coordinator — is
    /// perceived faulty.
    fn maybe_initiate(&mut self, out: &mut impl Out<Msg>) {
        if self.lifecycle != Lifecycle::Active || !matches!(self.role, Role::Outer) {
            return;
        }
        if self.mgr == self.me || !self.view.contains(self.me) {
            return;
        }
        let seniors_faulty = self
            .view
            .seniors_of(self.me)
            .iter()
            .all(|s| self.faulty.contains(s));
        if seniors_faulty && self.faulty.contains(&self.mgr) {
            self.start_reconf(out);
        }
    }

    // ------------------------------------------------------------------
    // Coordinator: two-phase update with condensed rounds (Fig. 8)
    // ------------------------------------------------------------------

    /// Invites the group to the next operation, if there is one and a
    /// version to number it: `Ver::MAX` has no successor, so no round
    /// starts there.
    fn mgr_start_update(&mut self, out: &mut impl Out<Msg>) {
        let Some(vnext) = self.ver.checked_add(1) else {
            self.role = Role::MgrIdle;
            return;
        };
        let Some(op) = self.mgr_pick_next() else {
            self.role = Role::MgrIdle;
            return;
        };
        self.broadcast(out, Msg::Invite { op, ver: vnext });
        let pending = self.await_set();
        self.role = Role::MgrAwait {
            op,
            ver: vnext,
            pending,
            oks: BTreeSet::new(),
        };
        self.mgr_check_complete(out);
    }

    fn mgr_check_complete(&mut self, out: &mut impl Out<Msg>) {
        let done = matches!(&self.role, Role::MgrAwait { pending, .. } if pending.is_empty());
        if done {
            self.mgr_oks_complete(out);
        }
    }

    /// Every awaited member has responded or been suspected: commit.
    fn mgr_oks_complete(&mut self, out: &mut impl Out<Msg>) {
        let Role::MgrAwait {
            op, ver: v, oks, ..
        } = std::mem::replace(&mut self.role, Role::MgrIdle)
        else {
            return;
        };
        if self.cfg.mgr_majority {
            let got = oks.len() + 1; // counting Mgr itself
            let needed = self.view.majority();
            if got < needed {
                self.do_quit(out, QuitReason::NoMajority { got, needed });
                return;
            }
        }
        self.apply_op(out, op);
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        debug_assert_eq!(self.ver, v);
        if op.kind == OpKind::Add {
            out.send(op.target, self.welcome(self.me));
        }
        if self.cfg.compression {
            let nxt = self.mgr_pick_next();
            self.broadcast(out, self.commit(op, v, nxt));
            if let Some(n) = nxt {
                let pending = self.await_set();
                self.role = Role::MgrAwait {
                    op: n,
                    ver: v + 1,
                    pending,
                    oks: BTreeSet::new(),
                };
                self.mgr_check_complete(out);
            } else {
                self.role = Role::MgrIdle;
            }
        } else {
            self.broadcast(out, self.commit(op, v, None));
            self.role = Role::MgrIdle;
            self.mgr_start_update(out); // fresh invitation for the next op
        }
    }

    // ------------------------------------------------------------------
    // Outer process: update protocol (Fig. 9)
    // ------------------------------------------------------------------

    fn on_invite(&mut self, out: &mut impl Out<Msg>, from: ProcessId, op: Op, v: Ver) {
        if from != self.mgr || !matches!(self.role, Role::Outer) {
            return;
        }
        if v <= self.ver {
            return; // stale duplicate
        }
        if v - self.ver > 1 {
            self.buffered.push((from, Msg::Invite { op, ver: v }));
            return;
        }
        self.accept_invite(out, op, self.mgr);
    }

    /// Fig. 9's answer to an invitation for `op` from `coord`, or to the
    /// contingent op a commit carries in its place: act on the belief it
    /// states, expect `op` at the next version and acknowledge. `Ver::MAX`
    /// has no next version, so there the invitation is dropped.
    fn accept_invite(&mut self, out: &mut impl Out<Msg>, op: Op, coord: ProcessId) {
        if op.removes(self.me) {
            self.do_quit(out, QuitReason::Excluded);
            return;
        }
        match op.kind {
            OpKind::Remove => self.handle_faulty(out, op.target, FaultySource::Gossip),
            OpKind::Add => out.note(Note::Operating { id: op.target }),
        }
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        let Some(v) = self.ver.checked_add(1) else {
            return;
        };
        self.next = vec![NextEntry::concrete(vec![op], coord, v)];
        out.send(coord, Msg::UpdateOk { ver: v });
    }

    fn on_update_ok(&mut self, out: &mut impl Out<Msg>, from: ProcessId, v: Ver) {
        let complete = match &mut self.role {
            Role::MgrAwait {
                ver, pending, oks, ..
            } if *ver == v => {
                if pending.remove(&from) {
                    oks.insert(from);
                }
                pending.is_empty()
            }
            _ => false,
        };
        if complete {
            self.mgr_oks_complete(out);
        }
    }

    fn on_commit(&mut self, out: &mut impl Out<Msg>, from: ProcessId, body: Shared<CommitBody>) {
        if from != self.mgr || !matches!(self.role, Role::Outer) {
            return;
        }
        let CommitBody {
            op,
            ver: v,
            next: nxt,
            faulty: ref f,
            recovered: ref r,
        } = *body;
        if v < self.ver {
            return; // stale
        }
        if v - self.ver > 1 {
            self.buffered.push((from, Msg::Commit(body)));
            return;
        }
        if f.contains(&self.me) || nxt.map(|n| n.removes(self.me)).unwrap_or(false) {
            self.do_quit(out, QuitReason::Excluded);
            return;
        }
        if v == self.ver {
            // Already installed (e.g. a joiner bootstrapped by `Welcome` at
            // this very version): only the contingent part matters.
            self.process_contingent(out, nxt, f, r);
            return;
        }
        // v == self.ver + 1: apply.
        for &q in f {
            if q != op.target {
                self.handle_faulty(out, q, FaultySource::Gossip);
                if self.lifecycle == Lifecycle::Stopped {
                    return;
                }
            }
        }
        for &j in r {
            out.note(Note::Operating { id: j });
        }
        if op.removes(self.me) {
            self.do_quit(out, QuitReason::Excluded);
            return;
        }
        self.apply_op(out, op);
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        self.process_contingent(out, nxt, &[], &[]);
        self.drain_buffer(out);
    }

    /// Handles the `Contingent(next-op(next-id) : F : R)` part of a commit:
    /// under compression it doubles as the next invitation (§3.1).
    fn process_contingent(
        &mut self,
        out: &mut impl Out<Msg>,
        nxt: Option<Op>,
        f: &[ProcessId],
        r: &[ProcessId],
    ) {
        for &q in f {
            self.handle_faulty(out, q, FaultySource::Gossip);
            if self.lifecycle == Lifecycle::Stopped {
                return;
            }
        }
        for &j in r {
            out.note(Note::Operating { id: j });
        }
        match nxt {
            Some(n) => self.accept_invite(out, n, self.mgr),
            None => self.next.clear(),
        }
    }

    /// Replays buffered future-view messages that have become current.
    fn drain_buffer(&mut self, out: &mut impl Out<Msg>) {
        loop {
            if self.lifecycle == Lifecycle::Stopped {
                return;
            }
            let cur = self.ver;
            // Discard obsolete entries.
            let update_ver = |m: &Msg| match m {
                Msg::Invite { ver, .. } => Some(*ver),
                Msg::Commit(c) => Some(c.ver),
                _ => None,
            };
            self.buffered
                .retain(|(_, m)| update_ver(m).is_none_or(|ver| ver > cur));
            let pos = self.buffered.iter().position(|(_, m)| {
                update_ver(m).is_some_and(|ver| cur.checked_add(1) == Some(ver))
            });
            let Some(pos) = pos else { return };
            let (from, msg) = self.buffered.remove(pos);
            self.dispatch(out, from, msg);
            if self.ver == cur {
                // Nothing advanced (the buffered message was an invite):
                // wait for more traffic.
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Reconfiguration (Figs. 5, 10)
    // ------------------------------------------------------------------

    fn start_reconf(&mut self, out: &mut impl Out<Msg>) {
        out.note(Note::ReconfStarted { from_ver: self.ver });
        self.broadcast(out, Msg::Interrogate);
        let my_resp = PhaseOneResp {
            from: self.me,
            ver: self.ver,
            seq: self.seq.clone(),
            next: self.next.clone(),
        };
        let pending = self.await_set();
        self.role = Role::ReconfInterrogate {
            pending,
            resp: vec![my_resp],
        };
        let done =
            matches!(&self.role, Role::ReconfInterrogate { pending, .. } if pending.is_empty());
        if done {
            self.reconf_phase1_complete(out);
        }
    }

    fn on_interrogate(&mut self, out: &mut impl Out<Msg>, r: ProcessId) {
        if !matches!(self.lifecycle, Lifecycle::Active) {
            return;
        }
        let (Some(ri), Some(mi)) = (self.view.index_of(r), self.view.index_of(self.me)) else {
            return; // unknown initiator: stale
        };
        // Fig. 10: a process ranked above the initiator is in HiFaulty(r)
        // and is being excluded — it quits.
        if ri > mi {
            self.do_quit(out, QuitReason::Excluded);
            return;
        }
        // Respond with the pre-placeholder state (§4.4 ordering).
        let resp = InterrogateOkBody {
            ver: self.ver,
            seq: self.seq.clone(),
            next: self.next.clone(),
        };
        out.send(r, Msg::InterrogateOk(Shared::from(resp)));
        // Infer HiFaulty(r): every member senior to r (§4.5). The loop
        // walks a snapshot because `handle_faulty` borrows `self` mutably.
        let view = self.view.clone();
        for &s in view.seniors_of(r) {
            self.handle_faulty(out, s, FaultySource::HiFaultyInference);
            if self.lifecycle == Lifecycle::Stopped {
                return;
            }
        }
        self.next.push(NextEntry::placeholder(r));
    }

    fn on_interrogate_ok(
        &mut self,
        out: &mut impl Out<Msg>,
        from: ProcessId,
        body: Shared<InterrogateOkBody>,
    ) {
        let complete = match &mut self.role {
            Role::ReconfInterrogate { pending, resp } => {
                if pending.remove(&from) {
                    let InterrogateOkBody { ver, seq, next } = Shared::unwrap_or_clone(body);
                    resp.push(PhaseOneResp {
                        from,
                        ver,
                        seq,
                        next,
                    });
                }
                pending.is_empty()
            }
            _ => return,
        };
        if complete {
            self.reconf_phase1_complete(out);
        }
    }

    fn reconf_phase1_complete(&mut self, out: &mut impl Out<Msg>) {
        let Role::ReconfInterrogate { resp, .. } = std::mem::replace(&mut self.role, Role::Outer)
        else {
            return;
        };
        let got = resp.len(); // includes this initiator
        let needed = self.view.majority();
        if got < needed {
            self.do_quit(out, QuitReason::NoMajority { got, needed });
            return;
        }
        let queue = self.queue_ops();
        let Some(decision) = determine(&resp[0], &resp[1..], &self.view, self.mgr, &queue) else {
            return; // no version left to propose, or nothing to install
        };
        if !self.cfg.three_phase_reconfig {
            // Claim 7.2 baseline: commit directly after interrogation. The
            // proposal phase is what plants each initiator's plan in the
            // respondents' `next` lists; skipping it makes invisible commits
            // undetectable — see `gmp-baselines` for the counterexample.
            self.reconf_commit_now(out, decision.v, decision.rl, decision.invis);
            return;
        }
        self.broadcast(
            out,
            Msg::Propose(Shared::from(ReconfBody {
                rl: decision.rl.clone(),
                ver: decision.v,
                invis: decision.invis.clone(),
                faulty: self.faulty_vec(),
            })),
        );
        let pending = self.await_set();
        self.role = Role::ReconfPropose {
            v: decision.v,
            rl: decision.rl,
            invis: decision.invis,
            pending,
            oks: BTreeSet::new(),
        };
        let done = matches!(&self.role, Role::ReconfPropose { pending, .. } if pending.is_empty());
        if done {
            self.reconf_phase2_complete(out);
        }
    }

    fn on_propose(&mut self, out: &mut impl Out<Msg>, from: ProcessId, body: &ReconfBody) {
        if !matches!(self.role, Role::Outer) || self.lifecycle != Lifecycle::Active {
            return;
        }
        let ReconfBody {
            ref rl,
            ver: v,
            ref invis,
            faulty: ref f,
        } = *body;
        if v < self.ver || rl.is_empty() {
            return; // initiator is behind us (stale), or proposes no change
        }
        if f.contains(&self.me)
            || rl.iter().any(|op| op.removes(self.me))
            || invis.iter().any(|op| op.removes(self.me))
        {
            self.do_quit(out, QuitReason::Excluded);
            return;
        }
        for &q in f {
            self.handle_faulty(out, q, FaultySource::Gossip);
            if self.lifecycle == Lifecycle::Stopped {
                return;
            }
        }
        // "p executes faulty_p(RL_r) upon receipt of r's proposal" (§6).
        for op in rl {
            if op.kind == OpKind::Remove {
                self.mark_faulty_quiet(out, op.target, FaultySource::Gossip);
            }
        }
        self.next = vec![NextEntry::concrete(rl.clone(), from, v)];
        out.send(from, Msg::ProposeOk { ver: v });
    }

    fn on_propose_ok(&mut self, out: &mut impl Out<Msg>, from: ProcessId, v: Ver) {
        let complete = match &mut self.role {
            Role::ReconfPropose {
                v: pv,
                pending,
                oks,
                ..
            } if *pv == v => {
                if pending.remove(&from) {
                    oks.insert(from);
                }
                pending.is_empty()
            }
            _ => return,
        };
        if complete {
            self.reconf_phase2_complete(out);
        }
    }

    fn reconf_phase2_complete(&mut self, out: &mut impl Out<Msg>) {
        let Role::ReconfPropose {
            v, rl, invis, oks, ..
        } = std::mem::replace(&mut self.role, Role::Outer)
        else {
            return;
        };
        let got = oks.len() + 1;
        let needed = self.view.majority();
        if got < needed {
            self.do_quit(out, QuitReason::NoMajority { got, needed });
            return;
        }
        self.reconf_commit_now(out, v, rl, invis);
    }

    /// Phase III: install `rl`, announce the commit, and assume the `Mgr`
    /// role on the contingent plan.
    fn reconf_commit_now(&mut self, out: &mut impl Out<Msg>, v: Ver, rl: Vec<Op>, invis: Vec<Op>) {
        // The commit's authority *is* the new coordinator: attribute the
        // installed views (and observer notifications) to it.
        self.mgr = self.me;
        self.apply_rl(out, &rl, v);
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        out.note(Note::BecameMgr { ver: self.ver });
        let carried_invis = if self.cfg.compression {
            invis.clone()
        } else {
            Vec::new()
        };
        self.broadcast(
            out,
            Msg::ReconfCommit(Shared::from(ReconfBody {
                rl,
                ver: v,
                invis: carried_invis,
                faulty: self.faulty_vec(),
            })),
        );
        self.next.clear();
        // Begin the Mgr role on the contingent plan.
        self.forced = invis.iter().copied().collect();
        let usable = self.cfg.compression && invis.first().is_some_and(|&op| self.op_valid(op));
        if let Some(vnext) = self.ver.checked_add(1).filter(|_| usable) {
            // The reconfiguration commit doubled as the invitation for the
            // first contingent operation: go straight to the await phase.
            let op = self.forced.pop_front().expect("plan is non-empty");
            let pending = self.await_set();
            self.role = Role::MgrAwait {
                op,
                ver: vnext,
                pending,
                oks: BTreeSet::new(),
            };
            self.mgr_check_complete(out);
        } else {
            // No usable plan, compression off, or no version after
            // `Ver::MAX`: fresh invitations, if they can be numbered.
            self.role = Role::MgrIdle;
            self.mgr_start_update(out);
        }
    }

    fn on_reconf_commit(&mut self, out: &mut impl Out<Msg>, from: ProcessId, body: &ReconfBody) {
        if !matches!(self.role, Role::Outer) || self.lifecycle != Lifecycle::Active {
            return;
        }
        let ReconfBody {
            ref rl,
            ver: v,
            ref invis,
            faulty: ref f,
        } = *body;
        if v < self.ver || rl.is_empty() {
            return; // stale, or a commit that installs nothing
        }
        if f.contains(&self.me)
            || rl.iter().any(|op| op.removes(self.me))
            || invis.first().map(|op| op.removes(self.me)).unwrap_or(false)
        {
            self.do_quit(out, QuitReason::Excluded);
            return;
        }
        for &q in f {
            self.handle_faulty(out, q, FaultySource::Gossip);
            if self.lifecycle == Lifecycle::Stopped {
                return;
            }
        }
        self.mgr = from; // the commit's authority is the new coordinator
        self.apply_rl(out, rl, v);
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        // Compressed continuation: the commit doubles as the invitation for
        // the first contingent operation.
        match invis.first().copied() {
            Some(n) => self.accept_invite(out, n, from),
            None => self.next.clear(),
        }
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        // GMP-5 liveness: surviving suspicions reach the new coordinator.
        self.report_suspects(out);
        self.drain_buffer(out);
    }

    fn report_suspects(&mut self, out: &mut impl Out<Msg>) {
        if self.mgr == self.me || self.faulty.contains(&self.mgr) {
            return;
        }
        let suspects = self.faulty.iter().copied();
        for q in suspects.filter(|&q| self.view.contains(q) && q != self.mgr) {
            out.send(self.mgr, Msg::FaultyReport { suspect: q });
            if let Some(r) = self.fd.resolve(q) {
                self.last_report.set(r, self.now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Joins (§7)
    // ------------------------------------------------------------------

    fn on_join_request(&mut self, out: &mut impl Out<Msg>, joiner: ProcessId) {
        if self.lifecycle != Lifecycle::Active || joiner == self.me {
            return;
        }
        if self.view.contains(joiner) {
            // Already a member (it may have missed its Welcome): any member
            // can re-welcome it.
            out.send(joiner, self.welcome(self.mgr));
            return;
        }
        if self.is_mgr() {
            if !self.recovered.contains(&joiner) && !self.iso.is_isolated(joiner) {
                self.recovered.push_back(joiner);
                out.note(Note::JoinRequested { joiner });
                if matches!(self.role, Role::MgrIdle) {
                    self.mgr_start_update(out);
                }
            }
        } else if !self.faulty.contains(&self.mgr) && self.mgr != self.me {
            out.send(self.mgr, Msg::JoinRequest { joiner });
        }
    }

    fn on_welcome(&mut self, out: &mut impl Out<Msg>, from: ProcessId, body: Shared<WelcomeBody>) {
        if self.lifecycle != Lifecycle::Joining {
            return;
        }
        let WelcomeBody {
            members,
            ver: v,
            seq,
            mgr,
        } = Shared::unwrap_or_clone(body);
        // A member list that repeats a process, or leaves out this joiner,
        // is no view to join: ignore it whole and keep asking.
        let Some(view) = View::try_new(members).filter(|view| view.contains(self.me)) else {
            return;
        };
        self.view = view;
        self.ver = v;
        self.seq = seq;
        self.mgr = mgr;
        self.lifecycle = Lifecycle::Active;
        self.role = Role::Outer;
        // Bootstrap grace: members only start heartbeating this joiner once
        // *their* copy of the add-commit arrives, which can lag well behind
        // the Welcome if the coordinator fails mid-broadcast. Future-dating
        // the first life sign gives them three full timeout windows before
        // the joiner may suspect anyone it has never heard from.
        let grace = self.now + 2 * self.cfg.suspect_after;
        self.install_topology(grace);
        // The welcomer demonstrably executes the protocol; other view
        // members may themselves still be joining, so they stay
        // unconfirmed until their first message arrives here.
        self.confirm_peer(from);
        self.events.push(MemberEvent::Welcomed {
            ver: self.ver,
            members: self.view.to_vec(),
            mgr: self.mgr,
        });
        out.note(Note::ViewInstalled {
            ver: self.ver,
            members: self.view.shared(),
            mgr: self.mgr,
        });
        out.set_timer(self.cfg.heartbeat_every, TICK);
        // Replay coordinator rounds that overtook this Welcome (see the
        // `Joining` arm of `receive`). `dispatch` re-buffers anything
        // still ahead of the installed view; stale entries fail the
        // handlers' version guards.
        let held = std::mem::take(&mut self.buffered);
        for (sender, msg) in held {
            if self.lifecycle != Lifecycle::Active {
                break;
            }
            self.fd.heard_from(sender, self.now);
            self.confirm_peer(sender);
            self.dispatch(out, sender, msg);
        }
    }

    // ------------------------------------------------------------------
    // Observer side (§8 hierarchical service)
    // ------------------------------------------------------------------

    /// Handles a view notification at an observer.
    fn on_view_update(&mut self, out: &mut impl Out<Msg>, body: Shared<ViewUpdateBody>) {
        let ViewUpdateBody {
            members,
            ver: v,
            mgr,
        } = Shared::unwrap_or_clone(body);
        // A member list that repeats a process is no view: ignore it whole.
        let (Some(obs), Some(view)) = (self.obs.as_mut(), View::try_new(members)) else {
            return;
        };
        obs.last_update = self.now;
        obs.subscribed = true;
        if obs.seen_any && v <= obs.ver {
            return; // stale or duplicate snapshot
        }
        let members = view.shared();
        obs.view = view;
        obs.ver = v;
        obs.mgr = mgr;
        obs.seen_any = true;
        out.note(Note::ObservedView {
            ver: v,
            members,
            mgr,
        });
    }

    /// Periodic observer maintenance: subscribe, detect a dead contact,
    /// fail over to the next one.
    fn on_observe_tick(&mut self, out: &mut impl Out<Msg>) {
        if self.lifecycle != Lifecycle::Observing {
            return;
        }
        let poll_every = self
            .cfg
            .observe
            .as_ref()
            .expect("observer config")
            .poll_every;
        let now = self.now;
        let Some(obs) = self.obs.as_mut() else { return };
        // Fail-over candidates: configured contacts plus every member we
        // have observed (the service outlives any single member).
        let mut candidates: Vec<ProcessId> = obs.contacts.clone();
        for m in obs.view.iter() {
            if !candidates.contains(&m) {
                candidates.push(m);
            }
        }
        let stale = now.saturating_sub(obs.last_update) >= self.cfg.suspect_after;
        if stale {
            if obs.subscribed || obs.last_update > 0 {
                obs.idx = (obs.idx + 1) % candidates.len();
            }
            obs.subscribed = false;
            obs.last_update = now;
        }
        let contact = candidates[obs.idx % candidates.len()];
        if !obs.subscribed {
            out.send(contact, Msg::Subscribe);
        }
        out.set_timer(poll_every, OBSERVE);
    }

    // ------------------------------------------------------------------
    // Periodic tick: heartbeats + failure detection (F1)
    // ------------------------------------------------------------------

    fn on_tick(&mut self, out: &mut impl Out<Msg>) {
        if self.lifecycle != Lifecycle::Active {
            return;
        }
        let now = self.now;

        // Apply injected (spurious) suspicions and detector timeouts
        // *before* choosing heartbeat targets: S1 starts at the suspicion,
        // so a peer declared faulty at this very tick must not receive one
        // more heartbeat from us.
        let injected = std::mem::take(&mut self.injected);
        for q in injected {
            self.handle_faulty(out, q, FaultySource::Injected);
            if self.lifecycle == Lifecycle::Stopped {
                return;
            }
        }
        for q in self.fd.tick(now) {
            self.handle_faulty(out, q, FaultySource::Observation);
            if self.lifecycle == Lifecycle::Stopped {
                return;
            }
        }

        // Heartbeat fan-out. The faulty set is materialized at most once per
        // tick (and only when it changed), wrapped in an `Arc`-shared
        // snapshot, and fanned out by reference: per-recipient payload cost
        // is an O(1) clone of the digest, not a fresh `Vec`. The full set
        // travels only on the first beat to a peer after a change — every
        // later beat on that (reliable FIFO) link is a pure life sign, so
        // the gossip states receivers reach are exactly those of flooding.
        // NB: `sent` marks the epoch at *send* time, which is only sound on
        // the model's reliable channels (§2.1) *and* only for a receiver
        // that will actually process the beat. A `Joining` receiver
        // discards everything but `Welcome`, so a carrying beat that
        // overlaps the join window would be eaten and never retransmitted —
        // the joiner would miss this member's faulty set until it next
        // changed. The epoch is therefore marked sent only once the peer is
        // `confirmed` Active (we received some message from it other than
        // its own `JoinRequest`; lifecycle is monotone past `Active`, so
        // later beats can never land on a `Joining` receiver again). Until
        // then the snapshot is re-carried on every beat — an O(1) `Arc`
        // clone, no extra messages and no extra materializations. Lossy
        // `BlockMode::Drop` links would break the marking the same way,
        // and stay reserved for the baseline counterexample protocols.
        if self.cfg.gossip && !self.faulty.iter().copied().eq(self.hb.last.iter().copied()) {
            self.hb.epoch += 1;
            self.hb.last = self.faulty_vec(); // once per tick, not per target
            self.hb.snapshot = if self.hb.last.is_empty() {
                None
            } else {
                self.hb.builds += 1;
                Some(Shared::from(self.hb.last.clone()))
            };
        }
        // Heartbeats (and their digests) go to the *monitoring set*, not
        // the whole view — under the default Flat topology these coincide.
        // Suspicion relay on sparse graphs falls out of this line plus the
        // epoch bump above: learning `Faulty{q}` (by timeout or digest)
        // changes `self.faulty`, which re-publishes the snapshot to
        // exactly these monitors on this very tick.
        let snapshot = self.hb.snapshot.clone();
        let epoch = self.hb.epoch;
        for &p in &self.topo_monitored {
            if self.faulty.contains(&p) {
                continue;
            }
            let digest = match (&snapshot, self.fd.resolve(p)) {
                (Some(set), Some(r)) => {
                    let peer = self.hb.peers.entry(r);
                    if peer.sent == Some(epoch) {
                        HeartbeatDigest::empty()
                    } else {
                        if peer.confirmed {
                            peer.sent = Some(epoch);
                        }
                        HeartbeatDigest::snapshot(set.clone())
                    }
                }
                _ => HeartbeatDigest::empty(),
            };
            out.send(p, Msg::Heartbeat { digest });
        }

        // Periodic re-reports keep GMP-5 live across coordinator changes
        // and lost observers.
        if !self.is_mgr() && self.mgr != self.me && !self.faulty.contains(&self.mgr) {
            for &q in &self.faulty {
                let r = self.fd.resolve(q);
                let last = r.and_then(|r| self.last_report.get(r));
                let due = last.is_none_or(|&t| now.saturating_sub(t) >= self.cfg.suspect_after);
                if self.view.contains(q) && due {
                    out.send(self.mgr, Msg::FaultyReport { suspect: q });
                    if let Some(r) = r {
                        self.last_report.set(r, now);
                    }
                }
            }
        }

        out.set_timer(self.cfg.heartbeat_every, TICK);
    }

    /// Central message dispatch (shared by live delivery and buffer replay).
    fn dispatch(&mut self, out: &mut impl Out<Msg>, from: ProcessId, msg: Msg) {
        match msg {
            Msg::Heartbeat { digest } => {
                if self.cfg.gossip {
                    for q in digest.faulty() {
                        if q != self.me {
                            self.handle_faulty(out, q, FaultySource::Gossip);
                            if self.lifecycle == Lifecycle::Stopped {
                                return;
                            }
                        }
                    }
                }
            }
            Msg::FaultyReport { suspect } => {
                if self.is_mgr() {
                    self.handle_faulty(out, suspect, FaultySource::Gossip);
                }
            }
            Msg::JoinRequest { joiner } => self.on_join_request(out, joiner),
            Msg::Invite { op, ver } => self.on_invite(out, from, op, ver),
            Msg::UpdateOk { ver } => self.on_update_ok(out, from, ver),
            Msg::Commit(body) => self.on_commit(out, from, body),
            Msg::Interrogate => self.on_interrogate(out, from),
            Msg::InterrogateOk(body) => self.on_interrogate_ok(out, from, body),
            Msg::Propose(body) => self.on_propose(out, from, &body),
            Msg::ProposeOk { ver } => self.on_propose_ok(out, from, ver),
            Msg::ReconfCommit(body) => self.on_reconf_commit(out, from, &body),
            Msg::Welcome(body) => self.on_welcome(out, from, body),
            Msg::Subscribe => {
                if self.lifecycle == Lifecycle::Active {
                    self.subscribers.insert(from);
                    out.send(from, self.view_update());
                }
            }
            Msg::ViewUpdate(_) => {} // members ignore stray updates
        }
    }
}

impl Node<Msg> for Member {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.start(ctx, ctx.id(), ctx.now());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
        self.receive(ctx, from, msg, ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, tag: u64) {
        self.fire(ctx, tag, ctx.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigBuilder, JoinConfig, ObserveConfig};
    use crate::topology::Sparse;
    use gmp_sim::Effect;
    use std::sync::Arc;

    /// A hand-driven member's sink.
    type Sink = Vec<Effect<Msg>>;

    /// A joiner started as p2 with p0 as its contact.
    fn joiner() -> Member {
        joiner_with(Config::builder())
    }

    fn joiner_with(cfg: ConfigBuilder) -> Member {
        let cfg = cfg.joining(JoinConfig::new(1, vec![ProcessId(0)])).build();
        let mut m = Member::joiner(cfg);
        m.start(&mut Sink::new(), ProcessId(2), 0);
        m
    }

    fn welcome(members: &[u32], ver: Ver) -> Msg {
        Msg::Welcome(Shared::from(WelcomeBody {
            members: members.iter().copied().map(ProcessId).collect(),
            ver,
            seq: Vec::new(),
            mgr: ProcessId(0),
        }))
    }

    fn reconf(rl: Vec<Op>, ver: Ver, invis: Vec<Op>) -> Shared<ReconfBody> {
        Shared::from(ReconfBody {
            rl,
            ver,
            invis,
            faulty: Vec::new(),
        })
    }

    #[test]
    fn a_sparse_member_indexes_only_up_to_its_largest_neighbour() {
        let view: View = (0..1024).map(ProcessId).collect();
        for (me, ring) in [(0, [1, 2, 1022, 1023]), (700, [698, 699, 701, 702])] {
            let cfg = Config::builder().topology(Sparse::new(4)).build();
            let mut m = Member::new(cfg, view.clone());
            m.start(&mut Sink::new(), ProcessId(me), 0);
            let enrolled: Vec<u32> = m.fd.enrolled().map(|(p, _)| p.0).collect();
            assert_eq!(enrolled, ring, "p{me} enrolls its four ring neighbours");
            let span = m.fd.id_span();
            assert!(
                span <= ring[3] as usize + 1,
                "p{me}'s id index spans {span}"
            );
        }
    }

    #[test]
    fn welcome_repeating_a_member_is_ignored() {
        let mut m = joiner();
        let mut out = Sink::new();
        m.receive(&mut out, ProcessId(0), welcome(&[0, 2, 0], 3), 5);
        assert_eq!(m.lifecycle(), Lifecycle::Joining);
        assert!(m.view().is_empty());
        assert!(out.is_empty());
        assert!(m.take_events().is_empty());
    }

    #[test]
    fn welcome_omitting_the_joiner_is_ignored() {
        let mut m = joiner();
        let mut out = Sink::new();
        m.receive(&mut out, ProcessId(0), welcome(&[0, 1], 3), 5);
        assert_eq!(m.lifecycle(), Lifecycle::Joining);
        assert!(m.view().is_empty());
        assert!(out.is_empty());
        assert!(m.take_events().is_empty());
        // The join timer still fires and asks again.
        m.fire(&mut out, JOIN, 6);
        assert!(sent(&mut out)
            .iter()
            .any(|msg| matches!(msg, Msg::JoinRequest { joiner } if *joiner == ProcessId(2))));
    }

    /// The member lists of `ViewInstalled` notes in `out`, in order.
    fn installed_lists(out: &Sink) -> Vec<Arc<[ProcessId]>> {
        out.iter()
            .filter_map(|e| match e {
                Effect::Note(Note::ViewInstalled { members, .. }) => Some(members.clone()),
                _ => None,
            })
            .collect()
    }

    /// A view note records the member's own list rather than a copy, the
    /// initial members of one group share one list, and a recorded list
    /// never changes when the member installs the next view.
    #[test]
    fn view_notes_share_the_list_and_keep_it() {
        let initial: View = (0..4).map(ProcessId).collect();
        let mut p0 = Member::new(Config::default(), initial.clone());
        let mut p1 = Member::new(Config::default(), initial.clone());
        p0.start(&mut Sink::new(), ProcessId(0), 0);
        let mut out = Sink::new();
        p1.start(&mut out, ProcessId(1), 0);
        let v0 = installed_lists(&out).pop().expect("start installs v0");
        assert!(Arc::ptr_eq(&v0, &p1.view().shared()));
        assert!(Arc::ptr_eq(&p0.view().shared(), &p1.view().shared()));

        let commit = Msg::Commit(Shared::from(CommitBody {
            op: Op::remove(ProcessId(3)),
            ver: 1,
            next: None,
            faulty: Vec::new(),
            recovered: Vec::new(),
        }));
        let mut out = Sink::new();
        p1.receive(&mut out, ProcessId(0), commit, 5);
        assert_eq!(p1.ver(), 1);
        let v1 = installed_lists(&out).pop().expect("the commit installs v1");
        assert!(Arc::ptr_eq(&v1, &p1.view().shared()));
        let ids = |list: &[ProcessId]| list.iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(ids(&v1), [0, 1, 2]);
        assert_eq!(ids(&v0), [0, 1, 2, 3], "the v0 note still lists p3");
        assert_eq!(ids(p0.view().as_slice()), [0, 1, 2, 3]);
    }

    #[test]
    fn view_update_repeating_a_member_is_ignored() {
        let cfg = Config::builder()
            .observing(ObserveConfig::new(1, vec![ProcessId(0)]))
            .build();
        let mut m = Member::observer(cfg);
        m.start(&mut Sink::new(), ProcessId(5), 0);
        let mut out = Sink::new();
        let update = |members: Vec<ProcessId>| {
            Msg::ViewUpdate(Shared::from(ViewUpdateBody {
                members,
                ver: 2,
                mgr: ProcessId(1),
            }))
        };
        m.receive(
            &mut out,
            ProcessId(0),
            update(vec![ProcessId(1), ProcessId(1)]),
            5,
        );
        assert!(m.observed_view().is_none());
        assert!(out.is_empty());
        m.receive(
            &mut out,
            ProcessId(0),
            update(vec![ProcessId(1), ProcessId(3)]),
            6,
        );
        let (view, ver, _) = m.observed_view().expect("a well-formed update is taken");
        assert_eq!(
            (view.as_slice(), ver),
            ([ProcessId(1), ProcessId(3)].as_slice(), 2)
        );
    }

    /// `Ver::MAX` has no successor: rounds that would need one are dropped
    /// instead of overflowing.
    #[test]
    fn rounds_at_the_last_version_do_not_overflow() {
        let mut m = joiner();
        m.receive(
            &mut Sink::new(),
            ProcessId(0),
            welcome(&[0, 1, 2], Ver::MAX),
            5,
        );
        assert_eq!((m.lifecycle(), m.ver()), (Lifecycle::Active, Ver::MAX));
        let mut out = Sink::new();
        let invite = Op::add(ProcessId(4));
        for ver in [Ver::MAX, Ver::MAX - 7] {
            let commit = Msg::Commit(Shared::from(CommitBody {
                op: Op::add(ProcessId(3)),
                ver,
                next: Some(invite),
                faulty: Vec::new(),
                recovered: Vec::new(),
            }));
            m.receive(&mut out, ProcessId(0), commit, 6);
        }
        let rl = vec![Op::add(ProcessId(3))];
        let reconf = Msg::ReconfCommit(reconf(rl, Ver::MAX, vec![invite]));
        m.receive(&mut out, ProcessId(0), reconf, 7);
        assert_eq!((m.lifecycle(), m.ver()), (Lifecycle::Active, Ver::MAX));
        assert!(!out.iter().any(|e| matches!(
            e,
            Effect::Send {
                msg: Msg::UpdateOk { .. },
                ..
            }
        )));
    }

    /// A wire message whose reconfiguration installs no operation is
    /// ignored whole: p2, welcomed at v3 into p0..p2, keeps its version,
    /// view and `Mgr`, and emits nothing.
    fn assert_empty_rl_ignored(msg: Msg) {
        let mut m = joiner();
        m.receive(&mut Sink::new(), ProcessId(0), welcome(&[0, 1, 2], 3), 5);
        m.take_events();
        let mut out = Sink::new();
        m.receive(&mut out, ProcessId(1), msg, 6);
        assert_eq!((m.ver(), m.mgr(), m.view().len()), (3, ProcessId(0), 3));
        assert!(out.is_empty());
        assert!(m.take_events().is_empty());
    }

    #[test]
    fn propose_with_an_empty_rl_is_ignored() {
        assert_empty_rl_ignored(Msg::Propose(reconf(Vec::new(), 4, Vec::new())));
    }

    #[test]
    fn reconf_commit_with_an_empty_rl_is_ignored() {
        assert_empty_rl_ignored(Msg::ReconfCommit(reconf(Vec::new(), 4, Vec::new())));
    }

    /// p3 answers the interrogation from one version ahead but with no
    /// longer a `seq`: the catch-up would install nothing, so p2 proposes
    /// nothing rather than a proposal with an empty `rl`.
    #[test]
    fn interrogation_that_decides_an_empty_rl_proposes_nothing() {
        let mut m = joiner();
        let out = interrogate_at(&mut m, 3, 4, Vec::new());
        assert!(out.is_empty(), "{out:?}");
        assert_eq!((m.lifecycle(), m.ver()), (Lifecycle::Active, 3));
    }

    /// p2, welcomed into p0..p4 at `ver`, suspects both seniors and
    /// interrogates the rest; p3 answers from `ahead` with `seq`, p4 from
    /// `ver`. Returns the messages p2 sent after the answers.
    fn interrogate_at(m: &mut Member, ver: Ver, ahead: Ver, seq: Vec<Op>) -> Vec<Msg> {
        let mut out = Sink::new();
        m.receive(&mut out, ProcessId(0), welcome(&[0, 1, 2, 3, 4], ver), 5);
        m.inject_suspicion(ProcessId(0));
        m.inject_suspicion(ProcessId(1));
        m.fire(&mut out, TICK, 6);
        assert!(sent(&mut out)
            .iter()
            .any(|msg| matches!(msg, Msg::Interrogate)));
        for (p, ver, seq) in [(3, ahead, seq), (4, ver, Vec::new())] {
            let next = Vec::new();
            let resp = Shared::from(InterrogateOkBody { ver, seq, next });
            m.receive(&mut out, ProcessId(p), Msg::InterrogateOk(resp), 7);
        }
        sent(&mut out)
    }

    /// The messages sent into `out` since it was last read, which empties it.
    fn sent(out: &mut Sink) -> Vec<Msg> {
        let out = out.drain(..);
        out.filter_map(|e| match e {
            Effect::Send { msg, .. } => Some(msg),
            _ => None,
        })
        .collect()
    }

    /// A reconfiguration initiator at `Ver::MAX` has no version to propose:
    /// it starts no round. One a version behind still catches up to it.
    #[test]
    fn reconfiguration_proposes_no_version_after_the_last() {
        let mut m = joiner();
        let out = interrogate_at(&mut m, Ver::MAX, Ver::MAX, Vec::new());
        assert!(out.is_empty(), "{out:?}");
        assert_eq!((m.lifecycle(), m.ver()), (Lifecycle::Active, Ver::MAX));

        let mut m = joiner();
        let seq = vec![Op::remove(ProcessId(1))];
        let out = interrogate_at(&mut m, Ver::MAX - 1, Ver::MAX, seq.clone());
        assert!(out.iter().all(|msg| matches!(
            msg,
            Msg::Propose(body) if body.ver == Ver::MAX && body.rl == seq
        )));
        assert_eq!(out.len(), 4, "one proposal per other member");
    }

    /// A reconfiguration that installs `Ver::MAX` makes its initiator `Mgr`
    /// with no version left for the contingent plan: it announces the
    /// commit and invites nobody, with or without condensed rounds.
    #[test]
    fn the_new_mgr_at_the_last_version_invites_nobody() {
        for compression in [true, false] {
            let mut m = joiner_with(Config::builder().compression(compression));
            let out = interrogate_at(&mut m, Ver::MAX - 1, Ver::MAX - 1, Vec::new());
            assert!(matches!(&out[0], Msg::Propose(body) if body.ver == Ver::MAX));
            let mut sink = Sink::new();
            for p in [3, 4] {
                m.receive(&mut sink, ProcessId(p), Msg::ProposeOk { ver: Ver::MAX }, 8);
            }
            let out = sent(&mut sink);
            assert_eq!((m.ver(), m.mgr()), (Ver::MAX, ProcessId(2)));
            assert!(matches!(&out[0], Msg::ReconfCommit(body) if body.ver == Ver::MAX));
            assert!(!out.iter().any(|msg| matches!(msg, Msg::Invite { .. })));
            // A later suspicion finds no version to number its update.
            let report = Msg::FaultyReport {
                suspect: ProcessId(4),
            };
            m.receive(&mut sink, ProcessId(3), report, 9);
            assert!(sent(&mut sink).is_empty());
        }
    }
}
