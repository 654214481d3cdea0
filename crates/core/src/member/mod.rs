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
//! The code follows the paper's seams. Each file below is one `impl
//! Member` block over the one struct, since every part reads the view,
//! the version, the faulty set and the detector:
//!
//! | file | paper | handlers |
//! |---|---|---|
//! | `mod.rs` | — | entry points, `dispatch`, the awaited round, `apply_op`, `handle_faulty` |
//! | `update.rs` | Figs. 8–9 (§3) | `mgr_start_update`, `mgr_commit`, `on_invite`, `on_commit`, `drain_buffer` |
//! | `reconf.rs` | Figs. 5, 10 (§4–5) | `start_reconf`, `on_interrogate`, `reconf_decide`, `on_propose`, `reconf_commit_now`, `on_reconf_commit` |
//! | `join.rs` | §7 | `on_join_tick`, `receive_joining`, `on_join_request`, `on_welcome` |
//! | `heartbeat.rs` | §2.2 | `on_tick`, digests, `install_topology` |
//! | `observer.rs` | §8 | `on_subscribe`, `on_view_update`, `on_observe_tick` |
//!
//! A coordinator's update round and both reconfiguration phases that
//! await answers share one round value: who is still pending, who
//! answered, and the phase. One `begin_round`, one ack path and one
//! `finish_round` serve all three. A step that may quit returns
//! `Result<(), Stopped>`: `do_quit` returns the `Err` and callers write
//! `?`, so nothing runs after a quit, and a result left unchecked is an
//! `unused_must_use` warning.
//!
//! The member does no I/O. Its three entry points — [`Member::start`],
//! [`Member::receive`] and [`Member::fire`] — take the current time and
//! emit every effect through a sink, `&mut impl Out<Msg>`: in the
//! simulator that is the handler's [`Ctx`] (bare, or a composite node's
//! whose envelope converts from [`Msg`]), which applies each effect as it
//! is emitted; in a hand-wired test it is a `Vec<Effect<Msg>>`. Debug
//! builds check the member's invariants after every entry point.

mod heartbeat;
mod join;
mod observer;
mod reconf;
mod update;

use crate::config::Config;
use crate::decide::PhaseOneResp;
use crate::msg::{InterrogateOkBody, Msg};
use gmp_detect::HeartbeatDetector;
use gmp_sim::{Ctx, Node, Out};
use gmp_types::note::{FaultySource, QuitReason};
use gmp_types::{NextEntry, Note, Op, OpKind, ProcessId, Ver, View};
use heartbeat::HbGossip;
use observer::ObsState;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Timer tag: heartbeat + failure-detector tick.
const TICK: u64 = 1;
/// Timer tag: (re)send a join request.
const JOIN: u64 = 2;
/// Timer tag: observer subscription health check.
const OBSERVE: u64 = 3;
/// Ticks between an observer's subscription health checks.
const OBSERVE_EVERY: u64 = 100;

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

/// The member quit during this step: only `do_quit` makes one.
#[must_use]
struct Stopped;

/// A step that may quit. `?` carries the quit up to the entry point.
type Step = Result<(), Stopped>;

/// The member's current protocol role.
enum Role {
    /// Follower.
    Outer,
    /// Coordinator with no update in flight.
    MgrIdle,
    /// Awaiting the answers to a round this member started.
    Await(Round),
}

/// A round of answers this member awaits.
struct Round {
    /// `Memb − {me} − Faulty` at the start, less whoever answered or has
    /// since been suspected.
    pending: BTreeSet<ProcessId>,
    /// Who answered.
    oks: BTreeSet<ProcessId>,
    phase: Phase,
}

/// What a [`Round`] awaits, and what its answers carry.
enum Phase {
    /// `Mgr` awaits `OK`s for `op` installing `ver` (Fig. 8 await).
    Update { op: Op, ver: Ver },
    /// Reconfiguration Phase I: the interrogation answers so far, the
    /// initiator's own first.
    Interrogate { resp: Vec<PhaseOneResp> },
    /// Reconfiguration Phase II: acknowledgements of proposal `rl`
    /// installing `v`, with `invis` as the contingent plan.
    Propose { v: Ver, rl: Vec<Op>, invis: Vec<Op> },
}

/// A group member running the Ricciardi–Birman membership protocol.
///
/// Construct initial members with [`Member::new`] (all initial members must
/// be given the *same* view — GMP-0 assumes the initial membership is
/// commonly known) and late joiners with a [`Config`] carrying a
/// [`JoinConfig`](crate::JoinConfig). Step it through [`Member::start`],
/// [`Member::receive`] and [`Member::fire`], each given the sink its
/// effects go to.
///
/// The member's version `ver(p)` is not stored: it numbers the views
/// installed since the initial one, one per operation of `seq(p)`, so
/// [`Member::ver`] is the sequence's length. A `Welcome` or
/// `InterrogateOk` hands over the sequence alone. Nor is `Faulty(p)`
/// stored: the detector's S1 record is the one record of suspicion, and
/// [`Member::faulty_set`] is the part of the view it holds.
pub struct Member {
    cfg: Config,
    me: ProcessId,
    lifecycle: Lifecycle,
    view: View,
    /// `seq(p)`, the installed operations in order: `ver(p)` is its length.
    seq: Vec<Op>,
    next: Vec<NextEntry>,
    mgr: ProcessId,
    /// `Recovered(Mgr)`: queued joiners (meaningful while coordinator).
    recovered: VecDeque<ProcessId>,
    /// Contingent operations inherited from reconfiguration (`invis`),
    /// executed first once this member is coordinator.
    forced: VecDeque<Op>,
    /// The local detector: one lease per monitored peer (F1), and S1,
    /// the one record of suspicion — `Faulty(p)` is the part of the view
    /// isolated here (see [`Member::faulty_set`]).
    fd: HeartbeatDetector,
    role: Role,
    /// Future-view update messages, waiting for their view (§3). Wire
    /// input grows it, and nothing bounds it but the traffic: a joiner
    /// keeps every `Invite`, `Commit`, `Interrogate`, `Propose` and
    /// `ReconfCommit` from any sender until a `Welcome` replays them, and
    /// an outer member keeps every future-version `Invite` or `Commit`
    /// from its `Mgr` until its version reaches it (one stating
    /// `ver = u64::MAX` never drains). No id sizes it.
    buffered: Vec<(ProcessId, Msg)>,
    /// Suspicions queued by tests/experiments, applied at the next tick.
    injected: Vec<ProcessId>,
    /// Last time each suspect was reported to `Mgr` (for re-reports).
    /// Keyed by id, not by detector slot: on a sparse topology a suspect
    /// learned by gossip is one this member does not monitor. An entry
    /// goes when its suspect leaves the view, so it stays within the view
    /// (checked after every entry point in debug builds).
    last_report: BTreeMap<ProcessId, u64>,
    /// Sender-side state of the heartbeat digests (F2).
    hb: HbGossip,
    /// The monitoring set computed from `cfg.topology` at the last view
    /// install, in view order: heartbeat targets, digest carriers and
    /// detector enrollment all draw from this cache instead of
    /// re-enumerating the view. `install_topology` keeps it (and the
    /// detector's enrolment) in sync with the view.
    topo_monitored: Vec<ProcessId>,
    /// Observers subscribed to this member's view stream (§8): every
    /// distinct sender of a `Subscribe`, kept for good. One entry per
    /// sender, whatever its id; nothing drops an observer that stopped.
    subscribers: BTreeSet<ProcessId>,
    /// Observer-side state, when this process is an observer.
    obs: Option<ObsState>,
    /// The time of the input being handled, as the entry point was given.
    now: u64,
}

impl Member {
    /// Creates an initial member of `initial_view`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` carries a join configuration (use a joiner
    /// constructor path for that) or if the initial view is empty, and on
    /// any `cfg` its builders would reject.
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
    /// Panics if `cfg` lacks a join configuration, and on any `cfg` its
    /// builders would reject.
    pub fn joiner(cfg: Config) -> Self {
        assert!(cfg.join.is_some(), "a joiner requires a join config");
        Member::blank(cfg, Lifecycle::Joining, View::empty(), None)
    }

    /// Creates an observer of the group (§8): it receives every agreed
    /// view transition but never becomes a member.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` lacks an observer configuration, and on any `cfg`
    /// its builders would reject.
    pub fn observer(cfg: Config) -> Self {
        let observe = cfg.observe.as_ref();
        let observe = observe.expect("an observer requires an observe config");
        let obs = ObsState::new(observe.contacts.clone());
        Member::blank(cfg, Lifecycle::Observing, View::empty(), Some(obs))
    }

    /// The one constructor: version 0, no role yet, `Mgr` the most senior
    /// of `view` (a placeholder id while the view is empty). `Config`'s
    /// fields are public, so the builders' checks are repeated here: a
    /// zero interval would re-arm its timer at the current tick forever.
    fn blank(cfg: Config, lifecycle: Lifecycle, view: View, obs: Option<ObsState>) -> Self {
        assert!(
            cfg.heartbeat_every > 0 && cfg.suspect_after > 0,
            "timing values must be positive"
        );
        if let Some(join) = &cfg.join {
            assert!(
                !join.contacts.is_empty(),
                "a joiner needs at least one contact"
            );
            assert!(join.retry_every > 0, "retry interval must be positive");
        }
        if let Some(observe) = &cfg.observe {
            assert!(
                !observe.contacts.is_empty(),
                "an observer needs at least one contact"
            );
        }
        let suspect_after = cfg.suspect_after;
        Member {
            cfg,
            me: ProcessId(u32::MAX), // assigned at start
            lifecycle,
            mgr: view.most_senior().unwrap_or(ProcessId(u32::MAX)),
            view,
            seq: Vec::new(),
            next: Vec::new(),
            recovered: VecDeque::new(),
            forced: VecDeque::new(),
            fd: HeartbeatDetector::new(suspect_after),
            role: Role::Outer,
            buffered: Vec::new(),
            injected: Vec::new(),
            last_report: BTreeMap::new(),
            hb: HbGossip::default(),
            topo_monitored: Vec::new(),
            subscribers: BTreeSet::new(),
            obs,
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

    /// The current local version `ver(p)`: the length of `seq(p)`.
    pub fn ver(&self) -> Ver {
        self.seq.len() as Ver
    }

    /// Whom this process considers coordinator.
    pub fn mgr(&self) -> ProcessId {
        self.mgr
    }

    /// True while this process is coordinator.
    pub fn is_mgr(&self) -> bool {
        match &self.role {
            Role::MgrIdle => true,
            Role::Await(round) => matches!(round.phase, Phase::Update { .. }),
            Role::Outer => false,
        }
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

    /// `Faulty(p)`: the members of the view this process believes faulty,
    /// in ascending id order. It is read off S1 (the isolated ids that are
    /// in the view), so a process already isolated when an add puts it in
    /// the view is faulty from then on.
    pub fn faulty_set(&self) -> impl Iterator<Item = ProcessId> + '_ {
        faulty_in(&self.fd, &self.view)
    }

    /// Whether `q` is in `Faulty(p)`.
    fn is_faulty(&self, q: ProcessId) -> bool {
        self.fd.is_isolated(q) && self.view.contains(q)
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
    /// ascending id order. A suspect's entry is removed when the operation
    /// that excludes it is applied, so the state stays bounded by the view
    /// size across arbitrarily long reconfiguration-heavy runs.
    ///
    /// Test/experiment instrumentation (enable the `testing` feature).
    #[cfg(any(feature = "testing", test))]
    pub fn reported_suspects(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.last_report.keys().copied()
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
        self.obs.as_ref().and_then(ObsState::latest)
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
        self.announce_view(out);
        if self.mgr == self.me {
            self.role = Role::MgrIdle;
            out.note(Note::BecameMgr { ver: 0 });
        }
        out.set_timer(self.cfg.heartbeat_every, TICK);
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Handles `msg` from `from`, delivered at time `now`.
    #[inline] // into the `Node` impl: the per-message hot path
    pub fn receive(&mut self, out: &mut impl Out<Msg>, from: ProcessId, msg: Msg, now: u64) {
        self.now = now;
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        // S1: messages from perceived-faulty processes are discarded.
        // Otherwise the message is a life sign; a joiner or an observer
        // enrols nobody, so there it renews no lease.
        if !self.fd.admit(from, now) {
            out.note(Note::Isolated { from });
            return;
        }
        let _ = match self.lifecycle {
            Lifecycle::Joining => self.receive_joining(out, from, msg),
            Lifecycle::Observing => {
                if let Msg::ViewUpdate(body) = msg {
                    self.on_view_update(out, body);
                }
                Ok(())
            }
            _ => self.dispatch(out, from, msg),
        };
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Handles the timer `tag` this member armed, due at time `now`.
    #[inline] // into the `Node` impl: the heartbeat tick's path
    pub fn fire(&mut self, out: &mut impl Out<Msg>, tag: u64, now: u64) {
        self.now = now;
        if self.lifecycle == Lifecycle::Stopped {
            return;
        }
        let _ = match tag {
            TICK => self.on_tick(out),
            JOIN if self.lifecycle == Lifecycle::Joining => {
                self.on_join_tick(out);
                Ok(())
            }
            OBSERVE => {
                self.on_observe_tick(out);
                Ok(())
            }
            _ => Ok(()),
        };
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Central message dispatch for an active member (shared by live
    /// delivery and buffer replay).
    fn dispatch(&mut self, out: &mut impl Out<Msg>, from: ProcessId, msg: Msg) -> Step {
        match msg {
            Msg::Heartbeat { digest } if self.cfg.gossip => {
                for &q in digest.faulty() {
                    self.handle_faulty(out, q, FaultySource::Gossip)?;
                }
                Ok(())
            }
            Msg::FaultyReport { suspect } if self.is_mgr() => {
                self.handle_faulty(out, suspect, FaultySource::Gossip)
            }
            Msg::JoinRequest { joiner } => self.on_join_request(out, joiner),
            Msg::Invite { op, ver } => self.on_invite(out, from, op, ver),
            Msg::Commit(body) => self.on_commit(out, from, body),
            Msg::Interrogate => self.on_interrogate(out, from),
            Msg::Propose(body) => self.on_propose(out, from, &body),
            Msg::ReconfCommit(body) => self.on_reconf_commit(out, from, &body),
            Msg::Subscribe => {
                self.on_subscribe(out, from);
                Ok(())
            }
            ack @ (Msg::UpdateOk { .. } | Msg::InterrogateOk(_) | Msg::ProposeOk { .. }) => {
                self.on_ack(out, from, ack)
            }
            // Gossip is off, the reporter's `Mgr` is someone else, the
            // welcome is for a joiner, or the update is for an observer.
            Msg::Heartbeat { .. }
            | Msg::FaultyReport { .. }
            | Msg::Welcome(_)
            | Msg::ViewUpdate(_) => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // The awaited round (Fig. 8's await; Fig. 10's Phases I and II)
    // ------------------------------------------------------------------

    /// Awaits `phase`'s answers from `Memb − {me} − Faulty`, finishing at
    /// once if nobody is left to ask.
    fn begin_round(&mut self, out: &mut impl Out<Msg>, phase: Phase) -> Step {
        let pending = self
            .view
            .iter()
            .filter(|&p| p != self.me && !self.fd.is_isolated(p))
            .collect();
        let oks = BTreeSet::new();
        self.role = Role::Await(Round {
            pending,
            oks,
            phase,
        });
        self.finish_round(out)
    }

    /// An answer to the awaited round: an `OK` for the version it
    /// installs, or an interrogation response.
    fn on_ack(&mut self, out: &mut impl Out<Msg>, from: ProcessId, msg: Msg) -> Step {
        let Role::Await(round) = &mut self.role else {
            return Ok(());
        };
        let answers = match (&round.phase, &msg) {
            (Phase::Update { ver, .. }, Msg::UpdateOk { ver: v })
            | (Phase::Propose { v: ver, .. }, Msg::ProposeOk { ver: v }) => ver == v,
            (Phase::Interrogate { .. }, Msg::InterrogateOk(_)) => true,
            _ => false,
        };
        if !answers || !round.pending.remove(&from) {
            return Ok(());
        }
        round.oks.insert(from);
        if let (Phase::Interrogate { resp }, Msg::InterrogateOk(body)) = (&mut round.phase, msg) {
            let InterrogateOkBody { seq, next } = Arc::unwrap_or_clone(body);
            resp.push(PhaseOneResp { from, seq, next });
        }
        self.finish_round(out)
    }

    /// Once every awaited member has answered or been suspected: checks
    /// the majority the phase needs, counting this member — Fig. 8's
    /// `μ_Mgr` (a knob) and §5's for both reconfiguration phases — and
    /// takes the phase's next step.
    fn finish_round(&mut self, out: &mut impl Out<Msg>) -> Step {
        if !matches!(&self.role, Role::Await(round) if round.pending.is_empty()) {
            return Ok(());
        }
        let Role::Await(Round { oks, phase, .. }) = std::mem::replace(&mut self.role, Role::Outer)
        else {
            return Ok(());
        };
        let update = matches!(phase, Phase::Update { .. });
        if update {
            self.role = Role::MgrIdle;
        }
        let (got, needed) = (oks.len() + 1, self.view.majority());
        if got < needed && (self.cfg.mgr_majority || !update) {
            return self.do_quit(out, QuitReason::NoMajority { got, needed });
        }
        match phase {
            Phase::Update { op, ver } => self.mgr_commit(out, op, ver),
            Phase::Interrogate { resp } => self.reconf_decide(out, resp),
            Phase::Propose { v, rl, invis } => self.reconf_commit_now(out, v, rl, invis),
        }
    }

    // ------------------------------------------------------------------
    // Shared steps
    // ------------------------------------------------------------------

    fn do_quit(&mut self, out: &mut impl Out<Msg>, reason: QuitReason) -> Step {
        self.lifecycle = Lifecycle::Stopped;
        // A stopped member neither reports nor heartbeats ever again; free
        // the per-peer bookkeeping rather than letting it outlive the
        // membership.
        self.last_report.clear();
        self.hb = HbGossip::default();
        self.topo_monitored.clear();
        out.note(Note::Quit { reason });
        out.quit();
        Err(Stopped)
    }

    /// `Bcast(p, G, m)` (§3.1) to the rest of the view: not failure-atomic,
    /// since a crash may cut it short after any prefix of the sends.
    fn broadcast(&self, out: &mut impl Out<Msg>, msg: Msg) {
        for to in self.view.iter().filter(|&p| p != self.me) {
            out.send(to, msg.clone());
        }
    }

    fn faulty_vec(&self) -> Vec<ProcessId> {
        self.faulty_set().collect()
    }

    /// Applies one committed membership operation, appending it to `seq`
    /// (which bumps the version) and emitting the trace notes the property
    /// checkers consume.
    fn apply_op(&mut self, out: &mut impl Out<Msg>, op: Op) -> Step {
        match op.kind {
            OpKind::Remove => {
                if op.target == self.me {
                    return self.do_quit(out, QuitReason::Excluded);
                }
                // GMP-1: `q ∉ Memb(p) ⇒ faulty_p(q)` — the belief always
                // precedes the removal, whatever path committed it.
                self.suspect(out, op.target, FaultySource::Gossip);
                self.view.remove(op.target);
                self.last_report.remove(&op.target);
                self.fd.forget(op.target);
            }
            OpKind::Add => {
                // An add of this member, of a present one or of one already
                // removed (process instances never return) changes no view
                // but still advances the version, in lockstep with the group.
                if op.target != self.me && !self.seq.iter().any(|o| o.removes(op.target)) {
                    self.view.push_junior(op.target);
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
        // The per-peer bookkeeping needs no further pruning: the removal
        // above dropped the excluded member's `last_report` entry, and its
        // lease went with the detector slot that `fd.forget` and
        // `install_topology`'s releases freed, so the bookkeeping stays
        // bounded by the view size across arbitrarily long runs.
        out.note(Note::OpApplied {
            op,
            ver: self.ver(),
        });
        self.announce_view(out);
        self.notify_subscribers(out);
        Ok(())
    }

    /// Records the view just installed: the trace note the GMP checks and
    /// the consumers' `ViewInstalled` read.
    fn announce_view(&self, out: &mut impl Out<Msg>) {
        let (ver, members, mgr) = (self.ver(), self.view.shared(), self.mgr);
        out.note(Note::ViewInstalled { ver, members, mgr });
    }

    /// `faulty_p(q)` (§2.2) without driving any protocol step: isolates
    /// `q` (S1, which frees its lease), making it faulty while it is in the
    /// view, drops it from the queued joiners and records the suspicion.
    /// False when `q` is this member or already believed faulty. Called
    /// alone inside a protocol transition (applying a removal or a
    /// proposal), where GMP-1 requires the belief to precede the removal
    /// but a succession step mid-transition would be unsound.
    fn suspect(&mut self, out: &mut impl Out<Msg>, q: ProcessId, source: FaultySource) -> bool {
        if q == self.me || !self.fd.isolate(q) {
            return false;
        }
        self.recovered.retain(|&j| j != q);
        out.note(Note::Faulty { suspect: q, source });
        true
    }

    /// The core `faulty_p(q)` event (§2.2): [`suspect`](Self::suspect),
    /// then whatever protocol step the suspicion of a member unblocks.
    fn handle_faulty(
        &mut self,
        out: &mut impl Out<Msg>,
        q: ProcessId,
        source: FaultySource,
    ) -> Step {
        if !self.suspect(out, q, source) || !self.view.contains(q) {
            return Ok(());
        }
        // Drop placeholders of a dead interrogator: we stop waiting for its
        // proposal. Concrete entries are evidence and stay (§4.4).
        self.next.retain(|e| !(e.is_placeholder() && e.coord == q));
        match &mut self.role {
            Role::MgrIdle => self.mgr_start_update(out),
            Role::Await(round) => {
                round.pending.remove(&q);
                self.finish_round(out)
            }
            Role::Outer => {
                // Report the observation so Mgr starts the exclusion
                // algorithm (§3.1); gossip-derived beliefs are re-reported
                // periodically instead to avoid echo storms.
                if matches!(source, FaultySource::Observation | FaultySource::Injected)
                    && q != self.mgr
                    && self.mgr != self.me
                    && !self.is_faulty(self.mgr)
                {
                    out.send(self.mgr, Msg::FaultyReport { suspect: q });
                    self.last_report.insert(q, self.now);
                }
                self.maybe_initiate(out)
            }
        }
    }

    /// What every step keeps, checked after each entry point in debug
    /// builds: the awaited round asks only other members and never twice,
    /// and never awaits an isolated one (S1 drops its every answer); the
    /// report throttle stays within the view. The monitoring set is
    /// checked where it changes, at each view install.
    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        let within_view = |set: &BTreeSet<ProcessId>| {
            set.is_empty() || self.view.iter().filter(|p| set.contains(p)).count() == set.len()
        };
        assert!(
            self.last_report.keys().all(|&q| self.view.contains(q)),
            "report throttle {:?} outside the view",
            self.last_report
        );
        if let Role::Await(Round { pending, oks, .. }) = &self.role {
            assert!(
                !pending.contains(&self.me) && within_view(pending),
                "pending {pending:?} outside the view less {}",
                self.me
            );
            assert!(
                oks.is_disjoint(pending) && within_view(oks),
                "oks {oks:?} outside the view or still pending"
            );
            assert!(
                pending.iter().all(|&p| !self.fd.is_isolated(p)),
                "pending {pending:?} awaits an isolated process"
            );
        }
    }
}

/// The isolated ids that are in `view`, ascending: `Faulty(p)` of the
/// member that holds both. A free function so that a caller can walk it
/// while it updates the member's other fields.
fn faulty_in<'a>(
    fd: &'a HeartbeatDetector,
    view: &'a View,
) -> impl Iterator<Item = ProcessId> + 'a {
    fd.isolated().iter().copied().filter(|&q| view.contains(q))
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
    use crate::config::{JoinConfig, ObserveConfig};
    use crate::event::MemberEvent;
    use crate::msg::{CommitBody, HeartbeatDigest, ReconfBody, ViewUpdateBody, WelcomeBody};
    use crate::topology::Sparse;
    use gmp_sim::Effect;

    /// A hand-driven member's sink.
    type Sink = Vec<Effect<Msg>>;

    /// A joiner started as p2 with p0 as its contact.
    fn joiner() -> Member {
        let join = JoinConfig::new(1, vec![ProcessId(0)]);
        let mut m = Member::joiner(Config::builder().joining(join).build());
        m.start(&mut Sink::new(), ProcessId(2), 0);
        m
    }

    /// A committed sequence of `len` removals of p10, p11, …: the history
    /// of a group at version `len` whose view holds none of them.
    fn history(len: u32) -> Vec<Op> {
        (0..len).map(|i| Op::remove(ProcessId(10 + i))).collect()
    }

    /// A `Welcome` from p0 into `members` at version `ver`.
    fn welcome(members: &[u32], ver: u32) -> Msg {
        Msg::Welcome(Arc::from(WelcomeBody {
            members: members.iter().copied().map(ProcessId).collect(),
            seq: history(ver),
            mgr: ProcessId(0),
        }))
    }

    fn reconf(rl: Vec<Op>, ver: Ver, invis: Vec<Op>) -> Arc<ReconfBody> {
        Arc::from(ReconfBody {
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
            let enrolled: Vec<u32> = m.fd.enrolled().map(|p| p.0).collect();
            assert_eq!(enrolled, ring, "p{me} enrolls its four ring neighbours");
            let span = m.fd.id_span();
            assert!(
                span <= ring[3] as usize + 1,
                "p{me}'s id index spans {span}"
            );
        }
    }

    /// A member's id index spans its neighbourhood, not the ids below
    /// it: on a 1024-ring of degree 4 the 1020 inner members index five
    /// ids each and only the four that wrap round index the whole ring,
    /// ~9 200 entries in all where an index from id 0 held ~528 000.
    #[test]
    fn sparse_members_index_their_neighbourhoods_only() {
        let view: View = (0..1024).map(ProcessId).collect();
        let cfg = Config::builder().topology(Sparse::new(4)).build();
        let total: usize = view
            .iter()
            .map(|me| {
                let mut m = Member::new(cfg.clone(), view.clone());
                m.start(&mut Sink::new(), me, 0);
                m.fd.id_span()
            })
            .sum();
        assert!(total <= 10_000, "the members' id indexes span {total}");
    }

    /// S1 is the detector's: a peer this member suspects while it is
    /// still in the view is never tracked again, not even when the next
    /// view install re-tracks every monitor.
    #[test]
    fn a_suspect_still_in_the_view_stays_unmonitored_across_a_view_install() {
        let view: View = (0..4).map(ProcessId).collect();
        let (p0, p2, p3) = (ProcessId(0), ProcessId(2), ProcessId(3));
        let mut m = Member::new(Config::default(), view);
        let mut out = Sink::new();
        m.start(&mut out, ProcessId(1), 0);
        let digest = HeartbeatDigest::snapshot(Arc::from(vec![p3]));
        m.receive(&mut out, p0, Msg::Heartbeat { digest }, 1);
        assert_eq!(m.faulty_set().collect::<Vec<_>>(), [p3]);
        let enrolled: Vec<_> = m.fd.enrolled().collect();
        assert_eq!(enrolled, [p0, p2], "the suspicion frees p3's slot");
        let commit = Msg::Commit(Arc::from(CommitBody {
            op: Op::remove(p2),
            ver: 1,
            next: None,
            faulty: Vec::new(),
            recovered: Vec::new(),
        }));
        m.receive(&mut out, p0, commit, 2);
        assert_eq!(m.ver(), 1);
        assert!(m.view().contains(p3), "p3 is still a member");
        assert_eq!(
            m.fd.enrolled().collect::<Vec<_>>(),
            [p0],
            "the install must not re-track the suspect p3"
        );
    }

    /// A suspect learned by gossip that this member does not monitor is
    /// re-reported to `Mgr` once per `suspect_after`, like a monitored
    /// one, not on every tick.
    #[test]
    fn a_gossiped_suspect_outside_the_ring_is_reported_once_per_timeout() {
        let view: View = (0..16).map(ProcessId).collect();
        let cfg = Config::builder().topology(Sparse::new(4)).build();
        let (p5, p7, p9) = (ProcessId(5), ProcessId(7), ProcessId(9));
        let mut m = Member::new(cfg, view);
        let mut out = Sink::new();
        m.start(&mut out, p5, 0);
        assert!(!m.fd.enrolled().any(|p| p == p9), "p5 does not monitor p9");
        let digest = HeartbeatDigest::snapshot(Arc::from(vec![p9]));
        m.receive(&mut out, p7, Msg::Heartbeat { digest }, 1);
        assert_eq!(m.faulty_set().collect::<Vec<_>>(), [p9]);
        for k in 1..=10 {
            m.fire(&mut out, TICK, 40 * k);
        }
        let reports = out.iter().filter(|e| {
            matches!(e, Effect::Send { to, msg: Msg::FaultyReport { suspect } }
                if *to == ProcessId(0) && *suspect == p9)
        });
        assert!(reports.count() <= 2, "p9 re-reported on every tick");
    }

    #[test]
    fn welcome_repeating_a_member_is_ignored() {
        let mut m = joiner();
        let mut out = Sink::new();
        m.receive(&mut out, ProcessId(0), welcome(&[0, 2, 0], 3), 5);
        assert_eq!(m.lifecycle(), Lifecycle::Joining);
        assert!(m.view().is_empty());
        assert!(out.is_empty());
    }

    #[test]
    fn welcome_omitting_the_joiner_is_ignored() {
        let mut m = joiner();
        let mut out = Sink::new();
        m.receive(&mut out, ProcessId(0), welcome(&[0, 1], 3), 5);
        assert_eq!(m.lifecycle(), Lifecycle::Joining);
        assert!(m.view().is_empty());
        assert!(out.is_empty());
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
        let mut p2 = Member::new(Config::default(), initial.clone());
        p0.start(&mut Sink::new(), ProcessId(0), 0);
        p2.start(&mut Sink::new(), ProcessId(2), 0);
        let mut started = Sink::new();
        p1.start(&mut started, ProcessId(1), 0);
        let v0 = installed_lists(&started).pop().expect("start installs v0");
        assert!(Arc::ptr_eq(&v0, &p1.view().shared()));
        assert!(Arc::ptr_eq(&p0.view().shared(), &p1.view().shared()));

        let commit = Msg::Commit(Arc::from(CommitBody {
            op: Op::remove(ProcessId(3)),
            ver: 1,
            next: None,
            faulty: Vec::new(),
            recovered: Vec::new(),
        }));
        let mut out = Sink::new();
        p1.receive(&mut out, ProcessId(0), commit.clone(), 5);
        assert_eq!(p1.ver(), 1);
        let v1 = installed_lists(&out).pop().expect("the commit installs v1");
        assert!(Arc::ptr_eq(&v1, &p1.view().shared()));
        let ids = |list: &[ProcessId]| list.iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(ids(&v1), [0, 1, 2]);
        assert_eq!(ids(&v0), [0, 1, 2, 3], "the v0 note still lists p3");
        assert_eq!(ids(p0.view().as_slice()), [0, 1, 2, 3]);

        // The same commit at p2 installs the list p1 built, and reading
        // p1's events off its notes copies it.
        p2.receive(&mut Sink::new(), ProcessId(0), commit, 6);
        assert_eq!(p2.ver(), 1);
        assert!(Arc::ptr_eq(&p2.view().shared(), &v1));
        let events = started.iter().chain(&out).filter_map(|e| match e {
            Effect::Note(note) => MemberEvent::of(note),
            _ => None,
        });
        let installed = events.filter_map(|e| match e {
            MemberEvent::ViewInstalled { ver, members, .. } => Some((ver, ids(&members))),
            _ => None,
        });
        let installed: Vec<_> = installed.collect();
        assert_eq!(installed, [(0, vec![0, 1, 2, 3]), (1, vec![0, 1, 2])]);
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
            Msg::ViewUpdate(Arc::from(ViewUpdateBody {
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

    /// A wire message whose reconfiguration installs no operation, or
    /// more operations than there are versions up to its own, is ignored
    /// whole: p2, welcomed at v3 into p0..p2, keeps its version, view and
    /// `Mgr`, and emits nothing.
    fn assert_reconf_ignored(msg: Msg) {
        let mut m = joiner();
        m.receive(&mut Sink::new(), ProcessId(0), welcome(&[0, 1, 2], 3), 5);
        let mut out = Sink::new();
        m.receive(&mut out, ProcessId(1), msg, 6);
        assert_eq!((m.ver(), m.mgr(), m.view().len()), (3, ProcessId(0), 3));
        assert!(out.is_empty());
    }

    #[test]
    fn propose_with_an_empty_rl_is_ignored() {
        assert_reconf_ignored(Msg::Propose(reconf(Vec::new(), 4, Vec::new())));
    }

    #[test]
    fn reconf_commit_with_an_empty_rl_is_ignored() {
        assert_reconf_ignored(Msg::ReconfCommit(reconf(Vec::new(), 4, Vec::new())));
    }

    /// Five adds said to install v4 would start below version 0.
    fn rl_longer_than_its_version() -> Arc<ReconfBody> {
        reconf(
            (5..10).map(|p| Op::add(ProcessId(p))).collect(),
            4,
            Vec::new(),
        )
    }

    #[test]
    fn propose_with_an_rl_longer_than_its_version_is_ignored() {
        assert_reconf_ignored(Msg::Propose(rl_longer_than_its_version()));
    }

    #[test]
    fn reconf_commit_with_an_rl_longer_than_its_version_is_ignored() {
        assert_reconf_ignored(Msg::ReconfCommit(rl_longer_than_its_version()));
    }

    /// p2, welcomed into p0..p4 at v3, suspects both seniors and
    /// interrogates the rest. p3 answers at v3 with an empty plan for v4
    /// in its `next`: propagating it would install nothing, so p2
    /// proposes nothing rather than a proposal with an empty `rl`.
    #[test]
    fn interrogation_that_decides_an_empty_rl_proposes_nothing() {
        let mut m = joiner();
        let mut out = Sink::new();
        m.receive(&mut out, ProcessId(0), welcome(&[0, 1, 2, 3, 4], 3), 5);
        m.inject_suspicion(ProcessId(0));
        m.inject_suspicion(ProcessId(1));
        m.fire(&mut out, TICK, 6);
        assert!(sent(&mut out)
            .iter()
            .any(|msg| matches!(msg, Msg::Interrogate)));
        let empty = NextEntry::concrete(Vec::new(), ProcessId(0), 4);
        for (p, next) in [(3, vec![empty]), (4, Vec::new())] {
            let seq = history(3);
            let resp = Arc::from(InterrogateOkBody { seq, next });
            m.receive(&mut out, ProcessId(p), Msg::InterrogateOk(resp), 7);
        }
        let out = sent(&mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!((m.lifecycle(), m.ver()), (Lifecycle::Active, 3));
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

    /// A `Commit` from `Mgr` of `op` installing `ver`, stating `faulty`.
    fn commit(op: Op, ver: Ver, faulty: Vec<ProcessId>) -> Msg {
        let (next, recovered) = (None, Vec::new());
        let body = CommitBody {
            op,
            ver,
            next,
            faulty,
            recovered,
        };
        Msg::Commit(Arc::from(body))
    }

    /// An initial member p1 of p0..p3, started.
    fn p1_of_four() -> Member {
        let mut m = Member::new(Config::default(), (0..4).map(ProcessId).collect());
        m.start(&mut Sink::new(), ProcessId(1), 0);
        m
    }

    /// Process instances never return: an add of a process this member
    /// has already removed changes no view, yet keeps the version in step.
    #[test]
    fn an_add_of_a_removed_process_changes_no_view() {
        let mut m = p1_of_four();
        for (ver, op) in [(1, Op::remove(ProcessId(3))), (2, Op::add(ProcessId(3)))] {
            m.receive(
                &mut Sink::new(),
                ProcessId(0),
                commit(op, ver, Vec::new()),
                5,
            );
        }
        assert_eq!(m.ver(), 2);
        assert_eq!(m.view().as_slice(), [0, 1, 2].map(ProcessId));
    }

    /// Gossip names p4 before p1 has applied p4's add: once the add puts
    /// the isolated p4 in the view, p4 is faulty. p1 reports it to `Mgr`
    /// on its next tick and sends it no heartbeat (S1 would drop any
    /// answer, so nothing may ever wait on p4), and the beats it sends
    /// carry p4 in their digest, though no id was isolated since the
    /// tick before the add.
    #[test]
    fn a_process_isolated_before_its_add_is_faulty_once_added() {
        let (p0, p2, p4) = (ProcessId(0), ProcessId(2), ProcessId(4));
        let mut m = p1_of_four();
        let mut out = Sink::new();
        let digest = HeartbeatDigest::snapshot(Arc::from(vec![p4]));
        m.receive(&mut out, p2, Msg::Heartbeat { digest }, 5);
        // A tick while p4 is outside the view: the faulty set is empty,
        // so the beats carry an empty digest.
        m.fire(&mut out, TICK, 6);
        let digests = |out: &Sink| -> Vec<Vec<ProcessId>> {
            out.iter()
                .filter_map(|e| match e {
                    Effect::Send {
                        msg: Msg::Heartbeat { digest },
                        ..
                    } => Some(digest.faulty().to_vec()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(digests(&out), [[], [], []]);
        out.clear();
        let invite = Msg::Invite {
            op: Op::add(p4),
            ver: 1,
        };
        m.receive(&mut out, p0, invite, 6);
        m.receive(&mut out, p0, commit(Op::add(p4), 1, Vec::new()), 7);
        assert!(m.view().contains(p4));
        assert_eq!(m.faulty_set().collect::<Vec<_>>(), [p4]);
        out.clear();
        m.fire(&mut out, TICK, 40);
        let to = |p: ProcessId| {
            out.iter().filter_map(move |e| match e {
                Effect::Send { to, msg } if *to == p => Some(msg),
                _ => None,
            })
        };
        let reports: Vec<_> = to(p0)
            .filter(|msg| matches!(msg, Msg::FaultyReport { suspect } if *suspect == p4))
            .collect();
        assert_eq!(reports.len(), 1, "p4 is reported to Mgr");
        assert_eq!(to(p4).count(), 0, "p4 gets no heartbeat");
        // The add moved the view, not the isolated ids: the digest is
        // rebuilt all the same.
        assert_eq!(digests(&out), [[p4], [p4], [p4]]);
    }

    /// Ids on the wire never size the detector. A digest naming the two
    /// largest ids leaves p1's id index as small as it was and changes
    /// nothing it sends; an add of a huge id enrols it without growing
    /// the index either.
    #[test]
    fn huge_ids_on_the_wire_leave_the_id_index_small() {
        let (p0, p2) = (ProcessId(0), ProcessId(2));
        let huge = [u32::MAX - 1, u32::MAX].map(ProcessId);
        let mut m = p1_of_four();
        let mut twin = p1_of_four();
        let beat = |faulty: &[ProcessId]| Msg::Heartbeat {
            digest: HeartbeatDigest::snapshot(Arc::from(faulty)),
        };
        m.receive(&mut Sink::new(), p2, beat(&huge), 5);
        twin.receive(&mut Sink::new(), p2, beat(&[]), 5);
        assert!(m.fd.id_span() <= 64, "id index spans {}", m.fd.id_span());
        assert!(huge.iter().all(|&q| m.fd.is_isolated(q)));
        let (mut out, mut twin_out) = (Sink::new(), Sink::new());
        m.fire(&mut out, TICK, 40);
        twin.fire(&mut twin_out, TICK, 40);
        assert_eq!(format!("{out:?}"), format!("{twin_out:?}"));

        let joiner = ProcessId(u32::MAX - 7);
        m.receive(&mut out, p0, commit(Op::add(joiner), 1, Vec::new()), 41);
        assert_eq!(m.view().as_slice().last(), Some(&joiner));
        let enrolled: Vec<_> = m.fd.enrolled().collect();
        assert_eq!(enrolled, [p0, p2, ProcessId(3), joiner]);
        assert!(m.fd.id_span() <= 64, "id index spans {}", m.fd.id_span());
    }

    /// S1 holds across a joiner's replay: p2 buffers a `Commit` from
    /// `Mgr` p0 whose faulty list names p1, then p1's `Interrogate`. The
    /// `Welcome` replays both; once the commit isolates p1, p1's
    /// interrogation is dropped, so p2 neither answers it nor suspects
    /// p0, whom it would infer faulty as senior to the initiator p1.
    #[test]
    fn a_replayed_message_from_a_process_isolated_by_the_replay_is_dropped() {
        let (p0, p1) = (ProcessId(0), ProcessId(1));
        let mut m = joiner();
        let mut out = Sink::new();
        m.receive(&mut out, p0, commit(Op::add(ProcessId(9)), 4, vec![p1]), 3);
        m.receive(&mut out, p1, Msg::Interrogate, 4);
        m.receive(&mut out, p0, welcome(&[0, 1, 2, 3], 3), 5);
        assert_eq!((m.ver(), m.faulty_vec()), (4, vec![p1]));
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Note(Note::Isolated { from }) if *from == p1)));
        assert!(sent(&mut out).is_empty(), "p2 answered or interrogated");
    }

    /// `View` takes any id, the largest too: a debug build welcomes a
    /// joiner into a view that names `u32::MAX` and monitors it.
    #[test]
    fn a_welcome_naming_the_largest_id_is_joined() {
        let mut m = joiner();
        m.receive(
            &mut Sink::new(),
            ProcessId(0),
            welcome(&[0, 2, u32::MAX], 3),
            5,
        );
        assert_eq!((m.lifecycle(), m.ver()), (Lifecycle::Active, 3));
        let enrolled: Vec<_> = m.fd.enrolled().collect();
        assert_eq!(enrolled, [ProcessId(0), ProcessId(u32::MAX)]);
    }

    /// A message whose faulty set makes p1 suspect `Mgr` p0, its only
    /// senior, turns p1 into a reconfiguration initiator on the spot: the
    /// update the message carries is then not p1's to install, and a
    /// proposal is not p1's to accept. Accepting it would suspect p3,
    /// whose answer p1's own interrogation awaits.
    #[test]
    fn an_update_whose_suspicions_start_a_reconfiguration_installs_nothing() {
        let (p0, p3) = (ProcessId(0), ProcessId(3));
        let body = Arc::from(ReconfBody {
            rl: vec![Op::remove(p3)],
            ver: 1,
            invis: Vec::new(),
            faulty: vec![p0],
        });
        let msgs = [
            (0, commit(Op::remove(p3), 1, vec![p0])),
            (2, Msg::ReconfCommit(Arc::clone(&body))),
            (2, Msg::Propose(body)),
        ];
        for (from, msg) in msgs {
            let mut m = p1_of_four();
            let mut out = Sink::new();
            m.receive(&mut out, ProcessId(from), msg, 5);
            assert_eq!((m.ver(), m.view().len()), (0, 4));
            assert_eq!(m.faulty_set().collect::<Vec<_>>(), [p0]);
            let sent = sent(&mut out);
            assert!(sent.iter().any(|msg| matches!(msg, Msg::Interrogate)));
            assert!(!sent.iter().any(|msg| matches!(msg, Msg::ProposeOk { .. })));
        }
    }

    /// The invariants hold by construction; a planted non-member in the
    /// awaited round's `pending` set is caught.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pending")]
    fn a_round_awaiting_a_non_member_breaks_the_invariants() {
        let mut m = Member::new(Config::default(), (0..3).map(ProcessId).collect());
        m.start(&mut Sink::new(), ProcessId(0), 0);
        m.check_invariants();
        let op = Op::remove(ProcessId(2));
        m.role = Role::Await(Round {
            pending: BTreeSet::from([ProcessId(1), ProcessId(7)]),
            oks: BTreeSet::new(),
            phase: Phase::Update { op, ver: 1 },
        });
        m.check_invariants();
    }

    /// `Config`'s fields are public, so a builder's check can be skipped
    /// by assignment. `blank` repeats each one: a zero interval would
    /// re-arm its timer at the same tick forever, and an observer with no
    /// contacts would divide by zero picking one.
    fn initial_with(edit: impl FnOnce(&mut Config)) -> Member {
        let mut cfg = Config::default();
        edit(&mut cfg);
        Member::new(cfg, (0..3).map(ProcessId).collect())
    }

    fn joiner_editing(edit: impl FnOnce(&mut JoinConfig)) -> Member {
        let mut join = JoinConfig::new(1, vec![ProcessId(0)]);
        edit(&mut join);
        Member::joiner(Config::builder().joining(join).build())
    }

    fn observer_editing(edit: impl FnOnce(&mut ObserveConfig)) -> Member {
        let mut observe = ObserveConfig::new(1, vec![ProcessId(0)]);
        edit(&mut observe);
        Member::observer(Config::builder().observing(observe).build())
    }

    #[test]
    #[should_panic(expected = "timing values must be positive")]
    fn a_zero_heartbeat_interval_is_rejected() {
        initial_with(|cfg| cfg.heartbeat_every = 0);
    }

    #[test]
    #[should_panic(expected = "timing values must be positive")]
    fn a_zero_suspicion_timeout_is_rejected() {
        initial_with(|cfg| cfg.suspect_after = 0);
    }

    #[test]
    #[should_panic(expected = "a joiner needs at least one contact")]
    fn a_joiner_without_contacts_is_rejected() {
        joiner_editing(|join| join.contacts.clear());
    }

    #[test]
    #[should_panic(expected = "retry interval must be positive")]
    fn a_zero_join_retry_interval_is_rejected() {
        joiner_editing(|join| join.retry_every = 0);
    }

    #[test]
    #[should_panic(expected = "an observer needs at least one contact")]
    fn an_observer_without_contacts_is_rejected() {
        observer_editing(|observe| observe.contacts.clear());
    }
}
