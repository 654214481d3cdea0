//! Observers (§8's hierarchical service): a process outside the group
//! subscribes to a member's view stream and fails over to another member
//! when the stream goes quiet; members push every installed view to their
//! subscribers.

use super::{Member, OBSERVE, OBSERVE_EVERY};
use crate::msg::{Msg, ViewUpdateBody};
use gmp_sim::Out;
use gmp_types::{Note, ProcessId, Ver, View};
use std::sync::Arc;

/// Observer-side bookkeeping.
#[derive(Clone, Debug)]
pub(super) struct ObsState {
    /// Configured fail-over contacts, tried before the observed members.
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

impl ObsState {
    pub(super) fn new(contacts: Vec<ProcessId>) -> Self {
        ObsState {
            contacts,
            idx: 0,
            last_update: 0,
            subscribed: false,
            view: View::empty(),
            ver: 0,
            mgr: ProcessId(u32::MAX),
            seen_any: false,
        }
    }

    /// The latest observed view, version and coordinator, once one came.
    pub(super) fn latest(&self) -> Option<(&View, Ver, ProcessId)> {
        self.seen_any.then_some((&self.view, self.ver, self.mgr))
    }
}

impl Member {
    /// The current view, as streamed to observers.
    fn view_update(&self) -> Msg {
        Msg::ViewUpdate(Arc::from(ViewUpdateBody {
            members: self.view.to_vec(),
            ver: self.ver(),
            mgr: self.mgr,
        }))
    }

    /// Subscribes `from` to this member's views, starting with the current.
    pub(super) fn on_subscribe(&mut self, out: &mut impl Out<Msg>, from: ProcessId) {
        self.subscribers.insert(from);
        out.send(from, self.view_update());
    }

    /// Streams the current view to subscribed observers.
    pub(super) fn notify_subscribers(&self, out: &mut impl Out<Msg>) {
        if self.subscribers.is_empty() {
            return;
        }
        let update = self.view_update();
        for &to in &self.subscribers {
            out.send(to, update.clone());
        }
    }

    /// Handles a view notification at an observer.
    pub(super) fn on_view_update(&mut self, out: &mut impl Out<Msg>, body: Arc<ViewUpdateBody>) {
        let ViewUpdateBody {
            members,
            ver: v,
            mgr,
        } = Arc::unwrap_or_clone(body);
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
    pub(super) fn on_observe_tick(&mut self, out: &mut impl Out<Msg>) {
        let Some(obs) = self.obs.as_mut() else {
            return;
        };
        let now = self.now;
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
        out.set_timer(OBSERVE_EVERY, OBSERVE);
    }
}
