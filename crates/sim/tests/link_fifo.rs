//! Links stay FIFO (§2.1) through `Hold` blocks, `Drop` blocks, partitions,
//! heals and the releases they trigger: on every directed link, the
//! message ids a receiver records rise.

use gmp_sim::{BlockMode, Builder, Ctx, Message, Node, Sim, Time, TraceKind};
use gmp_types::ProcessId;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
struct Ping;

impl Message for Ping {
    fn tag(&self) -> &'static str {
        "ping"
    }
}

/// Sends one `Ping` to every other process at each time of `at`.
struct Sender {
    n: u32,
    at: Vec<Time>,
}

impl Sender {
    fn fan_out(&self, ctx: &mut Ctx<'_, Ping>) {
        let me = ctx.id();
        for to in (0..self.n).map(ProcessId).filter(|&to| to != me) {
            ctx.send(to, Ping);
        }
    }
}

impl Node<Ping> for Sender {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
        for &t in &self.at {
            if t == 0 {
                self.fan_out(ctx);
            } else {
                ctx.set_timer(t, 0);
            }
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: ProcessId, _: Ping) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Ping>, _: u64) {
        self.fan_out(ctx);
    }
}

/// The message ids each directed link delivered, in delivery order.
fn received(sim: &Sim<Ping, Sender>) -> BTreeMap<(ProcessId, ProcessId), Vec<u64>> {
    let mut links: BTreeMap<_, Vec<u64>> = BTreeMap::new();
    for e in sim.trace().events.iter() {
        if let TraceKind::Recv { from, msg_id } = e.kind {
            links.entry((from, e.pid)).or_default().push(msg_id);
        }
    }
    links
}

/// p0 sends to p1 at 0 and at 6 and every message takes 10 ticks; `cut`
/// severs the link from 5 to 20, so message 1 is in flight when the cut
/// begins and message 2 is sent into it. Returns what p1 received.
fn sent_across_a_cut(cut: impl FnOnce(&mut Sim<Ping, Sender>)) -> Vec<u64> {
    let mut sim = Builder::new().delay(10, 10).build();
    sim.add_node(Sender {
        n: 2,
        at: vec![0, 6],
    });
    sim.add_node(Sender { n: 2, at: vec![] });
    cut(&mut sim);
    sim.run_until(100);
    assert_eq!(sim.stats().held, 0, "all released");
    received(&sim)
        .remove(&(ProcessId(0), ProcessId(1)))
        .unwrap_or_default()
}

/// A message caught in flight by a `Hold` block is older than one sent
/// into the block, and is delivered first.
#[test]
fn a_hold_block_keeps_the_link_fifo() {
    let got = sent_across_a_cut(|sim| {
        sim.block_link_at(ProcessId(0), ProcessId(1), BlockMode::Hold, 5);
        sim.unblock_link_at(ProcessId(0), ProcessId(1), 20);
    });
    assert_eq!(got, [1, 2]);
}

#[test]
fn a_partition_keeps_the_link_fifo() {
    let got = sent_across_a_cut(|sim| {
        sim.partition_at(&[&[ProcessId(0)], &[ProcessId(1)]], 5);
        sim.heal_at(20);
    });
    assert_eq!(got, [1, 2]);
}

/// A message still in flight when the link is released, due before the
/// backlog's fresh delivery times, does not overtake the older message
/// the block caught: message 1 (due at 7) is held, message 2 (due at 12)
/// arrives after the release at 10, and message 1's token fires at 21.
#[test]
fn a_release_keeps_the_backlog_ahead_of_later_messages() {
    let mut sim = Builder::new().build();
    sim.add_node(Sender {
        n: 2,
        at: vec![0, 1],
    });
    sim.add_node(Sender { n: 2, at: vec![] });
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    sim.set_link_delay_at(p0, p1, Some((7, 7)), 0);
    sim.set_link_delay_at(p0, p1, Some((11, 11)), 1);
    sim.block_link_at(p0, p1, BlockMode::Hold, 5);
    sim.unblock_link_at(p0, p1, 10);
    sim.run_until(100);
    assert_eq!(received(&sim)[&(p0, p1)], [1, 2]);
}

/// A second partition that puts both ends of a cut link in one group
/// reconnects it, and releases its backlog as a heal would: with no heal
/// in the run, every message p0 sent still reaches p1, in order.
#[test]
fn a_partition_that_reconnects_a_link_releases_its_backlog() {
    let mut sim = Builder::new().build();
    sim.add_node(Sender {
        n: 2,
        at: (1..100).collect(),
    });
    sim.add_node(Sender { n: 2, at: vec![] });
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    sim.partition_at(&[&[p0], &[p1]], 10);
    sim.partition_at(&[&[p0, p1]], 30);
    sim.run_until(10_000);
    let got = received(&sim).remove(&(p0, p1)).unwrap_or_default();
    assert_eq!(sim.stats().held, 0, "nothing stays held");
    assert_eq!(got, (1..100).collect::<Vec<u64>>());
}

/// Processes of the random runs: six directed links.
const N: u32 = 3;
/// Every process sends to every other once a tick until here.
const SENDING: Time = 120;
/// Every block and partition is lifted here, so the run drains.
const LIFT: Time = 1_000;

/// One fault of a random schedule, at a time before [`SENDING`] ends.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Hold(u32, u32),
    Drop(u32, u32),
    Unblock(u32, u32),
    /// Cuts the one process off from the others.
    Isolate(u32),
    Heal,
}

fn fault() -> impl Strategy<Value = Fault> {
    (0u8..5, 0..N, 1..N).prop_map(|(kind, a, d)| {
        let b = (a + d) % N;
        match kind {
            0 => Fault::Hold(a, b),
            1 => Fault::Drop(a, b),
            2 => Fault::Unblock(a, b),
            3 => Fault::Isolate(a),
            _ => Fault::Heal,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A steady sender on every link, under random `Hold` and `Drop`
    /// blocks, partitions and heals: every link's received message ids
    /// rise, and once every fault is lifted each message was received or
    /// dropped, and none is still held.
    #[test]
    fn links_stay_fifo_under_random_blocks_and_partitions(
        seed in 0u64..1_000,
        faults in proptest::collection::vec((0..SENDING, fault()), 0..12),
    ) {
        let mut sim = Builder::new().seed(seed).delay(1, 20).build();
        for _ in 0..N {
            sim.add_node(Sender { n: N, at: (0..SENDING).collect() });
        }
        let p = ProcessId;
        for &(at, f) in &faults {
            match f {
                Fault::Hold(a, b) => sim.block_link_at(p(a), p(b), BlockMode::Hold, at),
                Fault::Drop(a, b) => sim.block_link_at(p(a), p(b), BlockMode::Drop, at),
                Fault::Unblock(a, b) => sim.unblock_link_at(p(a), p(b), at),
                Fault::Isolate(a) => {
                    let rest: Vec<ProcessId> = (0..N).filter(|&b| b != a).map(p).collect();
                    sim.partition_at(&[&[p(a)], &rest], at);
                }
                Fault::Heal => sim.heal_at(at),
            }
        }
        sim.heal_at(LIFT);
        for a in 0..N {
            for b in (0..N).filter(|&b| b != a) {
                sim.unblock_link_at(p(a), p(b), LIFT);
            }
        }
        sim.run_until(2 * LIFT);
        let links = received(&sim);
        for (link, ids) in &links {
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "link {:?} delivered {:?}", link, ids);
        }
        let stats = sim.stats();
        let got: usize = links.values().map(Vec::len).sum();
        prop_assert_eq!(stats.held, 0);
        prop_assert_eq!(got as u64 + stats.dropped_link, stats.sends_total());
    }
}
