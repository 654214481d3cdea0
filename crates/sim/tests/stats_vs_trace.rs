//! `Stats` counts each send at its index in the trace's tag table, and
//! reads its counters by text: whatever address a tag's text arrives
//! from, the per-tag counts equal the trace's `Send` records.

use gmp_sim::{Builder, Ctx, Message, Node, Sim, TraceKind};
use gmp_types::ProcessId;
use proptest::prelude::*;

/// A message whose tag is whatever text, at whatever address, it carries.
#[derive(Clone, Debug)]
struct Tagged(&'static str);

impl Message for Tagged {
    fn tag(&self) -> &'static str {
        self.0
    }
}

/// p0 sends `tags` in order at start, each to the next process round the
/// ring of the others.
struct Script(Vec<&'static str>);

impl Node<Tagged> for Script {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Tagged>) {
        if ctx.id() == ProcessId(0) {
            for (i, &tag) in self.0.iter().enumerate() {
                ctx.send(ProcessId(1 + i as u32 % 3), Tagged(tag));
            }
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Tagged>, _: ProcessId, _: Tagged) {}
    fn on_timer(&mut self, _: &mut Ctx<'_, Tagged>, _: u64) {}
}

fn run(tags: &[&'static str]) -> Sim<Tagged, Script> {
    let mut sim = Builder::new().build();
    for _ in 0..4 {
        sim.add_node(Script(tags.to_vec()));
    }
    sim.run_until(100);
    sim
}

const TEXTS: [&str; 4] = ["hb", "invite", "ok", "commit"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sends whose tags are the literals or, at random, leaked copies of
    /// their text: for every text, `Stats::sends` equals the number of
    /// `Send` records with that text, and the counters equal those of the
    /// same run with literals only.
    #[test]
    fn per_tag_counts_match_the_trace(picks in proptest::collection::vec((0..TEXTS.len(), proptest::bool::ANY), 0..120)) {
        let tags: Vec<&'static str> = picks
            .iter()
            .map(|&(i, leak)| if leak { &*Box::leak(TEXTS[i].to_owned().into_boxed_str()) } else { TEXTS[i] })
            .collect();
        let sim = run(&tags);
        let sent: Vec<&str> = sim
            .trace()
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Send { tag, .. } => Some(tag),
                _ => None,
            })
            .collect();
        prop_assert_eq!(sent.len(), tags.len());
        let stats = sim.stats();
        for text in TEXTS.into_iter().chain(["absent"]) {
            let in_trace = sent.iter().filter(|&&t| t == text).count() as u64;
            prop_assert_eq!(stats.sends(text), in_trace, "tag {}", text);
            prop_assert_eq!(stats.sends_matching(|t| t == text), in_trace, "tag {}", text);
        }
        prop_assert_eq!(stats.sends_total(), tags.len() as u64);
        let literals: Vec<&'static str> = picks.iter().map(|&(i, _)| TEXTS[i]).collect();
        prop_assert_eq!(stats, run(&literals).stats());
    }
}
