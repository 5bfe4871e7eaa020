//! The cold paper-scale workloads: `table2_router` (Table 2's core router)
//! and `fig8_switch` (Figure 8's learning switch).
//!
//! Each operation is a pair of verdicts on one rule table:
//!
//! * a **verdict**: a symbolic packet injected into the ingress model
//!   (`SymNet::try_inject`) and the canonical report rendered;
//! * a **delta verdict**: a seeded table delta (route add/withdraw, MAC
//!   learn/age) published through `RuleTables::apply_with` into a
//!   `VerifyService` whose standing query covers the egress model, then
//!   `VerifyService::verify` and the rendered canonical report. The model has
//!   one element, so the service re-explores everything: incremental reuse is
//!   bypassed here.
//!
//! The process-wide solver memos are reset before every query, outside the
//! timed interval, so every query is cold. The seed shuffles the table's entry
//! order (a set, so the verdicts must not change) and drives the delta stream.
//! Expected answers come from the tables: one delivered path per port in use.

use crate::harness::{attempt, delivered_ports, Rng, Window};
use crate::trace::span;
use crate::Workload;
use std::time::Instant;
use symnet_core::network::{ElementId, Network};
use symnet_core::report::canonical_report_json_string;
use symnet_core::{ExecConfig, QueryId, SymNet, VerifyService};
use symnet_models::delta::{Delta, RouterModel, RuleTables, SwitchModel, TableView};
use symnet_models::router::{router_egress, router_ingress};
use symnet_models::switch::{switch_egress, switch_ingress};
use symnet_models::{Fib, MacTable};
use symnet_sefl::packet::{symbolic_l3_tcp_packet, symbolic_tcp_packet};
use symnet_sefl::{ElementProgram, Instruction};
use symnet_solver::solve::reset_process_memos;

/// Which paper experiment the workload reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdKind {
    /// `Fib::synthetic(entries, 8)`: Table 2's core router.
    Table2Router,
    /// `MacTable::synthetic(entries, 20)`: Figure 8's switch.
    Fig8Switch,
}

impl ColdKind {
    /// Table entries at paper scale (Table 2 at the CI size of the criterion
    /// series; Figure 8 at the paper's 480 000 MACs).
    pub fn paper_entries(self) -> usize {
        match self {
            ColdKind::Table2Router => 10_000,
            ColdKind::Fig8Switch => 480_000,
        }
    }
}

/// A built cold workload.
pub struct Cold {
    packet: Instruction,
    ingress: SymNet,
    ingress_el: ElementId,
    ingress_ports: Vec<(ElementId, usize)>,
    tables: RuleTables,
    service: VerifyService,
    query: QueryId,
    egress: ElementId,
    rng: Rng,
    /// The route or MAC added by the last delta, withdrawn by the next one.
    added: Option<Delta>,
}

/// The rule table behind the egress model.
enum Table {
    Router(Fib),
    Switch(MacTable),
}

/// The element programs and rule table of one setup.
struct Models {
    ingress: ElementProgram,
    egress: ElementProgram,
    ports: Vec<usize>,
    table: Table,
}

fn build_models(kind: ColdKind, entries: usize, rng: &mut Rng) -> Models {
    match kind {
        ColdKind::Table2Router => {
            let mut fib = Fib::synthetic(entries, 8);
            rng.shuffle(&mut fib.entries);
            Models {
                ingress: router_ingress("router", &fib),
                egress: router_egress("router", &fib),
                ports: fib.ports_in_use(),
                table: Table::Router(fib),
            }
        }
        ColdKind::Fig8Switch => {
            let mut table = MacTable::synthetic(entries, 20);
            rng.shuffle(&mut table.entries);
            Models {
                ingress: switch_ingress("switch", &table),
                egress: switch_egress("switch", &table),
                ports: table.ports_in_use(),
                table: Table::Switch(table),
            }
        }
    }
}

impl Cold {
    /// Builds the workload (table synthesis, seeded shuffle, model
    /// compilation, networks, engine and service). This is what `setup_s`
    /// times.
    pub fn build(kind: ColdKind, entries: usize, seed: u64) -> Cold {
        let mut rng = Rng::new(seed);
        let models = span("models.build", || build_models(kind, entries, &mut rng));
        let packet = match kind {
            ColdKind::Table2Router => symbolic_l3_tcp_packet(),
            ColdKind::Fig8Switch => symbolic_tcp_packet(),
        };
        let mut ingress_net = Network::new();
        let ingress_el = ingress_net.add_element(models.ingress);
        let mut egress_net = Network::new();
        let egress = egress_net.add_element(models.egress);
        let mut tables = RuleTables::new();
        match models.table {
            Table::Router(fib) => {
                tables.register_router(egress, "router", fib, RouterModel::Egress)
            }
            Table::Switch(table) => {
                tables.register_switch(egress, "switch", table, SwitchModel::Egress)
            }
        }
        let mut service = VerifyService::new(egress_net, ExecConfig::default());
        let query = service.add_query("egress", egress, 0, packet.clone());
        Cold {
            packet,
            ingress: SymNet::with_config(ingress_net, ExecConfig::default()),
            ingress_el,
            ingress_ports: models.ports.iter().map(|&p| (ingress_el, p)).collect(),
            tables,
            service,
            query,
            egress,
            rng,
            added: None,
        }
    }

    /// The delivered `(element, port)` set the egress table implies: one
    /// path per port in use.
    fn egress_ports(&self) -> Vec<(ElementId, usize)> {
        let ports = match self.tables.view(self.egress) {
            Some(TableView::Router(fib)) => fib.ports_in_use(),
            Some(TableView::Switch(table)) => table.ports_in_use(),
            _ => unreachable!("the egress element is a registered router or switch"),
        };
        ports.into_iter().map(|p| (self.egress, p)).collect()
    }

    /// The next delta: adds a fresh route or MAC, or withdraws the one the
    /// previous delta added.
    fn next_delta(&mut self) -> Delta {
        if let Some(added) = self.added.take() {
            return match added {
                Delta::RouteAdd {
                    element,
                    prefix,
                    prefix_len,
                    ..
                } => Delta::RouteWithdraw {
                    element,
                    prefix,
                    prefix_len,
                },
                Delta::MacLearn {
                    element, mac, vlan, ..
                } => Delta::MacAge { element, mac, vlan },
                other => unreachable!("only adds are remembered, got {other:?}"),
            };
        }
        let element = self.egress;
        let delta = match self.tables.view(element) {
            Some(TableView::Router(fib)) => loop {
                let prefix = self.rng.next_u64() as u32 & 0xffff_ff00;
                if !fib
                    .entries
                    .iter()
                    .any(|e| e.prefix == prefix && e.prefix_len == 24)
                {
                    break Delta::RouteAdd {
                        element,
                        prefix,
                        prefix_len: 24,
                        port: self.rng.below(fib.port_count),
                    };
                }
            },
            Some(TableView::Switch(table)) => loop {
                let mac = self.rng.next_u64() & 0xffff_ffff_ffff;
                if !table.entries.iter().any(|e| e.mac == mac) {
                    break Delta::MacLearn {
                        element,
                        mac,
                        vlan: None,
                        port: self.rng.below(table.port_count),
                    };
                }
            },
            _ => unreachable!("the egress element is a registered router or switch"),
        };
        self.added = Some(delta.clone());
        delta
    }

    /// Verifies the standing egress query once, untimed, so later deltas
    /// re-verify a query that has a previous answer.
    pub fn prime(&mut self) -> Result<(), String> {
        let expected = self.egress_ports();
        let answer = self.service.verify(self.query).map_err(|e| e.to_string())?;
        check_ports(
            "egress (priming)",
            &delivered_ports(&answer.report),
            &expected,
        )
    }

    /// One cold ingress verdict.
    fn verdict(&mut self, w: &mut Window) -> Result<(), String> {
        reset_process_memos();
        let start = Instant::now();
        let report = span("engine.inject", || {
            self.ingress.try_inject(self.ingress_el, 0, &self.packet)
        })
        .map_err(|e| e.to_string())?;
        let json = span("report.render", || {
            canonical_report_json_string(&report, self.ingress.network())
        });
        let elapsed = start.elapsed();
        w.counters.engine(&report);
        w.counters.rendered(&json);
        check_ports(
            "ingress verdict",
            &delivered_ports(&report),
            &self.ingress_ports,
        )?;
        w.verdict.push(elapsed);
        w.queries += 1;
        Ok(())
    }

    /// One cold delta verdict through the resident service.
    fn delta_verdict(&mut self, w: &mut Window) -> Result<(), String> {
        let delta = self.next_delta();
        reset_process_memos();
        let start = Instant::now();
        let service = &mut self.service;
        let published = span("service.apply", || {
            self.tables.apply_with(&delta, |element, program| {
                span("service.apply_update", || {
                    service.apply_update(element, program)
                })
            })
        })
        .map_err(|e| e.to_string())?;
        if published.is_none() {
            return Err(format!("delta {delta:?} did not change the table"));
        }
        let answer =
            span("service.verify", || service.verify(self.query)).map_err(|e| e.to_string())?;
        let json = span("report.render", || {
            canonical_report_json_string(&answer.report, service.network())
        });
        let elapsed = start.elapsed();
        w.counters.engine(&answer.report);
        w.counters.service(&answer.stats);
        w.counters.rendered(&json);
        check_ports(
            "egress delta verdict",
            &delivered_ports(&answer.report),
            &self.egress_ports(),
        )?;
        w.delta.push(elapsed);
        w.queries += 1;
        Ok(())
    }
}

fn check_ports(
    what: &str,
    got: &[(ElementId, usize)],
    expected: &[(ElementId, usize)],
) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: delivered {got:?}, tables imply {expected:?}"
        ))
    }
}

impl Workload for Cold {
    fn memo_state(&self) -> &'static str {
        "cold: process memos reset before every query, outside the timed interval"
    }

    fn window(&mut self, deadline: Instant) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        while Instant::now() < deadline {
            let outcome = attempt(|| span("verdict", || self.verdict(&mut w)));
            w.tally.record(outcome);
            let outcome = attempt(|| span("delta_verdict", || self.delta_verdict(&mut w)));
            w.tally.record(outcome);
        }
        w.wall = start.elapsed();
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The delivered sets of one ingress verdict and one egress verification.
    fn delivered_sets(kind: ColdKind, entries: usize, seed: u64) -> [Vec<(ElementId, usize)>; 2] {
        let mut cold = Cold::build(kind, entries, seed);
        let ingress = cold.ingress.inject(cold.ingress_el, 0, &cold.packet);
        let egress = cold.service.verify(cold.query).expect("egress verifies");
        [delivered_ports(&ingress), delivered_ports(&egress.report)]
    }

    #[test]
    fn delivered_port_sets_do_not_depend_on_the_seed() {
        for (kind, entries, ports) in [
            (ColdKind::Table2Router, 400, 8),
            (ColdKind::Fig8Switch, 2_000, 20),
        ] {
            let a = delivered_sets(kind, entries, 1);
            let b = delivered_sets(kind, entries, 2);
            assert_eq!(a, b, "{kind:?}");
            for set in &a {
                assert_eq!(set.len(), ports, "{kind:?}: one delivered path per port");
                assert!(
                    set.windows(2).all(|w| w[0] != w[1]),
                    "{kind:?}: one delivered path per port"
                );
            }
        }
    }

    #[test]
    fn delta_stream_adds_then_withdraws_and_verdicts_stay_correct() {
        for kind in [ColdKind::Table2Router, ColdKind::Fig8Switch] {
            let mut cold = Cold::build(kind, 300, 9);
            cold.prime().expect("priming verdict is correct");
            let mut w = Window::default();
            for _ in 0..2 {
                let outcome = attempt(|| cold.verdict(&mut w));
                w.tally.record(outcome);
                let outcome = attempt(|| cold.delta_verdict(&mut w));
                w.tally.record(outcome);
            }
            assert_eq!(w.tally.failed, 0, "{kind:?}");
            assert_eq!((w.verdict.len(), w.delta.len(), w.queries), (2, 2, 4));
            assert!(cold.added.is_none(), "the second delta withdrew the first");
            assert_eq!(
                w.counters.kept, 0,
                "single-element deltas invalidate everything"
            );
        }
    }
}
