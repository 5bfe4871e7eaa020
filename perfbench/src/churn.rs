//! The resident workloads under route churn, both with warm solver memos:
//!
//! * `serve_churn`: a `SymNetServer` over `isp_backbone(size 8, entries
//!   200)` with two closed-loop clients. A monitor re-queries back to back;
//!   an operator publishes a seeded route add or withdraw through
//!   `RuleTables::apply_with` → `ServeHandle::apply_delta`, then queries the
//!   new epoch.
//! * `service_deltas`: a `VerifyService` over `fat_tree(k = 6)`; every
//!   operation publishes a seeded route delta through `RuleTables::apply_with`
//!   → `VerifyService::apply_update` and re-verifies the standing query, so
//!   the service's incremental reuse does the work.
//!
//! The seed drives the generator and the delta stream. The stream toggles
//! fresh routes on seeded routers (add route *i*, withdraw route *i*, add
//! route *i + 1*, …) and returns to the base tables after one period, so the
//! topology after delta *e* is the period's state `e mod period`. Before any
//! timing, a mirror of the scenario walks one period: for every state it
//! computes the digest of a from-scratch `SymNet::inject` canonical report and
//! cross-checks the state once with the concrete replay oracle
//! (`symnet_testgen::fuzz::check_scenario`). Every timed verdict's rendered
//! report must match the digest of the state it was answered on.

use crate::harness::{attempt, digest, repeat_setup, Rng, Window};
use crate::trace::span;
use crate::Workload;
use std::time::{Duration, Instant};
use symnet_core::report::canonical_report_json_string;
use symnet_core::{
    ExecConfig, QueryId, ServeHandle, ServerConfig, ServerStats, SymNet, SymNetServer,
    VerifyService,
};
use symnet_models::delta::{Delta, RuleTables, TableView};
use symnet_testgen::fuzz::{apply_mutation, check_scenario, Mutation};
use symnet_testgen::generators::{fat_tree, fat_tree_host_ip, isp_backbone};
use symnet_testgen::{FuzzScenario, GeneratorConfig};

/// Which resident workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// `SymNetServer` over an ISP backbone, monitor + operator clients.
    ServeChurn,
    /// `VerifyService` over a fat tree, one delta + re-verify per operation.
    ServiceDeltas,
}

impl ChurnKind {
    /// Fresh routes in one period of the delta stream (the period has twice
    /// as many deltas). Every state of the period is computed from scratch
    /// before timing, which bounds it.
    pub fn routes(self) -> usize {
        match self {
            ChurnKind::ServeChurn => 12,
            ChurnKind::ServiceDeltas => 64,
        }
    }

    fn scenario(self, seed: u64) -> FuzzScenario {
        match self {
            ChurnKind::ServeChurn => isp_backbone(&GeneratorConfig {
                seed,
                size: 8,
                entries: 200,
            }),
            ChurnKind::ServiceDeltas => fat_tree(&GeneratorConfig {
                seed,
                size: 6,
                entries: 0,
            }),
        }
    }

    /// A route prefix the stream may add: a fresh /24 anywhere on the
    /// backbone; a host /32 inside the fabric (so it redirects real traffic).
    fn draw_prefix(self, rng: &mut Rng) -> (u32, u8) {
        match self {
            ChurnKind::ServeChurn => (rng.next_u64() as u32 & 0xffff_ff00, 24),
            ChurnKind::ServiceDeltas => (
                fat_tree_host_ip(rng.below(6), rng.below(3), rng.below(3)),
                32,
            ),
        }
    }
}

/// The execution configuration of every engine, service and server in a
/// churn workload: `nproc` workers and the scenario's hop budget.
fn exec_config(scenario: &FuzzScenario) -> ExecConfig {
    ExecConfig {
        max_hops: scenario.max_hops,
        ..ExecConfig::default()
    }
}

/// One period of the seeded delta stream over `scenario`'s routers.
pub fn delta_stream(
    kind: ChurnKind,
    scenario: &FuzzScenario,
    seed: u64,
    routes: usize,
) -> Vec<Delta> {
    let routers: Vec<_> = scenario
        .tables
        .registered()
        .filter_map(|(id, _, view)| match view {
            TableView::Router(fib) => Some((id, fib)),
            _ => None,
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0xD317_A5EE_D5EE_D000);
    let mut stream = Vec::with_capacity(2 * routes);
    for _ in 0..routes {
        let (element, fib) = routers[rng.below(routers.len())];
        let (prefix, prefix_len) = loop {
            let (prefix, len) = kind.draw_prefix(&mut rng);
            if !fib
                .entries
                .iter()
                .any(|e| e.prefix == prefix && e.prefix_len == len)
            {
                break (prefix, len);
            }
        };
        stream.push(Delta::RouteAdd {
            element,
            prefix,
            prefix_len,
            port: rng.below(fib.port_count),
        });
        stream.push(Delta::RouteWithdraw {
            element,
            prefix,
            prefix_len,
        });
    }
    stream
}

/// The expected answer for every state of one stream period.
#[derive(Clone, Debug)]
pub struct Expected {
    /// `digests[i]`: digest of the from-scratch canonical report after `i`
    /// deltas of the period.
    pub digests: Vec<u64>,
}

impl Expected {
    /// Checks a rendered verdict answered on the state after `deltas` deltas.
    pub fn check(&self, deltas: u64, json: &str) -> Result<(), String> {
        let want = self.digests[(deltas % self.digests.len() as u64) as usize];
        let got = digest(json);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "verdict after {deltas} deltas has digest {got:#018x}, from-scratch run says {want:#018x}"
            ))
        }
    }
}

/// Walks one stream period on a mirror scenario: from-scratch digests and a
/// replay-oracle check per state. Untimed.
pub fn expected_answers(kind: ChurnKind, seed: u64, stream: &[Delta]) -> Result<Expected, String> {
    let mut mirror = kind.scenario(seed);
    let config = exec_config(&mirror);
    let from_scratch = |scenario: &FuzzScenario| -> Result<u64, String> {
        let engine = SymNet::with_config(scenario.network.clone(), config.clone());
        let report = engine
            .try_inject(scenario.inject_at, scenario.inject_port, &scenario.packet)
            .map_err(|e| e.to_string())?;
        Ok(digest(&canonical_report_json_string(
            &report,
            engine.network(),
        )))
    };
    check_scenario(&mirror).map_err(|e| format!("replay oracle, base state: {e}"))?;
    let mut digests = vec![from_scratch(&mirror)?];
    for (i, delta) in stream.iter().enumerate() {
        if !apply_mutation(&mut mirror, &Mutation::Delta(delta.clone())) {
            return Err(format!("delta {i} ({delta:?}) does not change the tables"));
        }
        if matches!(delta, Delta::RouteAdd { .. }) {
            check_scenario(&mirror).map_err(|e| format!("replay oracle after delta {i}: {e}"))?;
        }
        digests.push(from_scratch(&mirror)?);
    }
    let last = digests.pop().expect("the base digest is present");
    if last != digests[0] {
        return Err("the delta stream does not return to the base tables".into());
    }
    Ok(Expected { digests })
}

/// The system under test of a churn workload.
enum Resident {
    Server {
        /// Held for its lifetime: dropping it shuts the server down and
        /// joins its threads.
        _server: SymNetServer,
        handle: ServeHandle,
    },
    Service {
        service: VerifyService,
        query: QueryId,
    },
}

/// A built churn workload.
pub struct Churn {
    kind: ChurnKind,
    /// The generated scenario; its rule tables moved to `tables`.
    scenario: FuzzScenario,
    /// The operator's rule tables: the compiled truth of the resident system.
    tables: RuleTables,
    resident: Resident,
    stream: Vec<Delta>,
    expected: Expected,
    /// Deltas published so far.
    published: u64,
}

impl Churn {
    /// Builds the scenario and starts the resident system: what `setup_s`
    /// times.
    fn build(kind: ChurnKind, seed: u64) -> (FuzzScenario, Resident) {
        let scenario = span("models.build", || kind.scenario(seed));
        let config = exec_config(&scenario);
        let resident = match kind {
            ChurnKind::ServeChurn => {
                let server = SymNetServer::start(
                    scenario.network.clone(),
                    ServerConfig {
                        workers: config.threads,
                        capacity: 64,
                        exec: config,
                    },
                );
                let handle = server.handle();
                Resident::Server {
                    _server: server,
                    handle,
                }
            }
            ChurnKind::ServiceDeltas => {
                let mut service = VerifyService::new(scenario.network.clone(), config);
                let query = service.add_query(
                    "fabric",
                    scenario.inject_at,
                    scenario.inject_port,
                    scenario.packet.clone(),
                );
                Resident::Service { service, query }
            }
        };
        (scenario, resident)
    }

    /// The expected answers this workload checks against (the self-test
    /// plants wrong ones).
    #[cfg(test)]
    pub fn expected_mut(&mut self) -> &mut Expected {
        &mut self.expected
    }

    /// Answers the standing query once, untimed, and checks it:
    /// warms the memos for the base state and gives the service a previous
    /// answer to re-verify incrementally.
    pub fn prime(&mut self) -> Result<(), String> {
        match &mut self.resident {
            Resident::Server { handle, .. } => {
                let served = handle
                    .verify(
                        self.scenario.inject_at,
                        self.scenario.inject_port,
                        self.scenario.packet.clone(),
                    )
                    .and_then(|t| t.wait())
                    .map_err(|e| e.to_string())?;
                let json = canonical_report_json_string(&served.report, &self.scenario.network);
                self.expected.check(served.epoch, &json)
            }
            Resident::Service { service, query } => {
                let answer = service.verify(*query).map_err(|e| e.to_string())?;
                self.expected.check(
                    0,
                    &canonical_report_json_string(&answer.report, service.network()),
                )
            }
        }
    }
}

/// Builds a churn workload (set-up timed by [`repeat_setup`]), then draws a
/// delta stream of `routes` fresh routes and computes its expected answers,
/// untimed.
pub fn setup(kind: ChurnKind, seed: u64, routes: usize) -> Result<(Churn, Vec<Duration>), String> {
    let ((mut scenario, resident), times) = repeat_setup(|| Churn::build(kind, seed));
    let stream = delta_stream(kind, &scenario, seed, routes);
    let tables = std::mem::take(&mut scenario.tables);
    let expected = expected_answers(kind, seed, &stream)?;
    let churn = Churn {
        kind,
        scenario,
        tables,
        resident,
        stream,
        expected,
        published: 0,
    };
    Ok((churn, times))
}

/// One served verdict: submit, wait, render, check against the epoch the
/// query was pinned to. Returns the submission-to-report time.
fn served_verdict(
    handle: &ServeHandle,
    scenario: &FuzzScenario,
    expected: &Expected,
    w: &mut Window,
) -> Result<Duration, String> {
    let start = Instant::now();
    let served = span("server.verify", || {
        handle
            .verify(
                scenario.inject_at,
                scenario.inject_port,
                scenario.packet.clone(),
            )
            .and_then(|ticket| ticket.wait())
    })
    .map_err(|e| e.to_string())?;
    let answered = start.elapsed();
    // The pinned epoch's topology, for rendering element names: the stream
    // only toggles routes, so every epoch shares the element set and a
    // canonical report renders identically against any of them.
    let json = span("report.render", || {
        canonical_report_json_string(&served.report, &scenario.network)
    });
    let elapsed = start.elapsed();
    w.counters.served += 1;
    w.counters.server_wall += served.wall;
    w.counters.server_wait += answered.saturating_sub(served.wall);
    w.counters.rendered(&json);
    expected.check(served.epoch, &json)?;
    w.queries += 1;
    Ok(elapsed)
}

impl Churn {
    /// serve_churn: the monitor and the operator run until `deadline`.
    fn serve_window(&mut self, deadline: Instant) -> Window {
        let Resident::Server { handle, .. } = &self.resident else {
            unreachable!("serve window on a server workload")
        };
        let scenario = &self.scenario;
        let expected = &self.expected;
        let stream = &self.stream;
        let tables = &mut self.tables;
        let published = &mut self.published;
        let start = Instant::now();
        let (monitor, operator) = std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                let mut w = Window::default();
                while Instant::now() < deadline {
                    let outcome = attempt(|| {
                        let elapsed = span("verdict", || {
                            served_verdict(handle, scenario, expected, &mut w)
                        })?;
                        w.verdict.push(elapsed);
                        Ok(())
                    });
                    w.tally.record(outcome);
                }
                w
            });
            let operator = scope.spawn(|| {
                let mut w = Window::default();
                while Instant::now() < deadline {
                    let delta = &stream[(*published % stream.len() as u64) as usize];
                    let mut diverged = false;
                    let outcome = attempt(|| {
                        span("delta_verdict", || {
                            let start = Instant::now();
                            let ticket = span("models.compile", || {
                                tables.apply_with(delta, |element, program| {
                                    handle.apply_delta(element, program)
                                })
                            })
                            .map_err(|e| e.to_string())?
                            .ok_or_else(|| format!("delta {delta:?} did not change the tables"))?;
                            // The tables changed: a delta the server did not
                            // publish leaves them ahead of the server.
                            diverged = true;
                            let epoch = span("server.publish", || ticket.and_then(|t| t.wait()))
                                .map_err(|e| e.to_string())?;
                            diverged = false;
                            *published += 1;
                            if epoch != *published {
                                return Err(format!("published epoch {epoch}, expected {published}"));
                            }
                            served_verdict(handle, scenario, expected, &mut w)?;
                            w.delta.push(start.elapsed());
                            Ok(())
                        })
                    });
                    w.tally.record(outcome);
                    if diverged {
                        eprintln!("perfbench: the operator's tables diverged from the server; operator stops");
                        break;
                    }
                }
                w
            });
            (
                monitor.join().expect("monitor thread"),
                operator.join().expect("operator thread"),
            )
        });
        let mut w = Window::default();
        w.merge(&monitor);
        w.merge(&operator);
        w.wall = start.elapsed();
        w
    }

    /// service_deltas: delta + incremental re-verify until `deadline`.
    fn service_window(&mut self, deadline: Instant) -> Window {
        let Resident::Service { service, query } = &mut self.resident else {
            unreachable!("service window on a service workload")
        };
        let mut w = Window::default();
        let start = Instant::now();
        while Instant::now() < deadline {
            let delta = &self.stream[(self.published % self.stream.len() as u64) as usize];
            let tables = &mut self.tables;
            let expected = &self.expected;
            let published = &mut self.published;
            let outcome = attempt(|| {
                span("delta_verdict", || {
                    let start = Instant::now();
                    let update = span("service.apply", || {
                        tables.apply_with(delta, |element, program| {
                            span("service.apply_update", || {
                                service.apply_update(element, program)
                            })
                        })
                    })
                    .map_err(|e| e.to_string())?;
                    if update.is_none() {
                        return Err(format!("delta {delta:?} did not change the tables"));
                    }
                    *published += 1;
                    let applied = Instant::now();
                    let answer = span("service.verify", || service.verify(*query))
                        .map_err(|e| e.to_string())?;
                    let json = span("report.render", || {
                        canonical_report_json_string(&answer.report, service.network())
                    });
                    let (verdict, delta) = (applied.elapsed(), start.elapsed());
                    w.counters.engine(&answer.report);
                    w.counters.service(&answer.stats);
                    w.counters.rendered(&json);
                    expected.check(*published, &json)?;
                    w.verdict.push(verdict);
                    w.delta.push(delta);
                    w.queries += 1;
                    Ok(())
                })
            });
            w.tally.record(outcome);
        }
        w.wall = start.elapsed();
        w
    }
}

impl Workload for Churn {
    fn memo_state(&self) -> &'static str {
        "warm: memos filled by the expected-answer walk and the priming query, never reset"
    }

    fn window(&mut self, deadline: Instant) -> Window {
        match self.kind {
            ChurnKind::ServeChurn => self.serve_window(deadline),
            ChurnKind::ServiceDeltas => self.service_window(deadline),
        }
    }

    /// The server's reports carry construction-phase solver counters and no
    /// scheduler counters, so on serve_churn the engine, solver and scheduler
    /// layers are read from solo `SymNet::inject` runs of the monitor's query
    /// on the current epoch's snapshot, with the same warm memos.
    fn probe_layers(&mut self, w: &mut Window) {
        let Resident::Server { handle, .. } = &self.resident else {
            return;
        };
        let network = match handle.snapshot().and_then(|t| t.wait()) {
            Ok((_, network)) => network,
            Err(e) => {
                w.tally
                    .record(Err(format!("snapshot for the layer probe: {e}")));
                return;
            }
        };
        let engine = SymNet::shared(network, exec_config(&self.scenario));
        let scenario = &self.scenario;
        for _ in 0..PROBE_RUNS {
            let outcome = attempt(|| {
                span("probe", || {
                    let report = span("engine.inject", || {
                        engine.try_inject(
                            scenario.inject_at,
                            scenario.inject_port,
                            &scenario.packet,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                    w.counters.engine(&report);
                    Ok(())
                })
            });
            w.tally.record(outcome);
        }
    }

    fn server_stats(&self) -> Option<ServerStats> {
        match &self.resident {
            Resident::Server { handle, .. } => Some(handle.stats()),
            Resident::Service { .. } => None,
        }
    }
}

/// Solo engine runs behind serve_churn's engine, solver and scheduler layer
/// metrics.
const PROBE_RUNS: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;

    fn short_window(kind: ChurnKind, plant_wrong_digest: bool) -> Window {
        let (mut churn, setup_times) = setup(kind, 3, 1).expect("set-up and expected answers");
        assert!(setup_times.len() >= 3);
        churn
            .prime()
            .expect("priming verdict matches the from-scratch digest");
        if plant_wrong_digest {
            for d in &mut churn.expected_mut().digests {
                *d ^= 1;
            }
        }
        let w = churn.window(Instant::now() + Duration::from_millis(300));
        assert!(w.tally.attempted > 0, "{kind:?}");
        w
    }

    #[test]
    fn verdicts_match_the_from_scratch_digests() {
        for kind in [ChurnKind::ServiceDeltas, ChurnKind::ServeChurn] {
            let w = short_window(kind, false);
            assert_eq!(w.tally.failed, 0, "{kind:?}");
            assert!(!w.delta.is_empty(), "{kind:?}: deltas were verified");
        }
    }

    #[test]
    fn a_planted_wrong_digest_fails_every_verdict() {
        for kind in [ChurnKind::ServiceDeltas, ChurnKind::ServeChurn] {
            let w = short_window(kind, true);
            assert_eq!(w.tally.failed_ratio(), Some(1.0), "{kind:?}");
        }
    }

    #[test]
    fn the_stream_is_a_function_of_the_seed() {
        let kind = ChurnKind::ServiceDeltas;
        let scenario = kind.scenario(5);
        let a = delta_stream(kind, &scenario, 5, 8);
        assert_eq!(a, delta_stream(kind, &scenario, 5, 8));
        assert_ne!(a, delta_stream(kind, &scenario, 6, 8));
        assert_eq!(a.len(), 16);
    }
}
