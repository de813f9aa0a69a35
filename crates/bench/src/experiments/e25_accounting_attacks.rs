//! E25 — adversarial accounting: attack campaigns vs the
//! accountability-puzzle defense (§IV-B threat model, CAPnet bound).
//!
//! E6 showed the three *protocol-level* defenses (HMAC, nonces, work
//! cross-check) stopping lone dishonest peers. This experiment runs the
//! attacks those layers *cannot* stop — Sybil swarms and peer+client
//! collusion, where every record is cryptographically valid — and
//! measures the economics with the CAPnet-style accountability puzzle
//! off and on:
//!
//! - **E25a** Sybil-swarm sweep over population and swarm size: with
//!   the defense off, payable bytes grow linearly in minted identities
//!   at zero data work; with it on, the lazy swarm earns nothing and
//!   the diligent swarm's payable-per-work is pinned ≈ constant.
//! - **E25b** campaign × defense matrix (Sybil, collusion-at-scale,
//!   record laundering, adaptive throttling): what the anomaly
//!   detector catches, what only the puzzle catches, and what lands on
//!   the reputation ledger as confirmed misbehavior.
//! - **E25c** the honest-path bill: false rejections (must be zero)
//!   and the provider's verification overhead per payable byte.

use crate::table::{f2, Table};
use hpop_netsim::attacks::{AttackConfig, CampaignKind};
use hpop_nocdn::attack::{run_campaign, CampaignConfig, CampaignOutcome};

fn cfg(
    peers: usize,
    clients: usize,
    campaign: CampaignKind,
    fraction: f64,
    defense_on: bool,
    lazy: bool,
) -> CampaignConfig {
    CampaignConfig {
        peers,
        honest_clients: clients,
        attack: AttackConfig {
            campaign,
            attacker_fraction: fraction,
            seed: 25,
        },
        defense_on,
        lazy_attacker: lazy,
        seed: 25,
    }
}

fn fmt_profit(out: &CampaignOutcome) -> String {
    if out.attacker_data_work == 0 && out.fabricated_accepted_bytes > 0 {
        "unbounded (zero work)".into()
    } else {
        f2(out.profit_per_work())
    }
}

/// E25a: Sybil-swarm economics across population and swarm size.
pub fn sybil_sweep_table(populations: &[usize], sybil_counts: &[u32]) -> Table {
    let mut t = Table::new(
        "E25a",
        "Sybil swarm: attacker payable bytes vs real work (10% colluding peers)",
        &[
            "peers",
            "sybils/peer",
            "defense",
            "attacker mode",
            "fabricated accepted",
            "accepted bytes",
            "attacker work bytes",
            "payable/work",
        ],
    );
    let m = hpop_obs::metrics();
    let mut growth_min: u64 = 0;
    let mut growth_max: u64 = 0;
    let mut diligent_profit_x1000: u64 = 0;
    for &peers in populations {
        let clients = peers * 2;
        for &sybils in sybil_counts {
            let campaign = CampaignKind::SybilSwarm {
                sybils_per_peer: sybils,
            };
            let arms: [(&str, &str, bool, bool); 3] = [
                ("off", "lazy", false, true),
                ("on", "lazy", true, true),
                ("on", "diligent", true, false),
            ];
            for (defense, mode, on, lazy) in arms {
                let out = run_campaign(&cfg(peers, clients, campaign, 0.10, on, lazy));
                t.push(vec![
                    peers.to_string(),
                    sybils.to_string(),
                    defense.into(),
                    mode.into(),
                    out.fabricated_accepted.to_string(),
                    out.fabricated_accepted_bytes.to_string(),
                    out.attacker_data_work.to_string(),
                    fmt_profit(&out),
                ]);
                // Largest population drives the budgeted counters.
                if peers == *populations.last().expect("non-empty") {
                    if !on {
                        if sybils == sybil_counts[0] {
                            growth_min = out.fabricated_accepted_bytes;
                        }
                        if sybils == *sybil_counts.last().expect("non-empty") {
                            growth_max = out.fabricated_accepted_bytes;
                        }
                    } else if !lazy && sybils == *sybil_counts.last().expect("non-empty") {
                        diligent_profit_x1000 = (out.profit_per_work() * 1000.0) as u64;
                    }
                }
            }
        }
    }
    // Defense off: profit scales with minted identities (the floor
    // asserts at least the swarm-size ratio, demonstrating linear
    // growth). Defense on: the diligent attacker's payable-per-work is
    // pinned (ceiling well under 1.5).
    m.counter("acct.sybil.off.growth_x1000")
        .add(growth_max * 1000 / growth_min.max(1));
    m.counter("acct.sybil.on.profit_per_work_x1000")
        .add(diligent_profit_x1000);
    t
}

/// E25b: campaign × defense matrix at one population.
pub fn campaign_matrix_table(peers: usize) -> Table {
    let campaigns: [(&str, CampaignKind, f64); 4] = [
        (
            "sybil swarm",
            CampaignKind::SybilSwarm { sybils_per_peer: 8 },
            0.10,
        ),
        (
            "collusion at scale",
            CampaignKind::CollusionAtScale {
                fabricated_per_real: 4,
            },
            0.10,
        ),
        (
            "record laundering",
            CampaignKind::RecordLaundering {
                fabricated_fraction_bp: 2_000,
            },
            0.25,
        ),
        (
            "adaptive throttling",
            CampaignKind::Adaptive { headroom_bp: 2_000 },
            0.10,
        ),
    ];
    let mut t = Table::new(
        "E25b",
        format!("campaign x defense matrix ({peers} peers, lazy attacker)"),
        &[
            "campaign",
            "defense",
            "fabricated attempted",
            "accepted",
            "rejected",
            "colluders flagged",
            "honest flagged",
            "confirmed violations",
        ],
    );
    let mut unbacked_accepted_on = 0u64;
    for (name, campaign, fraction) in campaigns {
        for on in [false, true] {
            let out = run_campaign(&cfg(peers, peers * 2, campaign, fraction, on, true));
            t.push(vec![
                name.into(),
                if on { "on" } else { "off" }.into(),
                out.fabricated_attempted.to_string(),
                out.fabricated_accepted.to_string(),
                out.fabricated_rejected.to_string(),
                out.colluders_flagged.to_string(),
                out.honest_flagged.to_string(),
                out.confirmed_violations.to_string(),
            ]);
            if on {
                unbacked_accepted_on += out.fabricated_accepted;
            }
        }
    }
    // Across every campaign, no unbacked record may settle with the
    // defense on.
    hpop_obs::metrics()
        .counter("acct.defense.unbacked_accepted")
        .add(unbacked_accepted_on);
    t
}

/// E25c: what the defense costs honest participants.
pub fn honest_overhead_table(peers: usize, clients: usize) -> Table {
    let mut t = Table::new(
        "E25c",
        format!("honest-path cost of the defense ({peers} peers, {clients} clients, no attacker)"),
        &[
            "defense",
            "honest payable bytes",
            "false rejects",
            "provider verify bytes",
            "verify bytes / payable byte",
        ],
    );
    let no_attack = CampaignKind::SybilSwarm { sybils_per_peer: 0 };
    let mut payable = [0u64; 2];
    let mut false_rejects = 0u64;
    let mut overhead_x1000 = 0u64;
    for (i, on) in [false, true].into_iter().enumerate() {
        let out = run_campaign(&cfg(peers, clients, no_attack, 0.0, on, true));
        payable[i] = out.honest_payable;
        false_rejects += out.honest_false_rejects;
        let ratio = out.provider_verify_bytes as f64 / out.honest_payable.max(1) as f64;
        if on {
            overhead_x1000 = (ratio * 1000.0) as u64;
        }
        t.push(vec![
            if on { "on" } else { "off" }.into(),
            out.honest_payable.to_string(),
            out.honest_false_rejects.to_string(),
            out.provider_verify_bytes.to_string(),
            f2(ratio),
        ]);
    }
    let m = hpop_obs::metrics();
    m.counter("acct.honest.false_rejects").add(false_rejects);
    m.counter("acct.honest.overhead_x1000").add(overhead_x1000);
    // The defense must not change what honest peers are paid.
    m.counter("acct.honest.payable_delta")
        .add(payable[0].abs_diff(payable[1]));
    t
}

/// Full-scale run (the committed `BENCH_accounting.json`).
pub fn run_default() -> Vec<Table> {
    vec![
        sybil_sweep_table(&[20, 50, 100], &[2, 8, 32]),
        campaign_matrix_table(50),
        honest_overhead_table(50, 100),
    ]
}

/// CI smoke preset: smaller populations under the *same* experiment
/// name — every budgeted counter is a scale-free ratio or an exact
/// zero, so the same bounds hold at both scales. CI writes it with
/// `--out BENCH_accounting_smoke.json` to keep the committed full-run
/// artifact intact.
pub fn run_smoke() -> Vec<Table> {
    vec![
        sybil_sweep_table(&[20], &[2, 8]),
        campaign_matrix_table(20),
        honest_overhead_table(20, 40),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sybil_growth_is_linear_without_defense() {
        let t = sybil_sweep_table(&[20], &[2, 8]);
        // Defense-off rows: accepted bytes at 8 sybils ≈ 4x at 2.
        let off: Vec<u64> = t
            .rows
            .iter()
            .filter(|r| r[2] == "off")
            .map(|r| r[5].parse().unwrap())
            .collect();
        assert_eq!(off.len(), 2);
        assert_eq!(off[1], off[0] * 4, "linear in minted identities");
        // Defense-on lazy rows earn nothing.
        assert!(t
            .rows
            .iter()
            .filter(|r| r[2] == "on" && r[3] == "lazy")
            .all(|r| r[5] == "0"));
    }

    #[test]
    fn no_campaign_beats_the_puzzle() {
        let t = campaign_matrix_table(20);
        for row in t.rows.iter().filter(|r| r[1] == "on") {
            assert_eq!(row[3], "0", "{} settled unbacked records", row[0]);
            assert_eq!(row[2], row[4], "{}: attempted != rejected", row[0]);
        }
        // Defense off: every campaign extracts something.
        for row in t.rows.iter().filter(|r| r[1] == "off") {
            assert_ne!(row[3], "0", "{} extracted nothing?", row[0]);
        }
    }

    #[test]
    fn honest_path_pays_identically_with_zero_false_rejects() {
        let t = honest_overhead_table(10, 20);
        assert_eq!(t.rows[0][1], t.rows[1][1], "defense changed honest pay");
        assert_eq!(t.rows[0][2], "0");
        assert_eq!(t.rows[1][2], "0");
        // Overhead exists but is bounded (< 2.5 verify bytes/payable).
        let ratio: f64 = t.rows[1][4].parse().unwrap();
        assert!(ratio > 0.0 && ratio < 2.5, "overhead ratio {ratio}");
    }
}
