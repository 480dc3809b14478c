// The scenario matrix of the engine-determinism tests: same-tick
// collisions (instant + unit latency), loss, churn, loss + churn, and
// crashes. `tests/engine_determinism.rs` `include!`s this file and runs it
// on the sequential engine; the including module supplies the imports.

/// The scenarios for `seed`.
fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut lossy = NetConfig::unit();
    lossy.loss = 0.05;
    lossy.wireless_loss = 0.02;
    let mut live = ProtocolConfig::live();
    live.token_interval = 10;
    live.token_retransmit_timeout = 30;
    live.heartbeat_interval = 100;
    live.token_lost_timeout = 400;

    let mut out = Vec::new();

    // Same-tick stress: zero latency puts every cascade on one tick.
    let sc = Scenario::new("instant joins", 2, 3).with_net(NetConfig::instant()).with_seed(seed);
    let aps = sc.layout().aps();
    let mut sc = sc;
    for (i, &ap) in aps.iter().enumerate() {
        sc = sc.join((i % 3) as u64, ap, Guid(i as u64), Luid(1));
    }
    out.push(sc.with_duration(5_000));

    // Loss + continuous tokens: retransmit/suspicion timers re-arm
    // constantly, exercising the stale-entry path.
    let sc = Scenario::new("lossy tokens", 1, 4)
        .with_cfg(live.clone())
        .with_net(lossy.clone())
        .with_seed(seed)
        .with_duration(6_000);
    let ap = sc.layout().aps()[1];
    out.push(sc.join(0, ap, Guid(1), Luid(1)));

    // Churn + loss + a crash: the full fault surface.
    let sc = Scenario::new("churn under loss", 2, 3)
        .with_cfg(live)
        .with_net(lossy)
        .with_seed(seed)
        .with_duration(8_000)
        .with_churn(ChurnParams {
            initial_members: 12,
            mean_join_interval: 300.0,
            mean_lifetime: 2_000.0,
            failure_fraction: 0.3,
            duration: 8_000,
        });
    let victim = sc.layout().aps()[2];
    out.push(sc.crash(4_000, victim));

    out
}
