"""Fleet failover: lose a region at its peak, or survive it.

A downstream-user scenario for the global tier: build the three-region
fleet, schedule the headline drill — the first region dark across its
own diurnal peak — then run the day twice.  Undefended, the anycast LB
keeps sending the dead region its traffic and a third of the planet's
users eat the outage.  Defended, health probes detect the region in
under a second and the router spills its traffic to the surviving
regions, paying two inter-region legs of latency instead of losing the
requests.  Ends with the capacity verdict: what region-loss tolerance
costs in overprovision.

Run:  python examples/fleet_failover.py
"""

from repro.fleet_global import (
    region_outage_drill,
    run_fleet,
    smoke_study,
    standard_fleet,
)


def main() -> None:
    fleet = standard_fleet(replicas_per_region=5)
    print(f"fleet: {fleet.users_millions:.0f}M users across "
          f"{len(fleet.regions)} regions, {fleet.total_replicas} replicas "
          f"on {fleet.total_hosts} hosts, one compressed day of "
          f"{fleet.duration_s:.0f}s")
    for region in fleet.regions:
        model = fleet.traffic_model(region)
        print(f"  {region.name:<10} UTC{region.timezone_offset_h:+5.1f}h  "
              f"{region.replicas} replicas  "
              f"peak {model.mean_rate_per_s * model.peak_to_mean:.0f} req/s")

    # The headline drill: the first region goes dark across its peak.
    drill = region_outage_drill(fleet)
    print("\ndrill:")
    for event in drill.events:
        print(f"  t={event.at_s:5.1f}s outage {event.region} "
              f"for {event.duration_s:.1f}s")

    print("\nsame day, same seed, defenses off then on...\n")
    off = run_fleet(fleet, drill=drill, defended=False)
    print(off.summary())
    print()
    on = run_fleet(fleet, drill=drill, defended=True)
    print(on.summary())

    dead = fleet.regions[0].name
    print(f"\nundefended, the LB never learns {dead} is dark: "
          f"{off.region(dead).loss_fraction:.1%} of its users' requests "
          f"are lost and global loss is {off.loss_fraction:.1%}.")
    print(f"defended, probes detect the outage in "
          f"{on.region(dead).detection_lag_s:.2f}s and spill "
          f"{on.spill_fraction:.1%} of global traffic to the survivors: "
          f"loss falls to {on.loss_fraction:.1%} at "
          f"{on.p99_latency_s * 1e3:.1f} ms global P99 "
          f"(each spilled request pays two inter-region legs).")

    # What does region-loss tolerance cost?  Sweep region sizes.
    print("\ncapacity study (smoke sweep):\n")
    print(smoke_study().summary())


if __name__ == "__main__":
    main()
