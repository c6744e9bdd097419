// blchaos is the deterministic chaos driver for the serving stack. It
// runs one internal/chaos scenario against real processes it spawns
// and owns, replaying a seeded schedule of traffic, fault injection
// (via the servers' -chaos-admin /debug endpoints), SIGKILLs, and
// restarts, and checks the scenario's invariants. See internal/chaos
// for each scenario's phases and invariants.
//
// By default it runs the durability soak: one blserve with durable
// state, killed and restarted mid-load — asserting no torn snapshots,
// warm restarts, exclusive responses, and corruption counted instead
// of fatal.
//
// With -cluster it drives the replicated-serving scenario: N blserve
// replicas behind a real blgate, one SIGKILLed mid-load, one stalled
// through its faultpoints, a hedged request's distributed trace
// assembled, then all killed for the brownout drill — asserting zero
// client-visible 5xx while any replica is healthy, winning hedges
// against the stall, a held retry budget, and degraded stale answers
// once the whole cluster is down.
//
// With -tenants it drives the multi-tenant fairness scenario: three
// blserve -tenants replicas behind a rendezvous-routing blgate, with a
// hog tenant flooding at 10x its quota next to two well-behaved
// tenants — asserting the polite tenants stay at their baseline
// completion rate with zero errors while the hog is shed with
// quota_exceeded pass-throughs, and that SIGKILLing one replica remaps
// only its ~1/N slice of the key space while surviving keys stay
// cache-warm on their owners.
//
// On Linux every spawned server dies with blchaos, however it exits.
//
// Usage:
//
//	blchaos [-bin PATH] [-seed 1] [-duration 30s] [-state-dir DIR] [-v]
//	blchaos -cluster [-bin PATH] [-gate-bin PATH] [-replicas 3]
//	        [-seed 1] [-duration 30s] [-v]
//	blchaos -tenants [-bin PATH] [-gate-bin PATH] [-seed 1] [-v]
//
// With no -bin (or -gate-bin in a gateway scenario), blchaos builds the
// binaries from the enclosing module. The JSON report goes to stdout;
// the exit status is non-zero when any invariant was violated. A
// failing schedule replays with its -seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ballarus/internal/chaos"
	"ballarus/internal/cli"
)

func main() {
	bin := flag.String("bin", "", "blserve binary to drive (default: build cmd/blserve)")
	seed := flag.Int64("seed", 1, "schedule seed; a failing run replays with the same seed")
	duration := flag.Duration("duration", 30*time.Second, "soak length (drills run after)")
	stateDir := flag.String("state-dir", "", "server state directory (default: a temp dir, removed afterwards)")
	clusterMode := flag.Bool("cluster", false, "run the gateway cluster scenario instead of the durability soak")
	tenantsMode := flag.Bool("tenants", false, "run the multi-tenant fairness scenario instead of the durability soak")
	gateBin := flag.String("gate-bin", "", "blgate binary for -cluster/-tenants (default: build cmd/blgate)")
	replicas := flag.Int("replicas", 3, "cluster size for -cluster")
	verbose := flag.Bool("v", false, "narrate the schedule and forward server stderr")
	flag.Parse()

	scenario := chaos.Soak
	switch {
	case *tenantsMode:
		scenario = chaos.Tenants
	case *clusterMode:
		scenario = chaos.Cluster
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	var logw io.Writer = io.Discard
	if *verbose {
		logw = os.Stderr
	}
	dir, err := os.MkdirTemp("", "blchaos-bin-*")
	if err != nil {
		cli.Exit("blchaos", err)
	}
	defer os.RemoveAll(dir)
	if *bin == "" {
		if *bin, err = chaos.BuildServe(dir); err != nil {
			cli.Exit("blchaos", err)
		}
	}
	if scenario != chaos.Soak && *gateBin == "" {
		if *gateBin, err = chaos.BuildGate(dir); err != nil {
			cli.Exit("blchaos", err)
		}
	}

	rep, err := chaos.Run(ctx, scenario, chaos.Config{
		ServeBin: *bin,
		GateBin:  *gateBin,
		Seed:     *seed,
		Duration: *duration,
		Replicas: *replicas,
		StateDir: *stateDir,
		Log:      logw,
	})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if err != nil {
		cli.Exit("blchaos", err)
	}
	if len(rep.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "blchaos: invariant violation(s); replay with -seed %d\n", *seed)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "blchaos: clean %s run: %d replicas, %d requests, %d kills, %d restarts\n",
		scenario, rep.Replicas, rep.Requests, rep.Kills, rep.Restarts)
}
