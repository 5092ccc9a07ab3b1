// Command genio-sim runs the deterministic scenario-simulation and
// fault-injection campaigns of internal/sim against a real platform and
// emits a JSON report. A run is fully determined by (campaign, seed):
// re-running with the same flags reproduces the identical report, which
// is what makes a red run a shareable bug reproduction.
//
// Usage:
//
//	genio-sim -list                              # name the campaigns
//	genio-sim -campaign churn -seed 7            # one campaign, JSON report
//	genio-sim -campaign all -seed 7              # every campaign
//	genio-sim -campaign failover-storm -summary  # one-line verdicts only
//	genio-sim -campaign event-storm -events      # + spine firehose on stderr
//	genio-sim -campaign cancel-storm -seed 7     # API-v2 cancellation races
//
// cancel-storm drives asynchronous deployments (DeployAsync futures)
// with seeded cancellations deterministically landing mid-scan; its
// invariants prove no cancelled deployment is ever placed and that every
// future emits exactly one terminal deploy.lifecycle event.
//
// -events streams every event-spine record (incidents, falco alerts,
// audit, metrics) as JSON lines to stderr while the run executes. The
// stdout report stays byte-identical; the firehose itself is an
// observation stream whose interleaving across concurrent publishers is
// not part of the replay contract.
//
// Exit status is non-zero when any invariant was violated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"genio/internal/sim"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genio-sim:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out, errOut io.Writer) (int, error) {
	fs := flag.NewFlagSet("genio-sim", flag.ContinueOnError)
	fs.SetOutput(out)
	campaign := fs.String("campaign", "all", "campaign to run (see -list), or 'all'")
	seed := fs.Int64("seed", 1, "RNG seed; same (campaign, seed) replays the identical run")
	list := fs.Bool("list", false, "list campaigns and exit")
	summary := fs.Bool("summary", false, "print one line per campaign instead of JSON")
	firehose := fs.Bool("events", false, "stream every spine event as JSON lines on stderr")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}

	if *list {
		for _, n := range sim.CampaignNames() {
			fmt.Fprintln(out, n)
		}
		return 0, nil
	}

	names := []string{*campaign}
	if *campaign == "all" {
		names = sim.CampaignNames()
	}

	engine := sim.NewEngine(nil)
	if *firehose {
		engine.SetFirehose(errOut)
	}
	code := 0
	for _, name := range names {
		sc, err := sim.NewCampaign(name, *seed)
		if err != nil {
			return 2, err
		}
		rep, err := engine.Run(sc)
		if err != nil {
			return 2, fmt.Errorf("campaign %s: %w", name, err)
		}
		if !rep.Passed {
			code = 1
		}
		if *summary {
			verdict := "PASS"
			if !rep.Passed {
				verdict = "FAIL"
			}
			fmt.Fprintf(out, "%s: %s seed=%d steps=%d violations=%d admitted=%d rejected=%d virtual=%dms\n",
				verdict, rep.Scenario, rep.Seed, len(rep.Steps), rep.Violations,
				rep.Final.Admitted, rep.Final.Rejected, rep.Final.VirtualMs)
			continue
		}
		js, err := rep.JSON()
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "%s\n", js)
	}
	return code, nil
}
