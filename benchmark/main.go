// Command benchmark is the repo's one wire-level benchmark: it boots
// child-process daemons assembled from exactly the public pieces
// cmd/geniod uses, drives them through api/client over loopback TCP
// with seeded inputs, checks every reply against the generator's
// expected outcome, and prints every metric by name and unit. See
// README.md for the workloads, the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == daemonFlag {
		os.Exit(daemonMain(os.Args[2:]))
	}
	os.Exit(loaderMain(os.Args[1:]))
}

func daemonMain(args []string) int {
	fs := flag.NewFlagSet("benchmark -daemon", flag.ContinueOnError)
	dir := fs.String("dir", "", "run directory holding fixture.json; data/ and identity.json are written there")
	if err := fs.Parse(args); err != nil || *dir == "" {
		fmt.Fprintln(os.Stderr, "benchmark -daemon: -dir required")
		return 2
	}
	if err := runDaemon(*dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark daemon:", err)
		return 1
	}
	return 0
}

// endToEndMetrics are the numbers a user of the control plane feels,
// with the share of the parent's median each may worsen by before it
// counts as a regression. BENCHMARK.json carries the same table (a test
// keeps them equal). Only what repeats on a shared 2-vCPU runner gates:
// see README.md, "Stability, and what was demoted".
var endToEndMetrics = []struct {
	name, unit, better string
	bound              float64
}{
	{"setup_s", "s", "lower", 0.25},
	{"deploy_p50_probes", "probes", "lower", 0.25},
	{"deploys_per_s", "1/s", "higher", 0.25},
	{"watch_lag_p50_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"daemon_user_cpu_us_per_deploy", "us", "lower", 0.25},
	{"daemon_rss_mb", "MB", "lower", 0.10},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// mismatches says what the first failed checks were; stderr only.
	mismatches []string
	// info is what an untraced run measured besides: printed, gating
	// nothing (the traced run reports the same under client.* and daemon.*).
	info map[string]metric
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    int
	outDir   string
}

func loaderMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, untraced then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "the only source of randomness")
	fs.IntVar(&o.seconds, "seconds", 30, "how long one run keeps starting new epochs")
	traceN := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced ladder")
	smoke := fs.Bool("smoke", false, "every workload at 1/50 size, one epoch, both modes")
	repeat := fs.Int("repeat", 0, "run the whole set N times (seeds seed..seed+N-1) and print the stability census as JSON")
	fs.StringVar(&o.outDir, "out", "out", "directory for run dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceN != 0
	o.scale = 1
	if *smoke {
		o.scale, o.seconds = 50, 0
	}

	// One loader thread, closed loop: every caller this models (genioctl,
	// a CI runner) waits for its reply before sending the next request.
	runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer cleanupAll()

	switch {
	case *repeat > 0:
		return runCensus(ctx, o, *repeat)
	case o.workload == "":
		return runAll(ctx, o)
	}
	res, err := runOne(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(environment())
	printTable(os.Stdout, o.workload, o.trace, res)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// daemonProcs is the daemon's GOMAXPROCS: what geniod gets when nobody
// sets it, every core. (A one-P daemon was tried and rejected: its only
// P sits in the WAL committer's fsync until sysmon retakes it, and
// medians swung by a third from run to run.)
func daemonProcs() int { return runtime.NumCPU() }

// runOne runs one workload in one mode under the hang guard.
func runOne(ctx context.Context, o options) (*result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	scaled := w.scaled(o.scale)
	// The guard turns a hang into a failed run: nothing legitimate takes
	// a minute longer than the requested duration.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(o.seconds)*time.Second+60*time.Second)
	defer cancel()
	if o.trace {
		return runTraced(ctx, &scaled, o)
	}
	return runUntraced(ctx, &scaled, o)
}

// runAll is `go run . -seed N`: every workload, untraced then traced,
// every metric by name and unit. Non-zero on any oracle mismatch.
func runAll(ctx context.Context, o options) int {
	fmt.Println(environment())
	code := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o.workload, o.trace = w.Name, trace
			res, err := runOne(ctx, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printTable(os.Stdout, w.Name, trace, res)
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// repeat calls round(0), round(1), ... until the duration is used up.
// A new round starts only if the slowest one so far would still end
// inside it, so a run takes --seconds, not more; there is always one.
func repeat(seconds int, round func(i int) error) error {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var slowest time.Duration
	for i := 0; i == 0 || time.Now().Add(slowest).Before(deadline); i++ {
		start := time.Now()
		if err := round(i); err != nil {
			return err
		}
		if d := time.Since(start); d > slowest {
			slowest = d
		}
	}
	return nil
}

// runUntraced repeats whole epochs until the duration is used up and
// reduces them to the end-to-end metrics.
func runUntraced(ctx context.Context, w *workload, o options) (*result, error) {
	r := &wireRun{w: w, seed: o.seed, outDir: o.outDir}
	var epochs []*epochStats
	err := repeat(o.seconds, func(e int) error {
		st, err := r.epoch(ctx, e)
		if err != nil {
			return fmt.Errorf("%s epoch %d: %w", w.Name, e, err)
		}
		epochs = append(epochs, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return endToEnd(epochs), nil
}

// endToEnd reduces a run's epochs to the end-to-end metrics. Every
// metric is computed per epoch and reported as the median epoch: the
// shared host makes single epochs swing, and an outlier epoch should
// cost one vote, not drag a pooled percentile. The daemon's user CPU is
// the exception: the kernel hands it out in 10 ms ticks, so it is summed
// over the run before it is divided.
func endToEnd(epochs []*epochStats) *result {
	res := &result{Metrics: make(map[string]metric), info: make(map[string]metric)}
	series := make(map[string][]float64)
	add := func(name string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			series[name] = append(series[name], v)
		}
	}
	var userTicks int64
	var handled int
	for _, st := range epochs {
		res.Attempted += st.attempted
		res.Failed += st.failed
		res.mismatches = append(res.mismatches, st.failures...)
		userTicks += st.userTicks
		handled += st.handled
		add("setup_s", st.setupS)
		add("deploy_p50_probes", median(st.deployUs)/median(st.probeUs))
		add("deploys_per_s", float64(st.bulkPlaced)/st.bulkWallS)
		add("watch_lag_p50_ms", median(st.lagMs))
		for _, s := range st.recoverS {
			add("recover_s", s)
		}
		add("daemon_rss_mb", st.rssMB)

		add("deploy_p50_us", median(st.deployUs))
		add("probe_p50_us", median(st.probeUs))
		add("batch_p50_ms", median(st.batchMs))
		add("drain_per_workload_us", median(st.drainUs))
		add("daemon_cpu_us_per_deploy", (st.cpuSyncUs+st.cpuBulkUs)/float64(st.handled))
	}
	add("daemon_user_cpu_us_per_deploy", float64(userTicks)*1e6/clockTick/float64(handled))
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{median(series[m.name]), m.unit}
	}
	for _, m := range []struct{ name, unit string }{
		{"deploy_p50_us", "us"}, {"probe_p50_us", "us"}, {"batch_p50_ms", "ms"},
		{"drain_per_workload_us", "us"}, {"daemon_cpu_us_per_deploy", "us"},
	} {
		res.info[m.name] = metric{median(series[m.name]), m.unit}
	}
	res.info["epochs"] = metric{float64(len(epochs)), "count"}
	finish(res)
	return res
}

// finish settles correctness: any oracle mismatch, and any metric that
// could not be computed (no samples), fails the run.
func finish(res *result) {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.mismatches = append(res.mismatches, "no samples for "+name)
			res.Failed++
			res.Metrics[name] = metric{-1, m.Unit}
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0
}

func printTable(f io.Writer, workload string, traced bool, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "end to end, untraced"
	if traced {
		mode = "per layer, traced"
	}
	fmt.Fprintf(f, "== %s (%s): %d checks, %d failed\n", workload, mode, res.Attempted, res.Failed)
	for _, msg := range res.mismatches {
		fmt.Fprintln(os.Stderr, "MISMATCH", msg)
	}
	for _, n := range names {
		fmt.Fprintf(f, "%-40s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range res.info {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "%-40s %16.4f %s (not gated)\n", n, res.info[n].Value, res.info[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
