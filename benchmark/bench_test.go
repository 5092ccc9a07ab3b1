package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary be its own daemon, the way the
// benchmark binary is: startDaemon re-execs os.Executable().
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == daemonFlag {
		os.Exit(daemonMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func planBytes(t *testing.T, w *workload, seed int64, epoch int) []byte {
	t.Helper()
	data, err := json.Marshal(w.generate(seed, epoch))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The seed is the only source of randomness: same seed, same bytes.
func TestSeedDeterminesOpStream(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := planBytes(t, w, 7, 0)
		if !bytes.Equal(a, planBytes(t, w, 7, 0)) {
			t.Errorf("%s: same seed and epoch gave different op streams", w.Name)
		}
		if bytes.Equal(a, planBytes(t, w, 8, 0)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.Name)
		}
		if bytes.Equal(a, planBytes(t, w, 7, 1)) {
			t.Errorf("%s: epochs 0 and 1 gave the same op stream", w.Name)
		}
	}
}

// Every seed must send the same amount of each kind of work, or seeds
// would differ in cost and the driver's cross-seed spread would measure
// the generator.
func TestClassCountsDoNotDependOnSeed(t *testing.T) {
	type tally struct {
		classes  map[expect]int
		variants int
		refs     int
	}
	count := func(pl *plan) tally {
		c := tally{classes: make(map[expect]int), variants: pl.Fixture.Variants}
		refs := make(map[string]bool)
		for _, op := range pl.Sync {
			c.classes[op.Expect]++
			refs[op.Spec.ImageRef] = true
		}
		c.refs = len(refs)
		return c
	}
	for i := range workloads {
		w := &workloads[i]
		a, b := count(w.generate(1, 0)), count(w.generate(99, 3))
		if a.variants != b.variants || a.refs != b.refs {
			t.Errorf("%s: image counts differ across seeds: %+v vs %+v", w.Name, a, b)
		}
		for _, e := range []expect{expectPlaced, expectAdmission, expectUnsigned, expectPinned} {
			if a.classes[e] != b.classes[e] {
				t.Errorf("%s: %s count differs across seeds: %d vs %d", w.Name, e, a.classes[e], b.classes[e])
			}
		}
		want := map[expect]int{
			expectAdmission: w.Sync * w.Miner / 16,
			expectUnsigned:  w.Sync * w.Unsigned / 16,
			expectPinned:    w.Sync * w.Clash / 16,
		}
		for e, n := range want {
			if a.classes[e] != n {
				t.Errorf("%s: %d %s ops, want %d", w.Name, a.classes[e], e, n)
			}
		}
	}
	cold, _ := workloadByName("sync_cold_scan")
	if got := count(cold.generate(1, 0)).refs; got != cold.Sync*cold.Cold/16+2 {
		t.Errorf("sync_cold_scan: %d distinct images in the sync stream, want one per cold op plus miner and backdoor", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestSmoke is the -smoke pass: every workload at 1/50 size through
// both modes, against real child daemons. It keeps the harness honest —
// every oracle check must hold, every metric of the tables must be
// reported, and the span file must carry every replayed op on every
// rung.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	defer cleanupAll()
	for i := range workloads {
		w := workloads[i].scaled(50)
		o := options{workload: w.Name, seed: 5, seconds: 0, scale: 50, outDir: out}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)

		res, err := runUntraced(ctx, &w, o)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s untraced: %d of %d checks failed: %q", w.Name, res.Failed, res.Attempted, res.mismatches)
		}
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(res.Metrics), len(endToEndMetrics))
		}
		for _, m := range endToEndMetrics {
			got, ok := res.Metrics[m.name]
			// At 1/50 size the daemon's user time may not fill one 10 ms tick.
			positive := got.Value > 0 || (m.name == "daemon_user_cpu_us_per_deploy" && got.Value == 0)
			if !ok || !positive || got.Unit != m.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.Name, m.name, got, m.unit)
			}
		}

		res, err = runTraced(ctx, &w, o)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d checks failed: %q", w.Name, res.Failed, res.Attempted, res.mismatches)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: per-layer metric %s missing or in %q, want %s", w.Name, m.name, got.Unit, m.unit)
			}
		}
		if got := res.Metrics["client.conns_opened"].Value; got != 2 {
			t.Errorf("%s: client opened %v connections, want the request connection and one stream", w.Name, got)
		}
		if got := res.Metrics["events.dropped"].Value; got != 0 {
			t.Errorf("%s: spine dropped %v events under Block", w.Name, got)
		}
		checkSpans(t, filepath.Join(out, "trace-"+w.Name+".jsonl"), w.Sync)
		cancel()
	}
}

// checkSpans reads a span file back: every span closed after it began,
// every parent present, and each replayed op id on all five rungs.
func checkSpans(t *testing.T, path string, ops int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	onRung := make(map[int]map[int]bool) // op -> rungs
	ids := make(map[int]bool)
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
		ids[s.ID] = true
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("%s: span %d names missing parent %d", path, s.ID, s.Parent)
		}
		switch s.Name {
		case "client.deploy", "core.deploy", "orchestrator.deploy", "leaf.deploy":
			if onRung[s.Op] == nil {
				onRung[s.Op] = make(map[int]bool)
			}
			onRung[s.Op][s.Rung] = true
		}
	}
	for op := 0; op < ops; op++ {
		// A region clash is refused above the clusters, so rung 3 has a
		// federation.deploy span for it but no orchestrator.deploy.
		if n := len(onRung[op]); n < 4 {
			t.Fatalf("%s: op %d appears on %d rungs: %v", path, op, n, onRung[op])
		}
	}
}

// An aborted run — here: the guard's context expiring mid-epoch — must
// leave neither a daemon process nor a run directory behind.
func TestAbortedRunLeavesNothingBehind(t *testing.T) {
	out := t.TempDir()
	w := workloads[0].scaled(2)
	r := &wireRun{w: &w, seed: 1, outDir: out}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if _, err := r.epoch(ctx, 0); err == nil {
		t.Fatal("epoch finished inside 150 ms; the abort was not exercised")
	}
	cleanupAll()

	live.Lock()
	procs, dirs := len(live.procs), len(live.dirs)
	live.Unlock()
	if procs != 0 || dirs != 0 {
		t.Errorf("%d daemons and %d run dirs still registered", procs, dirs)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "tmp", "*")); len(left) != 0 {
		t.Errorf("run directories left behind: %v", left)
	}
	// No process anywhere still runs a daemon on this test's directory.
	cmdlines, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, path := range cmdlines {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited meanwhile
		}
		if args := strings.ReplaceAll(string(data), "\x00", " "); strings.Contains(args, daemonFlag) && strings.Contains(args, out) {
			t.Errorf("daemon survived the abort: %s: %s", path, args)
		}
	}
}
